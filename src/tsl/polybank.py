"""Flat polynomial families and the target enumeration.

Two coefficient families feed the block construction:

* `rudin_shapiro(N)` - the +-1 sign sequence from the doubling recursion
  P_{m+1} = P_m + x^(2^m) Q_m, Q_{m+1} = P_m - x^(2^m) Q_m, truncated to
  length N.  Its sampled sup norm stays below 5*sqrt(N).
* `vdlp_star(N)` - the analytic shift of a de la Vallee-Poussin kernel,
  a trapezoid coefficient profile with a long run of exact ones, whose
  circle L^1 norm stays below 3 and interpolates to 3*N^(1/q).

`enumerate_targets` produces the deterministic dense sequence of
Gaussian-rational polynomials together with the bounds l_k and degrees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, product
from typing import Any, Iterator

import numpy as np

from tsl.errors import DomainError
from tsl.series import CoefficientSeries

# denominator of the rational upper bound on sqrt(a^2+b^2)
_SQRT_SCALE = 10**12


@dataclass(frozen=True, eq=False)
class SignedPolynomial:
    """Coefficient vector with entries exactly +-1, at least half of them +1."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coefficients, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.abs(arr) == 1):
            raise DomainError("coefficients must be exactly +1 or -1")
        n = arr.size
        if int((arr == 1).sum()) < -(-n // 2):
            raise DomainError("fewer than ceil(N/2) coefficients equal +1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)


@dataclass(frozen=True, eq=False)
class StarPolynomial:
    """Real coefficients bounded by 1, at least floor(N/4) of them exactly +1."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coefficients, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficients must be a nonempty 1-d sequence")
        if np.any(np.abs(arr) > 1.0):
            raise DomainError("coefficient magnitudes must not exceed 1")
        if int((arr == 1.0).sum()) < len(arr) // 4:
            raise DomainError("fewer than floor(N/4) coefficients equal +1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)


def rudin_shapiro(n_terms: int) -> SignedPolynomial:
    """First `n_terms` signs of the Rudin-Shapiro sequence.

    Runs the doubling recursion up to the next power of two and truncates.
    Partial sums of the sequence stay positive, so the truncation keeps at
    least half of the coefficients equal to +1.
    """
    if n_terms < 1:
        raise DomainError("rudin_shapiro needs N >= 1")
    p = np.array([1], dtype=np.int64)
    q = np.array([1], dtype=np.int64)
    while len(p) < n_terms:
        p, q = np.concatenate([p, q]), np.concatenate([p, -q])
    return SignedPolynomial(p[:n_terms])


def vdlp_star(n_terms: int) -> StarPolynomial:
    """Shifted de la Vallee-Poussin kernel cut or padded to length `n_terms`.

    With n = max(1, floor((N+1)/4)) the kernel occupies indices 0..4n-2:
    the 2n+1 central coefficients are exactly 1 and the flanks taper
    linearly as 2 - |j - (2n-1)|/n.  The profile equals twice the longer
    Fejer kernel minus the shorter one, hence its circle L^1 norm is at
    most 3.  Zero padding goes in front so the degree stays <= N-1.
    """
    if n_terms < 1:
        raise DomainError("vdlp_star needs N >= 1")
    n = max(1, (n_terms + 1) // 4)
    length = 4 * n - 1
    j = np.arange(length, dtype=np.float64)
    profile = np.minimum(1.0, 2.0 - np.abs(j - (2 * n - 1)) / n)
    if n_terms >= length:
        coeffs = np.zeros(n_terms)
        coeffs[n_terms - length :] = profile
    else:
        coeffs = profile[:n_terms]
    return StarPolynomial(coeffs)


@dataclass(frozen=True)
class TargetEntry:
    """One enumerated target: exact coefficients and the bound l_k on their l^1 norm.

    The float image `series` and the degree (index of the last nonzero
    coefficient, 0 for the zero polynomial) are derived from `exact` when
    the entry is made, so they cannot disagree with it.  Each part a/c
    and b/c is correctly rounded (integer true division, the value of
    float(Fraction(a, c))), so a coefficient below the float range reads
    0 and one above it is a DomainError.
    """

    exact: tuple[tuple[int, int, int], ...]  # (a, b, c): (a + b*i)/c per index
    l_bound: int
    series: CoefficientSeries = field(init=False, compare=False, repr=False)
    degree: int = field(init=False)

    def __post_init__(self) -> None:
        try:
            coeffs = np.array([complex(a / c, b / c) for a, b, c in self.exact])
        except OverflowError:
            raise DomainError("a target coefficient exceeds the float range") from None
        object.__setattr__(self, "series", CoefficientSeries(coeffs))
        degree = max((j for j, (a, b, _) in enumerate(self.exact) if a or b), default=0)
        object.__setattr__(self, "degree", degree)


@dataclass(frozen=True)
class TargetEnumeration:
    entries: tuple[TargetEntry, ...]

    def __post_init__(self) -> None:
        prev = 0
        for k, e in enumerate(self.entries, start=1):
            if e.l_bound < prev:
                raise DomainError("l_k must be nondecreasing")
            prev = e.l_bound
            if _l1_upper(e.exact) > e.l_bound:
                raise DomainError(f"l1 norm of target {k} exceeds its bound l_k")

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, k: int) -> TargetEntry:
        """1-indexed access, matching the block-to-target assignment."""
        if not 1 <= k <= len(self.entries):
            raise DomainError(f"target index {k} outside enumeration of length {len(self.entries)}")
        return self.entries[k - 1]

    def to_json_obj(self) -> list[dict[str, Any]]:
        return [
            {
                "k": k,
                "degree": e.degree,
                "l_k": e.l_bound,
                "coefficients": [list(t) for t in e.exact],
            }
            for k, e in enumerate(self.entries, start=1)
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=0, separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: Any) -> "TargetEnumeration":
        """Inverse of `to_json_obj`; any other shape raises DomainError."""
        if not isinstance(obj, list) or not all(_is_target_obj(rec) for rec in obj):
            raise DomainError(
                'targets must be a list of {"degree": d, "l_k": l, "coefficients": [[a, b, c], '
                "...]} with integers, l >= 1 and c >= 1"
            )
        entries = []
        for k, rec in enumerate(obj, start=1):
            try:
                entry = TargetEntry(tuple(tuple(t) for t in rec["coefficients"]), rec["l_k"])
            except DomainError as exc:
                raise DomainError(f"target {k}: {exc}") from None
            if entry.degree != rec["degree"]:
                raise DomainError(f"degree of target {k} disagrees with its coefficients")
            entries.append(entry)
        return cls(tuple(entries))

    @classmethod
    def from_json(cls, text: str) -> "TargetEnumeration":
        return cls.from_json_obj(json.loads(text))


def _is_target_obj(rec: Any) -> bool:
    """Whether `rec` has the shape of one entry of `TargetEnumeration.to_json_obj`."""
    # type(...) is int: JSON true/false load as bool, which subclasses int
    if not isinstance(rec, dict) or not all(type(rec.get(key)) is int for key in ("degree", "l_k")):
        return False
    coeffs = rec.get("coefficients")
    return rec["l_k"] >= 1 and isinstance(coeffs, list) and all(
        isinstance(t, list) and len(t) == 3 and all(type(v) is int for v in t) and t[2] >= 1
        for t in coeffs
    )


def _l1_upper(exact: tuple[tuple[int, int, int], ...]) -> Fraction:
    """Rational upper bound on sum of |a + b*i| / c, above it by less than 1e-12 per term."""
    hi = Fraction(0)
    for a, b, c in exact:
        s = a * a + b * b
        root = math.isqrt(s * _SQRT_SCALE * _SQRT_SCALE)
        hi += Fraction(root + (0 if root * root == s * _SQRT_SCALE * _SQRT_SCALE else 1), c * _SQRT_SCALE)
    return hi


def l1_ceil(exact: tuple[tuple[int, int, int], ...]) -> int:
    """Ceiling of `_l1_upper`: the norm's ceiling, deterministic and decided in rationals.

    A norm less than the bound's slack (1e-12 per term) below an integer reads one more.
    """
    return math.ceil(_l1_upper(exact))


def _zigzag(h: int) -> Iterator[int]:
    """0, 1, -1, 2, -2, ..., +-h."""
    yield 0
    for v in range(1, h + 1):
        yield v
        yield -v


def _coeff_triples(h: int) -> list[tuple[int, int, int]]:
    return [(a, b, c) for a in _zigzag(h) for b in _zigzag(h) for c in range(1, h + 1)]


def _canonical(exact: tuple[tuple[int, int, int], ...]) -> tuple[tuple[Fraction, Fraction], ...]:
    vals = [(Fraction(a, c), Fraction(b, c)) for a, b, c in exact]
    while len(vals) > 1 and vals[-1] == (0, 0):
        vals.pop()
    return tuple(vals)


def enumerate_targets(target_count: int) -> TargetEnumeration:
    """Deterministic diagonal enumeration of Gaussian-rational polynomials.

    Sweeps shells s = d + H; within a shell, degree bound d increases and
    coefficients run over (a + b*i)/c with |a|, |b| <= H, 1 <= c <= H in
    zigzag-lexicographic order.  Duplicates (same rational coefficient
    tuple) are dropped.  The bound is l_k = k + ceil(l1 norm), which is
    nondecreasing and tends to infinity.
    """
    if target_count < 1:
        raise DomainError("enumeration needs count >= 1")
    seen: set[tuple[tuple[Fraction, Fraction], ...]] = set()
    entries: list[TargetEntry] = []
    for shell in count(1):
        for d in range(0, shell):
            h = shell - d
            triples = _coeff_triples(h)
            for tup in product(triples, repeat=d + 1):
                key = _canonical(tup)
                if key in seen:
                    continue
                seen.add(key)
                k = len(entries) + 1
                # k + ceil(l1) alone can dip after a large-norm target;
                # the running max keeps the bounds nondecreasing
                prev = entries[-1].l_bound if entries else 1
                entries.append(TargetEntry(tup, max(prev, k + l1_ceil(tup))))
                if len(entries) == target_count:
                    return TargetEnumeration(tuple(entries))
    raise AssertionError("unreachable")


def index_weighted(series: CoefficientSeries, alpha: float) -> CoefficientSeries:
    """Scale coefficient j by (j+1)**alpha."""
    j = np.arange(len(series.coefficients), dtype=np.float64)
    return CoefficientSeries._adopt(series.coefficients * (j + 1.0) ** alpha)
