"""Weighted upper densities with weights exp(n**gamma), 0 <= gamma <= 1.

All sums are carried as log-sum-exp values: exp(n**gamma) overflows
doubles near n = 700 already for gamma = 1, while the quantities of
interest (prefix ratios) live entirely in exponent differences.  The
limsup itself is not computable; callers report maxima of prefix ratios
along dyadic horizons and label them as such.

Under these weights the mass of [1, N] lives on its last
~N**(1-gamma)/gamma integers, so every sum keeps only the terms whose
weight lies within 40 + ln c of its top weight (`_first_kept`, for a
sum of c terms): together the terms it drops move the log mass by less
than e**-40, below one ulp of any result.  Two routes sum that window.

- The integers 1..N, behind every denominator and `log_weight_sum`,
  go to the progression-sum engine that the planned mean uses too
  (`tsl._util`): the closed form `ln_geometric_sums` at gamma = 0 and 1,
  else `progression_sums`, an exact head and Euler-Maclaurin with a
  remainder below 2**-56 of the sum, at a cost that does not grow with N.
- The members of a set, behind every numerator, take the windowed
  engine `_log_masses`, which walks a profile's cuts in increasing
  order: a cut whose window starts inside the previous cut's terms
  chains onto that cut's running total, any other cut restarts the
  total at its window's first term.
- Each denominator is computed once per process.  `prefix_density_profile`
  reads its denominators through a memo keyed on (gamma, N, `_EM_BITS`)
  and sends all its misses to one engine call; the engine gives each
  horizon the bits it gives that horizon alone, so the memo changes no
  output.  `log_weight_sum` stays on the bare engine.  The memo holds
  at most `_MEMO_LIMIT` values, is emptied when full and by
  `clear_memo`.  At gamma = 0 every term is exp(0) = 1, so a numerator
  piece of c members adds 1 + ln c to the chain without an array pass:
  the same bits, since c ones sum to c exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tsl import _util
from tsl._util import ln_geometric_sums, progression_sums
from tsl.errors import DomainError

_CHUNK = 1 << 22
_INT64_LIMIT = 1 << 63
_MEMO_LIMIT = 1 << 12  # weight sums kept by the denominator memo before it is emptied
_weight_sums: dict[tuple[float, int, int], float] = {}


def _check_gamma(gamma: float) -> None:
    if not (0.0 <= gamma <= 1.0):
        raise DomainError("gamma must lie in [0, 1]")


def _integers(values: object, what: str) -> np.ndarray:
    """`values` as int64.

    A value that is not an integer is a DomainError, not truncated, and so
    is an integer outside int64, not wrapped (numpy holds 2**63 as uint64
    and integers past 64 bits as Python objects).
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "O":
        integral = all(
            isinstance(v, (int, np.integer)) or (isinstance(v, float) and v.is_integer())
            for v in arr.flat
        )
    else:
        integral = arr.dtype.kind in "iu" or (
            arr.dtype.kind == "f" and bool(np.all(np.isfinite(arr) & (arr == np.trunc(arr))))
        )
    if not integral:
        raise DomainError(f"{what} must be integral")
    if arr.dtype != np.int64 and not np.all((arr >= -_INT64_LIMIT) & (arr < _INT64_LIMIT)):  # int64 always fits
        raise DomainError(f"{what} must lie in [-2**63, 2**63), the int64 range")
    return arr.astype(np.int64)


@dataclass(frozen=True, eq=False)
class PrefixSet:
    """Finite surrogate of an integer set: sorted members inside [1, n_max]."""

    members: np.ndarray
    n_max: int

    def __post_init__(self) -> None:
        n_max = int(_integers(self.n_max, "n_max"))
        arr = _integers(self.members, "members")
        if arr.ndim != 1:
            raise DomainError("members must be 1-d")
        if np.any(arr[1:] <= arr[:-1]):  # not np.diff, which wraps past int64
            raise DomainError("members must be strictly increasing")
        if arr.size and (arr[0] < 1 or arr[-1] > n_max):
            raise DomainError("members must lie in [1, n_max]")
        arr.flags.writeable = False
        object.__setattr__(self, "members", arr)
        object.__setattr__(self, "n_max", n_max)


def _first_kept(gamma: float, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The first integer the cut after c terms still sums, x its c-th term, for int64 arrays.

    The terms before it weigh less than exp(x**gamma - 40 - ln c), and
    there are fewer than c of them, so together they change the log mass
    by less than e**-40.  The first integer kept sits 2 below the root of
    that threshold, a margin against its rounding, and never past x itself
    (near 2**63 that rounding exceeds 2).
    """
    if gamma == 0.0:  # the threshold is below 0: every term is kept
        return np.ones_like(x)
    x_f = x.astype(np.float64)
    root = np.maximum(x_f**gamma - 40.0 - np.log(c), 0.0) ** (1.0 / gamma)
    inside = root < x_f
    first = np.where(inside, root, 0.0).astype(np.int64) - 2
    return np.where(inside, np.minimum(np.maximum(first, 1), x), x)


def _log_masses(gamma: float, cuts: np.ndarray, members: np.ndarray) -> np.ndarray:
    """log of the sum of exp(x**gamma) over the first c members x, for each cut c.

    The cuts come in any order, repeats allowed.  Each cut sums only its window,
    from `_first_kept` to c, so a cut of zero terms gives -inf.  The
    sorted cuts are walked once: a cut whose window starts at or below the
    previous cut adds the terms between the two cuts to that cut's running
    total (whatever the previous cut dropped lies below this cut's bound
    too), any other cut restarts the total at its window start.  Terms go
    in pieces of at most _CHUNK, each shifted by its own maximum, never a
    global one (at gamma = 1 the weights span e**(2**22)), and the pieces
    are chained by a running logaddexp (the online-normalizer trick).
    """
    cuts = np.asarray(cuts, dtype=np.int64)
    sorted_cuts = np.array(sorted(set(cuts.tolist())), dtype=np.int64)  # np.unique imports numpy.ma
    live = sorted_cuts[sorted_cuts > 0]
    starts = np.searchsorted(members, _first_kept(gamma, members[live - 1], live))
    masses = np.full(sorted_cuts.size, -math.inf)
    prev, total = 0, -math.inf
    for i, c, start in zip(range(sorted_cuts.size - live.size, sorted_cuts.size), live.tolist(), starts):
        if start > prev:
            prev, total = start, -math.inf
        for lo in range(prev, c, _CHUNK):
            hi = min(lo + _CHUNK, c)
            if gamma == 0.0:  # each term is exp(1 - 1) = 1 after the shift, and they sum to hi - lo
                piece = 1.0 + math.log(float(hi - lo))
            else:
                w = members[lo:hi].astype(np.float64)
                np.power(w, gamma, out=w)
                m = float(w[-1])  # the terms are sorted: the piece's maximum, up to rounding
                w -= m
                np.exp(w, out=w)
                piece = m + math.log(float(w.sum()))
            total = float(np.logaddexp(total, piece))
        masses[i] = total
        prev = c
    return masses[np.searchsorted(sorted_cuts, cuts)]


def _log_weight_sums(gamma: float, horizons: np.ndarray) -> np.ndarray:
    """log of the sum of exp(k**gamma) over k = 1..N, for each int64 horizon N >= 1.

    At gamma = 0 and 1 ln f is linear: `ln_geometric_sums` sums all N terms,
    e**1 each or e**N times the geometric series in e**-1.  Otherwise horizon
    n sums first = `_first_kept` .. n as one item of one `progression_sums`
    call in offset form, t**gamma - first**gamma = first**gamma expm1(gamma
    w), w = ln(t / first), so no two large powers are subtracted.
    """
    if gamma in (0.0, 1.0):
        n = horizons.astype(np.float64)
        return ln_geometric_sums(n**gamma, np.full(n.size, gamma), gamma * n, np.log(n))
    first = _first_kept(gamma, horizons, horizons)
    base = first.astype(np.float64) ** gamma

    def phi(w, i):  # t**gamma - first**gamma
        return base[i] * np.expm1(gamma * w)

    def dphi(w, i):  # (t**gamma)' = gamma t**gamma in w
        slope = gamma * base[i] * np.exp(gamma * w)
        return slope, gamma * slope, gamma * gamma * slope

    unit, total, _, _ = progression_sums(phi, dphi, first, 1, horizons - first + 1, horizons.size)
    return base + (unit + np.log(total))


def _denominators(gamma: float, horizons: np.ndarray) -> np.ndarray:
    """`_log_weight_sums` through the memo: the horizons it lacks go to one engine call."""
    found = {n: _weight_sums.get((gamma, n, _util._EM_BITS)) for n in horizons.tolist()}
    missing = [n for n, value in found.items() if value is None]
    if missing:
        values = _log_weight_sums(gamma, np.array(missing, dtype=np.int64)).tolist()
        found.update(zip(missing, values))
        if len(_weight_sums) + len(missing) > _MEMO_LIMIT:
            _weight_sums.clear()
        keys = [(gamma, n, _util._EM_BITS) for n in missing[:_MEMO_LIMIT]]
        _weight_sums.update(zip(keys, values))
    return np.array([found[n] for n in horizons.tolist()])


def clear_memo() -> None:
    """Empty the denominator memo."""
    _weight_sums.clear()


def log_weight_sum(n: int, gamma: float) -> float:
    """log of sum_{k=1..n} exp(k**gamma), never materialized in linear scale."""
    n = int(_integers(n, "prefix length"))
    if n < 1:
        raise DomainError("prefix length must be >= 1")
    _check_gamma(gamma)
    return float(_log_weight_sums(gamma, np.array([n]))[0])


def prefix_density_profile(
    prefix_set: PrefixSet, gamma: float, horizons: list[int]
) -> list[tuple[int, float, float, float]]:
    """Rows (N, ratio, log_num, log_den) for each horizon, in input order.

    The closed form, read through the memo, gives every denominator, one
    engine pass over the members, cut at the member counts, every numerator.  Each log is held to
    one ulp of N**gamma, so past N**gamma = 2**40 or so a ratio loses precision:
    at gamma = 0.9 the separating set reads e**-0.5, 1 or e**-4 for about 0.6
    at N = 2**54 .. 2**60.
    """
    _check_gamma(gamma)
    h = _integers(horizons, "horizons")
    bad = (h > prefix_set.n_max) | (h < 1)
    if bad.any():
        n = int(h[np.argmax(bad)])
        if n > prefix_set.n_max:
            raise DomainError(f"horizon {n} exceeds the set's n_max {prefix_set.n_max}")
        raise DomainError("horizon must be >= 1")
    members = prefix_set.members
    log_den = _denominators(gamma, h)
    log_num = _log_masses(gamma, np.searchsorted(members, h, "right"), members)
    out = []
    for n, num, den in zip(h.tolist(), log_num.tolist(), log_den.tolist()):
        out.append((n, min(1.0, math.exp(num - den)), num, den))
    return out


def separating_set(gamma: float, n_max: int) -> PrefixSet:
    """Dyadic-tail set with positive gamma-density and vanishing density below.

    Union of the integer intervals [2**n - floor(2**(n*(1-gamma))), 2**n]
    over n > 1/gamma, clipped to [1, n_max]; for gamma = 1 the intervals
    degenerate to the dyadic points themselves.  The intervals are disjoint
    and increasing: n > 1/gamma gives (n+1)(1-gamma) < n, so the next one
    starts past 2**n, and their concatenation is already sorted.
    """
    if not (0.0 < gamma <= 1.0):
        raise DomainError("separating_set requires 0 < gamma <= 1")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if gamma == 1.0:
        powers = []
        p = 2
        while p <= n_max:
            powers.append(p)
            p <<= 1
        return PrefixSet(np.array(powers, dtype=np.int64), n_max)
    if 1.0 / gamma >= int(n_max).bit_length():  # every interval starts past n_max
        return PrefixSet(np.array([], dtype=np.int64), n_max)
    pieces = []
    n = int(1.0 / gamma) + 1
    while True:
        width = int(math.floor(2.0 ** (n * (1.0 - gamma))))
        lo = (1 << n) - width
        if lo > n_max:
            break
        hi = min(1 << n, n_max)
        pieces.append(np.arange(max(1, lo), hi + 1, dtype=np.int64))
        n += 1
    if not pieces:
        return PrefixSet(np.array([], dtype=np.int64), n_max)
    return PrefixSet(np.concatenate(pieces), n_max)
