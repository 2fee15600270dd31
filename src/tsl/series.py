"""Truncated Taylor series and the weighted coefficient shift.

A series (`CoefficientSeries`) is a dense, immutable vector of complex
coefficients; index j holds the z^j coefficient.  The shift acts by

    (T f)_j = a_{j+1} * (1 + 1/(j+1))**alpha,

`apply_shift` is one step, and the n-th power collapses the weight
product by telescoping to ((j+n+1)/(j+1))**alpha, which is what
`apply_shift_power` evaluates.  The module holds coefficients only: the
values of a series on a circle come from `means.circle_mean`.

A series file is the JSON object

    {"max_degree": N, "terms": [[j, re, im], ...]}

listing only the nonzero coefficients a_j = re + im*i, with j strictly
increasing in [0, N]; every other coefficient up to z**N is zero.  Block
constructions are lacunary, so the terms are a small fraction of the
N + 1 coefficients.  A zero coefficient stored as -0.0 reads back as
+0.0; every other value round-trips exactly.  This module
is the only one that knows the layout.

The reader and `constructor.construct` allocate all N + 1 coefficients
via `zero_coefficients`: an N above MAX_SERIES_DEGREE = 2**24 (16 times
the largest degree built) is a DomainError before anything is allocated.
`construct` hands its array to its series uncopied, so pages no block
wrote stay unallocated; the shifts and `polybank.index_weighted` hand
over their fresh products the same way.  `construct`'s array is also
adopted unscanned: its builder checks every row it writes for
finiteness, and every other entry is a zero, so a second finiteness
scan could not fail and would read every page.  The products of the
shifts and `index_weighted` can overflow, and the public constructor
and the reader take values from outside, so those are scanned.  The
reader copies, because freeing its source raises glibc's mmap threshold
and keeps later FFT scratch on the heap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from tsl.errors import DomainError

MAX_SERIES_DEGREE = 1 << 24  # largest max_degree a series file or construction may name


@dataclass(frozen=True)
class ShiftParams:
    """Exponent of the shift weights (1 + 1/n)**alpha."""

    alpha: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha):
            raise DomainError("alpha must be finite")


@dataclass(frozen=True, eq=False)
class CoefficientSeries:
    """Finite Taylor series at 0; length is always max_degree + 1.

    Trailing zeros are kept, never trimmed, so the carried degree is part
    of the value.  Coefficients must be finite.
    """

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coefficients, dtype=np.complex128)  # a copy: the caller keeps theirs
        object.__setattr__(self, "coefficients", _sealed(arr))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "CoefficientSeries":
        """The series of a complex128 array that nothing else references, taken without a copy."""
        return cls._adopt_finite(_sealed(arr))

    @classmethod
    def _adopt_finite(cls, arr: np.ndarray) -> "CoefficientSeries":
        """`_adopt` without the scan, for a nonempty 1-d array whose builder checked every value.

        The array is only made read-only.
        """
        arr.flags.writeable = False
        series = object.__new__(cls)
        object.__setattr__(series, "coefficients", arr)
        return series

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def zero(cls, max_degree: int = 0) -> "CoefficientSeries":
        return cls(np.zeros(max_degree + 1, dtype=np.complex128))

    def to_json_obj(self) -> dict[str, Any]:
        """The series file object: {"max_degree": N, "terms": [[j, re, im], ...]}.

        `terms` holds the nonzero coefficients only, j strictly increasing;
        `max_degree` carries the trailing zeros.
        """
        a = self.coefficients
        j = np.flatnonzero(a)
        nz = a[j]
        terms = [list(t) for t in zip(j.tolist(), nz.real.tolist(), nz.imag.tolist())]
        return {"max_degree": self.max_degree, "terms": terms}

    @classmethod
    def from_json_obj(cls, obj: Any) -> "CoefficientSeries":
        """Inverse of `to_json_obj`; any other shape raises DomainError."""
        if not isinstance(obj, dict) or "max_degree" not in obj or "terms" not in obj:
            raise DomainError(
                'a series must be {"max_degree": N, "terms": [[j, re, im], ...]}; '
                "rebuild older dense files with tsl construct"
            )
        max_degree, terms = obj["max_degree"], obj["terms"]
        # type(...) is int: JSON true/false load as bool, which subclasses int
        if type(max_degree) is not int or max_degree < 0:
            raise DomainError("max_degree must be an integer >= 0")
        if not isinstance(terms, list) or not all(
            isinstance(t, list) and len(t) == 3 and type(t[0]) is int
            and type(t[1]) in (int, float) and type(t[2]) in (int, float) for t in terms
        ):
            raise DomainError("each series term must be [j, re, im] with an integer j")
        if not all(0 <= t[0] <= max_degree for t in terms):
            raise DomainError(f"term indices must lie in [0, max_degree = {max_degree}]")
        j = np.array([t[0] for t in terms], dtype=np.int64)
        if np.any(np.diff(j) <= 0):
            raise DomainError("term indices must be strictly increasing")
        try:
            values = np.array([t[1:] for t in terms], dtype=np.float64).reshape(-1, 2)
        except OverflowError as exc:
            raise DomainError("term values must be finite") from exc
        coeffs = zero_coefficients(max_degree)
        coeffs.real[j] = values[:, 0]
        coeffs.imag[j] = values[:, 1]
        return cls(coeffs)


def _sealed(arr: np.ndarray) -> np.ndarray:
    """`arr` itself, made read-only, once it is a nonempty, finite 1-d complex128 array."""
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("coefficients must be a nonempty 1-d sequence")
    if not np.isfinite(arr.view(np.float64)).all():
        raise DomainError("coefficients must be finite")
    arr.flags.writeable = False
    return arr


def zero_coefficients(max_degree: int) -> np.ndarray:
    """A writable zero coefficient array up to z**max_degree, for a reader or builder to fill.

    A max_degree above MAX_SERIES_DEGREE is a DomainError, raised before allocating.
    """
    if max_degree > MAX_SERIES_DEGREE:
        raise DomainError(f"max_degree {max_degree} exceeds the series limit {MAX_SERIES_DEGREE}")
    return np.zeros(max_degree + 1, dtype=np.complex128)


def apply_shift(series: CoefficientSeries, params: ShiftParams) -> CoefficientSeries:
    """One application of the weighted shift; constants map to the zero series."""
    a = series.coefficients
    if len(a) == 1:
        return CoefficientSeries.zero(0)
    j = np.arange(len(a) - 1, dtype=np.float64)
    w = ((j + 2.0) / (j + 1.0)) ** params.alpha
    return CoefficientSeries._adopt(a[1:] * w)


def apply_shift_power(
    series: CoefficientSeries, n: int, params: ShiftParams, length: int | None = None
) -> CoefficientSeries:
    """n-th shift power via the telescoped weight ((j+n+1)/(j+1))**alpha.

    The closed form avoids accumulating n rounding errors; n = 0 returns
    the input unchanged.  `length` keeps only the first `length`
    coefficients of the result, so a window of a long orbit costs only
    its own length.
    """
    if n < 0:
        raise DomainError("shift power must be >= 0")
    if length is not None and length < 1:
        raise DomainError("length must be >= 1")
    a = series.coefficients
    if n >= len(a):
        return CoefficientSeries.zero(0)
    stop = len(a) if length is None else min(len(a), n + length)
    if n == 0:
        return series if stop == len(a) else CoefficientSeries(a[:stop])
    j = np.arange(stop - n, dtype=np.float64)
    w = ((j + n + 1.0) / (j + 1.0)) ** params.alpha
    return CoefficientSeries._adopt(a[n:stop] * w)
