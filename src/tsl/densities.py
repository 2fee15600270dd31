"""Weighted upper densities with weights exp(n**gamma), 0 <= gamma <= 1.

All sums are carried as log-sum-exp values: exp(n**gamma) overflows
doubles near n = 700 already for gamma = 1, while the quantities of
interest (prefix ratios) live entirely in exponent differences.  The
limsup itself is not computable; callers report maxima of prefix ratios
along dyadic horizons and label them as such.

Every such sum comes from one engine, `_log_masses`, which walks a
profile's cuts in increasing order; `log_weight_sum` and
`prefix_density` are its one-cut cases.  Under these weights the mass of
[1, N] lives on its last ~N**(1-gamma)/gamma integers, so for each cut
the engine sums only the terms whose weight lies within 40 + ln c of the
cut's top weight: together the terms it drops move the log mass by less
than e**-40, below one ulp of any result.  A cut whose window starts
inside the previous cut's terms chains onto that cut's running total;
any other cut restarts the total at its window's first term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tsl.errors import DomainError

_CHUNK = 1 << 22


def _check_gamma(gamma: float) -> None:
    if not (0.0 <= gamma <= 1.0):
        raise DomainError("gamma must lie in [0, 1]")


def _integers(values: object, what: str) -> np.ndarray:
    """`values` as int64; a value that is not an integer is a DomainError, not truncated."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and not (
        arr.dtype.kind == "f" and np.all(np.isfinite(arr) & (arr == np.trunc(arr)))
    ):
        raise DomainError(f"{what} must be integral")
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
        if arr.size:
            if arr[0] < 1 or arr[-1] > n_max:
                raise DomainError("members must lie in [1, n_max]")
            if np.any(np.diff(arr) <= 0):
                raise DomainError("members must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "members", arr)
        object.__setattr__(self, "n_max", n_max)


def _window_start(gamma: float, c: int, members: np.ndarray | None) -> int:
    """Index of the first term the cut after c terms still sums.

    The terms before it weigh less than exp(x_c**gamma - 40 - ln c), where
    x_c is the c-th term, and there are fewer than c of them, so together
    they change the log mass by less than e**-40.  The first integer kept
    sits 2 below the root of that threshold, a margin against its rounding.
    """
    x = c if members is None else int(members[c - 1])
    threshold = x**gamma - 40.0 - math.log(c)
    if threshold <= 0.0:  # always at gamma = 0
        return 0
    first = max(1, int(threshold ** (1.0 / gamma)) - 2)  # the first integer kept
    return first - 1 if members is None else int(np.searchsorted(members, first))


def _log_masses(gamma: float, cuts: np.ndarray, members: np.ndarray | None = None) -> np.ndarray:
    """log of the sum of exp(x**gamma) over the first c terms x, for each cut c.

    The terms are the integers 1, 2, ... or the sorted members; the cuts
    come in any order, repeats allowed.  Each cut sums only its window,
    from `_window_start` to c, so a cut of zero terms gives -inf.  The
    sorted cuts are walked once: a cut whose window starts at or below the
    previous cut adds the terms between the two cuts to that cut's running
    total (whatever the previous cut dropped lies below this cut's bound
    too), any other cut restarts the total at its window start.  Terms go
    in pieces of at most _CHUNK, each shifted by its own maximum, never a
    global one (at gamma = 1 the weights span e**(2**22)), and the pieces
    are chained by a running logaddexp (the online-normalizer trick).
    """
    cuts = np.asarray(cuts, dtype=np.int64)
    sorted_cuts = sorted(set(cuts.tolist()))
    masses = np.full(len(sorted_cuts), -math.inf)
    prev, total = 0, -math.inf
    for i, c in enumerate(sorted_cuts):
        if c == 0:
            continue
        start = _window_start(gamma, c, members)
        if start > prev:
            prev, total = start, -math.inf
        for lo in range(prev, c, _CHUNK):
            hi = min(lo + _CHUNK, c)
            if members is None:
                w = np.arange(lo + 1, hi + 1, dtype=np.float64)
            else:
                w = members[lo:hi].astype(np.float64)
            np.power(w, gamma, out=w)
            m = float(w[-1])  # the terms are sorted: the piece's maximum, up to rounding
            w -= m
            np.exp(w, out=w)
            total = float(np.logaddexp(total, m + math.log(float(w.sum()))))
        masses[i] = total
        prev = c
    return masses[np.searchsorted(sorted_cuts, cuts)]


def log_weight_sum(n: int, gamma: float) -> float:
    """log of sum_{k=1..n} exp(k**gamma), never materialized in linear scale."""
    n = int(_integers(n, "prefix length"))
    if n < 1:
        raise DomainError("prefix length must be >= 1")
    _check_gamma(gamma)
    return float(_log_masses(gamma, [n])[0])


def prefix_density(prefix_set: PrefixSet, gamma: float, n: int) -> float:
    """Weighted mass of the set inside [1, n] over the full weighted mass."""
    return prefix_density_profile(prefix_set, gamma, [n])[0][1]


def prefix_density_profile(
    prefix_set: PrefixSet, gamma: float, horizons: list[int]
) -> list[tuple[int, float, float, float]]:
    """Rows (N, ratio, log_num, log_den) for each horizon, in input order.

    One engine pass over the integers gives every denominator, one pass
    over the members, cut at the member counts, every numerator.
    """
    _check_gamma(gamma)
    h = _integers(horizons, "horizons")
    for n in h:
        if n > prefix_set.n_max:
            raise DomainError(f"horizon {n} exceeds the set's n_max {prefix_set.n_max}")
        if n < 1:
            raise DomainError("horizon must be >= 1")
    members = prefix_set.members
    log_den = _log_masses(gamma, h)
    log_num = _log_masses(gamma, np.searchsorted(members, h, "right"), members)
    out = []
    for n, num, den in zip(h.tolist(), log_num.tolist(), log_den.tolist()):
        ratio = 0.0 if num == -math.inf else min(1.0, math.exp(num - den))
        out.append((n, ratio, num, den))
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
