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
  take a closed form whose cost does not grow with N
  (`_log_weight_sums`): 1 + ln N at gamma = 0, the geometric sum at
  gamma = 1, and in between an exact float64 head followed by
  Euler-Maclaurin through the f'''/720 term, from the one panel integral
  and the one set of end terms that the planned mean uses too
  (`tsl._util`).  The head ends where the remainder bound, the
  f^(5)/30240 term, falls below 2**-56 of the sum (`_EM_BITS`); against
  40-digit sums and the summed integers the result is off by a few ulps
  at most.
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
  at most `_MEMO_LIMIT` values and is emptied when full, `_em_start` is
  cached per (gamma, `_EM_BITS`), and `clear_memo` empties both.  At
  gamma = 0 every term is exp(0) = 1, so a numerator piece of c members
  adds 1 + ln c to the chain without an array pass: the same bits, since
  c ones sum to c exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from tsl._util import em_end_terms, ln_panel_integrals
from tsl.errors import DomainError

_CHUNK = 1 << 22
_EM_BITS = 56  # Euler-Maclaurin takes over where its remainder bound is below 2**-_EM_BITS
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
    if not np.all((arr >= -_INT64_LIMIT) & (arr < _INT64_LIMIT)):
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
    return np.where(inside, np.clip(first, 1, x), x)


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


def _em_start(gamma: float) -> int:
    """An integer a from which Euler-Maclaurin sums exp(t**gamma), 0 < gamma < 1."""
    return _em_start_at(gamma, _EM_BITS)


@functools.lru_cache(maxsize=256)
def _em_start_at(gamma: float, bits: int) -> int:
    """`_em_start` for a remainder bound of 2**-bits.

    |f^(6)| <= f * P(t) for f = exp(t**gamma), P(t) = prod_{i<6} (g + i/t),
    g = f'/f = gamma t**(gamma-1): the complete Bell polynomial of the
    bounds |(t**gamma)^(j)| <= g (j-1)! / t**(j-1).  P falls in t; a is the
    first point of a quarter-octave grid of integers with
    P(a) <= 30240 * 2**-bits, or 2**63 - 1 where none below it qualifies.
    """
    t = np.ceil(2.0 ** (np.arange(252) / 4.0))  # 1 .. 2**62.75
    g = gamma * t ** (gamma - 1.0)
    bound = np.prod(g + np.arange(6)[:, None] / t, axis=0)
    ok = np.flatnonzero(bound <= 30240.0 * 2.0**-bits)
    return int(t[ok[0]]) if ok.size else _INT64_LIMIT - 1


def _log_weight_sums(gamma: float, horizons: np.ndarray) -> np.ndarray:
    """log of the sum of exp(k**gamma) over k = 1..N, for each int64 horizon N >= 1.

    gamma = 0 gives 1 + ln N and gamma = 1 the geometric sum.  For
    0 < gamma < 1, horizon n sums first = `_first_kept` .. n: the head
    below a = max(first, a_em) term by term, each integer converted from
    int64 on its own, and a .. n by Euler-Maclaurin (`em_end_terms`) on
    f = exp(t**gamma) / f(n), whose remainder is below |f^(5)(n) -
    f^(5)(a)| / 30240 <= 2**-_EM_BITS of the integral (`_em_start`).  The
    integral is n times that of exp(-s - y) over s = ln(n/t) in
    [0, ln(n/a)], y = n**gamma - t**gamma = -n**gamma expm1(-gamma s),
    with no cancellation and no 1/gamma to overflow for tiny gamma; its
    log moves by at most 1 + gamma n**gamma per unit of s
    (`ln_panel_integrals`).  The heads lie end to end, each summed by
    itself (`np.add.reduceat`), and all tails take one panel integral, so
    no horizon's value depends on the others.
    """
    n_f = horizons.astype(np.float64)
    if gamma == 0.0:
        return 1.0 + np.log(n_f)
    if gamma == 1.0:  # e**N (1 - e**-N) / (1 - e**-1)
        return n_f + np.log1p(-np.exp(-n_f)) - math.log1p(-math.exp(-1.0))
    n, top = horizons, n_f**gamma
    first = _first_kept(gamma, n, n)
    a = np.maximum(first, _em_start(gamma))
    tail = a < n
    count = np.where(tail, a - first, n - first + 1)  # the head: first .. first + count - 1
    start = np.cumsum(count) - count
    w = (np.arange(count.sum()) + np.repeat(first - start, count)).astype(np.float64) ** gamma
    w = np.exp(w - np.repeat(top, count))
    total = np.zeros(n.size)
    total[count > 0] = np.add.reduceat(w, start[count > 0])
    if tail.any():
        n, a, top_n = n[tail], a[tail], top[tail]
        s_top = np.log1p((n - a) / a)  # ln(n/a), n - a exact
        ln_integral = ln_panel_integrals(
            lambda s, i: top_n[i] * np.expm1(-gamma * s) - s, s_top, 1.0 + gamma * top_n
        )
        t = np.stack([a, n]).astype(np.float64)
        u1 = gamma * t ** (gamma - 1.0)  # the derivatives of ln f = t**gamma
        u2 = u1 * (gamma - 1.0) / t
        f_a = np.exp(top_n * np.expm1(-gamma * s_top))  # f(a) / f(n)
        through_f1, f3_term = em_end_terms(f_a, 1.0, u1, u2, u2 * (gamma - 2.0) / t)
        total[tail] += n * np.exp(ln_integral) + through_f1 - f3_term
    return top + np.log(total)


def _denominators(gamma: float, horizons: np.ndarray) -> np.ndarray:
    """`_log_weight_sums` through the memo: the horizons it lacks go to one engine call."""
    found = {n: _weight_sums.get((gamma, n, _EM_BITS)) for n in horizons.tolist()}
    missing = [n for n, value in found.items() if value is None]
    if missing:
        values = _log_weight_sums(gamma, np.array(missing, dtype=np.int64)).tolist()
        found.update(zip(missing, values))
        if len(_weight_sums) + len(missing) > _MEMO_LIMIT:
            _weight_sums.clear()
        keys = [(gamma, n, _EM_BITS) for n in missing[:_MEMO_LIMIT]]
        _weight_sums.update(zip(keys, values))
    return np.array([found[n] for n in horizons.tolist()])


def clear_memo() -> None:
    """Empty the denominator memo and the `_em_start` cache."""
    _weight_sums.clear()
    _em_start_at.cache_clear()


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
