"""Runnable oracles for the power-sum and summation-by-parts bounds, and the orbit-visit checker.

The inequality oracles evaluate both sides of their statements literally,
with no algebraic simplification, so a failure indicts the implementation
rather than the statement.  Each public oracle validates its input, which
comes from outside, then calls its private verdict core; the random
suites build admissible instances by construction and hand each one
straight to the core.  The paper's lacunary lemma has no oracle
here: `repro`'s critical check reads it off a block plan's L^2 profile.
`check_visit` measures how far an orbit point of the shift lands from
its target polynomial on the target's test circle, and adds an explicit
bound for the part of the orbit lost to truncation instead of pretending
the finite series is the infinite one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Optional

import numpy as np

from tsl.constructor import ConstructionSpec, iter_plan
from tsl.errors import DomainError
from tsl.means import circle_mean, effective_degree
from tsl.polybank import TargetEnumeration, index_weighted
from tsl.series import CoefficientSeries, ShiftParams, apply_shift_power

_REL_GUARD = 1e-9  # tolerance for pure floating-point noise in literal comparisons
_POWER_SUM_N_MAX = 10_000  # largest n of a power-sum suite instance
_ABEL_MAX_LEN = 2000  # longest sequence of an Abel suite instance


@dataclass(frozen=True)
class OracleVerdict:
    holds: bool
    margin: float
    witness: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.holds and self.witness is not None:
            raise DomainError("witness only accompanies a violation")
        if not self.holds and self.witness is None:
            raise DomainError("violations must carry a witness")


def power_sum_lower_bound(members: np.ndarray, n: int, gamma: float) -> OracleVerdict:
    """Check sum over the subset of (k+1)**gamma against its integral minorant.

    `members` is strictly increasing.  The two displayed bounds split at
    gamma = 0; both degenerate at gamma = -1 (division by gamma + 1).
    """
    if not math.isfinite(gamma) or gamma == -1.0:
        raise DomainError("gamma must be finite and not -1, where the statement divides by 0")
    members = np.asarray(members, dtype=np.int64)
    if members.ndim != 1 or (members[1:] <= members[:-1]).any():
        raise DomainError("members must be a strictly increasing sequence")
    if members.size and (members[0] < 1 or members[-1] > n):
        raise DomainError("subset must lie in {1, ..., N}")
    return _power_sum_verdict(members, n, gamma)


def _power_sum_verdict(members: np.ndarray, n: int, gamma: float) -> OracleVerdict:
    """`power_sum_lower_bound`'s two sides on an int64 `members` it would accept."""
    count = members.size
    lhs = float(((members.astype(np.float64) + 1.0) ** gamma).sum())
    if gamma >= 0.0:
        rhs = ((count + 1.0) ** (gamma + 1.0) - 1.0) / (gamma + 1.0)
    else:
        rhs = ((n + 2.0) ** (gamma + 1.0) / (gamma + 1.0)) * (
            1.0 - (1.0 - count / (n + 2.0)) ** (gamma + 1.0)
        )
    margin = lhs - rhs
    holds = margin >= -_REL_GUARD * max(1.0, abs(rhs))
    witness = None if holds else {"n": n, "gamma": gamma, "count": int(count), "lhs": lhs, "rhs": rhs}
    return OracleVerdict(holds=holds, margin=margin, witness=witness)


def abel_minorant(
    u: np.ndarray, v: np.ndarray, subseq: np.ndarray
) -> OracleVerdict:
    """Check the summation-by-parts lower bound along an index subsequence.

    `u`, `v` are 1-indexed finite nonnegative sequences (v nonincreasing),
    and `subseq` is N_0 < N_1 < ... < N_l inside [1, len].  Both sides of

        sum_{k=N_0+1}^{N_l} u_k v_k  >=  S_{N_l} v_{N_l} - S_{N_0} v_{N_0}
            + sum_j S_{N_{j-1}} (v_{N_{j-1}} - v_{N_j})

    are evaluated literally, with S the running sum of u.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    subseq = np.asarray(subseq, dtype=np.int64)
    if len(u) != len(v):
        raise DomainError("u and v must have equal length")
    if len(subseq) < 2 or (subseq[1:] <= subseq[:-1]).any():
        raise DomainError("need a strictly increasing subsequence N_0 < ... < N_l")
    if subseq[0] < 1 or subseq[-1] > len(u):
        raise DomainError("subsequence indices must lie in [1, len]")
    if not (np.isfinite(u).all() and np.isfinite(v).all()) or u.min() < 0 or v.min() < 0:
        raise DomainError("sequences must be finite and nonnegative")
    if (v[1:] > v[:-1]).any():
        raise DomainError("v must be nonincreasing")
    return _abel_verdict(u, v, subseq)


def _abel_verdict(u: np.ndarray, v: np.ndarray, subseq: np.ndarray) -> OracleVerdict:
    """`abel_minorant`'s two sides on float64 `u`, `v` and int64 `subseq` it would accept."""
    s = u.cumsum()  # s[i] = S_{i+1}
    n0, nl = int(subseq[0]), int(subseq[-1])
    lhs = float((u[n0:nl] * v[n0:nl]).sum())
    rhs = float(s[nl - 1] * v[nl - 1] - s[n0 - 1] * v[n0 - 1])
    prev, nxt = subseq[:-1] - 1, subseq[1:] - 1
    rhs += float((s[prev] * (v[prev] - v[nxt])).sum())
    margin = lhs - rhs
    holds = margin >= -_REL_GUARD * max(1.0, abs(rhs))
    witness = None if holds else {"len": len(u), "subseq": subseq.tolist(), "lhs": lhs, "rhs": rhs}
    return OracleVerdict(holds=holds, margin=margin, witness=witness)


def _first_block(spec: ConstructionSpec, s: int) -> int:
    """The first block number n whose interval reaches index s.

    Block n ends at 2**base_exponent(n + 1) - 1, which is >= s once
    2**base_exponent(n + 1) > s, that is once base_exponent(n + 1) >= the
    bit length of s.
    """
    bits = int(s).bit_length()
    return next(n for n in count() if spec.base_exponent(n + 1) >= bits)


def truncation_tail_bound(
    spec: ConstructionSpec,
    targets: TargetEnumeration,
    s: int,
    radius: float,
    cut: int,
) -> float:
    """Bound on the orbit coordinates the sampled window [s, cut) misses.

    The series is truncated at spec.max_degree; with cut = max_degree + 1
    the window is everything it holds.  Two parts of the planned function
    fall outside it: coefficients of built blocks at indices >= cut, and
    blocks the truncation dropped whole, from index s on.  For each such
    block the bound is an envelope max|c| * (i - s + 1)**(-alpha) *
    radius**(i - s) over the block's occupied indices i; blocks beyond the
    radius' reach add hard zeros and stop the scan.  The scan starts at the
    first block that reaches s (earlier ones miss nothing), found from
    `spec.base_exponent` alone, and never reads the series' coefficients.
    A radius outside [0, 1) is a DomainError.
    """
    if not 0 <= s < cut <= spec.max_degree + 1:
        raise DomainError("need 0 <= s < cut <= max_degree + 1")
    if not 0.0 <= radius < 1.0:
        raise DomainError(f"radius must lie in [0, 1) (got {radius})")
    if radius == 0.0:
        return 0.0
    first = _first_block(spec, s)
    log_rho = math.log(radius)
    # a block from `stop` on adds at most e**-745 of its envelope; int < float compares exactly
    stop = max(cut, s - 745.0 / log_rho)
    total = 0.0
    for rec in iter_plan(spec, targets, first):
        if rec.lo >= stop:
            break
        if not rec.built:
            continue
        assert rec.k is not None and rec.gate is not None and rec.budget is not None
        entry = targets.entry(rec.k)
        span_end = rec.lo + rec.gate * (rec.budget - 1) + entry.degree
        # a block the series holds is missed from the cut on; a dropped one
        # from s on (its coefficients below max_degree are zeros in the series)
        start = max(rec.lo, s) if rec.hi > spec.max_degree else max(rec.lo, cut)
        if start > span_end:
            continue
        weighted = index_weighted(entry.series, spec.alpha).coefficients
        c_max = float(np.max(np.abs(weighted)))
        if c_max == 0.0:
            continue
        # row t >= 1 of the gate-strided support after the one holding
        # `start` begins at least gate*t - degree past it (exactly gate*t
        # when start is the block's first index)
        head = (start - s - (entry.degree if start > rec.lo else 0)) * log_rho
        if head < -745.0:
            continue
        x = math.exp(rec.gate * log_rho)
        geo = min(float(rec.budget), 1.0 / (1.0 - x)) if x < 1.0 else float(rec.budget)
        if spec.alpha >= 0:
            env = (start - s + 1.0) ** (-spec.alpha)
        else:
            env = (span_end - s + 1.0) ** (-spec.alpha)
        total += c_max * (entry.degree + 1) * env * math.exp(head) * geo
    return total


def check_visit(
    f: CoefficientSeries,
    spec: ConstructionSpec,
    targets: TargetEnumeration,
    k: int,
    s: int,
) -> float:
    """Sup distance of the s-th orbit point from target k on its test circle.

    The test circle has radius 1 - 1/l_k.  Only the shift window
    [s, s + D] of f enters, D the effective degree of that radius
    (`means.effective_degree`): its closed-form shift power minus the
    target, coefficient by coefficient, is reduced once by
    `means.circle_mean` at p = infinity, on N = 8 * next_pow2(D + 1)
    equispaced points (N / g of them computed where every nonzero index
    of that gap is one residue mod a power of two g), so N > pi * D and
    the sampled maximum is within the Bernstein factor 1 / (1 - pi * D /
    N) of the sup.  The result is the sampled maximum of
    |orbit - target| plus `truncation_tail_bound` from
    min(s + D + 1, max_degree + 1) on, which covers both the coefficients
    past the window and the blocks the truncation dropped.  A series whose
    degree is not spec.max_degree is a DomainError: its window and that
    tail would describe two different functions.
    """
    if f.max_degree != spec.max_degree:
        raise DomainError(f"series degree {f.max_degree} is not the spec's max_degree {spec.max_degree}")
    if not 0 <= s <= f.max_degree:
        raise DomainError("visit time must lie in [0, series degree]")
    entry = targets.entry(k)
    radius = 1.0 - 1 / entry.l_bound  # int division: an l past the float range gives radius 1
    if radius == 1.0:
        raise DomainError(f"the test radius 1 - 1/l at l = {entry.l_bound} rounds to 1")
    window = effective_degree(radius, f.max_degree - s) + 1
    orbit = apply_shift_power(f, s, ShiftParams(spec.alpha), length=window).coefficients
    target = entry.series.coefficients
    gap = np.zeros(max(len(orbit), len(target)), dtype=np.complex128)
    gap[: len(orbit)] = orbit
    gap[: len(target)] -= target
    return circle_mean(gap, math.inf, radius) + truncation_tail_bound(spec, targets, s, radius, s + window)


def run_power_sum_suite(n_instances: int, master_seed: int) -> list[OracleVerdict]:
    """Randomized instances of the power-sum bound; gamma in [-0.9, 3].

    One PCG64(master_seed) draws every n, density and gamma, then each subset
    in instance order: a seed names other instances than per-instance seeds did.
    Each instance goes to the verdict core without `power_sum_lower_bound`'s
    validation, which it meets by construction: members are `flatnonzero` + 1
    inside {1, ..., n}, strictly increasing, and gamma is finite and > -1.
    """
    rng = np.random.Generator(np.random.PCG64(master_seed))
    ns = rng.integers(1, _POWER_SUM_N_MAX + 1, size=n_instances).tolist()
    densities, gammas = rng.uniform([0.0, -0.9], [1.0, 3.0], size=(n_instances, 2)).T.tolist()
    return [
        _power_sum_verdict(np.flatnonzero(rng.random(n) < density) + 1, n, gamma)
        for n, density, gamma in zip(ns, densities, gammas)
    ]


def run_abel_suite(n_instances: int, master_seed: int) -> list[OracleVerdict]:
    """Randomized instances of the summation-by-parts bound, drawn as in `run_power_sum_suite`.

    Each instance goes to the verdict core without `abel_minorant`'s
    validation, which it meets by construction: u >= 0, v the reversed
    cumulative sum of numbers in [0, 1), so nonnegative and nonincreasing,
    and a sorted, distinct subsequence inside [1, len].
    """
    rng = np.random.Generator(np.random.PCG64(master_seed))
    lengths = rng.integers(2, _ABEL_MAX_LEN + 1, size=n_instances)
    scales = rng.uniform(0.5, 10.0, size=n_instances).tolist()
    point_counts = rng.integers(2, np.minimum(lengths, 12) + 1).tolist()
    verdicts = []
    for length, scale, n_points in zip(lengths.tolist(), scales, point_counts):
        u = rng.random(length) * scale
        v = rng.random(length)[::-1].cumsum()[::-1]  # nonincreasing, nonnegative
        subseq = np.sort(rng.choice(length, size=n_points, replace=False)) + 1
        verdicts.append(_abel_verdict(u, v, subseq))
    return verdicts
