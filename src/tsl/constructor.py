"""Block construction of the truncated model functions.

The function is a sum of polynomials with pairwise disjoint coefficient
supports: block n occupies indices [2**n, 2**(n+1)) on the dyadic
schedule, or [2**u(n), 2**u(n+1)) on an explicit integer schedule u.
Even block numbers n = 2**k * odd are assigned to target k; a block is
built only once it is long enough to absorb its target, as decided by an
integer gate per target, and never for the zero target (skip reason
"zero").  Inside a built block the coefficients are

    (index + 1)**(-alpha) * c_t,    t = index - block_start,

where (c_t) are the coefficients of family(z**gate) * weighted_target(z),
family being a Rudin-Shapiro sign polynomial or a de la Vallee-Poussin
star polynomial of length

    budget = floor(base**(1 - gamma) / gate),

with base = 2**n on the dyadic schedule and base = 2**u(n) otherwise.

`iter_plan` is the one walk over the blocks: one ledger record per block
number, in order, without coefficients; a block whose target index lies
beyond the enumeration gives a "no-target" record.  `construct` reads it
up to max_degree, `plan_blocks` its first records, and the tail bound in
`tsl.verify` past the series; the first two raise DomainError on a
"no-target" record (`construct` only on one starting at or below max_degree).

An explicit schedule u is accepted by `validate_schedule`, the one check
of explicit schedules (the lacunary probe in `tsl.verify` calls it too):
on u(0), ..., u(SCHEDULE_CHECK_PREFIX) it must be strictly increasing,
and its degree ratios 2**(u(n+1) - u(n)) must be at least 4 from index 3
on.  The construction itself needs only the strict increase: it makes the
block intervals disjoint, and since every gate is at least d + 4, a
block's span stays below 2**u(n) and fits its interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from io import StringIO
from itertools import count, islice
from typing import Callable, Iterator, Optional

import mpmath as mp
import numpy as np

from tsl.densities import PrefixSet, prefix_density_profile
from tsl.errors import ConstructionError, DomainError
from tsl.polybank import (
    SignedPolynomial,
    StarPolynomial,
    TargetEnumeration,
    index_weighted,
    rudin_shapiro,
    vdlp_star,
)
from tsl.series import CoefficientSeries, zero_coefficients

SCHEDULE_CHECK_PREFIX = 40


class Regime(Enum):
    RS = "rs"
    STAR = "star"


class Schedule(Enum):
    DYADIC = "dyadic"
    U_SCHEDULE = "u"


def quadratic_schedule(n: int) -> int:
    """Default explicit schedule u(n) = n**2; gaps 2n+1 grow without bound."""
    return n * n


def validate_schedule(u: Callable[[int], int]) -> None:
    """Reject an explicit schedule u that fails the rule on its checked prefix.

    u must be strictly increasing on 0..SCHEDULE_CHECK_PREFIX, with gaps
    u(n+1) - u(n) >= 2 (degree ratios >= 4) from index 3 on.  Gaps that
    grow without bound cannot be decided on a finite prefix, and they
    need not be monotone: floor(n**1.5) has gaps 5, 4 at n = 8..10.
    """
    vals = [int(u(n)) for n in range(SCHEDULE_CHECK_PREFIX + 1)]
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    if any(g <= 0 for g in gaps):
        raise DomainError("schedule must be strictly increasing")
    bad = [i for i in range(3, len(gaps)) if gaps[i] < 2]
    if bad:
        raise DomainError(f"degree ratio below 4 at index {bad[0]}")


@dataclass(frozen=True)
class ConstructionSpec:
    """All knobs of the block construction."""

    alpha: float
    gamma: float
    regime: Regime
    schedule: Schedule
    max_degree: int
    u: Optional[Callable[[int], int]] = None
    q: float = math.inf  # conjugate exponent; only the STAR gate reads it

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha):
            raise DomainError("alpha must be finite")
        if not (0.0 <= self.gamma < 1.0):
            raise DomainError("gamma must lie in [0, 1)")
        if self.max_degree < 4:
            raise DomainError("max_degree must be >= 4")
        if self.schedule is Schedule.U_SCHEDULE:
            if self.u is None:
                object.__setattr__(self, "u", quadratic_schedule)
            validate_schedule(self.u)
        if not self.q >= 1.0:
            raise DomainError("conjugate exponent must be >= 1 or infinity")

    def base_exponent(self, n: int) -> int:
        """log2 of the block start: n itself, or u(n) on an explicit schedule."""
        if self.schedule is Schedule.DYADIC:
            return n
        assert self.u is not None
        return int(self.u(n))


@dataclass(frozen=True)
class BlockRecord:
    """Ledger row for one block number (built or skipped)."""

    n: int
    k: Optional[int]
    gate: Optional[int]
    budget: Optional[int]
    lo: int
    hi: int
    # None (built) | unassigned | odd | no-target | gate | budget | max-degree,
    # or zero: gate and budget fit but the target is the zero polynomial
    skip_reason: Optional[str]

    @property
    def built(self) -> bool:
        return self.skip_reason is None


@dataclass(frozen=True)
class BlockLedger:
    records: tuple[BlockRecord, ...]

    def built(self) -> tuple[BlockRecord, ...]:
        return tuple(r for r in self.records if r.built)

    def for_target(self, k: int) -> tuple[BlockRecord, ...]:
        return tuple(r for r in self.records if r.k == k)

    def assert_disjoint_supports(self) -> None:
        prev_hi = -1
        for r in sorted(self.built(), key=lambda r: r.lo):
            if r.lo <= prev_hi:
                raise ConstructionError(f"block n={r.n} overlaps a previous block")
            prev_hi = r.hi

    def to_csv(self) -> str:
        out = StringIO()
        out.write("n,k,gate,budget,lo,hi,skip_reason\n")
        for r in self.records:
            row = [
                str(r.n),
                "" if r.k is None else str(r.k),
                "" if r.gate is None else str(r.gate),
                "" if r.budget is None else str(r.budget),
                str(r.lo),
                str(r.hi),
                "" if r.skip_reason is None else r.skip_reason,
            ]
            out.write(",".join(row) + "\n")
        return out.getvalue()


@dataclass(frozen=True)
class VisitReport:
    """Visit times of one target and its visit density."""

    k: int
    visits: tuple[int, ...]
    density_estimate: float


def two_adic_valuation(n: int) -> int:
    if n <= 0:
        raise DomainError("valuation needs n >= 1")
    return (n & -n).bit_length() - 1


def target_gate(l: int, d: int, alpha: float, regime: Regime, q: float = math.inf) -> int:
    """Integer threshold that delays target blocks until they fit.

    The sign-family gate takes l**2 * (1+d)**(2*max(alpha,0)) as its first
    argument; the star-family gate replaces the exponents 2 by the
    conjugate exponent q.  For q = infinity the star gate falls back to
    the exponent-2 form so it stays finite.
    """
    if l < 1:
        raise DomainError("gate bound l must be >= 1")
    if d < 0:
        raise DomainError("gate degree must be >= 0")
    a_plus = max(alpha, 0.0)
    if regime is Regime.RS or q == math.inf:
        first = float(l) ** 2 * (1.0 + d) ** (2.0 * a_plus)
    else:
        if not q >= 1.0:
            raise DomainError("conjugate exponent must be >= 1")
        first = float(l) ** q * (1.0 + d) ** (q * a_plus)
    second = d + max(3.0, 3.0 + alpha) * l * l + a_plus * l * math.log(1.0 + d)
    return 1 + math.floor(max(first, second))


def block_indices(
    n: int, spec: ConstructionSpec
) -> tuple[int, int, Optional[int]]:
    """Support interval [lo, hi] of block n, and its target index if any.

    Positive even n = 2**k * odd belongs to target k; odd n and n = 0
    carry no target.
    """
    if n < 0:
        raise DomainError("block number must be >= 0")
    lo = 1 << spec.base_exponent(n)
    hi = (1 << spec.base_exponent(n + 1)) - 1
    k = two_adic_valuation(n) if (n > 0 and n % 2 == 0) else None
    return lo, hi, k


def _effective_gate(spec: ConstructionSpec, l: int, d: int) -> int:
    gate = target_gate(l, d, spec.alpha, spec.regime, spec.q)
    if (
        spec.regime is Regime.STAR
        and spec.q == math.inf
        and spec.schedule is Schedule.U_SCHEDULE
    ):
        # sup-free regime on an explicit schedule: raise the gate above
        # 2**u(l) so the per-target tail stays summable
        assert spec.u is not None
        gate = max(gate, (1 << int(spec.u(l))) + 2)
    return gate


def _budget(spec: ConstructionSpec, n: int, gate: int) -> int:
    """floor(2**x / gate) as an exact integer, x = base_exponent(n) * (1 - gamma) in float64.

    An integral x is integer division.  Otherwise 2**x is irrational, so
    2**x / gate is no integer: it is evaluated with floor(x) + 64 bits,
    and the precision doubles until the value widened by 2**16 units in
    its last place contains no integer.
    """
    x = spec.base_exponent(n) * (1.0 - spec.gamma)
    ix = math.floor(x)
    if x == ix:
        return (1 << ix) // gate
    prec = ix + 64
    while True:
        with mp.workprec(prec):
            value = mp.ldexp(mp.power(2, x - ix), ix) / gate
            slack = mp.ldexp(value, 16 - prec)
            lo, hi = int(mp.floor(value - slack)), int(mp.floor(value + slack))
        if lo == hi:
            return lo
        prec *= 2


def _classify(n: int, spec: ConstructionSpec, targets: TargetEnumeration) -> BlockRecord:
    """Gate/budget bookkeeping for block n, without touching coefficients."""
    lo, hi, k = block_indices(n, spec)
    if k is None:
        return BlockRecord(n, None, None, None, lo, hi, "odd" if n % 2 else "unassigned")
    if k > len(targets):
        return BlockRecord(n, k, None, None, lo, hi, "no-target")
    entry = targets.entry(k)
    gate = _effective_gate(spec, entry.l_bound, entry.degree)
    prev = spec.base_exponent(n - 1)
    if (1 << prev) < gate:
        return BlockRecord(n, k, gate, None, lo, hi, "gate")
    budget = _budget(spec, n, gate)
    if budget == 0:
        return BlockRecord(n, k, gate, 0, lo, hi, "budget")
    if not any(a or b for a, b, _ in entry.exact):
        return BlockRecord(n, k, gate, budget, lo, hi, "zero")
    return BlockRecord(n, k, gate, budget, lo, hi, None)


def iter_plan(spec: ConstructionSpec, targets: TargetEnumeration) -> Iterator[BlockRecord]:
    """Endless stream of ledger records in block order; consumers break.

    A block whose target index falls beyond the enumeration is a
    "no-target" record, so tail scans past the enumerated horizon stay
    usable.
    """
    for n in count():
        yield _classify(n, spec, targets)


def _require_target(rec: BlockRecord, targets: TargetEnumeration) -> BlockRecord:
    if rec.skip_reason == "no-target":
        raise DomainError(f"target index {rec.k} outside enumeration of length {len(targets)}")
    return rec


def _family(spec: ConstructionSpec, budget: int) -> SignedPolynomial | StarPolynomial:
    """The block family of length `budget`: Rudin-Shapiro signs or the star profile."""
    return rudin_shapiro(budget) if spec.regime is Regime.RS else vdlp_star(budget)


def _block_content(
    rec: BlockRecord, spec: ConstructionSpec, targets: TargetEnumeration
) -> np.ndarray:
    """Dense content of a built block over [lo, lo + span].

    Raises ConstructionError if the product would overrun the interval, DomainError on overflow.
    """
    assert rec.k is not None and rec.gate is not None and rec.budget is not None
    entry = targets.entry(rec.k)
    gate, budget = rec.gate, rec.budget
    weighted = index_weighted(entry.series, spec.alpha).coefficients
    d = entry.degree
    span = gate * (budget - 1) + d
    if rec.lo + span > rec.hi:
        raise ConstructionError(
            f"block n={rec.n} (target {rec.k}, budget {budget}) spans {span + 1} "
            f"coefficients but its interval holds {rec.hi - rec.lo + 1}"
        )
    family = _family(spec, budget).coefficients.astype(np.float64, copy=False)
    content = np.zeros(span + 1, dtype=np.complex128)
    # product of the gate-dilated family with the weighted target: the gate
    # exceeds the target degree, so each output index has a unique term
    for j in range(d + 1):
        if weighted[j] != 0:
            content[j : j + gate * budget : gate] = family * weighted[j]
    idx = rec.lo + np.arange(span + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        content *= (idx + 1.0) ** (-spec.alpha)
    if not np.isfinite(content.view(np.float64)).all():
        raise DomainError(f"block n={rec.n} (target {rec.k}) overflows the float range")
    return content


def construct(
    spec: ConstructionSpec, targets: TargetEnumeration
) -> tuple[CoefficientSeries, BlockLedger]:
    """Sum of all blocks whose interval fits below max_degree.

    Blocks are disjoint, so the sum is a concatenation; blocks whose
    interval sticks out beyond max_degree are dropped and recorded.  A
    max_degree above `series.MAX_SERIES_DEGREE` is a DomainError.
    """
    arr = zero_coefficients(spec.max_degree)
    records: list[BlockRecord] = []
    for rec in iter_plan(spec, targets):
        if rec.lo > spec.max_degree:
            break
        _require_target(rec, targets)
        if rec.hi > spec.max_degree:
            rec = replace(rec, skip_reason="max-degree")
        elif rec.built:
            content = _block_content(rec, spec, targets)
            arr[rec.lo : rec.lo + len(content)] = content
            del content  # freed before the next block is built, not after
        records.append(rec)
    ledger = BlockLedger(tuple(records))
    ledger.assert_disjoint_supports()
    return CoefficientSeries._adopt(arr), ledger


def plan_blocks(
    spec: ConstructionSpec, targets: TargetEnumeration, n_limit: int
) -> BlockLedger:
    """Ledger for blocks 0..n_limit ignoring max_degree (nothing materialized).

    Budgets are exact integers and may be far too large to realize; the
    plan feeds the structured radial means and truncation-tail bounds.
    """
    plan = islice(iter_plan(spec, targets), n_limit + 1)
    return BlockLedger(tuple(_require_target(rec, targets) for rec in plan))


def visit_set(
    spec: ConstructionSpec,
    targets: TargetEnumeration,
    k: int,
    ledger: BlockLedger,
) -> VisitReport:
    """Visit times of target k: lo + gate*m over family coefficients +1.

    The density estimate is the maximum, over the target's built blocks,
    of the weighted prefix ratio of the visit set evaluated at the last
    visit of that block (a finite-horizon stand-in for the upper density
    along the block subsequence).
    """
    targets.entry(k)  # range check: a target beyond the enumeration is a DomainError
    visits: list[np.ndarray] = []
    block_ends: list[int] = []
    for rec in ledger.for_target(k):
        if not rec.built:
            continue
        assert rec.gate is not None and rec.budget is not None
        positions = _family(spec, rec.budget).plus_positions()
        block_visits = rec.lo + rec.gate * positions
        if len(block_visits):
            visits.append(block_visits)
            block_ends.append(int(block_visits[-1]))
    if not visits:
        return VisitReport(k=k, visits=(), density_estimate=0.0)
    arr = np.sort(np.concatenate(visits))
    prefix = PrefixSet(arr, int(arr[-1]))
    density = max(row[1] for row in prefix_density_profile(prefix, spec.gamma, block_ends))
    return VisitReport(k=k, visits=tuple(arr.tolist()), density_estimate=density)
