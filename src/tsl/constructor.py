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
`construct` writes them in place, at block_start + j + gate*m per target term j.

`iter_plan` is the one walk over the blocks: one ledger record per block
number, in order, without coefficients; a block whose target index lies
beyond the enumeration gives a "no-target" record.  `construct` reads it
up to max_degree, `plan_blocks` its first records, and the tail bound in
`tsl.verify` from the first block that reaches the visit time on; the
first two raise DomainError on a "no-target" record (`construct` only on
one starting at or below max_degree).  `visit_set` lists a target's
visit times and nothing else: `tsl.repro`'s orbit-visits check reads
their weighted density.

`ConstructionSpec` rejects a u on the dyadic schedule, which would ignore
it, and holds the one check of explicit schedules u: on u(0), ...,
u(SCHEDULE_CHECK_PREFIX) it must take integer values (integral floats
count) from u(0) >= 0 on, increase strictly, and have degree ratios
2**(u(n+1) - u(n)) of at least 4 from index 3 on.  Gaps that grow
without bound cannot be decided on a finite prefix, and they need not
be monotone: floor(n**1.5) has gaps 5, 4 at n = 8..10.  The
construction itself needs only the strict increase from u(0) >= 0: it
makes the block intervals disjoint, and since every gate is at least
d + 4, a block's span stays below 2**u(n) and fits its interval.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, replace
from enum import Enum
from io import StringIO
from itertools import count, islice
from typing import Callable, Iterator, Optional

import numpy as np

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
        if not isinstance(self.max_degree, (int, np.integer)):
            raise DomainError("max_degree must be an integer")
        if self.max_degree < 4:
            raise DomainError("max_degree must be >= 4")
        if self.schedule is Schedule.DYADIC and self.u is not None:
            raise DomainError("u belongs to the explicit schedule; the dyadic one takes none")
        if self.schedule is Schedule.U_SCHEDULE:
            if self.u is None:
                object.__setattr__(self, "u", quadratic_schedule)
            vals = [self.u(n) for n in range(SCHEDULE_CHECK_PREFIX + 1)]
            if not all(float(v).is_integer() for v in vals) or vals[0] < 0:
                raise DomainError("schedule values must be integers, from u(0) >= 0 on")
            gaps = [b - a for a, b in zip(vals, vals[1:])]
            if any(g <= 0 for g in gaps):
                raise DomainError("schedule must be strictly increasing")
            bad = [i for i in range(3, len(gaps)) if gaps[i] < 2]
            if bad:
                raise DomainError(f"degree ratio below 4 at index {bad[0]}")
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
            out.write(",".join("" if v is None else str(v) for v in vars(r).values()) + "\n")
        return out.getvalue()


@dataclass(frozen=True)
class VisitReport:
    """Visit times of target k, sorted, as Python ints."""

    k: int
    visits: tuple[int, ...]


def target_gate(l: int, d: int, alpha: float, regime: Regime, q: float = math.inf) -> int:
    """Integer threshold that delays target blocks until they fit.

    The sign-family gate takes l**2 * (1+d)**(2*max(alpha,0)) as its first
    argument; the star-family gate replaces the exponents 2 by the
    conjugate exponent q.  For q = infinity the star gate falls back to
    the exponent-2 form so it stays finite.  A gate past the float range
    is a DomainError.
    """
    if l < 1:
        raise DomainError("gate bound l must be >= 1")
    if d < 0:
        raise DomainError("gate degree must be >= 0")
    if not (regime is Regime.RS or q >= 1.0):
        raise DomainError("conjugate exponent must be >= 1")
    a_plus = max(alpha, 0.0)
    exponent = 2.0 if regime is Regime.RS or q == math.inf else q
    try:
        first = float(l) ** exponent * (1.0 + d) ** (exponent * a_plus)
        second = d + max(3.0, 3.0 + alpha) * l * l + a_plus * l * math.log(1.0 + d)
        return 1 + math.floor(max(first, second))
    except OverflowError:
        raise DomainError(f"the gate of l = {l} at degree {d} exceeds the float range") from None


def _budget(spec: ConstructionSpec, n: int, gate: int) -> int:
    """floor(2**x / gate) as an exact integer, x = base_exponent(n) * (1 - gamma) in float64.

    An integral x is integer division.  Otherwise 2**x is irrational, so
    2**x / gate is no integer: it is evaluated in decimal to the digits of
    floor(x) + 64 bits, and the precision doubles until the value widened
    by 2**16 units in its last bit contains no integer.
    """
    x = spec.base_exponent(n) * (1.0 - spec.gamma)
    ix = math.floor(x)
    if x == ix:
        return (1 << ix) // gate
    prec = ix + 64
    while True:
        # digits at least as fine as prec bits; Emax lifts the exponent limit
        ctx = decimal.Context(prec=math.ceil(prec * math.log10(2.0)) + 1, Emax=decimal.MAX_EMAX)
        with decimal.localcontext(ctx):
            value = decimal.Decimal(2) ** decimal.Decimal(x - ix) * (1 << ix) / gate
            slack = value / (1 << (prec - 16))
            lo, hi = int(value - slack), int(value + slack)  # both positive: int() floors
        if lo == hi:
            return lo
        prec *= 2


def _classify(n: int, spec: ConstructionSpec, targets: TargetEnumeration) -> BlockRecord:
    """Every fact of block n, without touching coefficients.

    Block n occupies [2**b(n), 2**b(n+1) - 1], b = spec.base_exponent.
    Positive even n = 2**k * odd belongs to target k, the 2-adic
    valuation of n; odd n and n = 0 carry no target.  The gate is
    `target_gate` of the target's bound l and degree, except for the
    star family with q = infinity on an explicit schedule: that regime
    has no sup bound, so the gate is raised above 2**u(l) to keep the
    per-target tail summable.  The block is built once 2**b(n-1) reaches
    the gate and `_budget` is positive, unless the target is zero.
    """
    lo, hi = 1 << spec.base_exponent(n), (1 << spec.base_exponent(n + 1)) - 1
    if n == 0 or n % 2:
        return BlockRecord(n, None, None, None, lo, hi, "odd" if n % 2 else "unassigned")
    k = (n & -n).bit_length() - 1
    if k > len(targets):
        return BlockRecord(n, k, None, None, lo, hi, "no-target")
    entry = targets.entry(k)
    gate = target_gate(entry.l_bound, entry.degree, spec.alpha, spec.regime, spec.q)
    if spec.regime is Regime.STAR and spec.q == math.inf and spec.schedule is Schedule.U_SCHEDULE:
        gate = max(gate, (1 << spec.base_exponent(entry.l_bound)) + 2)
    if (1 << spec.base_exponent(n - 1)) < gate:
        return BlockRecord(n, k, gate, None, lo, hi, "gate")
    budget = _budget(spec, n, gate)
    if budget == 0:
        return BlockRecord(n, k, gate, 0, lo, hi, "budget")
    if not any(a or b for a, b, _ in entry.exact):
        return BlockRecord(n, k, gate, budget, lo, hi, "zero")
    return BlockRecord(n, k, gate, budget, lo, hi, None)


def iter_plan(spec: ConstructionSpec, targets: TargetEnumeration, start: int = 0) -> Iterator[BlockRecord]:
    """Endless stream of ledger records in block order from block `start`; consumers break.

    A block whose target index falls beyond the enumeration is a
    "no-target" record, so tail scans past the enumerated horizon stay
    usable.  A negative `start` is a DomainError.
    """
    if start < 0:
        raise DomainError("block number must be >= 0")
    return (_classify(n, spec, targets) for n in count(start))


def _require_target(rec: BlockRecord, targets: TargetEnumeration) -> BlockRecord:
    if rec.skip_reason == "no-target":
        raise DomainError(f"target index {rec.k} outside enumeration of length {len(targets)}")
    return rec


def _family(spec: ConstructionSpec, budget: int) -> SignedPolynomial | StarPolynomial:
    """The block family of length `budget`: Rudin-Shapiro signs or the star profile."""
    return rudin_shapiro(budget) if spec.regime is Regime.RS else vdlp_star(budget)


def _write_block(
    arr: np.ndarray, rec: BlockRecord, spec: ConstructionSpec, targets: TargetEnumeration
) -> None:
    """Write built block `rec` into `arr`: family_m * w_j * (i + 1)**(-alpha) at i = lo + j + gate*m.

    w is the weighted target; the gate exceeds its degree, so the rows j
    are disjoint.  Raises ConstructionError if the block would overrun
    its interval, DomainError on overflow.
    """
    assert rec.k is not None and rec.gate is not None and rec.budget is not None
    entry = targets.entry(rec.k)
    gate, budget = rec.gate, rec.budget
    span = gate * (budget - 1) + entry.degree
    if rec.lo + span > rec.hi:
        raise ConstructionError(
            f"block n={rec.n} (target {rec.k}, budget {budget}) spans {span + 1} "
            f"coefficients but its interval holds {rec.hi - rec.lo + 1}"
        )
    weighted = index_weighted(entry.series, spec.alpha).coefficients
    family = _family(spec, budget).coefficients.astype(np.float64, copy=False)
    first_row = rec.lo + 1.0 + gate * np.arange(budget, dtype=np.float64)  # i + 1 on row j = 0
    for j in np.flatnonzero(weighted[: entry.degree + 1]):
        with np.errstate(over="ignore", invalid="ignore"):
            row = family * weighted[j] * (first_row + j) ** (-spec.alpha)
        if not np.isfinite(row.view(np.float64)).all():
            raise DomainError(f"block n={rec.n} (target {rec.k}) overflows the float range")
        arr[rec.lo + j : rec.lo + j + gate * budget : gate] = row


def construct(
    spec: ConstructionSpec, targets: TargetEnumeration
) -> tuple[CoefficientSeries, BlockLedger]:
    """Sum of all blocks whose interval fits below max_degree.

    Blocks are disjoint, so each built block is written in place into the
    one array the series then adopts without a second finiteness scan
    (`_write_block` checks each row); blocks whose interval sticks out
    beyond max_degree are dropped and recorded.  A max_degree above
    `series.MAX_SERIES_DEGREE` is a DomainError.
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
            _write_block(arr, rec, spec, targets)
        records.append(rec)
    ledger = BlockLedger(tuple(records))
    ledger.assert_disjoint_supports()
    return CoefficientSeries._adopt_finite(arr), ledger


def plan_blocks(
    spec: ConstructionSpec, targets: TargetEnumeration, n_limit: int
) -> BlockLedger:
    """Ledger for blocks 0..n_limit ignoring max_degree (nothing materialized).

    Budgets are exact integers and may be far too large to realize; the
    plan feeds the structured radial means and truncation-tail bounds.
    """
    plan = islice(iter_plan(spec, targets), n_limit + 1)
    return BlockLedger(tuple(_require_target(rec, targets) for rec in plan))


def visit_set(spec: ConstructionSpec, targets: TargetEnumeration, k: int, ledger: BlockLedger) -> VisitReport:
    """Visit times of target k: lo + gate*m at each slot m where a built block's family reads +1."""
    targets.entry(k)  # range check: a target beyond the enumeration is a DomainError
    visits = [
        rec.lo + rec.gate * np.flatnonzero(_family(spec, rec.budget).coefficients == 1)
        for rec in ledger.for_target(k)
        if rec.built
    ]
    if not visits:
        return VisitReport(k, ())
    return VisitReport(k, tuple(np.sort(np.concatenate(visits)).tolist()))
