"""Degenerate target enumerations shared by the tests."""

from tsl.polybank import TargetEnumeration
from tsl.repro import _constant_entry


def uniform_unit_targets(count: int) -> TargetEnumeration:
    """Every slot holds the constant one with the smallest legal bound.

    With the canonical enumeration the zero polynomial sits first, so its
    blocks are never built, and the gates of the early nonzero targets
    start at 28: below degree 2**20 only two blocks are built.  This
    degenerate enumeration keeps the gate at its minimum (4) for every
    slot, which puts eight active blocks under 2**20, enough for dense
    per-block bounds and small planned-mean fixtures.
    """
    return TargetEnumeration(tuple(_constant_entry(1) for _ in range(count)))
