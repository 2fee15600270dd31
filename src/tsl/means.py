"""Radial integral means, circle norms, and growth-exponent fits.

Both routes work on the series' support, the indices of its nonzero
coefficients.  For p = 2 the mean comes straight from those coefficients
(Parseval).  For other finite p, and for p = infinity, the circle is
sampled by the reduction behind `circle_mean`, the one circle reducer of
the package, which every sampled mean and sup goes through.  Its degree
is the last nonzero index (0 for the zero series), not the length of
the coefficient array.  On a circle of radius r it keeps only the
coefficients up to the effective degree D of that degree, the last index
with r**D >= 2**-60, and samples at the next power of two above
4*(D+1) points (8*(D+1) for p = infinity, whose sampled sup is a
documented lower estimate).  So the FFT of a radius well inside the disc
is sized on the degree that radius can see, not on the full degree; at
r = 1 - 2**-j the effective degree is about 41.6 * 2**j.  Every count
is derived, none is set.  The sampler hands the reducer its phase
blocks in chunks of at most max(m, _CHUNK_POINTS = 2**15) samples, m the
window's FFT length, each chunk one FFT call: a small circle is one
call, a window of m >= 2**15 points one block per call, and no more
samples than one chunk are ever held at once.  Where every nonzero
index is one residue mod a power of two g, the stride (blocks
z**lo * S(z**gate) on constant targets), the modulus has period N / g
around the circle, so a mean transforms N / g points, and its row still
names the N it stands for.

`dyadic_mean2_profile` is the one planned-mean entry: it evaluates the
L^2 mean of a *planned* block construction at radii 1 - 2**-j without
materializing coefficients, so schedules whose blocks live at
astronomically large degrees remain measurable.  It makes one pass over
the blocks, each block answering the whole j grid in array expressions
(`_position_sums`).  Each position sum, the sum over v = v0, v0 + gate,
... of v**(-2 alpha) r**(2(v-1)), comes as a float64 lower and upper
bound: at alpha = 0 the geometric closed form; at alpha > 0 the exact
sum while at most 2**16 terms matter, and past that an Euler-Maclaurin
bracket from the one panel integral and the one set of end terms that
the density weight sums use too (`tsl._util`).  Where the two ends
differ the bracket is about c**4 / 720 of the sum wide, c = 2 eps gate +
2 alpha gate / v0 the terms' first log-decrement and eps = -ln r: below
2.5e-11 at the crossover when the decay dominates, 4e-6 at lo = 2**10,
gate 200, alpha = 1/2, j = 16, where the power dominates.  The profile
reports the lower end.  eps = -ln r is carried as mant * 2**-j
(`_dyadic_eps`), every power of two applied exactly, and exponents stay
in log form, so blocks past 2**1024 give finite sums: where the product
2 eps gate N underflows at a clamped flat radius of such a block, its
geometric factor reads its limit 1 (`_geometric_sum`).  Radii past a
block's flat point, where every r**(2v) of the block rounds to 1, are
clamped to that point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from io import StringIO
from typing import Iterator

import numpy as np

from tsl._util import em_end_terms, fmt17, ln_panel_integrals
from tsl.constructor import BlockLedger
from tsl.errors import DomainError
from tsl.polybank import TargetEnumeration, index_weighted
from tsl.series import CoefficientSeries

_LN2 = math.log(2.0)
_EXP_FLOOR = 760.0  # exp(-x) is a hard zero in doubles well before this
_TAIL_BITS = 60  # coefficients with r**j below 2**-_TAIL_BITS are not sampled
_EXACT_TERMS = 1 << 16  # position sums with more terms that matter are bracketed
_CHUNK_POINTS = 1 << 15
"""Most samples one FFT call of `_phase_blocks` holds, unless a single block is longer.

A memory ceiling, not a tuning setting: it bounds the samples and FFT
buffers held at once, and any value gives the same bits.
"""
_CSV_HEADER = "p,r,value,quadrature_size"
_Support = tuple[np.ndarray, int, int]  # `_support`'s nonzero indices, last index and stride


def _check_p(p: float) -> None:
    if not p >= 1.0:  # infinity passes, nan fails
        raise DomainError("p must lie in [1, infinity]")


def _check_radius(r: float) -> None:
    if not (0.0 < r < 1.0):
        raise DomainError("radius must lie in (0, 1)")


def conjugate_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1; q = infinity when p = 1."""
    _check_p(p)
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def critical_exponent(p: float, gamma: float) -> float:
    """(1 - gamma) / max(2, q); zero at p = 1 where q is infinite."""
    if not (0.0 <= gamma <= 1.0):
        raise DomainError("gamma must lie in [0, 1]")
    return (1.0 - gamma) / max(2.0, conjugate_exponent(p))


@dataclass(frozen=True)
class MeanRow:
    p: float
    r: float
    value: float
    quadrature_size: int  # circle points the row stands for, 0 on the coefficient-side route


@dataclass(frozen=True)
class RadialMeansTable:
    rows: tuple[MeanRow, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            _check_p(row.p)
            _check_radius(row.r)
            if not (math.isfinite(row.value) and row.value >= 0.0):
                raise DomainError("mean values must be finite and nonnegative")
            if row.quadrature_size < 0:
                raise DomainError("quadrature_size must be >= 0")
        keys = [(row.p, row.r) for row in self.rows]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise DomainError("rows must be sorted by (p, r), each (p, r) once")

    def at_p(self, p: float) -> tuple[MeanRow, ...]:
        return tuple(row for row in self.rows if row.p == p)

    def to_csv(self) -> str:
        out = StringIO()
        out.write(_CSV_HEADER + "\n")
        for row in self.rows:
            out.write(f"{fmt17(row.p)},{fmt17(row.r)},{fmt17(row.value)},{row.quadrature_size}\n")
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "RadialMeansTable":
        """Inverse of `to_csv`; any other shape raises DomainError."""
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0] != _CSV_HEADER:
            raise DomainError(f"a means table starts with the header {_CSV_HEADER}")
        rows = []
        for ln in lines[1:]:
            try:
                p_txt, r_txt, v_txt, q_txt = ln.split(",")
                rows.append(MeanRow(float(p_txt), float(r_txt), float(v_txt), int(q_txt)))
            except ValueError as exc:
                raise DomainError(f"means table row is not {_CSV_HEADER}: {ln!r}") from exc
        return cls(tuple(rows))


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    residual_rms: float
    r_window: tuple[float, float]


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _sample_count(degree: int, p: float) -> int:
    """Circle points of a mean at p: 4 * next_pow2(degree + 1), twice that at p = inf."""
    return (8 if p == math.inf else 4) * _next_pow2(degree + 1)


def effective_degree(r: float, degree: int) -> int:
    """Last index j <= degree with r**j >= 2**-_TAIL_BITS (0**0 counts as 1).

    Past it every dilated coefficient is below 2**-60 times its modulus;
    at r = 1 - 2**-j this index is about 41.6 * 2**j.
    """
    if not (0.0 <= r <= 1.0):
        raise DomainError("radius must lie in [0, 1]")
    if degree < 0:
        raise DomainError("degree must be >= 0")
    if r == 1.0:
        return degree
    if r == 0.0:
        return 0
    return min(degree, int(_TAIL_BITS / -math.log2(r)))


def _support(coeffs: np.ndarray) -> _Support:
    """Nonzero indices, the last of them (0 if none), and their stride.

    The stride is the largest power of two dividing every index difference (1 if none).
    """
    support = np.flatnonzero(coeffs)
    if support.size < 2:
        return support, int(support[-1]) if support.size else 0, 1
    spread = int(np.bitwise_or.reduce(support[1:] - support[0]))
    return support, int(support[-1]), spread & -spread


def _phase_blocks(coeffs: np.ndarray, support: _Support, p: float, r: float) -> Iterator[np.ndarray]:
    """Values whose moduli are |P| at `_sample_count(D, p)` points, as 2-d chunks of phase blocks.

    `support` is `_support(coeffs)`: every nonzero index up to the last is
    residue mod its stride, capped here at g = next_pow2(D + 1) so that
    the size / g points cover the window.  So |P(r w)|, w = exp(2 pi i k
    / size), depends on k mod size / g alone: it is |Q(w**g)|, Q the
    dilated coefficients at residue, residue + g, ... up to D.  With m
    the window's next power of two, the size / g / m blocks are
    phase-shifted m-point FFTs of Q: block a holds the values at t * size
    / g / m + a of the zero-padded (size / g)-point FFT, without its long
    work buffers.  At g = 1, Q is P and the blocks hold P's values themselves.
    Each chunk holds consecutive blocks as its rows, at most
    max(m, _CHUNK_POINTS) values, and takes one FFT call; block a's window
    is the running product window * step**a, formed block by block.
    """
    nonzero, last, stride = support
    degree = effective_degree(r, last)
    stride = min(stride, _next_pow2(degree + 1))
    residue = int(nonzero[0]) % stride if nonzero.size else 0
    points = _sample_count(degree, p) // stride
    window = np.asarray(coeffs[residue : degree + 1 : stride], dtype=np.complex128)
    if 0.0 < r < 1.0:
        window = window * np.exp(np.arange(residue, degree + 1, stride) * math.log(r))
    m = _next_pow2(max(1, window.size))
    step = np.exp(2j * math.pi / points * np.arange(window.size))
    blocks = points // m
    rows = max(1, _CHUNK_POINTS // m)
    for first in range(0, blocks, rows):
        chunk = np.empty((min(rows, blocks - first), window.size), dtype=np.complex128)
        chunk[0] = window
        for a in range(1, len(chunk)):
            np.multiply(chunk[a - 1], step, out=chunk[a])
        window = chunk[-1] * step
        yield np.fft.ifft(chunk, n=m, axis=1, norm="forward")


def _circle_reduce(coeffs: np.ndarray, support: _Support, p: float, r: float) -> float:
    """The L^p mean of |P| over its `_phase_blocks`: the max at p = inf, else the power mean.

    Each chunk is reduced as it arrives, so at most one chunk of samples
    is held; a sample of a strided series stands for stride points.  At
    finite p each block's power sum joins the running total in block
    order, the same sum a block-at-a-time reduction forms.
    """
    _check_p(p)
    chunks = _phase_blocks(coeffs, support, p, r)
    if p == math.inf:
        return max(float(np.abs(chunk).max()) for chunk in chunks)
    power_sum, points = 0.0, 0
    for chunk in chunks:
        for block_sum in np.sum(np.abs(chunk) ** p, axis=1).tolist():
            power_sum += block_sum
        points += chunk.size
    return (power_sum / points) ** (1.0 / p)


def circle_mean(coeffs: np.ndarray, p: float, r: float) -> float:
    """L^p mean of the polynomial on the circle of radius r in [0, 1], p in [1, infinity].

    The entry of the package's one circle reduction, which the sampled
    `means_table` rows share.  The degree is the last nonzero index, so
    trailing zero coefficients cost nothing, and only coefficients 0 ..
    D = effective_degree(r, degree) are dilated and sampled; the dropped
    tail is below 2**-60 * max|c| / (1 - r) in modulus.  The polynomial
    is sampled at N = 4 * next_pow2(D + 1) equispaced points, 8 *
    next_pow2(D + 1) at p = infinity, whose N exceeds pi * D, so the
    sampled sup lies within the Bernstein factor 1 / (1 - pi * D / N) of
    the true sup.  The samples come in chunks of at most max(m,
    _CHUNK_POINTS) values, m the sampled window's FFT length, so a small
    circle costs one FFT call.
    """
    return _circle_reduce(coeffs, _support(coeffs), p, r)


def _mean_row(series: CoefficientSeries, support: _Support, p: float, r: float) -> MeanRow:
    """One (p, r) row from the series' `_support`: Parseval at p = 2, else `_circle_reduce`."""
    a = series.coefficients
    if p == 2.0:
        nonzero = support[0]
        dilated = a[nonzero] * np.exp(nonzero * math.log(r))
        return MeanRow(p, r, math.sqrt(float(np.sum(np.abs(dilated) ** 2))), 0)
    value = _circle_reduce(a, support, p, r)
    return MeanRow(p, r, value, _sample_count(effective_degree(r, support[1]), p))


def means_table(
    series: CoefficientSeries, p_list: list[float], r_grid: list[float]
) -> RadialMeansTable:
    """One row per (p, r), computed independently, assembled in sorted order.

    Each row's point count N follows its own radius, so the
    `quadrature_size` column varies along the grid; a series of stride g
    transforms N / g of those points, which take every modulus the N take.
    """
    if not p_list or not r_grid:
        raise DomainError("p_list and r_grid must be nonempty")
    for r in r_grid:
        _check_radius(r)
    pairs = sorted((p, r) for p in set(p_list) for r in set(r_grid))
    support = _support(series.coefficients)
    rows = (_mean_row(series, support, p, r) for p, r in pairs)
    return RadialMeansTable(tuple(rows))


def dyadic_radii(max_degree: int) -> list[float]:
    """Default radius grid 1 - 2**-j, j = 1 .. floor(log2(max_degree)) - 1."""
    if max_degree < 1:
        raise DomainError("the dyadic radius grid needs max_degree >= 1")
    top = max(1, int(math.floor(math.log2(max_degree))) - 1)
    return [1.0 - 2.0**-j for j in range(1, top + 1)]


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of y against x."""
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(slope), float(intercept)


def fit_growth_exponent(table: RadialMeansTable, p: float) -> GrowthFit:
    """Least-squares slope of log(mean) against log(1/(1-r)).

    Only the upper half of the available radii enters the fit; the low
    radii are dominated by blocks the gates removed.  Rows with zero
    value cannot be log-fitted and are dropped first.
    """
    rows = [row for row in table.at_p(p) if row.value > 0.0]
    if len(rows) < 4:
        raise DomainError("growth fit needs at least 4 rows with positive value")
    upper = rows[len(rows) // 2 :]
    x = np.array([math.log(1.0 / (1.0 - row.r)) for row in upper])
    y = np.array([math.log(row.value) for row in upper])
    slope, intercept = _line_fit(x, y)
    resid = y - (slope * x + intercept)
    return GrowthFit(
        slope=slope,
        intercept=intercept,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        r_window=(upper[0].r, upper[-1].r),
    )


def _dyadic_eps(j_list: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """eps = -ln r at each r = 1 - 2**-j, as arrays (mant, k) with eps = mant * 2**-k.

    mant = -log1p(-2**-j) * 2**j is within 1.1e-16 of exact; past j = 60
    it is 1.0, as -ln(1 - x) = x (1 + x/2 + ...) rounds to x there.  k is
    j capped at 2**62, past every block's flat point (`_position_sums`),
    so the cap moves no row.  A j that is not an integer, a bool
    included, or is below 1 is a DomainError.
    """
    kinds = set(map(type, j_list))
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in kinds) or min(j_list, default=1) < 1:
        raise DomainError("dyadic exponents must be integers >= 1")
    k = np.minimum(np.array(j_list, dtype=object), 1 << 62).astype(np.int64)
    mant = np.ones(k.size)
    short = np.flatnonzero(k <= 60)
    mant[short] = [-math.ldexp(math.log1p(-math.ldexp(1.0, -j)), j) for j in k[short].tolist()]
    return mant, k


def dyadic_mean2_profile(
    ledger: BlockLedger,
    targets: TargetEnumeration,
    alpha: float,
    j_list: list[int],
) -> list[tuple[int, float]]:
    """(j, M_2 at r = 1 - 2**-j) rows of a planned construction, in input order.

    Works from the ledger, the targets and the alpha it was planned with,
    without coefficients; the squared coefficient magnitudes of a
    sign-family block do not depend on the signs, so

        M_2^2 = sum over blocks, target coefficients j0, positions m of
                |b_j0|^2 (j0+1)^(2a) (lo + gate*m + j0 + 1)^(-2a)
                * r^(2 (lo + gate*m + j0)).

    The grid's (mant, k) arrays are formed once, and each target's
    weighted coefficients once.  One pass over the built blocks and their
    nonzero weighted coefficients j0; each pair answers the whole j grid
    in array expressions (`_position_sums`), taken at the lower end of
    its bracket.  Repeated j are allowed.  alpha must be finite and >= 0:
    the bracket's direction rests on terms that fall with the position.
    A plan whose M_2**2 exceeds the float range is a DomainError.  Nothing
    checks the ledger's family or alpha: a star-family ledger, or an alpha
    other than the plan's, gives a wrong value silently (ROADMAP item 2).
    """
    if not 0.0 <= alpha < math.inf:
        raise DomainError("the planned mean needs a finite alpha >= 0")
    eps = _dyadic_eps(j_list)
    total = np.zeros(len(j_list))
    weighted: dict[int, np.ndarray] = {}
    with np.errstate(over="ignore"):  # a sum past the float range reads inf, rejected below
        for rec in ledger.built():
            assert rec.gate is not None and rec.budget is not None and rec.k is not None
            if rec.k not in weighted:
                weighted[rec.k] = index_weighted(targets.entry(rec.k).series, alpha).coefficients
            coeffs = weighted[rec.k]
            for j0 in np.flatnonzero(coeffs):
                lower, _ = _position_sums(rec.lo, rec.gate, rec.budget, int(j0), alpha, eps)
                total += abs(coeffs[j0]) ** 2 * lower
    if not np.isfinite(total).all():
        raise DomainError("M_2**2 of this plan exceeds the float range at some radius")
    return [(j, math.sqrt(t)) for j, t in zip(j_list, total.tolist())]


def _position_sums(
    lo: int, gate: int, budget: int, j0: int, alpha: float, eps: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on sum_m v**(-2a) * r**(2(v-1)) at each eps = mant * 2**-k.

    v = v0 + gate*m, v0 = lo + j0 + 1, m < N = budget; eps = (mant, k) is
    `_dyadic_eps` of the grid.  The terms decay by exp(-2 eps gate) per
    position, so only the first _EXP_FLOOR / (2 eps gate) of them matter.

    A radius whose eps puts the block beyond exp(-_EXP_FLOOR) gives 0.  A
    radius past the block's flat point, k > k_flat, where 2*eps*v <
    2**-_TAIL_BITS at every position, is clamped to eps = 2**-k_flat,
    where every r**(2(v-1)) already rounds to 1; that radius is evaluated
    once.  Every other radius takes one of three routes, each an array
    expression over the radii that take it:

    - alpha = 0: the geometric closed form, exp(-2 eps (v0-1)) times
      expm1(-2 eps gate N) / expm1(-2 eps gate); both ends are that value.
    - alpha > 0, at most _EXACT_TERMS terms matter: their float64 sum,
      every such radius reading one array of position logarithms; both
      ends are that value.
    - alpha > 0, more terms: Euler-Maclaurin over m = 0 .. N-1.  The
      terms are completely monotone in m, so the sum lies between the
      partial sum through the f'/12 term (upper end) and that sum minus
      the f'''/720 term (lower end), and above the lower end by at most
      the f^(5)/30240 term.  The width, |f'''(0)| / 720, is about
      c**4 / 720 of the sum while the terms fall by exp(-c) per
      position, c = 2 eps gate + 2a gate / v0: below 2.5e-11 at the
      crossover from the decay alone.  The end terms come from
      `em_end_terms`, the integral from `_ln_block_integral`.

    Every exponent is formed in log form from lo's bit length, so blocks
    beyond 2**1024 give finite values; 2 eps (v0 - 1) scales mant by the
    power of two 2**(e + 1 - k) exactly, 2**e <= lo < 2**(e + 1).  Each
    radius gets the value it gets when evaluated alone.
    """
    mant, k = eps
    e = lo.bit_length() - 1
    k_flat = _TAIL_BITS + 1 + (lo + j0 + 1 + gate * budget).bit_length()
    flat = k > k_flat
    live = ~flat & (e - k < 9)  # past that 2 eps 2**e is out of reach, and ldexp could overflow
    live[live] = np.ldexp(mant[live], e + 1 - k[live]) <= _EXP_FLOOR
    live_at, flat_at = np.flatnonzero(live), np.flatnonzero(flat)
    at = np.append(live_at, flat_at[:1])  # one flat radius, whose mant is 1.0, stands for all
    mant, k = mant[at], np.minimum(k[at], k_flat)
    v0 = lo + j0 + 1
    two_eps = np.ldexp(mant, 1 - k)
    shift = np.ldexp(mant, e + 1 - k) * (lo / (1 << e)) + two_eps * j0  # 2 eps (v0 - 1)
    a = shift + two_eps  # 2 eps v0
    lam_gate = a * (gate / v0)  # 2 eps gate
    ln_v0 = e * _LN2 + math.log1p((v0 - (1 << e)) / (1 << e))
    if alpha == 0.0:
        lower = upper = _geometric_sum(shift, lam_gate, a * (gate * budget / v0), budget)
    else:
        lower, upper = np.empty(at.size), np.empty(at.size)
        ln_mcut = math.log(_EXP_FLOOR) - (np.log(mant) - k * _LN2 + _LN2 + math.log(gate))
        short = np.minimum(math.log(budget), ln_mcut) <= math.log(_EXACT_TERMS)
        exact, em = np.flatnonzero(short), np.flatnonzero(~short)
        counts = [
            budget if ln_mcut[i] >= math.log(budget) else min(budget, int(math.exp(ln_mcut[i])) + 2)
            for i in exact
        ]
        m = np.arange(max(counts, default=0), dtype=np.float64)
        lnv = e * _LN2 + np.log1p((v0 - (1 << e)) / (1 << e) + m * math.ldexp(gate, -e))
        power = -2.0 * alpha * lnv
        for i, count in zip(exact, counts):
            lower[i] = upper[i] = np.exp(power[:count] - shift[i] - two_eps[i] * gate * m[:count]).sum()
        if em.size:
            z = 1.0 - 2.0 * alpha
            n1 = budget - 1
            x_end = gate * n1 / v0  # the last position's offset, in units of v0
            ln_x = math.log(x_end) if x_end >= sys.float_info.min else math.log(gate * n1) - math.log(v0)
            shift, a, lam_gate = shift[em], a[em], lam_gate[em]
            ax = a * x_end  # 2 eps gate (N - 1)
            # the integral of f over [0, N-1] is f(0) * (v0 / gate) * J
            ln_j = _ln_block_integral(z, a, x_end, ln_x)
            integral = np.exp(z * ln_v0 - math.log(gate) - shift + ln_j)
            f0 = np.exp(-2.0 * alpha * ln_v0 - shift)
            # f(N-1) / f0
            rho = np.where(ax < _EXP_FLOOR, np.exp(-ax - 2.0 * alpha * math.log1p(x_end)), 0.0)
            p = np.array([[gate / v0], [gate / (v0 + gate * n1)]])  # gate / v at both ends
            through_f1, f3_term = em_end_terms(  # ln f = -2a ln v - 2 eps v in m
                1.0, rho, -(2.0 * alpha * p + lam_gate), 2.0 * alpha * p * p, -4.0 * alpha * p**3
            )
            upper[em] = integral + f0 * through_f1
            lower[em] = upper[em] - f0 * f3_term
    out = np.zeros((2, flat.size))
    out[:, at] = lower, upper
    out[:, flat_at] = out[:, at[live_at.size :]]
    return out[0], out[1]


def _geometric_sum(shift: np.ndarray, lam: np.ndarray, lam_n: np.ndarray, budget: int) -> np.ndarray:
    """exp(-shift) * (1 - q**N) / (1 - q), q = exp(-lam), lam_n = N lam, N = budget.

    The quotient is N h(lam_n) / h(lam), h(y) = (1 - exp(-y)) / y, and the
    product is formed in log form: lam may be subnormal or 0, N past the
    float range, and exp(-shift) (1 - q**N) alone may underflow.  Both h
    read 1 at 0: lam_n is a * (gate N / v0) with a <= 2 _EXP_FLOOR on every
    radius evaluated, so it underflows to 0 only where its true value is
    below about _EXP_FLOOR * 2**-1074, and there h(lam_n) = 1 to full
    precision (0 < 1 - h(y) < y / 2).
    """
    h = np.divide(-np.expm1(-lam), lam, out=np.ones_like(lam), where=lam > 0.0)
    h_n = np.divide(-np.expm1(-lam_n), lam_n, out=np.ones_like(lam_n), where=lam_n > 0.0)
    return np.exp(math.log(budget) + np.log(h_n / h) - shift)


def _ln_block_integral(z: float, a: np.ndarray, x: float, ln_x: float) -> np.ndarray:
    """ln J at each a, J = integral from 0 to x of (1 + t)**(z-1) * exp(-a t) dt, z <= 1, a > 0.

    J is the integral over s = ln(1 + t) in [0, s_top] of exp(z s - a
    expm1(s)), whose log moves by at most |z| + a e**s_top per unit of s,
    the rate `ln_panel_integrals` takes for every a at once.  The interval
    is cut at t = c / a, c = 43 + (1 - z) ln 2 + max(0, -ln a): the tail
    past the cut is below e**-c / a, and J >= min(1, 1/a) 2**(z-1) / e, the
    integrand's floor on [0, min(1, 1/a)], which lies inside [0, x] wherever
    the cut does; so the tail is at most e**(1-c) 2**(1-z) / min(1, a) <=
    2**-60 of J.  An x below the float range gives ln J = ln_x: the
    integrand is 1 to within (a + 1 - z) x there.
    """
    if x < sys.float_info.min:
        return np.full(a.size, ln_x)
    c = 43.0 + (1.0 - z) * _LN2 + np.maximum(0.0, -np.log(a))
    s_top = np.log1p(np.minimum(x, c / a))
    return ln_panel_integrals(lambda s, i: z * s - a[i] * np.expm1(s), s_top, abs(z) + a * np.exp(s_top))
