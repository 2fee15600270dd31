"""Shared helpers: atomic output, float formatting, and the one engine for sums over an arithmetic progression."""

from __future__ import annotations

import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

_LN2 = math.log(2.0)
_EM_BITS = 56  # a head ends where the Euler-Maclaurin remainder bound is below 2**-_EM_BITS of the sum
_LADDER = np.ceil(2.0 ** (np.arange(260) / 4.0))  # the quarter-octave grid 1 .. 2**64.75, past every start
_BIG = float(1 << 64)
_ALL = slice(None)


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip stable)."""
    return f"{x:.17g}"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The package's one quadrature rule: the 20-point Gauss-Legendre rule on [0, 1], symmetric about 1/2.
# Its lower ten (node, weight) pairs, correctly rounded from a 60-digit Newton iteration on P_20; a
# float64 Newton iteration leaves weights up to 8e-15 off, which every panel integral inherits.
_GL_HALF = np.array([
    (0.0034357004074525377, 0.008807003569576059), (0.018014036361043106, 0.02030071490019347),
    (0.04388278587433705, 0.031336024167054534), (0.0804415140888906, 0.04163837078835238),
    (0.1268340467699246, 0.05096505990862022), (0.1819731596367425, 0.059097265980759206),
    (0.24456649902458646, 0.06584431922458832), (0.3131469556422902, 0.07104805465919102),
    (0.38610707442917747, 0.07458649323630187), (0.46173673943325133, 0.07637669356536292),
])
GL_NODES = np.concatenate([_GL_HALF[:, 0], 1.0 - _GL_HALF[::-1, 0]])
GL_WEIGHTS = np.concatenate([_GL_HALF[:, 1], _GL_HALF[::-1, 1]])


def panel_means(log_f, s_top: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """The mean of exp(log_f(s, item)) over [0, s_top[item]], for each item.

    Item i takes max(1, ceil(s_top[i] rate[i] / 4)) uniform panels of the
    rule, so a log_f moving by at most rate per unit of s moves by at most
    4 on each, where the rule is exact to rounding; an s_top of 0 gives
    exp(log_f(0, item)).
    `log_f` gets every panel's nodes as a row, with the row's item as a
    column.  Rows are summed one by one and each item's rows with
    `np.add.reduceat`, so no item's value depends on the others (a BLAS
    product's order of summation would depend on the row count).
    """
    panels = np.maximum(1.0, np.ceil(s_top * rate / 4.0)).astype(np.int64)
    first = np.cumsum(panels) - panels
    item = np.repeat(np.arange(panels.size), panels)
    width = s_top / panels
    s = ((np.arange(item.size) - first[item])[:, None] + GL_NODES) * width[item, None]
    rows = (np.exp(log_f(s, item[:, None])) * GL_WEIGHTS).sum(axis=1)
    return np.add.reduceat(rows, first) / panels


def em_end_terms(f, p, d1, d2, d3):
    """Euler-Maclaurin end terms of the sum of f over lo .. hi through f''', beside the integral of f.

    f, p = gate / v and phi', phi'', phi''' (phi = ln f in ln v) at lo and hi come stacked on the
    first axis; in m, f''' / f = u3 + 3 u1 u2 + u1**3, u1 = p phi', u2 = p**2 (phi'' - phi'),
    u3 = p**3 (phi''' - 3 phi'' + 2 phi').
    Returns (f(lo) + f(hi)) / 2 + (f'(hi) - f'(lo)) / 12 - (f'''(hi) - f'''(lo)) / 720.
    """
    bend = 3.0 * (d2 - d1)
    g = f * p * (d1 / 12.0 - p * p * (d3 - d1 - bend + (bend + d1 * d1) * d1) / 720.0)
    return (f[0] + f[1]) / 2.0 + g[1] - g[0]


def _sixth_bound(p: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """prod_{i<6} p (|slope| + i), a bound on |f^(6) / f| where p = gate / v and slope = (ln f)' in ln v."""
    r = np.abs(slope)
    u = r * (r + 5.0)  # r (r + 1) ... (r + 5) = u (u + 4) (u + 6)
    return p**6 * (u * (u + 4.0) * (u + 6.0))


def ln_geometric_sums(peak: np.ndarray, lam: np.ndarray, lam_n: np.ndarray, ln_n) -> np.ndarray:
    """ln(exp(peak) (1 - r**N) / (1 - r)), r = exp(-lam), lam_n = N lam, ln_n = ln N.

    The sum of N terms whose log is linear, exp(peak) the largest.  As N h(lam_n) / h(lam),
    h(y) = (1 - exp(-y)) / y, in log form: lam may be 0 or subnormal and N past the float range;
    h reads 1 at 0, exact to rounding where lam_n underflows (y / 2 > 1 - h).
    """
    h = np.divide(-np.expm1(-lam), lam, out=np.ones_like(lam), where=lam > 0.0)
    h_n = np.divide(-np.expm1(-lam_n), lam_n, out=np.ones_like(lam_n), where=lam_n > 0.0)
    return ln_n + np.log(h_n / h) + peak


def progression_sums(phi, dphi, v0, gate: int, count, size: int, power: float = 0.0):
    """v0**power times the sum of f_i(v0 + gate m) / f_i(v0) over m < N, as (unit, total, bound, head).

    The sum lies within exp(unit) total (1 -/+ bound), and `head` counts the terms summed one by
    one.  f_i comes in offset form, phi(w, i) = ln f_i(v0 e**w) - ln f_i(v0) with w = ln(v / v0),
    and dphi(w, i) gives phi', phi'', phi'''.  v0 and N are one Python integer for all `size`
    items, or int64 arrays with one per item.  ln f must not be linear in m (that sum is
    `ln_geometric_sums`), the terms must be monotone and, with p = gate / v, p |phi'| must not
    grow along the progression, the k-th derivative of ln f in m be at most p |phi'| (k-1)!
    p**(k-1) and f^(6) keep one sign: true of v**(-s) exp(-lam v) and of exp(v**gamma),
    0 < gamma < 1.

    The head m < a is summed term by term, relative to its largest term exp(top), and m = a ..
    N-1 by Euler-Maclaurin through f''' (the one panel integral, `em_end_terms`), whose
    remainder is below B(a) rho(a) / 30240 of the sum: B the `_sixth_bound`, rho = min(1, f(a)
    min(1 / c, N-1-a) / f(0)) where the terms fall by c per step at N-1, else 1.  Both fall
    along the progression, so the head ends at the first a with B(a) rho(a) <= 30240 *
    2**-_EM_BITS: 0, else a point of `_LADDER` in offsets a where the terms fall and in
    positions v0 + gate a where they grow, else N.  Where the terms fall, the integral stops
    C / kappa past x(a), x = v / v0 - 1, kappa their decay per unit of x at N-1 and C = 60 ln 2
    + 1 + max(0, ln(|phi'(0)| / kappa)), and drops less than 2**-60 of itself.  A tail alone
    has unit ln(N-1-a) + its larger end's ln f, plus power ln v0, or, where the span x(N-1) -
    x(a) is a normal float, (power + 1) ln v0 - ln gate + ln(span), so no exponent as large as
    ln v0 rounds it; after a head it joins the head's unit, top + power ln v0, in linear form.
    Each item gets the bits it gets alone.
    """
    if isinstance(v0, int):  # one v0 and N for every item, Python integers of any size
        row = [gate / v0, gate * (count - 1) / v0, float(min(count - 1, _BIG)), min(v0, _BIG) / gate, math.log(v0)]
        q, x_end, last, start, ln_v0 = np.full((size, 5), row).T
    else:
        q, x_end, last, start = gate / v0, gate * (count - 1) / v0, (count - 1).astype(np.float64), v0 / gate
        ln_v0 = np.log(v0) if power else None
    x = np.zeros((2, size))  # the offsets of m = 0 and N-1
    x[1] = x_end
    d1 = dphi(np.log1p(x), _ALL)[0]
    threshold = 30240.0 * 2.0**-_EM_BITS
    bound, least = _sixth_bound(q / (1.0 + x), d1)
    head = np.where((d1[1] > 0.0) & (least > threshold) | (last < 2.0), _BIG, 0.0)  # growing: B is least at N-1
    search = ((bound > threshold) & (head == 0.0)).nonzero()[0]
    if search.size:  # the candidates on `_LADDER`, each row's last column N-2
        rows, grow = search[:, None], d1[1, search] > 0.0
        start, final = start[search] * grow, last[search] - 1.0
        lowest = np.searchsorted(_LADDER, start, "right")
        cols = lowest[:, None] + np.arange((np.searchsorted(_LADDER, start + final) - lowest).max() + 1)
        m = np.minimum(np.ceil(_LADDER[np.minimum(cols, _LADDER.size - 1)] - start[:, None]), final[:, None])
        offsets = q[rows] * m
        w = np.log1p(offsets)
        value = _sixth_bound(q[rows] / (1.0 + offsets), dphi(w, rows)[0])
        if not grow.all():  # rho = f(a) min(1 / c, N-1-a) / f(0), c the decay per step at N-1
            fall = ~grow
            c = -(d1[1] * q / (1.0 + x_end))[rows[fall]]
            ln_rho = phi(w[fall], rows[fall]) + np.log(np.minimum(1.0 / c, last[rows[fall]] - m[fall]))
            value[fall] *= np.exp(np.minimum(ln_rho, 0.0))
        best = (np.arange(search.size), np.minimum((value > threshold).sum(axis=1), m.shape[1] - 1))  # value falls
        head[search], bound[search] = m[best], value[best]
    whole = head >= last - 1.0  # a tail of one or two terms is summed too
    head, bound = np.where(whole, last + 1.0, head), np.where(whole, 0.0, bound)
    unit, total, top = np.zeros((3, size))
    summed = head.nonzero()[0]
    if summed.size:
        terms = head[summed].astype(np.int64)
        first = np.cumsum(terms) - terms
        top[summed] = np.maximum(phi(np.log1p(q[summed] * (terms - 1)), summed), 0.0)  # monotone: an end's term
        m = np.arange(first[-1] + terms[-1]) - np.repeat(first, terms)
        w = np.log1p(np.repeat(q[summed], terms) * m)
        ln_terms = phi(w, np.repeat(summed, terms)) - np.repeat(top[summed], terms)
        total[summed] = np.add.reduceat(np.exp(ln_terms), first)
        unit[summed] = top[summed] + power * ln_v0[summed] if power else top[summed]
    tail = (head <= last).nonzero()[0]
    if tail.size:  # m = a .. N-1 by Euler-Maclaurin
        a, q_t, x = head[tail], q[tail], np.empty((2, tail.size))  # the offsets of a and N-1
        x[0], x[1] = q_t * a, x_end[tail]
        if isinstance(v0, int):  # the span and ln(N-1-a) from the integers
            span, ln_n = x[1].copy(), np.full(tail.size, math.log(count - 1))
            for i in a.nonzero()[0].tolist():
                n = count - 1 - int(a[i])
                span[i], ln_n[i] = gate * n / v0, math.log(n)
        else:
            n = count[tail] - 1 - a.astype(np.int64)
            span, ln_n = gate * n / v0[tail], np.log(n)
        normal = span >= sys.float_info.min  # else the offsets round to 0, the terms are equal and the
        span = np.maximum(span, sys.float_info.min)  # integral over a span this small is its length
        kappa = -d1[1, tail] / (1.0 + x[1])
        width, cut = span, (kappa * span > 60.0 * _LN2 + 1.0).nonzero()[0]
        if cut.size:  # the terms fall, and past C / kappa they weigh nothing
            c = 60.0 * _LN2 + 1.0 + np.log(np.maximum(-d1[0, tail[cut]] / kappa[cut], 1.0))
            width = span.copy()
            width[cut] = np.minimum(span[cut], c / kappa[cut])
        w = np.empty((3, tail.size))  # ln(v / v0) at a, at N-1 and at the integral's top
        w[:2], s_top = np.log1p(x), np.log1p(width / (1.0 + x[0]))
        w[2] = w[0] + s_top
        e1, e2, e3 = dphi(w, tail)
        phi_ends = phi(w[:2], tail)
        ref = np.maximum(phi_ends[0], phi_ends[1])
        rate = np.maximum(np.abs(1.0 + e1[0]), np.abs(1.0 + e1[2]))  # log f e**s moves fastest at an end
        mean = panel_means(lambda s, j: phi(w[0, j] + s, tail[j]) - ref[j] + s, s_top, rate)
        edges = em_end_terms(np.exp(phi_ends - ref), q_t / (1.0 + x), e1[:2], e2[:2], e3[:2])
        per_unit = s_top * (1.0 + x[0]) / span * mean + edges * np.exp(-ln_n)  # in units of (N-1-a) e**ref
        tail_unit = ln_n + ref
        if power:  # times v0**power, whose ln v0 enters once where the span is a normal float
            tail_unit += power * ln_v0[tail]
            span_unit = (power + 1.0) * ln_v0[tail] - math.log(gate) + np.log(span) + ref
            tail_unit[normal] = span_unit[normal]
        joined = a.nonzero()[0]
        if joined.size:  # after a head, in its unit: e**(ref - top) times (v0 / gate) the integral plus the end terms
            i = tail[joined]
            integral = (1.0 + x[0, joined]) * s_top[joined] * mean[joined] / q[i]
            per_unit[joined], tail_unit[joined] = np.exp(ref[joined] - top[i]) * (integral + edges[joined]), unit[i]
        total[tail] += per_unit
        unit[tail] = tail_unit
    return unit, total, bound / 30240.0, head
