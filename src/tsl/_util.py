"""Shared helpers: atomic output, float formatting, one panel engine and one Euler-Maclaurin engine."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np


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


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1].

    Newton's method on the Legendre polynomial P_n from the usual cosine
    guesses, all roots at once (numpy.linalg is not loaded for this).
    """
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    return (1.0 - x) / 2.0, 1.0 / ((1.0 - x * x) * slope * slope)


GL_NODES, GL_WEIGHTS = gauss_legendre(20)  # the package's one quadrature rule


def ln_panel_integrals(log_f, s_top: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """ln of the integral of exp(log_f(s, item)) over [0, s_top[item]], for each item.

    Item i takes max(1, ceil(s_top[i] rate[i])) uniform panels of the rule,
    so a log_f moving by at most rate per unit of s moves by at most 1 on
    each.  `log_f` gets every panel's nodes as a row, with the row's item
    as a column.  Rows are summed one by one and each item's rows with
    `np.add.reduceat`, so no item's value depends on the others (a BLAS
    product's order of summation would depend on the row count).
    """
    panels = np.maximum(1.0, np.ceil(s_top * rate)).astype(np.int64)
    first = np.cumsum(panels) - panels
    item = np.repeat(np.arange(panels.size), panels)
    width = s_top / panels
    s = ((np.arange(item.size) - first[item])[:, None] + GL_NODES) * width[item, None]
    rows = (np.exp(log_f(s, item[:, None])) * GL_WEIGHTS).sum(axis=1)
    return np.log(width * np.add.reduceat(rows, first))


def em_end_terms(f_lo, f_hi, u1, u2, u3):
    """Euler-Maclaurin end terms of the sum of f over lo .. hi, beside the integral of f.

    u1, u2, u3 are (ln f)', (ln f)'', (ln f)''' at lo and hi, stacked on
    the first axis; f''' / f is their Bell polynomial u3 + 3 u1 u2 + u1**3.
    Returns (f(lo) + f(hi)) / 2 + (f'(hi) - f'(lo)) / 12 and the next
    term, (f'''(hi) - f'''(lo)) / 720, which the sum subtracts.
    """
    d3 = u3 + 3.0 * u1 * u2 + u1**3
    return (f_lo + f_hi) / 2.0 + (f_hi * u1[1] - f_lo * u1[0]) / 12.0, (f_hi * d3[1] - f_lo * d3[0]) / 720.0
