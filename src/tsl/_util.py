"""Small shared helpers: atomic output, float formatting and the quadrature rule."""

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
