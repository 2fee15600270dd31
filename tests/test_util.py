import math
import os

import numpy as np
import pytest

from tsl._util import atomic_write_text, em_end_terms, ln_panel_integrals


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first\n")
        atomic_write_text(path, "second\n")
        assert path.read_text() == "second\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            atomic_write_text(path, "new\n")
        assert path.read_text() == "old\n"
        assert not list(tmp_path.glob("*.tmp"))
        assert os.listdir(tmp_path) == ["out.txt"]


class TestQuadratureEngine:
    def test_panel_integrals_of_exponentials(self):
        # the integral of exp(-lam s) over [0, s_top] is -expm1(-lam s_top) / lam
        lam = np.array([1e-3, 0.5, 3.0, 40.0])
        s_top = np.array([2.0, 1.0, 5.0, 0.25])
        got = ln_panel_integrals(lambda s, i: -lam[i] * s, s_top, lam)
        assert np.abs(got - np.log(-np.expm1(-lam * s_top) / lam)).max() <= 1e-15

    def test_end_terms_sum_a_geometric_series(self):
        # f(m) = exp(c m): (ln f)' = c and the higher derivatives vanish; the
        # remainder is the f^(5) / 30240 term, and without the f''' term the sum is 1.4e-11 off
        c, hi = -0.01, 300
        through_f1, f3_term = em_end_terms(1.0, math.exp(c * hi), np.full(2, c), np.zeros(2), np.zeros(2))
        exact = math.fsum(math.exp(c * m) for m in range(hi + 1))
        assert abs(math.expm1(c * hi) / c + through_f1 - f3_term - exact) <= 1e-14 * exact
        assert abs(math.expm1(c * hi) / c + through_f1 - exact) > 1e-12 * exact
