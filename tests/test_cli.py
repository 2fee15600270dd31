import json

import numpy as np
import pytest

from tsl import cli, repro
from tsl.cli import USAGE_EXIT, main
from tsl.constructor import ConstructionSpec, Regime, Schedule, construct
from tsl.errors import ConstructionError
from tsl.means import dyadic_radii, fit_growth_exponent, means_table
from tsl.polybank import enumerate_targets
from tsl.series import MAX_SERIES_DEGREE, CoefficientSeries


def _single_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def _density_rows(path):
    return path.read_text().splitlines()[1:]


def _run_on_input(tmp_path, command, text, flags):
    """Exit code of `command` reading `text` (None: a missing file) as its input, out to tmp_path/out."""
    path = tmp_path / "input"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    if command == "construct":
        argv = ["construct", "--max-degree", "4096", "--targets", str(path),
                "--out", str(out), "--ledger", str(tmp_path / "ledger.csv")]
    elif command == "config":
        argv = ["targets", "--config", str(path), "--out", str(out)]
    else:
        argv = [command, "--in", str(path), "--out", str(out)]
    return main(argv + flags)


# an integer literal past Python's 4,300-digit limit for int parsing
HUGE = "1" + "0" * 4999

# a fittable means table: four p = 2 rows at distinct radii
FOUR_ROWS = "p,r,value,quadrature_size\n" + "".join(
    f"2,{r},{v},0\n" for r, v in ((0.5, 1.0), (0.75, 2.0), (0.875, 3.0), (0.9375, 4.0))
)


class TestExitCodes:
    def test_success(self, tmp_path):
        out = tmp_path / "density.csv"
        assert main(["density", "--gamma", "0.5", "--n-max", "4096", "--out", str(out)]) == 0
        rows = _density_rows(out)
        assert [row.split(",")[0] for row in rows] == ["1024", "2048", "4096"]

    def test_domain_error(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        assert main(["density", "--gamma", "1.5", "--out", str(out)]) == 1
        assert _single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("n_max", ["1000", "1023", "1", "0", "-5"])
    def test_density_below_first_horizon_is_a_domain_error(self, tmp_path, capsys, n_max):
        out = tmp_path / "density.csv"
        assert main(["density", "--gamma", "0.5", "--n-max", n_max, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1024" in err and "2^10" in err
        assert not out.exists()

    def test_density_at_first_horizon(self, tmp_path):
        out = tmp_path / "density.csv"
        assert main(["density", "--gamma", "0.5", "--n-max", "1024", "--out", str(out)]) == 0
        assert [row.split(",")[0] for row in _density_rows(out)] == ["1024"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"max_degree": 0}',
            "[[1.0, 0.0]]",
            '{"max_degree": 0, "coefficients": [1.0]}',
            '{"max_degree": 0, "coefficients": [[1.0, 0.0]]}',
            "{",
        ],
    )
    def test_malformed_series_is_a_domain_error(self, tmp_path, capsys, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        assert main(["means", "--in", str(path), "--out", str(tmp_path / "m.csv")]) == 1
        assert _single_error_line(capsys)

    @pytest.mark.parametrize(
        "command,text,flags",
        [
            ("means", '{"max_degree": 1, "terms": []}', ["--p", "abc"]),
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "dyadic:x"]),
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "0.5,foo"]),
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "dyadicXYZ"]),
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "dyadic:0"]),
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "dyadic:-1"]),
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "dyadic:2.5"]),
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "dyadic:"]),
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "0.5,,0.75"]),
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "dyadic:54"]),
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "dyadic:60"]),
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "dyadic:" + HUGE]),
            ("means", '{"max_degree": %s, "terms": []}' % HUGE, []),
            ("means", None, []),
            ("means", b"\xff\xfe{", []),
            ("construct", None, []),
            ("construct", '[{"k": 1}]', []),
            ("construct", "{", []),
            ("construct", '{"k": 1}', []),
            ("construct", '[{"k": 1, "degree": 0, "l_k": 1, "coefficients": [[1, 0, 0]]}]', []),
            ("construct", '[{"k": 1, "degree": 0, "l_k": 1, "coefficients": [[1.5, 0, 1]]}]', []),
            ("construct", '[{"k": 1, "degree": 0, "l_k": 0, "coefficients": [[0, 0, 1]]}]', []),
            ("construct", '[{"degree": 0, "l_k": 1, "coefficients": [[1%s, 0, 1]]}]' % ("0" * 400), []),
            ("construct", '[{"k": 1, "degree": 1, "l_k": 1, "coefficients": [[1, 0, 1]]}]', []),
            ("construct", '[{"k": 1, "degree": 0, "l_k": 1, "coefficients": [[1, 1, 1]]}]', []),
            ("construct", '[{"degree": 0, "l_k": %s, "coefficients": [[1, 0, 1]]}]' % HUGE, []),
            ("construct", '[{"degree": 0, "l_k": 1%s, "coefficients": [[1, 0, 1]]}]' % ("0" * 200), []),
            ("construct", '[{"degree": 0, "l_k": 1%s, "coefficients": [[1, 0, 1]]}]' % ("0" * 400), []),
            ("config", '{"count": %s}' % HUGE, []),
            ("fit", "p,r,value,quadrature_size\n2,0.5,1\n", []),
            ("fit", "p,r,value,quadrature_size\n2,half,1.0,0\n", []),
            ("fit", "p,r,value\n2,0.5,1.0\n", []),
            ("fit", None, []),
            ("fit", FOUR_ROWS + "2,1.5,1.0,0\n", []),
            ("fit", FOUR_ROWS + "2,1,1.0,0\n", []),
            ("fit", FOUR_ROWS.replace("2,0.5,1.0,0", "2,0.5,1.0,-1"), []),
            ("fit", FOUR_ROWS + "2,0.9375,100,0\n", []),
        ],
        ids=[
            "p-abc", "grid-dyadic-x", "grid-foo", "grid-dyadic-suffix", "grid-dyadic-0",
            "grid-dyadic-negative", "grid-dyadic-fraction", "grid-dyadic-empty", "grid-empty-radius",
            "grid-dyadic-54", "grid-dyadic-60", "grid-dyadic-huge", "series-5000-digits",
            "series-missing", "series-not-utf8",
            "targets-missing", "targets-no-keys", "targets-not-json", "targets-not-a-list",
            "targets-zero-denominator", "targets-float-coefficient", "targets-zero-bound",
            "targets-huge-coefficient", "targets-wrong-degree", "targets-bound-below-norm",
            "targets-5000-digits", "targets-bound-1e200", "targets-bound-1e400", "config-5000-digits",
            "means-three-columns", "means-non-numeric-r", "means-wrong-header", "means-missing",
            "means-radius-past-one", "means-radius-one", "means-negative-size",
            "means-repeated-row",
        ],
    )
    def test_malformed_input_is_a_domain_error(self, tmp_path, capsys, command, text, flags):
        assert _run_on_input(tmp_path, command, text, flags) == 1
        assert _single_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,text,flags,named",
        [
            ("means", '{"max_degree": 1, "terms": []}', ["--grid", "dyadic:54"], ["dyadic:54", "53"]),
            ("means", '{"max_degree": %s, "terms": []}' % HUGE, [], ["input series", "input", "4300"]),
            ("construct", '[{"degree": 0, "l_k": %s, "coefficients": [[1, 0, 1]]}]' % HUGE, [],
             ["targets file", "input"]),
            ("construct", '[{"degree": 0, "l_k": 1%s, "coefficients": [[1, 0, 1]]}]' % ("0" * 400), [],
             ["l = 1" + "0" * 400 + " "]),
            ("construct", '[{"degree": 0, "l_k": 1%s, "coefficients": [[1%s, 0, 1]]}]' % ("0" * 400, "0" * 400),
             [], ["target 1"]),
            ("config", '{"count": %s}' % HUGE, [], ["config file", "input"]),
            # a parser's own DomainError passes through with its message unchanged
            ("construct", '[{"degree": 1, "l_k": 1, "coefficients": [[1, 0, 1]]}]', [],
             ["error: degree of target 1 disagrees with its coefficients"]),
        ],
        ids=["grid-dyadic-54", "series-5000-digits", "targets-5000-digits", "targets-bound-1e400",
             "targets-numerator-1e400", "config-5000-digits", "targets-parser-message"],
    )
    def test_oversized_input_names_its_cause(self, tmp_path, capsys, command, text, flags, named):
        assert _run_on_input(tmp_path, command, text, flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(word in err for word in named), err

    def test_series_degree_above_limit_is_a_domain_error(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        obj = {"max_degree": MAX_SERIES_DEGREE + 1, "terms": [[0, 1.0, 0.0]]}
        path.write_text(json.dumps(obj) + "\n")
        assert path.stat().st_size == 51
        out = tmp_path / "m.csv"
        assert main(["means", "--in", str(path), "--out", str(out)]) == 1
        assert _single_error_line(capsys)
        assert not out.exists()

    def test_construct_nan_conjugate_exponent_is_a_domain_error(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        argv = ["construct", "--regime", "star", "--q", "nan", "--out", str(out),
                "--ledger", str(tmp_path / "ledger.csv")]
        assert main(argv) == 1
        assert _single_error_line(capsys)
        assert not out.exists()

    def test_construct_degree_above_limit_is_a_domain_error(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        argv = ["construct", "--max-degree", str(MAX_SERIES_DEGREE + 1), "--out", str(out),
                "--ledger", str(tmp_path / "ledger.csv")]
        assert main(argv) == 1
        assert _single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_construct_overflowing_block_weights_is_a_domain_error(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        argv = ["construct", "--alpha", "-120", "--gamma", "0", "--max-degree", "4096",
                "--out", str(out), "--ledger", str(tmp_path / "ledger.csv")]
        assert main(argv) == 1
        assert _single_error_line(capsys)
        assert not out.exists()

    def test_construction_error_is_exit_one(self, tmp_path, monkeypatch, capsys):
        # no plan construct builds reaches a ConstructionError; the command must still report one
        def overrun(spec, targets):
            raise ConstructionError("block n=4 (target 2, budget 5) spans 17 coefficients but its interval holds 16")

        monkeypatch.setattr(cli, "construct", overrun)
        out = tmp_path / "f.json"
        argv = ["construct", "--out", str(out), "--ledger", str(tmp_path / "ledger.csv")]
        assert main(argv) == 1
        assert _single_error_line(capsys)
        assert not out.exists()

    def test_verification_failure(self, tmp_path, monkeypatch, capsys):
        def failing(seed):
            return {"name": "orbit-visits", "passed": False}

        monkeypatch.setitem(repro.REGISTRY, "orbit-visits", failing)
        report = tmp_path / "repro.json"
        assert main(["repro", "--theorem", "orbit-visits", "--out", str(report)]) == 2
        assert str(report) in capsys.readouterr().out
        assert json.loads(report.read_text())["passed"] is False

    def test_unknown_theorem(self, tmp_path, capsys):
        out = tmp_path / "repro.json"
        assert main(["repro", "--theorem", "no-such-check", "--out", str(out)]) == 1
        assert _single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("theorem, seed", [("all", "-1"), ("lemma-oracles", "-3")])
    def test_negative_seed_is_a_domain_error(self, tmp_path, capsys, theorem, seed):
        # the checks seed PCG64 with seed + k, which numpy rejects below 0
        out = tmp_path / "repro.json"
        assert main(["repro", "--theorem", theorem, "--seed", seed, "--out", str(out)]) == 1
        assert _single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["no-such-command"], ["density"], ["verify"],
            ["means", "--in", "f.json", "--quadrature-size", "64"],
            ["targets", "--seed", "1"],
            ["construct", "--seed", "1"],
            ["means", "--in", "f.json", "--seed", "1"],
            ["fit", "--in", "means.csv", "--seed", "1"],
            ["density", "--gamma", "0.5", "--seed", "1"],
        ],
    )
    def test_usage(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == USAGE_EXIT == 64


class TestPipeline:
    def test_construct_means_fit_through_files(self, tmp_path):
        paths = {name: tmp_path / name for name in
                 ("targets.json", "f.json", "ledger.csv", "means.csv", "fit.json")}
        assert main(["targets", "--count", "8", "--out", str(paths["targets.json"])]) == 0
        assert main([
            "construct", "--gamma", "0", "--max-degree", "4096",
            "--targets", str(paths["targets.json"]),
            "--out", str(paths["f.json"]), "--ledger", str(paths["ledger.csv"]),
        ]) == 0
        assert main(["means", "--in", str(paths["f.json"]), "--p", "1,2,inf",
                     "--out", str(paths["means.csv"])]) == 0
        assert main(["fit", "--in", str(paths["means.csv"]), "--gamma", "0",
                     "--out", str(paths["fit.json"])]) == 0

        spec = ConstructionSpec(
            alpha=0.0, gamma=0.0, regime=Regime.RS, schedule=Schedule.DYADIC, max_degree=4096
        )
        series, ledger = construct(spec, enumerate_targets(8))
        assert np.count_nonzero(series.coefficients) > 0
        obj = json.loads(paths["f.json"].read_text())
        assert obj["max_degree"] == 4096
        assert [t[0] for t in obj["terms"]] == np.flatnonzero(series.coefficients).tolist()
        loaded = CoefficientSeries.from_json_obj(obj)
        assert np.array_equal(loaded.coefficients, series.coefficients)
        assert paths["ledger.csv"].read_text() == ledger.to_csv()
        table = means_table(series, [1.0, 2.0, float("inf")], dyadic_radii(4096))
        assert paths["means.csv"].read_text() == table.to_csv()
        fit = json.loads(paths["fit.json"].read_text())
        assert fit["slope"] == fit_growth_exponent(table, 2.0).slope


class TestMeansGrid:
    @pytest.mark.parametrize(
        "grid, radii",
        [
            ("dyadic", dyadic_radii(4096)),
            ("dyadic:3", [0.5, 0.75, 0.875]),
            ("dyadic:12", dyadic_radii(1 << 13)),
            ("0.5, 0.9", [0.5, 0.9]),
        ],
    )
    def test_documented_grids(self, tmp_path, grid, radii):
        series = tmp_path / "f.json"
        series.write_text('{"max_degree": 4096, "terms": [[0, 1.0, 0.0], [4096, 1.0, 0.0]]}')
        out = tmp_path / "m.csv"
        assert main(["means", "--in", str(series), "--grid", grid, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == radii

    @pytest.mark.parametrize("p_list", ["1,inf", "1,Inf,infinity", " 1 , INF ", "Infinity,1,1"])
    def test_spellings_of_infinity(self, tmp_path, p_list):
        series = tmp_path / "f.json"
        series.write_text('{"max_degree": 4096, "terms": [[0, 1.0, 0.0], [4096, 1.0, 0.0]]}')
        out = tmp_path / "m.csv"
        assert main(["means", "--in", str(series), "--p", p_list, "--grid", "0.5", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "inf"]


class TestTinyGammaDensity:
    def test_empty_separating_set_profiles_to_zero(self, tmp_path):
        out = tmp_path / "density.csv"
        assert main(["density", "--gamma", "1e-5", "--n-max", "4096", "--out", str(out)]) == 0
        assert all(float(row.split(",")[2]) == 0.0 for row in _density_rows(out))


class TestVerifyRouting:
    """Each suite of the former `tsl verify` is reached through `tsl repro --theorem`."""

    THEOREM_OF_SUITE = {
        "lemmas": "lemma-oracles",
        "asymptotic": "lemma-oracles",
        "visits": "orbit-visits",
        "all": "all",
    }

    @pytest.mark.parametrize(
        "suite,expected",
        [
            ("lemmas", ["lemma-oracles"]),
            ("asymptotic", ["lemma-oracles"]),
            ("visits", ["orbit-visits"]),
            ("all", list(repro.REGISTRY)),
        ],
    )
    def test_suite_runs_registry_checks_once(self, tmp_path, monkeypatch, capsys, suite, expected):
        theorem = self.THEOREM_OF_SUITE[suite]
        calls = []

        def recorder(name):
            def check(seed):
                calls.append((name, seed))
                return {"name": name, "passed": True}

            return check

        for name in list(repro.REGISTRY):
            monkeypatch.setitem(repro.REGISTRY, name, recorder(name))
        out = tmp_path / "repro.json"
        assert main(["repro", "--theorem", theorem, "--seed", "7", "--out", str(out)]) == 0
        assert calls == [(name, 7) for name in expected]
        payload = json.loads(out.read_text())
        assert payload["seed"] == 7 and payload["passed"] is True
        assert [r["name"] for r in payload["reports"]] == expected
        assert all(r["seconds"] >= 0.0 for r in payload["reports"])  # timed once, by run_named
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [["PASS", name] for name in expected]


class TestConfig:
    def test_explicit_flag_beats_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n-max": 2048, "weight-gamma": 0.25}))
        out = tmp_path / "density.csv"
        argv = ["density", "--gamma", "0.5", "--n-max", "4096", "--config", str(config)]
        assert main(argv + ["--out", str(out)]) == 0
        rows = _density_rows(out)
        assert len(rows) == 3  # the flag's n_max, 2**10 .. 2**12
        assert all(row.split(",")[1] == "0.25" for row in rows)  # the config's default

    @pytest.mark.parametrize(
        "flag", [["--n-max=4096"], ["--n-m", "4096"]], ids=["--n-max=4096", "--n-m 4096"]
    )
    def test_explicit_flag_with_equals_beats_config(self, tmp_path, flag):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n-max": 2048}))
        out = tmp_path / "density.csv"
        argv = ["density", "--gamma=0.5", *flag, "--config", str(config)]
        assert main(argv + ["--out", str(out)]) == 0
        assert len(_density_rows(out)) == 3

    def test_config_fills_unset_flag(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n-max": 2048}))
        out = tmp_path / "density.csv"
        argv = ["density", "--gamma", "0.5", "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        assert len(_density_rows(out)) == 2

    @pytest.mark.parametrize(
        "text",
        ['{"no-such-flag": 1}', '{"command": "targets"}', "[1, 2]", "{", None, '{"seed": 1}'],
    )
    def test_bad_config_is_a_domain_error(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        if text is not None:  # None: the file is missing
            config.write_text(text)
        argv = ["density", "--gamma", "0.5", "--config", str(config)]
        assert main(argv + ["--out", str(tmp_path / "d.csv")]) == 1
        assert _single_error_line(capsys)
