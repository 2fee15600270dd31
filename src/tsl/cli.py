"""Command line front end.

Subcommands cover the pipeline end to end: target enumeration, block
construction, radial means, growth fits, density studies, and the named
checks of `tsl.repro.REGISTRY`, which `repro --theorem <name|all>` runs.
All outputs are written atomically (temp file + rename); CSV and JSON
numbers carry 17 significant digits.

FFT sizes are derived from the input, never set: each sampled mean takes
the next power of two above 4*(D+1) points (8*(D+1) at p = inf), D the
effective degree of its radius.  Only `repro` reads a seed (`--seed`).

Exit codes: 0 success, 1 domain error (single-line diagnostic on
stderr), 2 a named `repro` check failed (report path printed), 64 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from io import StringIO
from pathlib import Path
from typing import Callable, TypeVar

from tsl._util import atomic_write_text, fmt17
from tsl.constructor import (
    ConstructionSpec,
    Regime,
    Schedule,
    construct,
    quadratic_schedule,
)
from tsl.densities import prefix_density_profile, separating_set
from tsl.errors import ConstructionError, DomainError
from tsl.means import (
    RadialMeansTable,
    critical_exponent,
    dyadic_radii,
    fit_growth_exponent,
    means_table,
)
from tsl.polybank import TargetEnumeration, enumerate_targets
from tsl.repro import DEFAULT_SEED, REGISTRY, run_named
from tsl.series import CoefficientSeries

T = TypeVar("T")
USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="tsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON file of flag defaults")

    p = sub.add_parser("targets", parents=[common], help="enumerate target polynomials")
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--out", type=str, default="targets.json")

    p = sub.add_parser("construct", parents=[common], help="build a block construction")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--regime", choices=["rs", "star"], default="rs")
    p.add_argument("--schedule", choices=["dyadic", "u2"], default="dyadic")
    p.add_argument("--q", type=float, default=math.inf, help="conjugate exponent for the star gate")
    p.add_argument("--max-degree", type=int, default=1 << 20)
    p.add_argument("--targets", type=str, default=None, help="targets.json (default: enumerate 64)")
    p.add_argument(
        "--out", type=str, default="f.json",
        help='series file, {"max_degree": N, "terms": [[j, re, im], ...]} over the nonzero '
        "coefficients",
    )
    p.add_argument("--ledger", type=str, default="ledger.csv")

    p = sub.add_parser(
        "means", parents=[common], help="radial means table",
        description="Parseval at p = 2; other rows sample at the next power of two above "
        "4*(D+1) points (8*(D+1) at p = inf), D the largest j up to the degree with "
        "r**j >= 2**-60.  The size is derived, not set.",
    )
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--p", type=str, default="2", help="comma list, e.g. 1,2,inf")
    p.add_argument("--grid", type=str, default="dyadic", help="'dyadic[:J]' or comma list of radii")
    p.add_argument("--out", type=str, default="means.csv")

    p = sub.add_parser("fit", parents=[common], help="growth exponent fit")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=0.1)
    p.add_argument("--out", type=str, default="fit.json")

    p = sub.add_parser("density", parents=[common], help="weighted density profile")
    p.add_argument("--gamma", type=float, required=True, help="set parameter")
    p.add_argument("--weight-gamma", type=float, default=None, help="weight exponent (default: gamma)")
    p.add_argument(
        "--n-max", type=int, default=1 << 22,
        help="set bound, at least 1024; the profile's horizons are the powers of two "
        "2^10 .. n_max",
    )
    p.add_argument("--out", type=str, default="density.csv")

    p = sub.add_parser("repro", parents=[common], help="named acceptance checks")
    p.add_argument("--theorem", type=str, default="all", help=f"one of {', '.join(REGISTRY)} or all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed of the checks")
    p.add_argument("--out", type=str, default="repro.json")
    return parser, sub.choices


def _read_input(path: str, what: str, parse: Callable[[str], T]) -> T:
    """`parse` of the text of an input file.

    A file that cannot be opened, decoded or parsed, or holds a number too
    large for a float or an integer past Python's digit limit, is a
    DomainError naming the file.  A malformed shape is one too, which the
    parsers report themselves, with their own messages.
    """
    try:
        return parse(Path(path).read_text())
    except DomainError:
        raise
    except (OSError, ValueError, OverflowError) as exc:
        raise DomainError(f"cannot read {what} {path}: {exc}") from exc


def _read_config(args: argparse.Namespace) -> dict[str, object]:
    """The config file's keys as parser defaults of this subcommand."""
    conf = _read_input(args.config, "config file", json.loads)
    if not isinstance(conf, dict):
        raise DomainError("config file must hold a JSON object")
    for key in conf:
        if key == "command" or not hasattr(args, key.replace("-", "_")):
            raise DomainError(f"config key {key!r} is not a flag of this subcommand")
    return {key.replace("-", "_"): value for key, value in conf.items()}


def _load_targets(path: str | None, count: int = 64) -> TargetEnumeration:
    if path is None:
        return enumerate_targets(count)
    return _read_input(path, "targets file", TargetEnumeration.from_json)


def _parse_p_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]  # float() strips spaces, reads inf and infinity
    except ValueError as exc:
        raise DomainError(f"--p must be a comma list of exponents or inf: {text!r}") from exc


def _parse_grid(text: str, max_degree: int) -> list[float]:
    """Exactly 'dyadic', 'dyadic:J' with an integer 1 <= J <= 53, or a comma list of radii."""
    if text == "dyadic":
        return dyadic_radii(max_degree)
    head, _, top = text.partition(":")
    digits = top.lstrip("0")
    if head == "dyadic" and top.isdecimal() and digits:
        # the length test keeps int() off strings past its digit limit
        if len(digits) > 2 or int(digits) > 53:
            raise DomainError(f"--grid dyadic:{top}: J must be at most 53, past which 1 - 2**-J rounds to 1")
        # the default grid of degree 2**(J + 1) runs j = 1 .. J
        return dyadic_radii(1 << (int(digits) + 1))
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        msg = "--grid must be 'dyadic', 'dyadic:J' with 1 <= J <= 53, or a comma list of radii"
        raise DomainError(f"{msg}: {text!r}") from exc


def _cmd_targets(args: argparse.Namespace) -> int:
    targets = enumerate_targets(args.count)
    atomic_write_text(args.out, targets.to_json() + "\n")
    print(f"wrote {args.out} ({len(targets)} targets)")
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    targets = _load_targets(args.targets)
    spec = ConstructionSpec(
        alpha=args.alpha,
        gamma=args.gamma,
        regime=Regime(args.regime),
        schedule=Schedule.DYADIC if args.schedule == "dyadic" else Schedule.U_SCHEDULE,
        max_degree=args.max_degree,
        u=quadratic_schedule if args.schedule == "u2" else None,
        q=args.q,
    )
    series, ledger = construct(spec, targets)
    atomic_write_text(args.out, json.dumps(series.to_json_obj()) + "\n")
    atomic_write_text(args.ledger, ledger.to_csv())
    built = len(ledger.built())
    print(f"wrote {args.out} (degree {series.max_degree}) and {args.ledger} ({built} built blocks)")
    return 0


def _cmd_means(args: argparse.Namespace) -> int:
    series = _read_input(
        args.infile, "input series", lambda text: CoefficientSeries.from_json_obj(json.loads(text))
    )
    p_list = _parse_p_list(args.p)
    grid = _parse_grid(args.grid, series.max_degree)
    table = means_table(series, p_list, grid)
    atomic_write_text(args.out, table.to_csv())
    print(f"wrote {args.out} ({len(table.rows)} rows)")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    table = _read_input(args.infile, "means table", RadialMeansTable.from_csv)
    fit = fit_growth_exponent(table, args.p)
    predicted = critical_exponent(args.p, args.gamma) - args.alpha
    verdict = "PASS" if abs(fit.slope - predicted) <= args.tol else "FAIL"
    payload = {**asdict(fit), "predicted": predicted, "tolerance": args.tol, "verdict": verdict}
    atomic_write_text(args.out, json.dumps(payload, sort_keys=True) + "\n")
    print(f"{verdict}: slope {fmt17(fit.slope)} vs predicted {fmt17(predicted)} (tol {args.tol})")
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    weight_gamma = args.gamma if args.weight_gamma is None else args.weight_gamma
    if args.n_max < 1 << 10:
        raise DomainError(f"--n-max must be >= 1024, the first horizon 2^10 (got {args.n_max})")
    ds = separating_set(args.gamma, args.n_max)
    horizons = [1 << m for m in range(10, args.n_max.bit_length())]
    rows = prefix_density_profile(ds, weight_gamma, horizons)
    out = StringIO()
    out.write("N,gamma,ratio,log_numerator,log_denominator\n")
    for n, ratio, log_num, log_den in rows:
        out.write(f"{n},{fmt17(weight_gamma)},{fmt17(ratio)},{fmt17(log_num)},{fmt17(log_den)}\n")
    atomic_write_text(args.out, out.getvalue())
    print(f"wrote {args.out} ({len(rows)} horizons)")
    return 0


def _cmd_repro(args: argparse.Namespace) -> int:
    try:
        reports = run_named(args.theorem, args.seed)
    except KeyError:
        raise DomainError(
            f"unknown theorem {args.theorem!r}; choose from {', '.join(REGISTRY)} or all"
        )
    for rep in reports:
        print(f"{'PASS' if rep['passed'] else 'FAIL'} {rep['name']} ({rep['seconds']}s)")
    payload = {"seed": args.seed, "reports": reports, "passed": all(r["passed"] for r in reports)}
    atomic_write_text(args.out, json.dumps(payload, sort_keys=True, default=float) + "\n")
    if not payload["passed"]:
        print(f"repro FAILED; report at {args.out}")
        return 2
    return 0


_DISPATCH = {
    "targets": _cmd_targets,
    "construct": _cmd_construct,
    "means": _cmd_means,
    "fit": _cmd_fit,
    "density": _cmd_density,
    "repro": _cmd_repro,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config becomes parser defaults, so a flag given in any spelling wins
            commands[args.command].set_defaults(**_read_config(args))
            args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (DomainError, ConstructionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
