"""Command-line front-end.

Subcommands: estimate, predictive, risk-curve, dominance, threshold,
poisson-limit. Every output is a deterministic function of the flags,
so reruns are byte-for-byte identical. A CSV is comma-separated, with
newline line ends and one header row; floats are written as %.17g, and a
cell is empty where its value is undefined (thm32_bound where the Thm 3.2
bound is undefined or the restriction is an interval). Exit status: 0
success, 1 validation error, 2 numerical failure (bracket failure,
overflow near p_bar -> 1).
"""

from __future__ import annotations

# the standard library only: each command imports the library modules it
# runs, so a run loads no module its command does not call, --help none
import argparse
import sys
from collections.abc import Iterable, Sequence
from functools import cache
from itertools import repeat

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def _write_csv(out: str | None, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    r"""Write header and rows as CSV to the file out, or to stdout when None.

    A column that holds None is made cells first, "" for None and "%.17g" %
    v otherwise, and goes through a "%s"; every other column goes through a
    "%.17g" of the row format, ints included: "%.17g" % x == str(x) for
    every int x below 1e17, and no count here exceeds MAX_TRIALS. This is
    byte for byte what csv.writer(lineterminator="\n") writes of those
    cells: a %.17g float, an int or a header name never holds ',', '"', '\r'
    or '\n', so nothing is quoted, and csv's '""' for a row of one empty
    field cannot arise, as every CSV here has at least two columns.
    """
    specs, columns = [], []
    for column in zip(*rows):
        if None in column:
            specs.append("%s")
            column = ["" if v is None else "%.17g" % v for v in column]
        else:
            specs.append("%.17g")
        columns.append(column)
    line = ",".join(specs) + "\n"
    text = ",".join(header) + "\n" + "".join([line % row for row in zip(*columns)])
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _prior_from_args(args: argparse.Namespace):
    from .binom import PriorSpec
    return PriorSpec(a=args.a, b=args.b, p_bar=args.p_bar, p_lo=args.p_lo)


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .binom import BinomialSetup
    from .estimators import EstimateTable
    prior = _prior_from_args(args)
    table = EstimateTable.build(BinomialSetup(n=args.n), prior)
    rows = [(x, table[x]) for x in range(args.n + 1)]
    if args.p is not None:
        from .risk import point_risk
        print(f"# exact risk at p={_fmt(args.p)}: {_fmt(point_risk(table, args.p))}")
    _write_csv(args.out, ["x", "estimate"], rows)
    return EXIT_OK


def _cmd_predictive(args: argparse.Namespace) -> int:
    from .binom import BinomialSetup
    from .predictive import PredictiveTable
    prior = _prior_from_args(args)
    setup = BinomialSetup(n=args.n, l=args.l)
    table = PredictiveTable.build(setup, prior, args.x)
    rows = [(y, table[y]) for y in range(args.l + 1)]
    _write_csv(args.out, ["y", "probability"], rows)
    return EXIT_OK


def _grid_sweep(args: argparse.Namespace, name: str):
    """The grid sweep dominance.name of risk-curve or dominance, run on the flags."""
    if args.p_bar is None:
        raise ValueError(f"{args.command} requires --p-bar")
    from . import dominance
    return getattr(dominance, name)(
        args.n, args.a, args.b, args.p_bar, p_lo=args.p_lo, grid_size=args.grid
    )


def _cmd_risk_curve(args: argparse.Namespace) -> int:
    curves = _grid_sweep(args, "risk_curves")
    _write_csv(
        args.out,
        ["p", "risk_unrestricted", "risk_truncated", "thm32_bound"],
        zip(
            curves.p_grid,
            curves.risk_unrestricted,
            curves.risk_truncated,
            curves.thm32_bound_curve or repeat(None),
        ),
    )
    return EXIT_OK


def _cmd_dominance(args: argparse.Namespace) -> int:
    report = _grid_sweep(args, "exhaustive_dominance_check")
    for name, flag in sorted(report.condition_flags.items()):
        print(f"{name}: {'n/a' if flag is None else flag}")
    print(f"verdict: {report.grid_verdict}")
    print(
        f"worst p: {_fmt(report.worst_p)} "
        f"(risk difference {_fmt(report.worst_difference)})"
    )
    if args.out is not None:
        _write_csv(
            args.out,
            ["p", "risk_difference", "standardized_difference", "thm32_bound"],
            zip(
                report.p_grid,
                report.risk_difference,
                report.standardized_diff_curve or repeat(None),
                report.thm32_bound_curve or repeat(None),
            ),
        )
    return EXIT_OK


def _cmd_threshold(args: argparse.Namespace) -> int:
    from .dominance import threshold_scan
    grid, values, root = threshold_scan(args.a, args.grid)
    for p_bar, value in zip(grid, values):
        print(f"p_bar={_fmt(p_bar)} max_risk_diff={_fmt(value)}")
    print(f"threshold: {_fmt(root)}")
    return EXIT_OK


def _cmd_poisson_limit(args: argparse.Namespace) -> int:
    from .poisson import PoissonConfig, limit_convergence_report
    config = PoissonConfig(r=args.r, s=args.s, a=args.a, lambda_bar=args.lambda_bar)
    report = limit_convergence_report(args.k_grid, args.lam, config, args.x_tilde)
    _write_csv(
        args.out,
        ["K", "estimator_error", "predictive_error", "risk_error"],
        zip(report.K_grid, report.estimator_errors, report.predictive_errors, report.risk_errors),
    )
    print(f"# monotone decay: {report.monotone_decay()}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binrisk",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="current trial count")
        p.add_argument("--a", type=float, default=1.0, help="beta exponent on p")
        p.add_argument("--b", type=float, default=1.0, help="beta exponent on 1-p")
        p.add_argument("--p-bar", type=float, default=None, help="upper restriction")
        p.add_argument("--p-lo", type=float, default=None, help="lower restriction")
        p.add_argument("--out", type=str, default=None, help="CSV output path")

    p_est = sub.add_parser("estimate", help="posterior-mean table over x")
    add_common(p_est)
    p_est.add_argument("--p", type=float, default=None, help="risk evaluation point")
    p_est.set_defaults(func=_cmd_estimate)

    p_pred = sub.add_parser("predictive", help="Bayesian predictive density")
    add_common(p_pred)
    p_pred.add_argument("--l", type=int, default=1, help="future trial count")
    p_pred.add_argument("--x", type=int, required=True, help="observed count")
    p_pred.set_defaults(func=_cmd_predictive)

    p_curve = sub.add_parser("risk-curve", help="exact risk curves plus the bound")
    add_common(p_curve)
    p_curve.add_argument("--grid", type=int, default=512)
    p_curve.set_defaults(func=_cmd_risk_curve)

    p_dom = sub.add_parser("dominance", help="condition flags and grid verdict")
    add_common(p_dom)
    p_dom.add_argument("--grid", type=int, default=512)
    p_dom.set_defaults(func=_cmd_dominance)

    p_thr = sub.add_parser(
        "threshold", help="n=1 symmetric max risk difference and its root"
    )
    p_thr.add_argument("--a", type=float, required=True)
    p_thr.add_argument("--grid", type=int, default=50)
    p_thr.set_defaults(func=_cmd_threshold)

    p_po = sub.add_parser(
        "poisson-limit", help="binomial-to-Poisson convergence errors"
    )
    p_po.add_argument("--a", type=float, default=1.0)
    p_po.add_argument("--r", type=float, default=1.0)
    p_po.add_argument("--s", type=float, default=1.0)
    p_po.add_argument("--lam", type=float, default=0.5)
    p_po.add_argument("--lambda-bar", type=float, default=None)
    p_po.add_argument("--x-tilde", type=int, default=0)
    p_po.add_argument(
        "--k-grid",
        type=float,
        nargs="+",
        default=(10.0, 100.0, 1000.0, 10000.0),
    )
    p_po.add_argument("--out", type=str, default=None)
    p_po.set_defaults(func=_cmd_poisson_limit)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process: a parse leaves it as it
    was, since every default is immutable."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
