"""Command-line front end.

Subcommands: analytic (formula evaluation), simulate (Monte Carlo runs),
sweep (grid experiments with CSV/SVG output), oracle (exact
small-instance baselines), selftest (built-in consistency checks).

Exit codes: 0 success, 1 selftest or numerical failure, 2 usage or
parameter error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import analytic, oracle, sweep
from .errors import ParameterError, QuadratureError, SizeLimitError
from .model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    default_semantics,
)
from .selftest import run_selftest
from .simulator import SimConfig, WorkloadClass, simulate

__all__ = ["main"]

_SIM_CSV_COLUMNS = (
    "strategy", "p", "q", "r", "N", "D", "trials", "seed",
    "mean_empirical", "std_error", "min", "max", "semantics",
)


def _add_rec_flags(parser, required: bool = True) -> None:
    parser.add_argument("--p", type=int, required=required, help="data chunks")
    parser.add_argument("--q", type=int, required=required, help="parity chunks")
    parser.add_argument("--r", type=int, required=required,
                        help="replicas per chunk")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="rec-persist",
        description=(
            "Expected data persistency of replicated erasure codes under "
            "random and symmetric placement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser(
        "analytic", help="evaluate a persistency formula",
    )
    p_an.add_argument("--strategy", choices=["random", "symmetric"],
                      required=True)
    _add_rec_flags(p_an)
    p_an.add_argument("--nodes", type=int, required=True)
    p_an.add_argument("--docs", type=int, required=True)
    p_an.add_argument(
        "--method", choices=sorted(m.value for m in analytic.Method),
        required=True,
        help="sum: finite survival sum (random only); integral: quadrature "
             "form; asymptotic: leading term; beta-exact: closed p=1 form",
    )
    p_an.add_argument("--tol", type=float,
                      default=analytic.DEFAULT_QUADRATURE_TOL,
                      help="relative quadrature tolerance, at least "
                           f"{analytic.MIN_QUADRATURE_TOL:g} and below 1")
    p_an.add_argument("--semantics", choices=["multiset", "per-cluster"],
                      help="loss rule override (default depends on strategy)")

    p_sim = sub.add_parser("simulate", help="run seeded Monte Carlo trials")
    p_sim.add_argument("--strategy", choices=["random", "symmetric"],
                       required=True)
    _add_rec_flags(p_sim, required=False)
    p_sim.add_argument("--nodes", type=int, required=True)
    p_sim.add_argument("--docs", type=int)
    p_sim.add_argument(
        "--class", dest="classes", action="append", metavar="P,Q,R,DOCS",
        help="workload class as four comma-separated integers; repeat for "
             "mixed workloads (cannot be combined with --p/--q/--r/--docs)",
    )
    p_sim.add_argument("--trials", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--semantics", choices=["multiset", "per-cluster"],
                       help="loss rule override (default depends on strategy)")

    p_sw = sub.add_parser(
        "sweep", help="simulate a node grid and emit CSV + SVG",
    )
    source = p_sw.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH",
                        help="JSON sweep config (schema_version 1)")
    source.add_argument("--preset", choices=sorted(sweep.PRESETS),
                        help="built-in figure parameterization")
    p_sw.add_argument("--out", metavar="DIR", default=".",
                      help="output directory (default: current)")
    p_sw.add_argument("--trials", type=int,
                      help="override trials per grid point")
    p_sw.add_argument("--points", type=int,
                      help="truncate each node grid to its first K points")

    p_or = sub.add_parser(
        "oracle", help="exact small-instance baselines (rational arithmetic)",
    )
    p_or.add_argument(
        "--what",
        choices=["symmetric-exact", "brute-symmetric", "brute-random",
                 "group-poly"],
        required=True,
    )
    _add_rec_flags(p_or)
    p_or.add_argument("--nodes", type=int)
    p_or.add_argument("--docs", type=int)
    p_or.add_argument("--semantics", choices=["multiset", "per-cluster"],
                      help="loss rule (default: multiset for brute-random, "
                           "per-cluster otherwise)")

    p_st = sub.add_parser("selftest", help="run built-in consistency checks")
    p_st.add_argument("--level", choices=["quick", "full"], default="quick")

    # a subcommand's parser sets the name the top-level parser would
    for name, subparser in sub.choices.items():
        subparser.set_defaults(command=name)
    return parser, sub.choices


def _cmd_analytic(args) -> int:
    rec = RecParams(args.p, args.q, args.r)
    system = SystemParams(args.nodes, args.docs)
    strategy = PlacementStrategy(args.strategy)
    method = analytic.Method(args.method)
    semantics = LossSemantics(args.semantics) if args.semantics else None
    result = analytic.expect(
        strategy, rec, system, method, tol=args.tol, semantics=semantics
    )
    # the rule is named only when it was given, so default output is unchanged
    rule = f", {semantics.value} rule" if semantics else ""
    print(
        f"E[X] = {result.value!r}  "
        f"[{strategy.value} placement{rule}, method {result.method.value}]"
    )
    if result.error_bound is None:
        print("additive error bound: none (asymptotic leading term)")
    else:
        print(f"additive error bound: {result.error_bound!r}")
    if result.quadrature_evals is not None:
        print(
            f"quadrature: relative error estimate {result.quadrature_error:.3e} "
            f"(tolerance {result.quadrature_tolerance:g}), "
            f"{result.quadrature_evals} integrand evaluations"
        )
    if result.sum_terms is not None:
        print(f"survival sum: {result.sum_terms} of {system.nodes + 1} terms")
    bound = "none" if result.error_bound is None else repr(result.error_bound)
    print(
        "RESULT "
        f"strategy={strategy.value} method={args.method} "
        f"p={rec.p} q={rec.q} r={rec.r} nodes={system.nodes} "
        f"docs={system.docs} value={result.value!r} error_bound={bound}"
        + (f" semantics={semantics.value}" if semantics else "")
    )
    return 0


def _parse_class(text: str) -> WorkloadClass:
    parts = text.split(",")
    if len(parts) != 4:
        raise ParameterError(
            f"--class expects P,Q,R,DOCS (four integers), got {text!r}"
        )
    try:
        p, q, r, docs = (int(part) for part in parts)
    except ValueError:
        raise ParameterError(
            f"--class expects four integers, got {text!r}"
        ) from None
    return WorkloadClass(RecParams(p, q, r), docs)


def _sim_classes(args) -> tuple[WorkloadClass, ...]:
    single = [v for v in (args.p, args.q, args.r, args.docs) if v is not None]
    if args.classes:
        if single:
            raise ParameterError(
                "--class cannot be combined with --p/--q/--r/--docs"
            )
        return tuple(_parse_class(text) for text in args.classes)
    if len(single) != 4:
        raise ParameterError(
            "simulate needs either --p --q --r --docs or at least one --class"
        )
    return (WorkloadClass(RecParams(args.p, args.q, args.r), args.docs),)


def _join(values) -> str:
    return ";".join(str(v) for v in values)


def _cmd_simulate(args) -> int:
    classes = _sim_classes(args)
    semantics = LossSemantics(args.semantics) if args.semantics else None
    config = SimConfig(
        strategy=PlacementStrategy(args.strategy),
        classes=classes,
        nodes=args.nodes,
        trials=args.trials,
        master_seed=args.seed,
        semantics=semantics,
    )
    summary = simulate(config)
    print(
        f"mean E[X] = {summary.mean!r} +/- {summary.std_error!r} (std error), "
        f"trials={config.trials}, min={summary.minimum}, "
        f"max={summary.maximum}"
    )
    if config.out_of_theory:
        print(
            "note: no matching closed formula (mixed workload or symmetric "
            "preconditions unmet); simulation-only result"
        )
    row = (
        config.strategy.value,
        _join(c.rec.p for c in classes),
        _join(c.rec.q for c in classes),
        _join(c.rec.r for c in classes),
        str(config.nodes),
        _join(c.docs for c in classes),
        str(config.trials),
        str(config.master_seed),
        repr(summary.mean),
        repr(summary.std_error),
        str(summary.minimum),
        str(summary.maximum),
        config.resolved_semantics.value,
    )
    print(",".join(_SIM_CSV_COLUMNS))
    print(",".join(row))
    return 0


def _cmd_sweep(args) -> int:
    if args.config is not None:
        specs = sweep.load_config(args.config)
    else:
        specs = [sweep.preset_spec(args.preset)]
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.points is not None and args.points < 1:
        raise ParameterError(f"--points must be >= 1, got {args.points}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        if args.points is not None:
            overrides["nodes"] = spec.nodes[: args.points]
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
        rows = sweep.run_sweep(spec)
        csv_path = out_dir / f"{spec.name}.csv"
        svg_path = out_dir / f"{spec.name}.svg"
        sweep.rows_to_csv(rows, csv_path)
        sweep.rows_to_svg(spec, rows, svg_path)
        print(f"wrote {csv_path} and {svg_path} ({len(rows)} points)")
    return 0


def _cmd_oracle(args) -> int:
    rec = RecParams(args.p, args.q, args.r)
    # only brute-random enumerates random placements; each takes its default rule
    strategy = (
        PlacementStrategy.RANDOM if args.what == "brute-random"
        else PlacementStrategy.SYMMETRIC
    )
    semantics = (
        LossSemantics(args.semantics) if args.semantics else default_semantics(strategy)
    )
    if args.what == "group-poly":
        alive = oracle.group_polynomial(rec, semantics)
        print(f"alive counts a_t for t = 0..{len(alive) - 1} [{semantics.value}]:")
        print(" ".join(str(c) for c in alive))
        return 0
    if args.nodes is None:
        raise ParameterError(f"--nodes is required for --what {args.what}")
    if strategy is PlacementStrategy.RANDOM:
        system = SystemParams(args.nodes, 1 if args.docs is None else args.docs)
        value = oracle.brute_force_random(rec, system, semantics)
        label = f"exhaustive placement enumeration, random strategy, {semantics.value}"
    else:
        docs = args.docs
        if docs is None:
            docs = max(1, args.nodes // rec.fragments)
        system = SystemParams(args.nodes, docs)
        if args.what == "symmetric-exact":
            value = oracle.exact_symmetric_expectation(rec, system, semantics)
            label = f"group polynomial count, {semantics.value}"
        else:
            value = oracle.brute_force_symmetric(rec, system, semantics)
            label = f"exhaustive subset enumeration, {semantics.value}"
    print(f"E[X] = {value} = {float(value)!r}  [{label}]")
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest(level=args.level)
    for res in results:
        print(f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}")
    failed = sum(1 for res in results if not res.ok)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


_COMMANDS = {
    "analytic": _cmd_analytic,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "selftest": _cmd_selftest,
}


# built once: setting up the five subcommands costs more than most commands
_PARSER, _SUBPARSERS = _build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    subparser = _SUBPARSERS.get(argv[0]) if argv else None
    if subparser is None:
        return _PARSER.parse_args(argv)
    args, extra = subparser.parse_known_args(argv[1:])
    if extra:
        # reported by the top-level parser, as _PARSER.parse_args would
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one rec-persist command; returns its exit code.

    argv defaults to sys.argv[1:].  When argv[0] names a subcommand, only
    that subcommand's parser reads the rest: the top-level parser would
    scan every argument before handing them all to it again, which makes
    parsing about 1.6 times as slow.  Any other argv (empty, --help, an
    unknown name) goes through the top-level parser, so usage, help and
    exit codes are the same either way.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ParameterError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
