"""Command-line front end.

Subcommands: analytic (formula evaluation), simulate (Monte Carlo runs),
sweep (grid experiments with CSV/SVG output), oracle (exact
small-instance baselines), selftest (built-in consistency checks).

Exit codes: 0 success, 1 selftest or numerical failure, 2 usage or
parameter error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ParameterError, QuadratureError, SizeLimitError
from .model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    default_semantics,
)

__all__ = ["main"]

# Each subcommand imports the modules it runs in its own functions, so a
# command loads only those: importing the rest would be most of a short
# command's time in a fresh process.

_STRATEGIES = [s.value for s in PlacementStrategy]
_SEMANTICS = [s.value for s in LossSemantics]
# --what -> (strategy whose default loss rule it takes, oracle function's
# name in the oracle module, label)
_ORACLES = {
    "symmetric-exact": (PlacementStrategy.SYMMETRIC,
                        "exact_symmetric_expectation", "group polynomial count"),
    "brute-symmetric": (PlacementStrategy.SYMMETRIC,
                        "brute_force_symmetric", "exhaustive subset enumeration"),
    "brute-random": (PlacementStrategy.RANDOM, "brute_force_random",
                     "exhaustive placement enumeration, random strategy"),
}
_SIM_CSV_COLUMNS = (
    "strategy", "p", "q", "r", "N", "D", "trials", "seed",
    "mean_empirical", "std_error", "min", "max", "semantics",
)


def _add_rec_flags(parser, required: bool = True) -> None:
    parser.add_argument("--p", type=int, required=required, help="data chunks")
    parser.add_argument("--q", type=int, required=required, help="parity chunks")
    parser.add_argument("--r", type=int, required=required,
                        help="replicas per chunk")


def _analytic_flags(parser: argparse.ArgumentParser) -> None:
    from .analytic import DEFAULT_QUADRATURE_TOL, MIN_QUADRATURE_TOL, Method

    parser.add_argument("--strategy", choices=_STRATEGIES, required=True)
    _add_rec_flags(parser)
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--docs", type=int, required=True)
    parser.add_argument(
        "--method", choices=sorted(m.value for m in Method), required=True,
        help="sum: finite survival sum (random only); integral: quadrature "
             "form; asymptotic: leading term; beta-exact: closed p=1 form",
    )
    parser.add_argument("--tol", type=float, default=DEFAULT_QUADRATURE_TOL,
                        help="relative quadrature tolerance, at least "
                             f"{MIN_QUADRATURE_TOL:g} and below 1")
    parser.add_argument("--semantics", choices=_SEMANTICS,
                        help="loss rule override (default depends on strategy)")


def _simulate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", choices=_STRATEGIES, required=True)
    _add_rec_flags(parser, required=False)
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--docs", type=int)
    parser.add_argument(
        "--class", dest="classes", action="append", metavar="P,Q,R,DOCS",
        help="workload class as four comma-separated integers; repeat for "
             "mixed workloads (cannot be combined with --p/--q/--r/--docs)",
    )
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--semantics", choices=_SEMANTICS,
                        help="loss rule override (default depends on strategy)")


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    from .sweep import PRESETS

    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH",
                        help="JSON sweep config (schema_version 1)")
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="built-in figure parameterization")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    parser.add_argument("--trials", type=int,
                        help="override trials per grid point")
    parser.add_argument("--points", type=int,
                        help="truncate each node grid to its first K points")


def _oracle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--what", choices=[*_ORACLES, "group-poly"], required=True)
    _add_rec_flags(parser)
    parser.add_argument("--nodes", type=int)
    parser.add_argument("--docs", type=int)
    parser.add_argument("--semantics", choices=_SEMANTICS,
                        help="loss rule (default: multiset for brute-random, "
                             "per-cluster otherwise)")


def _selftest_flags(parser: argparse.ArgumentParser) -> None:
    from .selftest import CHECKS

    parser.add_argument("--level", choices=list(CHECKS), default="quick")


def _cmd_analytic(args) -> int:
    # the one import form that runs no Python code once the module is
    # loaded: about 1 us a command, where `from . import` takes about 4
    import rec_persist.analytic as analytic

    rec = RecParams(args.p, args.q, args.r)
    system = SystemParams(args.nodes, args.docs)
    strategy = PlacementStrategy(args.strategy)
    method = analytic.Method(args.method)
    result = analytic.expect(
        strategy, rec, system, method, tol=args.tol, semantics=args.semantics
    )
    # the rule is named only when it was given, so default output is unchanged
    rule = f", {args.semantics} rule" if args.semantics else ""
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
        + (f" semantics={args.semantics}" if args.semantics else "")
    )
    return 0


def _parse_class(text: str) -> WorkloadClass:
    from .simulator import WorkloadClass

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
    from .simulator import WorkloadClass

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
    from .simulator import SimConfig, simulate

    classes = _sim_classes(args)
    config = SimConfig(
        strategy=args.strategy,
        classes=classes,
        nodes=args.nodes,
        trials=args.trials,
        master_seed=args.seed,
        semantics=args.semantics,
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
        config.semantics.value,
    )
    print(",".join(_SIM_CSV_COLUMNS))
    print(",".join(row))
    return 0


def _cmd_sweep(args) -> int:
    import dataclasses
    from pathlib import Path

    from . import sweep

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
    for spec in specs:
        if args.points is not None:
            overrides["nodes"] = spec.nodes[: args.points]
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
        rows = sweep.run_sweep(spec)
        csv_path = out_dir / f"{spec.name}.csv"
        svg_path = out_dir / f"{spec.name}.svg"
        # made only now, so a sweep refused before its rows leaves no directory
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            sweep.rows_to_csv(rows, csv_path)
            sweep.rows_to_svg(spec, rows, svg_path)
        except OSError as exc:
            raise ParameterError(f"cannot write sweep output: {exc}") from None
        print(f"wrote {csv_path} and {svg_path} ({len(rows)} points)")
    return 0


def _cmd_oracle(args) -> int:
    from . import oracle

    rec = RecParams(args.p, args.q, args.r)
    if args.what == "group-poly":
        semantics = default_semantics(PlacementStrategy.SYMMETRIC, args.semantics)
        alive = oracle.group_polynomial(rec, semantics)
        print(f"alive counts a_t for t = 0..{len(alive) - 1} [{semantics.value}]:")
        print(" ".join(str(c) for c in alive))
        return 0
    strategy, function, label = _ORACLES[args.what]
    baseline = getattr(oracle, function)
    semantics = default_semantics(strategy, args.semantics)
    if args.nodes is None:
        raise ParameterError(f"--nodes is required for --what {args.what}")
    # by default one document, or the symmetric minimum covering count
    if args.docs is not None:
        docs = args.docs
    elif strategy is PlacementStrategy.RANDOM:
        docs = 1
    else:
        docs = max(1, args.nodes // rec.fragments)
    value = baseline(rec, SystemParams(args.nodes, docs), semantics)
    print(f"E[X] = {value} = {float(value)!r}  [{label}, {semantics.value}]")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest(level=args.level)
    for res in results:
        print(f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}")
    failed = sum(1 for res in results if not res.ok)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


# name -> (help, function adding its flags to its parser, function running it)
_SUBCOMMANDS = {
    "analytic": ("evaluate a persistency formula", _analytic_flags, _cmd_analytic),
    "simulate": ("run seeded Monte Carlo trials", _simulate_flags, _cmd_simulate),
    "sweep": ("simulate a node grid and emit CSV + SVG", _sweep_flags, _cmd_sweep),
    "oracle": ("exact small-instance baselines (rational arithmetic)",
               _oracle_flags, _cmd_oracle),
    "selftest": ("run built-in consistency checks", _selftest_flags, _cmd_selftest),
}


def _build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """Subcommand name's parser alone; with name None, the top-level parser
    holding every subcommand's parser."""
    if name is not None:
        parser = argparse.ArgumentParser(prog=f"rec-persist {name}")
        _SUBCOMMANDS[name][1](parser)
        # a subcommand's parser sets the name the top-level parser would
        parser.set_defaults(command=name)
        return parser
    parser = argparse.ArgumentParser(
        prog="rec-persist",
        description=(
            "Expected data persistency of replicated erasure codes under "
            "random and symmetric placement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _) in _SUBCOMMANDS.items():
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def _flag_table(parser: argparse.ArgumentParser) -> tuple:
    """What _read_flags needs of one subcommand's parser, read off its actions.

    (flags, defaults, required, groups): each option string of a one-value
    store or append action mapped to that action; the Namespace contents
    argparse starts from; the required actions; and (required, members) of
    each mutually exclusive group.
    """
    flags = {
        option: action
        for action in parser._actions
        if type(action) in (argparse._StoreAction, argparse._AppendAction)
        and action.nargs is None
        for option in action.option_strings
    }
    defaults = {
        action.dest: action.default
        for action in parser._actions
        if action.dest is not argparse.SUPPRESS
        and action.default is not argparse.SUPPRESS
    }
    required = frozenset(action for action in parser._actions if action.required)
    groups = tuple(
        (group.required, frozenset(group._group_actions))
        for group in parser._mutually_exclusive_groups
    )
    return flags, {**parser._defaults, **defaults}, required, groups


# Built on first use, since setting up a subcommand imports the modules
# its flags name: the top-level parser (key None), for argv that
# _read_flags leaves to argparse, and each subcommand's flag table (key
# its name).
_BUILT: dict = {}


def _parser() -> argparse.ArgumentParser:
    if None not in _BUILT:
        _BUILT[None] = _build_parser()
    return _BUILT[None]


def _read_flags(name: str, argv: list[str]) -> argparse.Namespace | None:
    """The Namespace of subcommand name given argv as plain --flag value pairs.

    None when argv is anything else, or would make argparse fail: a token
    that is not an exact option string (--flag=value, an abbreviation,
    -h), a value starting with '-' (argparse takes it for a flag unless it
    reads as a negative number), a value its type or choices refuse, a
    missing required flag, or a mutually exclusive group broken.
    """
    if name not in _SUBCOMMANDS or len(argv) % 2:
        return None
    if name not in _BUILT:
        _BUILT[name] = _flag_table(_build_parser(name))
    flags, defaults, required, groups = _BUILT[name]
    values = dict(defaults)
    seen = set()
    for flag, text in zip(argv[::2], argv[1::2]):
        action = flags.get(flag)
        if action is None or text[:1] == "-":
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (ValueError, TypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        if type(action) is argparse._AppendAction:
            value = [*(values.get(action.dest) or ()), value]
        values[action.dest] = value
        seen.add(action)
    if not required <= seen:
        return None
    for group_required, members in groups:
        given = len(members & seen)
        if given > 1 or (group_required and not given):
            return None
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    args = _read_flags(argv[0], argv[1:]) if argv else None
    return _parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    """Run one rec-persist command; returns its exit code.

    argv defaults to sys.argv[1:].  A subcommand written as plain --flag
    value pairs is read straight from that subcommand's argparse actions
    (_read_flags): argparse itself would be most of a short command's time.
    Any other argv (empty, --help, an unknown name, --flag=value, an
    abbreviation, a bad value) goes through the top-level parser, so usage,
    help, error messages and exit codes are argparse's own.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _SUBCOMMANDS[args.command][2](args)
    except (ParameterError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
