"""The package API: one list of public names, each with a place in the README,
loaded only when used; and the modules each command loads."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rec_persist
from rec_persist import (
    analytic, errors, model, oracle, selftest, simulator, specfun, sweep,
)
from rec_persist.cli import main

# the modules whose __all__ the package exports, in its order
MODULES = (analytic, errors, model, oracle, selftest, simulator, specfun, sweep)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_api_is_the_module_lists():
    names = ["__version__", *(name for m in MODULES for name in m.__all__)]
    assert rec_persist.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(rec_persist, name) is getattr(module, name)


def test_every_public_name_is_in_the_readme():
    # the module map lists each module's __all__ on one line, in order
    text = README.read_text()
    listed = {
        module: re.findall(r"`(\w+)`", names)
        for module, names in re.findall(r"^- `(\w+)`: (.*)$", text, re.M)
    }
    for module in MODULES:
        assert listed.get(module.__name__.split(".")[-1]) == module.__all__
    assert "`__version__`" in text


def test_star_import_binds_the_list():
    namespace = {}
    exec("from rec_persist import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(rec_persist.__all__)


def test_dir_lists_the_public_names():
    listed = dir(rec_persist)
    assert listed == sorted(listed)
    assert set(rec_persist.__all__) <= set(listed)


def test_unknown_name_raises_attribute_error():
    for name in ("no_such_name", "_no_such_name", "__no_such_name__"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(rec_persist, name)
    assert not hasattr(rec_persist, "__wrapped__")


# ------------------------------------------------------- what loads when

SRC = str(Path(rec_persist.__file__).resolve().parents[1])
PROBE = {"rec_persist", "rec_persist.cli", "rec_persist.errors", "rec_persist.model"}


def _loaded(script: str, cwd) -> set[str]:
    """The rec_persist modules a fresh interpreter holds after script runs,
    and numpy if it was imported."""
    script += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'rec_persist' or m == 'numpy')))"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_package_import_loads_no_submodule(tmp_path):
    assert _loaded("import rec_persist", tmp_path) == {"rec_persist"}


def test_submodule_loads_on_first_use(tmp_path):
    script = "import rec_persist\nrec_persist.analytic.expect"
    assert _loaded(script, tmp_path) == {
        "rec_persist", "rec_persist.analytic", "rec_persist.errors",
        "rec_persist.model", "rec_persist.specfun"}


# owners are sought in dependency order: errors first, analytic after the
# modules it imports
@pytest.mark.parametrize("script, loads", [
    ("from rec_persist import ParameterError", {"errors"}),
    ("import rec_persist\nrec_persist.expect",
     {"analytic", "errors", "model", "specfun"}),
], ids=["ParameterError", "expect"])
def test_public_name_loads_its_owner_first(script, loads, tmp_path):
    expected = {"rec_persist", *(f"rec_persist.{m}" for m in loads)}
    assert _loaded(script, tmp_path) == expected


def test_simulator_names_load_no_module_above_it(tmp_path):
    loaded = _loaded("from rec_persist import SimConfig, simulate", tmp_path)
    assert "rec_persist.simulator" in loaded
    assert not loaded & {"rec_persist.oracle", "rec_persist.selftest",
                         "rec_persist.sweep"}


def test_cli_import_loads_the_probe_set(tmp_path):
    assert _loaded("from rec_persist.cli import main", tmp_path) == PROBE


# only the simulator imports numpy when it loads
@pytest.mark.parametrize("module", ["analytic", "cli", "errors", "model", "oracle",
                                    "selftest", "specfun", "svg", "sweep"])
def test_import_leaves_numpy_unloaded(module, tmp_path):
    assert "numpy" not in _loaded(f"import rec_persist.{module}", tmp_path)


_ANALYTIC = "analytic --strategy random --p 1 --q 1 --r 2 --nodes 1000 --docs 1000"
_ORACLE = "oracle --what {} --p 2 --q 1 --r 2 --nodes 6"
# help and usage errors build every subcommand's parser
_PARSERS = {"analytic", "specfun", "sweep", "svg", "selftest", "oracle"}

# each command, its exit code, the modules it adds to the probe's and
# whether it loads numpy: only the commands that make arrays do
COMMAND_LOADS = [
    pytest.param(f"{_ANALYTIC} --method integral", 0, {"analytic", "specfun"}, True,
                 id="analytic"),
    pytest.param(f"{_ANALYTIC} --method sum", 0, {"analytic", "specfun"}, True,
                 id="analytic-sum"),
    pytest.param(f"{_ANALYTIC} --method asymptotic", 0, {"analytic", "specfun"},
                 False, id="analytic-asymptotic"),
    pytest.param(f"{_ANALYTIC} --method beta-exact", 0, {"analytic", "specfun"},
                 False, id="analytic-beta-exact"),
    pytest.param("simulate --strategy random --p 1 --q 0 --r 2 --nodes 48 --docs 5 "
                 "--trials 20", 0, {"simulator"}, True, id="simulate"),
    pytest.param("sweep --preset fig7 --points 2 --trials 2 --out out", 0,
                 {"sweep", "analytic", "specfun", "simulator", "svg"}, True,
                 id="sweep"),
    pytest.param(_ORACLE.format("symmetric-exact"), 0, {"oracle"}, False, id="oracle"),
    pytest.param(_ORACLE.format("brute-random"), 0, {"oracle"}, False,
                 id="oracle-brute-random"),
    pytest.param(_ORACLE.format("group-poly"), 0, {"oracle"}, False,
                 id="oracle-group-poly"),
    pytest.param(_ORACLE.format("brute-symmetric"), 0, {"oracle", "simulator"}, True,
                 id="oracle-brute-symmetric"),
    pytest.param("selftest --level quick", 0,
                 {"selftest", "analytic", "specfun", "oracle", "simulator"}, True,
                 id="selftest"),
    pytest.param("--help", 0, _PARSERS, False, id="help"),
    pytest.param(f"{_ANALYTIC} --method median", 2, _PARSERS, False, id="usage-error"),
]


@pytest.mark.parametrize("argv, code, adds, numpy", COMMAND_LOADS)
def test_command_loads_only_what_it_runs(argv, code, adds, numpy, tmp_path):
    script = ("import contextlib, io\nfrom rec_persist.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()),"
              " contextlib.redirect_stderr(io.StringIO()):\n"
              f"    assert main({argv.split()!r}) == {code}")
    assert _loaded(script, tmp_path) == (PROBE | {f"rec_persist.{m}" for m in adds}
                                         | ({"numpy"} if numpy else set()))


# ------------------------------------------------ help, usage and errors

# (argv, exit code, stdout, stderr) as the package printed them when every
# module was imported and the whole parser built at import, in 80 columns
HELP_TEXTS = [
    ('--help', 0,
     """\
usage: rec-persist [-h] {analytic,simulate,sweep,oracle,selftest} ...

Expected data persistency of replicated erasure codes under random and
symmetric placement.

positional arguments:
  {analytic,simulate,sweep,oracle,selftest}
    analytic            evaluate a persistency formula
    simulate            run seeded Monte Carlo trials
    sweep               simulate a node grid and emit CSV + SVG
    oracle              exact small-instance baselines (rational arithmetic)
    selftest            run built-in consistency checks

options:
  -h, --help            show this help message and exit
""",
     ""),
    ('analytic --help', 0,
     """\
usage: rec-persist analytic [-h] --strategy {random,symmetric} --p P --q Q --r
                            R --nodes NODES --docs DOCS --method
                            {asymptotic,beta-exact,integral,sum} [--tol TOL]
                            [--semantics {multiset,per-cluster}]

options:
  -h, --help            show this help message and exit
  --strategy {random,symmetric}
  --p P                 data chunks
  --q Q                 parity chunks
  --r R                 replicas per chunk
  --nodes NODES
  --docs DOCS
  --method {asymptotic,beta-exact,integral,sum}
                        sum: finite survival sum (random only); integral:
                        quadrature form; asymptotic: leading term; beta-exact:
                        closed p=1 form
  --tol TOL             relative quadrature tolerance, at least 1e-14 and
                        below 1
  --semantics {multiset,per-cluster}
                        loss rule override (default depends on strategy)
""",
     ""),
    ('simulate --help', 0,
     """\
usage: rec-persist simulate [-h] --strategy {random,symmetric} [--p P] [--q Q]
                            [--r R] --nodes NODES [--docs DOCS]
                            [--class P,Q,R,DOCS] [--trials TRIALS]
                            [--seed SEED] [--semantics {multiset,per-cluster}]

options:
  -h, --help            show this help message and exit
  --strategy {random,symmetric}
  --p P                 data chunks
  --q Q                 parity chunks
  --r R                 replicas per chunk
  --nodes NODES
  --docs DOCS
  --class P,Q,R,DOCS    workload class as four comma-separated integers;
                        repeat for mixed workloads (cannot be combined with
                        --p/--q/--r/--docs)
  --trials TRIALS
  --seed SEED
  --semantics {multiset,per-cluster}
                        loss rule override (default depends on strategy)
""",
     ""),
    ('sweep --help', 0,
     """\
usage: rec-persist sweep [-h]
                         (--config PATH | --preset {fig4,fig5,fig6,fig7,fig8,fig9})
                         [--out DIR] [--trials TRIALS] [--points POINTS]

options:
  -h, --help            show this help message and exit
  --config PATH         JSON sweep config (schema_version 1)
  --preset {fig4,fig5,fig6,fig7,fig8,fig9}
                        built-in figure parameterization
  --out DIR             output directory (default: current)
  --trials TRIALS       override trials per grid point
  --points POINTS       truncate each node grid to its first K points
""",
     ""),
    ('oracle --help', 0,
     """\
usage: rec-persist oracle [-h] --what
                          {symmetric-exact,brute-symmetric,brute-random,group-poly}
                          --p P --q Q --r R [--nodes NODES] [--docs DOCS]
                          [--semantics {multiset,per-cluster}]

options:
  -h, --help            show this help message and exit
  --what {symmetric-exact,brute-symmetric,brute-random,group-poly}
  --p P                 data chunks
  --q Q                 parity chunks
  --r R                 replicas per chunk
  --nodes NODES
  --docs DOCS
  --semantics {multiset,per-cluster}
                        loss rule (default: multiset for brute-random, per-
                        cluster otherwise)
""",
     ""),
    ('selftest --help', 0,
     """\
usage: rec-persist selftest [-h] [--level {quick,full}]

options:
  -h, --help            show this help message and exit
  --level {quick,full}
""",
     ""),
    ('analytic --strategy random --p 1 --q 0 --r 2 --nodes 48 --docs 5 --method median', 2,
     "",
     """\
usage: rec-persist analytic [-h] --strategy {random,symmetric} --p P --q Q --r
                            R --nodes NODES --docs DOCS --method
                            {asymptotic,beta-exact,integral,sum} [--tol TOL]
                            [--semantics {multiset,per-cluster}]
rec-persist analytic: error: argument --method: invalid choice: 'median' (choose from 'asymptotic', 'beta-exact', 'integral', 'sum')
"""),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's wording and wrapping as Python 3.11 prints them")
@pytest.mark.parametrize("argv, code, out, err", HELP_TEXTS,
                         ids=[" ".join(t[0].split()[:2]) for t in HELP_TEXTS])
def test_help_and_errors_unchanged(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv.split()) == code
    assert capsys.readouterr() == (out, err)
