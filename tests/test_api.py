"""The package API: one list of public names, each with a place in the README."""

import re
from pathlib import Path

import rec_persist
from rec_persist import (
    analytic, errors, model, oracle, selftest, simulator, specfun, sweep,
)

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
