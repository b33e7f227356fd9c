"""Expected data persistency of replicated erasure codes.

A REC(p, p+q, r) scheme erasure-codes each document into p + q chunks
and stores r replicas of every chunk.  This package computes the
expected number of random node departures until the first document
becomes unrecoverable: exact finite sums, integral forms, closed Beta
expressions and asymptotics (analytic), seeded Monte Carlo (simulator),
exact rational baselines (oracle), and grid experiments with CSV/SVG
output (sweep).

Each module's __all__ declares its public names; the package exports
all of them (cli and svg stay unexported).  Importing the package loads
no module: a submodule or public name is imported the first time it is
used (PEP 562), so a command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# the modules whose __all__ the package exports, in order: a name comes
# from the first that lists it
_EXPORTING = ("analytic", "errors", "model", "oracle", "selftest", "simulator",
              "specfun", "sweep")
_SUBMODULES = (*_EXPORTING, "cli", "svg")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _module(name)  # importing it binds it here
    if name == "__all__":
        value = ["__version__",
                 *(public for module in _EXPORTING for public in _module(module).__all__)]
    else:
        # no public name starts with "_", so a probe of one loads nothing
        owner = None if name[:1] == "_" else next(
            (module for module in map(_module, _EXPORTING) if name in module.__all__),
            None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
