"""Expected data persistency of replicated erasure codes.

A REC(p, p+q, r) scheme erasure-codes each document into p + q chunks
and stores r replicas of every chunk.  This package computes the
expected number of random node departures until the first document
becomes unrecoverable: exact finite sums, integral forms, closed Beta
expressions and asymptotics (analytic), seeded Monte Carlo (simulator),
exact rational baselines (oracle), and grid experiments with CSV/SVG
output (sweep).

Each module's __all__ declares its public names; the package exports
all of them (cli and svg stay unexported).
"""

from . import analytic, errors, model, oracle, selftest, simulator, specfun, sweep
from .analytic import *
from .errors import *
from .model import *
from .oracle import *
from .selftest import *
from .simulator import *
from .specfun import *
from .sweep import *

__version__ = "0.1.0"

__all__ = ["__version__", *analytic.__all__, *errors.__all__, *model.__all__,
           *oracle.__all__, *selftest.__all__, *simulator.__all__,
           *specfun.__all__, *sweep.__all__]
