"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from rec_persist import analytic


@pytest.fixture
def starved_quadrature(monkeypatch):
    """The integral rule gets one panel over [0, T] and may not split it.

    One 15-point panel cannot resolve the survival function's drop, so
    every integral route raises QuadratureError.
    """
    monkeypatch.setattr(analytic, "_FIRST_EDGES", np.array([]))
    monkeypatch.setattr(analytic, "_MAX_PANELS", 1)
