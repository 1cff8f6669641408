import numpy as np
import pytest

from rydgate import analysis
from rydgate.analysis import _grid_index
from rydgate.propagation import DriveParams, PulseSegment


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture
def fallback(monkeypatch):
    """The gate count of each call by which the Monte-Carlo block step leaves its
    local-Z window for the full grid."""
    counts = []

    def recorded(big_a, z):
        if len(z):
            counts.append(len(z))
        return _grid_index(big_a, z)

    monkeypatch.setattr(analysis, "_grid_index", recorded)
    return counts


def random_drive(rng, max_rabi=2.0):
    return DriveParams(
        rabi=float(rng.uniform(0.0, max_rabi)),
        detuning=float(rng.uniform(-2.0, 2.0)),
        phase=float(rng.uniform(-np.pi, np.pi)),
    )


def random_segment(rng, max_duration=2.0):
    maybe = lambda: random_drive(rng) if rng.uniform() < 0.8 else None
    return PulseSegment(
        duration=float(rng.uniform(0.1, max_duration)),
        drive1=maybe(),
        drive2=maybe(),
        v=float(rng.uniform(-3.0, 3.0)),
    )
