import numpy as np
import pytest

from rydgate import analysis
from rydgate.analysis import _grid_pass, _window
from rydgate.propagation import DriveParams, PulseSegment


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture
def fallback(monkeypatch):
    """The gate count of each full-grid pass of the local-Z search."""
    counts = []

    def recorded(big_a, z):
        if z.size:
            counts.append(z.size // 2)
        return _grid_pass(big_a, z)

    monkeypatch.setattr(analysis, "_grid_pass", recorded)
    return counts


@pytest.fixture
def windowed(monkeypatch):
    """(gates, certified gates) of each call by which the local-Z search scores gates on its window."""
    calls = []

    def recorded(pairs, sep, low):
        index, certified = _window(pairs, sep, low)
        calls.append((len(low), int(certified.sum())))
        return index, certified

    monkeypatch.setattr(analysis, "_window", recorded)
    return calls


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
