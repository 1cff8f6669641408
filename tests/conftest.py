import numpy as np
import pytest

from rydgate.propagation import DriveParams, PulseSegment


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


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
