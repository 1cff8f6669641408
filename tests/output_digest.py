"""Print a sha256 of the pickled outputs of each section of rydgate's protocol traffic,
then, as the last line, one over them all.

Not a test: the digests depend on the platform's NumPy and LAPACK builds. They
check that a refactor keeps every output bit: run

    PYTHONPATH=src python tests/output_digest.py

in a checkout of each commit, on one machine, and compare the outputs; a section
whose digest moved points at the outputs that changed. CI runs it twice in one
job, each run under its own random hash seed, and requires the same output.

The traffic is what the protocols feed the package:

- Monte-Carlo runs of both README protocols (the README noise, 2,000
  geometric and 500 blockade samples) at seeds 1, 42, 7919 and 2**40 + 3,
  plus one run with ten times the noise each;
- the sweeps (0.2, 2.5, 200) and (0.05, 3, 1000);
- five calibrations, two of them failing, with their message and scan table;
- 100 ``analyze_gate`` reports of geometric and blockade gates drawn at random;
- ``phases_and_leakage`` and ``fidelity_cphase``, with and without local-Z
  compensation, on (300,), (3, 100) and (15, 20) stacks of sweep gates and on
  64 random unitaries, against a scalar target and a target per gate.
"""

import hashlib
import math
import pickle

import numpy as np

from rydgate import (
    BlockadeProtocolParams,
    CalibrationError,
    GeometricProtocolParams,
    NoiseModel,
    analyze_gate,
    calibrate_kappa,
    fidelity_cphase,
    monte_carlo_fidelity,
    phases_and_leakage,
    sweep_kappa,
)
from rydgate.propagation import batch_unitaries
from rydgate.protocols import geometric_controls, protocol_sequence

README_PROTOCOLS = (
    (GeometricProtocolParams.from_omega(1.65, 1.0), 2000),
    (BlockadeProtocolParams(rabi=1.0, v=100.0), 500),
)
CALIBRATIONS = (
    (-3.14159265358979, (1.0, 2.5), 1.0),
    (math.pi / 2, (0.5, 2.5), 1.0),
    (-1.0, (0.3, 3.0), 2.0),
    (10.0, (2.0, 2.5), 1.0),  # no sign change
    (0.0, (0.2, 0.25), 1.0),  # no sign change
)


def monte_carlo_runs():
    for protocol, samples in README_PROTOCOLS:
        for seed, spread in [(1, 1), (42, 1), (7919, 1), (2**40 + 3, 1), (5, 10)]:
            noise = NoiseModel.for_interaction(
                v=protocol.v, r0=1.0, sigma_omega_rel=0.01 * spread, sigma_r_rel=0.005 * spread, seed=seed
            )
            yield monte_carlo_fidelity(protocol, noise, samples)


def calibrations():
    for target, bracket, omega in CALIBRATIONS:
        try:
            yield calibrate_kappa(target, bracket, omega=omega)
        except CalibrationError as exc:
            yield str(exc), exc.scan


def reports(n=100, seed=2024):
    rng = np.random.default_rng(seed)
    for i in range(n):
        omega = float(rng.uniform(0.5, 2.0))
        if i % 2:
            params = BlockadeProtocolParams(rabi=omega, v=float(rng.uniform(5.0, 500.0)))
        else:
            params = GeometricProtocolParams.from_omega(float(rng.uniform(0.3, 3.0)), omega)
        target = math.pi if i % 3 else float(rng.uniform(-4.0, 4.0))
        yield analyze_gate(protocol_sequence(params), target)


def stacks(seed=2025):
    rng = np.random.default_rng(seed)
    gates = np.concatenate(list(batch_unitaries(*geometric_controls(np.linspace(0.2, 2.5, 300), 1.0))))
    randoms = np.linalg.qr(rng.normal(size=(64, 9, 9)) + 1j * rng.normal(size=(64, 9, 9)))[0]
    for stack in (gates, gates.reshape(3, 100, 9, 9), gates.reshape(15, 20, 9, 9), randoms):
        yield phases_and_leakage(stack)
        for target in (math.pi, rng.uniform(-4.0, 4.0, stack.shape[:-2])):
            for compensate in (True, False):
                yield fidelity_cphase(stack, target, compensate)


def _digest(outputs):
    return hashlib.sha256(pickle.dumps(outputs, protocol=4)).hexdigest()


def main():
    sections = {
        "montecarlo": [list(monte_carlo_runs())],
        "sweeps": [sweep_kappa(0.2, 2.5, 200), sweep_kappa(0.05, 3.0, 1000)],
        "calibrations": [list(calibrations())],
        "reports": [list(reports())],
        "stacks": [list(stacks())],
    }
    for name, outputs in sections.items():
        print(f"{name:<12} {_digest(outputs)}")
    print(f"{'total':<12} {_digest([output for outputs in sections.values() for output in outputs])}")


if __name__ == "__main__":
    main()
