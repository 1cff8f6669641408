"""One scalar policy: every public scalar argument is coerced and checked by ``propagation``'s helpers.

A real field stores a Python float; a bool, a str or an array is a ``TypeError``; NaN, an infinity,
or an int beyond float range is a ``ValueError``; each error's message starts with the field's name.
"""

import math

import numpy as np
import pytest

from rydgate import (
    BlockadeProtocolParams,
    DriveParams,
    GeometricProtocolParams,
    NoiseModel,
    PulseSegment,
    analyze_gate,
    calibrate_kappa,
    fidelity_cphase,
    gate_time_blockade,
    gate_time_geometric,
    geometric_sequence,
    monte_carlo_fidelity,
    sweep_kappa,
)

_PROTOCOL = GeometricProtocolParams.from_omega(1.65, 1.0)
_SEQUENCE = geometric_sequence(_PROTOCOL)
_NOISE = NoiseModel.for_interaction(_PROTOCOL.v, 1.0, 0.0, 0.0, 1)

#: (entry point, field, call with the field set to x). The other arguments are valid.
REALS = [
    ("DriveParams", "rabi", lambda x: DriveParams(x)),
    ("DriveParams", "detuning", lambda x: DriveParams(1.0, x)),
    ("DriveParams", "phase", lambda x: DriveParams(1.0, 0.0, x)),
    ("PulseSegment", "duration", lambda x: PulseSegment(x, None, None, 0.0)),
    ("PulseSegment", "v", lambda x: PulseSegment(1.0, None, None, x)),
    ("GeometricProtocolParams", "kappa", lambda x: GeometricProtocolParams(x, 1.0)),
    ("GeometricProtocolParams", "v", lambda x: GeometricProtocolParams(1.65, x)),
    ("from_omega", "kappa", lambda x: GeometricProtocolParams.from_omega(x, 1.0)),
    ("from_omega", "omega", lambda x: GeometricProtocolParams.from_omega(1.65, x)),
    ("BlockadeProtocolParams", "rabi", lambda x: BlockadeProtocolParams(x, 100.0)),
    ("BlockadeProtocolParams", "v", lambda x: BlockadeProtocolParams(1.0, x)),
    ("gate_time_geometric", "kappa", lambda x: gate_time_geometric(x, 1.0)),
    ("gate_time_geometric", "omega", lambda x: gate_time_geometric(1.65, x)),
    ("gate_time_blockade", "omega", lambda x: gate_time_blockade(x)),
    ("NoiseModel", "sigma_omega_rel", lambda x: NoiseModel(x, 0.0, 1.0, 1.0, 0)),
    ("NoiseModel", "sigma_r_rel", lambda x: NoiseModel(0.0, x, 1.0, 1.0, 0)),
    ("NoiseModel", "c6", lambda x: NoiseModel(0.0, 0.0, x, 1.0, 0)),
    ("NoiseModel", "r0", lambda x: NoiseModel(0.0, 0.0, 1.0, x, 0)),
    ("for_interaction", "v", lambda x: NoiseModel.for_interaction(x, 1.0, 0.0, 0.0, 0)),
    ("for_interaction", "r0", lambda x: NoiseModel.for_interaction(1.0, x, 0.0, 0.0, 0)),
    ("for_interaction", "sigma_omega_rel", lambda x: NoiseModel.for_interaction(1.0, 1.0, x, 0.0, 0)),
    ("for_interaction", "sigma_r_rel", lambda x: NoiseModel.for_interaction(1.0, 1.0, 0.0, x, 0)),
    ("fidelity_cphase", "target_phi", lambda x: fidelity_cphase(np.eye(9), x)),
    ("analyze_gate", "target_phi", lambda x: analyze_gate(_SEQUENCE, x)),
    ("calibrate_kappa", "target_phi", lambda x: calibrate_kappa(x, (1.0, 2.5))),
    ("calibrate_kappa", "seed_kappa", lambda x: calibrate_kappa(math.pi, (1.0, 2.5), seed_kappa=x)),
    ("calibrate_kappa", "omega", lambda x: calibrate_kappa(math.pi, (1.0, 2.5), omega=x)),
    ("calibrate_kappa", "k_lo", lambda x: calibrate_kappa(math.pi, (x, 2.5))),
    ("calibrate_kappa", "k_hi", lambda x: calibrate_kappa(math.pi, (1.0, x))),
    ("sweep_kappa", "k_min", lambda x: sweep_kappa(x, 2.5, 3)),
    ("sweep_kappa", "k_max", lambda x: sweep_kappa(0.2, x, 3)),
]
COUNTS = [
    ("NoiseModel", "seed", lambda x: NoiseModel(0.0, 0.0, 1.0, 1.0, x)),
    ("for_interaction", "seed", lambda x: NoiseModel.for_interaction(1.0, 1.0, 0.0, 0.0, x)),
    ("sweep_kappa", "n", lambda x: sweep_kappa(0.2, 2.5, x)),
    ("monte_carlo_fidelity", "n_samples", lambda x: monte_carlo_fidelity(_PROTOCOL, _NOISE, x)),
]
#: The ends of a bracket or a kappa range are compared together, and a bad end's ValueError
#: keeps that comparison's wording, which names both ends.
RANGE_MESSAGES = {
    "k_lo": "need finite 0 < k_lo < k_hi, got (",
    "k_hi": "need finite 0 < k_lo < k_hi, got (",
    "k_min": "need finite 0 < k_min < k_max, got (",
    "k_max": "need finite 0 < k_min < k_max, got (",
}

#: Bad values: ints beyond float range, bools, non-finite floats, a str and 0-d and 1-d arrays.
BAD = {
    "int-1e400": 10**400,
    "int-minus-1e5000": -(10**5000),  # str() of it raises: no message may format it
    "bool": True,
    "numpy-bool": np.True_,
    "nan": math.nan,
    "inf": math.inf,
    "minus-inf": -math.inf,
    "str": "1.0",
    "array-0d": np.array(1.0),
    "array-1d": np.array([1.0]),
}
#: ``fidelity_cphase`` broadcasts ``target_phi`` over a stack, so an array of finite angles is valid there.
_ARRAY_TARGETS = {("fidelity_cphase", "target_phi", "array-0d"), ("fidelity_cphase", "target_phi", "array-1d")}

CASES = [
    pytest.param(call, field, value, id=f"{entry}-{field}-{bad}")
    for table in (REALS, COUNTS)
    for entry, field, call in table
    for bad, value in BAD.items()
    if (entry, field, bad) not in _ARRAY_TARGETS
]


@pytest.mark.parametrize("call, field, value", CASES)
def test_bad_scalar_raises_an_error_naming_its_field(call, field, value):
    with pytest.raises((ValueError, TypeError)) as excinfo:
        call(value)
    error = excinfo.value
    # Not a subclass: NumPy's UFuncTypeError and AxisError are TypeError and ValueError subclasses.
    assert type(error) in (ValueError, TypeError)
    message = str(error)
    prefix = RANGE_MESSAGES.get(field) if type(error) is ValueError else None
    assert message.startswith(prefix or f"{field} must be "), message


@pytest.mark.parametrize("value", [True, np.True_, "1.0", np.array(1.0)], ids=["bool", "numpy-bool", "str", "array"])
def test_wrong_types_are_type_errors(value):
    with pytest.raises(TypeError, match=f"^rabi must be a real number, got {type(value).__name__}$"):
        DriveParams(value)
    with pytest.raises(TypeError, match=f"^n_samples must be an integer, got {type(value).__name__}$"):
        monte_carlo_fidelity(_PROTOCOL, _NOISE, value)


def test_an_int_beyond_float_range_is_infinite():
    with pytest.raises(ValueError, match="^kappa must be positive, got inf$"):
        GeometricProtocolParams(10**400, 1.0)
    with pytest.raises(ValueError, match="^v must be finite, got -inf$"):
        BlockadeProtocolParams(1.0, -(10**400))


def test_a_count_beyond_64_bits_is_shown_by_its_size():
    with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\), got an integer of 16610 bits$"):
        NoiseModel(0.0, 0.0, 1.0, 1.0, -(10**5000))
    with pytest.raises(ValueError, match=r"^n must be in \[2, 2\*\*63\), got 9223372036854775808$"):
        sweep_kappa(0.2, 2.5, 2**63)  # past NumPy's intp, where np.linspace raises IndexError


def test_fields_store_python_floats_and_counts_python_ints():
    drive = DriveParams(1, np.int64(-2), np.float32(0.5))
    assert (drive.rabi, drive.detuning, drive.phase) == (1.0, -2.0, 0.5)
    assert all(type(x) is float for x in (drive.rabi, drive.detuning, drive.phase))
    assert repr(drive) == "DriveParams(rabi=1.0, detuning=-2.0, phase=0.5)"
    params = GeometricProtocolParams(kappa=2, v=3)
    assert type(params.omega) is float and params.omega == 6.0
    noise = NoiseModel(0, 0, 1, 1, np.uint64(2**64 - 1))
    assert type(noise.seed) is int and noise.seed == 2**64 - 1
    assert all(type(getattr(noise, name)) is float for name in ("sigma_omega_rel", "sigma_r_rel", "c6", "r0"))


def test_each_target_of_a_stack_is_checked_and_used_as_a_float():
    stack = np.stack([np.eye(9), np.diag(np.exp(1j * np.arange(9.0)))])
    want = fidelity_cphase(stack, np.array([3.0, 2.0**70]))
    assert np.array_equal(fidelity_cphase(stack, np.array([3, 2**70], dtype=object)), want)
    assert np.array_equal(fidelity_cphase(stack, [np.float32(3.0), 2**70]), want)
    with pytest.raises(ValueError, match="^target_phi must be finite, got inf$"):
        fidelity_cphase(stack, np.array([3, 10**400], dtype=object))


def test_a_float_field_is_stored_as_given():
    x = 1.2345678901234567
    assert DriveParams(x).rabi is x
    assert GeometricProtocolParams(x, x).kappa is x
