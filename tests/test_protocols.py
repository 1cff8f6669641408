"""Tests for the protocol constructors and their closed-form gate times."""

import math

import numpy as np
import pytest

from rydgate.protocols import (
    GEOMETRIC_SEGMENT_PHASES,
    BlockadeProtocolParams,
    GeometricProtocolParams,
    blockade_pdp_sequence,
    gate_time_blockade,
    gate_time_geometric,
    geometric_controls,
    geometric_sequence,
    protocol_sequence,
)


class TestGeometricSequence:
    def test_structure_at_reference_point(self):
        params = GeometricProtocolParams(kappa=1.65, v=1.0)
        seq = geometric_sequence(params)
        assert len(seq.segments) == 4
        t_expected = 2 * math.pi / math.sqrt(10.89 + 0.25)
        for seg, phase in zip(seq.segments, GEOMETRIC_SEGMENT_PHASES):
            assert seg.duration == pytest.approx(t_expected, rel=1e-12)
            assert seg.drive1 == seg.drive2
            assert seg.drive1.rabi == pytest.approx(1.65)
            assert seg.drive1.detuning == pytest.approx(-0.5)
            assert seg.drive1.phase == pytest.approx(phase)
            assert seg.v == 1.0
        assert GEOMETRIC_SEGMENT_PHASES == (0.0, -math.pi / 2, 0.0, -math.pi / 2)

    def test_total_duration_matches_closed_form(self):
        for kappa in (0.3, 1.0, 1.65, 2.5):
            params = GeometricProtocolParams.from_omega(kappa, omega=1.3)
            assert geometric_sequence(params).total_duration == pytest.approx(
                gate_time_geometric(kappa, 1.3), rel=1e-12
            )

    def test_vanishing_interaction_limit(self):
        omega = 1.0
        params = GeometricProtocolParams(kappa=1e7, v=omega / 1e7)
        assert params.segment_duration == pytest.approx(math.pi / omega, rel=1e-10)

    def test_cyclicity_frequency_times_segment_duration(self, rng):
        for _ in range(25):
            kappa = float(rng.uniform(0.05, 5.0))
            v = float(rng.uniform(0.1, 5.0))
            p = GeometricProtocolParams(kappa=kappa, v=v)
            s = math.sqrt(4 * p.omega**2 + v**2 / 4)
            assert s * p.segment_duration == pytest.approx(2 * math.pi, rel=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GeometricProtocolParams(kappa=-1.0, v=1.0)
        with pytest.raises(ValueError):
            GeometricProtocolParams(kappa=1.0, v=0.0)
        with pytest.raises(ValueError):
            GeometricProtocolParams.from_omega(1.65, omega=0.0)

    @pytest.mark.parametrize("kappa", [0.0, -0.0])
    def test_from_omega_rejects_kappa_before_dividing(self, kappa):
        with pytest.raises(ValueError, match="kappa must be positive"):
            GeometricProtocolParams.from_omega(kappa, 1.0)

    def test_from_omega_reports_an_overflowing_v(self):
        with pytest.raises(ValueError, match="omega/kappa overflows"):
            GeometricProtocolParams.from_omega(5e-324, 1.0)


def _sequence_controls(kappas, omega):
    """Rows and durations of one ``geometric_sequence`` per kappa, stacked."""
    seqs = [geometric_sequence(GeometricProtocolParams.from_omega(float(k), omega)) for k in kappas]
    return np.array([s.controls for s in seqs]), np.array([s.durations for s in seqs])


class TestGeometricControls:
    @pytest.mark.parametrize(
        "k_min, k_max", [(0.2, 2.5), (1.0, 2.5)], ids=["sweep-grid", "calibration-grid"]
    )
    def test_scan_grids_match_sequences_bit_for_bit(self, k_min, k_max):
        kappas = np.linspace(k_min, k_max, 200)
        rows, durations = geometric_controls(kappas, 1.0)
        want_rows, want_durations = _sequence_controls(kappas, 1.0)
        assert rows.shape == (200, 4, 7) and durations.shape == (200, 4)
        assert rows.tobytes() == want_rows.tobytes()
        assert durations.tobytes() == want_durations.tobytes()

    def test_random_pairs_match_sequences_bit_for_bit(self, rng):
        # 40 random Omega times 500 random kappa, each over twelve decades.
        # Durations taken from np.hypot instead of math.hypot differ in the
        # last bit for about one pair in a thousand or two, so they fail here.
        for omega in 10.0 ** rng.uniform(-6, 6, 40):
            kappas = 10.0 ** rng.uniform(-6, 6, 500)
            rows, durations = geometric_controls(kappas, float(omega))
            want_rows, want_durations = _sequence_controls(kappas, float(omega))
            assert rows.tobytes() == want_rows.tobytes(), omega
            assert durations.tobytes() == want_durations.tobytes(), omega

    def test_empty_batch(self):
        rows, durations = geometric_controls([], 1.0)
        assert rows.shape == (0, 4, 7) and durations.shape == (0, 4)

    @pytest.mark.parametrize("kappas", [[1.0, 0.0], [1.0, math.nan], [math.inf]])
    def test_each_kappa_is_validated(self, kappas):
        with pytest.raises(ValueError, match="^kappa must be positive"):
            geometric_controls(kappas, 1.0)

    def test_out_of_range_gate_time_rejected_as_the_sequence_rejects_it(self):
        # Each segment lasts about 1e308: finite, but four of them are not.
        message = "^total duration must be finite, got inf$"
        with pytest.raises(ValueError, match=message):
            geometric_sequence(GeometricProtocolParams.from_omega(1.6, 3.1e-308))
        with pytest.raises(ValueError, match=message):
            geometric_controls([1.0, 1.6, 1.7], 3.1e-308)

    def test_largest_omega_builds_the_closed_form_gate_time(self):
        # 2*Omega would overflow here; pi/hypot(Omega, V/4) does not.
        sequence = geometric_sequence(GeometricProtocolParams.from_omega(1.6, 1e308))
        assert sequence.total_duration == pytest.approx(gate_time_geometric(1.6, 1e308), rel=1e-15)
        rows, durations = geometric_controls([1.0, 1.6, 1.7], 1e308)
        want_rows, want_durations = _sequence_controls([1.0, 1.6, 1.7], 1e308)
        assert rows.tobytes() == want_rows.tobytes()
        assert durations.tobytes() == want_durations.tobytes()

    @pytest.mark.parametrize("omega", [8e-308, 2e-307, 1e-306])
    def test_subnormal_quarter_v_matches_sequences_bit_for_bit(self, omega):
        # V/4 is subnormal for V below 2**-1020, where it loses bits; the rows
        # and the sequence still round the same way.
        kappas = np.geomspace(omega / 2.0**-1020, omega / 1e-315, 200)
        rows, durations = geometric_controls(kappas, omega)
        want_rows, want_durations = _sequence_controls(kappas, omega)
        assert durations.tobytes() == want_durations.tobytes()
        assert rows.tobytes() == want_rows.tobytes()


class TestProtocolSequence:
    def test_dispatches_on_the_parameter_type(self):
        geo = GeometricProtocolParams.from_omega(1.65, 1.0)
        blk = BlockadeProtocolParams(rabi=1.0, v=100.0)
        assert protocol_sequence(geo) == geometric_sequence(geo)
        assert protocol_sequence(blk) == blockade_pdp_sequence(blk)

    def test_unknown_parameter_type_rejected(self):
        with pytest.raises(TypeError, match="unsupported protocol parameters"):
            protocol_sequence((1.65, 1.0))


class TestBlockadeSequence:
    def test_durations_and_drive_masks(self):
        seq = blockade_pdp_sequence(BlockadeProtocolParams(rabi=1.0, v=100.0))
        durations = [seg.duration for seg in seq.segments]
        assert durations == pytest.approx([math.pi, 2 * math.pi, math.pi])
        masks = [(seg.drive1 is not None, seg.drive2 is not None) for seg in seq.segments]
        assert masks == [(True, False), (False, True), (True, False)]
        for seg in seq.segments:
            drive = seg.drive1 or seg.drive2
            assert drive.detuning == 0.0
            assert drive.phase == 0.0

    def test_total_duration_is_four_pi_over_omega(self):
        for omega in (0.5, 1.0, 3.7):
            seq = blockade_pdp_sequence(BlockadeProtocolParams(rabi=omega, v=50 * omega))
            assert seq.total_duration * omega == pytest.approx(4 * math.pi, rel=1e-12)
            assert seq.total_duration == pytest.approx(gate_time_blockade(omega), rel=1e-12)

    def test_schedule_independent_of_interaction(self):
        seq_a = blockade_pdp_sequence(BlockadeProtocolParams(rabi=1.0, v=50.0))
        seq_b = blockade_pdp_sequence(BlockadeProtocolParams(rabi=1.0, v=400.0))
        for a, b in zip(seq_a.segments, seq_b.segments):
            assert a.duration == b.duration
            assert a.drive1 == b.drive1
            assert a.drive2 == b.drive2
        assert seq_a.segments[0].v != seq_b.segments[0].v


#: Every entry point that takes a positive, finite parameter, with the name
#: its error message gives.
_POSITIVE_PARAMETERS = {
    "geometric-kappa": ("kappa", lambda x: GeometricProtocolParams(kappa=x, v=1.0)),
    "geometric-v": ("v", lambda x: GeometricProtocolParams(kappa=1.0, v=x)),
    "from_omega-kappa": ("kappa", lambda x: GeometricProtocolParams.from_omega(x, 1.0)),
    "from_omega-omega": ("omega", lambda x: GeometricProtocolParams.from_omega(1.0, x)),
    "blockade-rabi": ("rabi", lambda x: BlockadeProtocolParams(rabi=x, v=100.0)),
    "gate_time_geometric-kappa": ("kappa", lambda x: gate_time_geometric(x, 1.0)),
    "gate_time_geometric-omega": ("omega", lambda x: gate_time_geometric(1.0, x)),
    "gate_time_blockade-omega": ("omega", lambda x: gate_time_blockade(x)),
}


class TestParameterValidation:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("site", sorted(_POSITIVE_PARAMETERS))
    def test_non_positive_or_non_finite_rejected_by_name(self, site, value):
        name, call = _POSITIVE_PARAMETERS[site]
        with pytest.raises(ValueError, match=f"^{name} must be positive, got {value}$"):
            call(value)

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    def test_blockade_v_must_be_finite(self, v):
        with pytest.raises(ValueError, match=f"^v must be finite, got {v}$"):
            BlockadeProtocolParams(rabi=1.0, v=v)

    def test_blockade_v_may_be_zero_or_negative(self):
        for v in (0.0, -5.0):
            assert BlockadeProtocolParams(rabi=1.0, v=v).v == v


class TestGateTimes:
    def test_reference_values_in_pi_over_omega(self):
        # The closed form gives 3.9549 at kappa = 1.65 and 3.9496 at 1.56;
        # both sit within 1e-3 of 3.954-3.955 pi/Omega.
        assert gate_time_geometric(1.65, 1.0) / math.pi == pytest.approx(3.9547, abs=1e-3)
        assert gate_time_geometric(1.56, 1.0) / math.pi == pytest.approx(3.9496, abs=1e-3)
        assert gate_time_geometric(0.144, 1.0) / math.pi == pytest.approx(1.996, abs=1e-3)
        assert gate_time_geometric(0.144, 1.0) < 2 * math.pi

    def test_zero_interaction_limit(self):
        assert gate_time_geometric(1e9, 1.0) == pytest.approx(4 * math.pi, rel=1e-10)

    def test_omega_scaling(self):
        assert gate_time_blockade(1.0) == pytest.approx(4 * math.pi)
        assert gate_time_blockade(2.0) == pytest.approx(2 * math.pi)
        assert gate_time_geometric(1.65, 2.0) == pytest.approx(
            gate_time_geometric(1.65, 1.0) / 2
        )

    def test_monotone_in_kappa_with_known_bounds(self):
        omega = 1.0
        kappas = np.linspace(1 / math.sqrt(48), 5.0, 400)
        times = [gate_time_geometric(float(k), omega) for k in kappas]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert times[0] == pytest.approx(2 * math.pi / omega, rel=1e-12)
        assert times[-1] < 4 * math.pi / omega

    def test_validation(self):
        with pytest.raises(ValueError):
            gate_time_geometric(0.0, 1.0)
        with pytest.raises(ValueError):
            gate_time_blockade(-1.0)

    @pytest.mark.parametrize(
        "kappa, omega, expected",
        [
            # 4*kappa*kappa underflows here: to a subnormal whose reciprocal
            # overflows, and to 0.
            (1e-160, 1.0, 5.026548245743669e-159),
            (1e-200, 1.0, 5.026548245743669e-199),
            # omega*sqrt(...) overflows here.
            (1.0, 1e308, 1.2191170205567237e-307),
        ],
    )
    def test_extreme_valid_inputs(self, kappa, omega, expected):
        assert gate_time_geometric(kappa, omega) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "gate_time",
        [lambda: gate_time_geometric(1.0, 1e-308), lambda: gate_time_blockade(1e-308)],
        ids=["geometric", "blockade"],
    )
    def test_overflowing_gate_time_is_rejected(self, gate_time):
        # The schedule of either gate at this Omega raises too.
        with pytest.raises(ValueError, match="^gate time must be positive and finite, got inf$"):
            gate_time()
