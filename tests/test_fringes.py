import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcqe import ArchitectureSpec, FringeModel, InvalidArgument, fringe_profile

from conftest import FOUR_BIN_PHASE0
from oracles import rational_fringe_profile


class TestFringeModel:
    def test_phase_formula(self):
        m = FringeModel(n_x=8, cycles=2.0, phase0=0.3)
        expect = 2 * np.pi * 2.0 * (np.arange(8) + 0.5) / 8 + 0.3
        assert np.allclose(m.phases(), expect, atol=0)

    def test_envelope_defaults_flat(self):
        m = FringeModel(n_x=5, cycles=1.0)
        assert np.allclose(m.envelope_distribution(), np.full(5, 0.2), atol=0)

    def test_envelope_normalized_on_construction(self):
        m = FringeModel(n_x=4, cycles=1.0, envelope=[2.0, 2.0, 2.0, 2.0])
        assert np.allclose(m.envelope_distribution(), np.full(4, 0.25), atol=0)
        assert m.envelope_distribution().sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_x=1, cycles=1.0),
            dict(n_x=4, cycles=-1.0),
            dict(n_x=4, cycles=np.inf),
            dict(n_x=4, cycles=1.0, visibility=-0.1),
            dict(n_x=4, cycles=1.0, visibility=1.1),
            dict(n_x=4, cycles=1.0, envelope=[1.0, -1.0, 1.0, 1.0]),
            dict(n_x=4, cycles=1.0, envelope=[0.0, 0.0, 0.0, 0.0]),
            dict(n_x=4, cycles=1.0, envelope=[1.0, 1.0]),
            dict(n_x=4, cycles=1.0, phase0=np.inf),
            dict(n_x=4, cycles=1.0, phase0=np.nan),
        ],
    )
    def test_rejects_malformed(self, kwargs):
        with pytest.raises(InvalidArgument):
            FringeModel(**kwargs)

    # 2.5 bins once gave 3 phases and a TypeError in build_kim; 4.0 was kept
    # as a float; "4", "1" and "0" raised TypeError; visibility True was 1
    @pytest.mark.parametrize("kwargs, message", [
        (dict(n_x=2.5, cycles=1), "bin count must be an integer"),
        (dict(n_x=4.0, cycles=1), "bin count must be an integer"),
        (dict(n_x="4", cycles=1), "bin count must be an integer"),
        (dict(n_x=4, cycles="1"), "cycles must be a real number"),
        (dict(n_x=4, cycles=1, phase0="0"), "phase0 must be a real number"),
        (dict(n_x=4, cycles=1, visibility=True), "visibility must be a real number"),
    ])
    def test_refuses_non_numbers(self, kwargs, message):
        with pytest.raises(InvalidArgument, match=message):
            FringeModel(**kwargs)

    def test_numpy_scalars_are_kept_as_python_numbers(self):
        m = FringeModel(np.int64(8), np.float32(2.0), np.float64(0.1), np.float32(0.5))
        assert [type(v) for v in (m.n_x, m.cycles, m.phase0, m.visibility)] == [
            int, float, float, float
        ]
        assert m == FringeModel(8, 2.0, 0.1, 0.5)

    def test_models_with_an_envelope_compare_and_hash_by_value(self):
        # an envelope was kept as an array, so == and hash raised
        a = FringeModel(4, 1.0, envelope=[1.0, 2.0, 3.0, 4.0])
        b = FringeModel(4, 1.0, envelope=np.array([2.0, 4.0, 6.0, 8.0]))
        assert a.envelope == (0.1, 0.2, 0.3, 0.4)
        assert np.array_equal(a.envelope_distribution(), [0.1, 0.2, 0.3, 0.4])
        assert a == b and hash(a) == hash(b)
        assert a != FringeModel(4, 1.0, envelope=[4.0, 3.0, 2.0, 1.0])
        spec = ArchitectureSpec("kim", a)
        assert spec == ArchitectureSpec("kim", b) and hash(spec) == hash(ArchitectureSpec("kim", b))


class TestFringeProfile:
    def test_zero_visibility_returns_envelope(self):
        env = np.array([0.1, 0.2, 0.3, 0.4])
        m = FringeModel(n_x=4, cycles=1.0, visibility=0.0, envelope=env)
        assert np.allclose(fringe_profile(m), env, atol=1e-15)

    def test_quarter_turn_profiles(self, four_bin_model):
        expect0 = np.array([float(v) for v in rational_fringe_profile(0)])
        expect_pi = np.array([float(v) for v in rational_fringe_profile(2)])
        assert np.allclose(fringe_profile(four_bin_model, 0.0), expect0, atol=1e-12)
        assert np.allclose(fringe_profile(four_bin_model, np.pi), expect_pi, atol=1e-12)

    def test_partial_visibility_profile(self):
        m = FringeModel(n_x=4, cycles=1.0, phase0=FOUR_BIN_PHASE0, visibility=0.5)
        from fractions import Fraction

        expect = [float(v) for v in rational_fringe_profile(0, Fraction(1, 2))]
        assert np.allclose(fringe_profile(m), expect, atol=1e-12)

    def test_opposite_phases_average_to_envelope(self):
        m = FringeModel(n_x=16, cycles=3.0, phase0=0.7)
        avg = 0.5 * (fringe_profile(m, 0.0) + fringe_profile(m, np.pi))
        assert np.allclose(avg, m.envelope_distribution(), atol=1e-12)

    def test_profile_is_normalized_distribution(self):
        m = FringeModel(n_x=9, cycles=2.5, phase0=1.1, visibility=0.8)
        p = fringe_profile(m, 0.4)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_mass_extinguished_raises(self):
        # envelope concentrated on the dark bin of a full-visibility fringe
        m = FringeModel(
            n_x=4, cycles=1.0, phase0=FOUR_BIN_PHASE0, envelope=[0.0, 0.0, 1.0, 0.0]
        )
        with pytest.raises(InvalidArgument):
            fringe_profile(m, 0.0)

    def test_overflowed_phases_rejected(self):
        # cos(inf) is nan, and a nan total used to slip past the mass check
        m = FringeModel(n_x=8, cycles=1e308)
        with np.errstate(invalid="ignore"), pytest.raises(InvalidArgument, match="non-finite"):
            fringe_profile(m, 0.0)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=12),
    cycles=st.floats(0.0, 1e6),
    phase0=st.floats(-1e6, 1e6),
    visibility=st.floats(0.0, 1.0),
    offset=st.sampled_from([0.0, np.pi]),
)
def test_profile_weights_need_no_clamp(weights, cycles, phase0, visibility, offset):
    # for V in [0, 1], |V*cos| <= 1 after rounding and 1 + V*cos >= 0, so a
    # clamp of the weights at zero never changes one
    assume(sum(weights) > 0)
    m = FringeModel(len(weights), cycles, phase0, visibility, envelope=weights)
    raw = m.envelope_distribution() * (1.0 + visibility * np.cos(m.phases() + offset))
    assert np.all(raw >= 0)
    clamped = np.maximum(raw, 0.0)
    assume(clamped.sum() > 0)
    assert np.array_equal(fringe_profile(m, offset), clamped / clamped.sum())
