import numpy as np
import pytest

from dcqe import FringeModel, InvalidArgument, fringe_profile

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
