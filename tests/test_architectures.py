import numpy as np
import pytest

from dcqe import (
    ArchitectureSpec,
    DcqeError,
    FringeModel,
    InvalidArgument,
    InvalidChoiceProbability,
    LossFeasibilityProblem,
    UnbalancedPorts,
    audit,
    build_kim,
    build_mach_zehnder,
    build_passive_choice,
    build_polarization,
    coarse_grain,
    conditional_x_given_d,
    default_fringe_model,
    fringe_profile,
    kim_coarse_graining,
    loss_bounds,
    validate,
)

from conftest import FOUR_BIN_PHASE0
from oracles import modulation_depth, pooled_conditional, rational_fringe_profile

FOUR_BIN_FRINGE = np.array([float(v) for v in rational_fringe_profile(0)])
FOUR_BIN_ANTIFRINGE = np.array([float(v) for v in rational_fringe_profile(2)])


def test_default_model_parameters():
    m = default_fringe_model()
    assert m.n_x == 64
    assert m.cycles == 4.0
    assert m.visibility == 1.0
    assert np.allclose(m.envelope_distribution(), 1 / 64, atol=0)


class TestKim:
    def test_structure(self, four_bin_model):
        joint = build_kim(four_bin_model)
        assert joint.space.c_values == ("erase", "preserve")
        assert joint.space.d_values == ("D1", "D2", "D3", "D4")
        assert not joint.space.has_loss
        validate(joint)

    def test_detector_probabilities(self):
        joint = build_kim(default_fringe_model())
        assert np.allclose(joint.p.sum(axis=(0, 1)), 0.25, atol=1e-12)

    def test_conditionals(self, four_bin_model):
        joint = build_kim(four_bin_model)
        assert np.allclose(conditional_x_given_d(joint, "D1"), FOUR_BIN_FRINGE, atol=1e-12)
        assert np.allclose(conditional_x_given_d(joint, "D2"), FOUR_BIN_ANTIFRINGE, atol=1e-12)
        assert np.allclose(conditional_x_given_d(joint, "D3"), 0.25, atol=1e-12)
        assert np.allclose(conditional_x_given_d(joint, "D4"), 0.25, atol=1e-12)

    def test_choice_detector_association(self, four_bin_model):
        # erase pairs with D1/D2, preserve with D3/D4, with no cross terms
        joint = build_kim(four_bin_model)
        assert np.all(joint.p[:, 1, 0:2] == 0)
        assert np.all(joint.p[:, 0, 2:4] == 0)
        assert joint.p.sum(axis=(0, 2))[0] == pytest.approx(0.5, abs=1e-12)

    def test_x_marginal_flat(self, four_bin_model):
        joint = build_kim(four_bin_model)
        assert np.allclose(joint.p.sum(axis=(1, 2)), 0.25, atol=1e-12)

    def test_fringe_pair_mixes_to_envelope(self, four_bin_model):
        joint = build_kim(four_bin_model)
        mix = 0.5 * (
            conditional_x_given_d(joint, "D1") + conditional_x_given_d(joint, "D2")
        )
        assert np.allclose(mix, 0.25, atol=1e-12)

    def test_fine_audit(self, four_bin_model):
        report = audit(build_kim(four_bin_model))
        assert report.violations == ("deterministic_routing",)
        assert report.deterministic_routing.detail["counterexample"] == {
            "c": "erase",
            "d": "D1",
            "d_prime": "D2",
        }
        assert report.no_go_consistent

    def test_coarse_audit(self, four_bin_model):
        coarse = coarse_grain(build_kim(four_bin_model), kim_coarse_graining())
        report = audit(coarse)
        assert report.violations == ("distinct_conditionals",)
        assert report.distinct_conditionals.statistic <= 1e-12
        assert report.deterministic_routing.detail["routing"] == {
            "erase": "D_erase",
            "preserve": "D_preserve",
        }
        assert report.no_go_consistent


class TestMachZehnder:
    def test_structure(self, four_bin_model):
        joint = build_mach_zehnder(four_bin_model, 0.5)
        assert joint.space.d_values == ("D1", "D2")
        assert not joint.space.has_loss
        validate(joint)

    def test_erase_slices_are_fringe_pair(self, four_bin_model):
        q = 0.3
        joint = build_mach_zehnder(four_bin_model, q)
        env = four_bin_model.envelope_distribution()
        mod = np.cos(four_bin_model.phases())
        assert np.allclose(joint.p[:, 0, 0], q * env * (1 + mod) / 2, atol=1e-15)
        assert np.allclose(joint.p[:, 0, 1], q * env * (1 - mod) / 2, atol=1e-15)
        assert np.allclose(joint.p[:, 1, 0], (1 - q) * env / 2, atol=1e-15)
        assert np.allclose(joint.p[:, 1, 1], (1 - q) * env / 2, atol=1e-15)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    def test_pooled_visibility_is_q_scaled(self, four_bin_model, q):
        joint = build_mach_zehnder(four_bin_model, q)
        pooled = conditional_x_given_d(joint, "D1")
        expect = pooled_conditional(q, FOUR_BIN_FRINGE, np.full(4, 0.25))
        assert np.allclose(pooled, expect, atol=1e-12)
        # bin phases include 0 and pi, so the depth readout is exact
        assert modulation_depth(pooled) == pytest.approx(q * 1.0, abs=1e-12)

    def test_audit(self, four_bin_model):
        report = audit(build_mach_zehnder(four_bin_model, 0.5))
        assert report.violations == ("deterministic_routing",)
        assert report.deterministic_routing.detail["counterexample"] == {
            "c": "erase",
            "d": "D1",
            "d_prime": "D2",
        }
        assert report.no_go_consistent

    def test_no_signaling(self):
        joint = build_mach_zehnder(default_fringe_model(), 0.37)
        erase, preserve = (joint.p.sum(axis=2) / joint.p.sum(axis=(0, 2))).T
        assert np.max(np.abs(erase - preserve)) <= 1e-12
        assert np.allclose(erase, 1 / 64, atol=1e-12)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_bad_choice_probability(self, four_bin_model, q):
        with pytest.raises(InvalidChoiceProbability):
            build_mach_zehnder(four_bin_model, q)


class TestPolarization:
    def test_structure(self, four_bin_model):
        joint = build_polarization(four_bin_model, 0.5)
        assert joint.space.d_values == ("D_erase", "D_preserve", "LOSS")
        assert joint.space.has_loss
        validate(joint)

    @pytest.mark.parametrize("q,expect", [(0.5, 0.25), (0.8, 0.4)])
    def test_loss_mass_is_half_choice_mass(self, q, expect):
        joint = build_polarization(default_fringe_model(), q)
        loss = joint.p[:, :, joint.space.loss_index].sum()
        assert loss == pytest.approx(expect, abs=1e-12)

    def test_loss_mass_formula_nonflat(self):
        env = np.array([0.4, 0.3, 0.2, 0.1])
        m = FringeModel(n_x=4, cycles=1.0, phase0=FOUR_BIN_PHASE0, envelope=env)
        q = 0.6
        joint = build_polarization(m, q)
        mod = np.cos(m.phases())
        expect = q * (1 - np.sum(env * (1 + mod) / 2))
        loss = joint.p[:, :, joint.space.loss_index].sum()
        assert loss == pytest.approx(expect, abs=1e-12)

    def test_erase_conditional_is_fringe(self, four_bin_model):
        joint = build_polarization(four_bin_model, 0.5)
        cond = conditional_x_given_d(joint, "D_erase")
        assert np.allclose(cond, FOUR_BIN_FRINGE, atol=1e-12)
        assert cond[2] <= 1e-15  # dark bin carries no detected-erase mass

    def test_preserve_conditional_is_envelope(self, four_bin_model):
        joint = build_polarization(four_bin_model, 0.5)
        assert np.allclose(conditional_x_given_d(joint, "D_preserve"), 0.25, atol=1e-12)

    def test_audit(self, four_bin_model):
        report = audit(build_polarization(four_bin_model, 0.5))
        assert report.violations == ("lossless",)
        assert report.lossless.statistic == pytest.approx(0.25, abs=1e-12)
        assert report.distinct_conditionals.holds
        assert report.no_go_consistent

    def test_no_signaling_including_loss(self):
        joint = build_polarization(default_fringe_model(), 0.41)
        erase, preserve = (joint.p.sum(axis=2) / joint.p.sum(axis=(0, 2))).T
        assert np.max(np.abs(erase - preserve)) <= 1e-12

    def test_independence_deviation_tiny(self, four_bin_model):
        report = audit(build_polarization(four_bin_model, 0.5))
        assert report.independence.holds
        assert report.independence.statistic <= 1e-12


class TestPassiveChoice:
    def test_structure_and_port_balance(self, four_bin_model):
        joint = build_passive_choice(four_bin_model)
        assert joint.space.c_values == joint.space.d_values == ("D1", "D2")
        validate(joint)
        assert np.allclose(joint.p.sum(axis=(0, 1)), 0.5, atol=1e-12)

    def test_choice_equals_detection(self, four_bin_model):
        joint = build_passive_choice(four_bin_model)
        assert np.all(joint.p[:, 0, 1] == 0)
        assert np.all(joint.p[:, 1, 0] == 0)

    def test_conditionals_are_fringe_pair(self, four_bin_model):
        joint = build_passive_choice(four_bin_model)
        assert np.allclose(conditional_x_given_d(joint, "D1"), FOUR_BIN_FRINGE, atol=1e-12)
        assert np.allclose(conditional_x_given_d(joint, "D2"), FOUR_BIN_ANTIFRINGE, atol=1e-12)

    def test_audit(self, four_bin_model):
        report = audit(build_passive_choice(four_bin_model))
        assert report.violations == ("independence",)
        assert report.no_go_consistent

    def test_unbalanced_ports_rejected(self):
        env = np.array([0.7, 0.1, 0.1, 0.1])
        m = FringeModel(n_x=4, cycles=1.0, phase0=FOUR_BIN_PHASE0, envelope=env)
        with pytest.raises(UnbalancedPorts):
            build_passive_choice(m)


class TestArchitectureSpec:
    def test_dispatch_matches_builders(self, four_bin_model):
        direct = build_mach_zehnder(four_bin_model, 0.3)
        via_spec = ArchitectureSpec("mach_zehnder", four_bin_model, q=0.3).build()
        assert np.array_equal(direct.p, via_spec.p)
        assert np.array_equal(
            build_kim(four_bin_model).p, ArchitectureSpec("kim", four_bin_model).build().p
        )

    def test_q_required_where_choice_is_external(self, four_bin_model):
        with pytest.raises(InvalidArgument):
            ArchitectureSpec("mach_zehnder", four_bin_model)
        with pytest.raises(InvalidArgument):
            ArchitectureSpec("polarization", four_bin_model)

    def test_q_forbidden_where_no_external_choice(self, four_bin_model):
        with pytest.raises(InvalidArgument):
            ArchitectureSpec("passive_choice", four_bin_model, q=0.5)
        with pytest.raises(InvalidArgument):
            ArchitectureSpec("kim", four_bin_model, q=0.5)

    def test_unknown_kind(self, four_bin_model):
        with pytest.raises(InvalidArgument):
            ArchitectureSpec("unknown", four_bin_model)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_degenerate_q_rejected(self, four_bin_model, q):
        with pytest.raises(InvalidChoiceProbability):
            ArchitectureSpec("polarization", four_bin_model, q=q)

    def test_q_is_kept_as_a_checked_float(self, four_bin_model):
        spec = ArchitectureSpec("polarization", four_bin_model, q=np.float32(0.5))
        assert type(spec.q) is float and spec.q == 0.5


# "0.5" was accepted and kept as a string; True was taken as 1
@pytest.mark.parametrize("q", ["0.5", True], ids=repr)
def test_q_must_be_a_real_number(four_bin_model, q):
    for call in (
        lambda: loss_bounds(q),
        lambda: build_polarization(four_bin_model, q),
        lambda: ArchitectureSpec("mach_zehnder", four_bin_model, q=q),
    ):
        with pytest.raises(InvalidArgument, match=f"q must be a real number, got {q!r}"):
            call()


@pytest.mark.parametrize("q, shown", [(10**400, "inf"), (-(10**400), "-inf")], ids=["high", "low"])
def test_q_past_the_float_range_is_refused(four_bin_model, q, shown):
    # shown as dcqe bounds --q 1e400 shows it, not as an OverflowError
    for call in (
        lambda: loss_bounds(q),
        lambda: LossFeasibilityProblem(q=q, n_x=4, p=0.3),
        lambda: build_mach_zehnder(four_bin_model, q),
        lambda: ArchitectureSpec("polarization", four_bin_model, q=q),
    ):
        with pytest.raises(InvalidChoiceProbability, match=f"got {shown}$") as info:
            call()
        assert info.value.q == float(shown)


def test_every_builder_validates_at_defaults():
    m = default_fringe_model()
    for joint in (
        build_kim(m),
        build_mach_zehnder(m, 0.5),
        build_polarization(m, 0.5),
        build_passive_choice(m),
    ):
        validate(joint)
        assert abs(joint.p.sum() - 1.0) <= 1e-12
        assert audit(joint).no_go_consistent


@pytest.mark.parametrize("kind, q", [
    ("kim", None), ("mach_zehnder", 0.5), ("polarization", 0.5), ("passive_choice", None),
])
def test_every_builder_rejects_overflowed_phases(kind, q):
    spec = ArchitectureSpec(kind, FringeModel(n_x=8, cycles=1e308), q)
    with np.errstate(invalid="ignore"), pytest.raises(DcqeError):
        spec.build()
