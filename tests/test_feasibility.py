from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcqe import (
    AllMassLost,
    DegenerateLossMass,
    FringeModel,
    InfeasibleLossRate,
    InvalidArgument,
    InvalidChoiceProbability,
    JointDistribution,
    LossFeasibilityProblem,
    NoLossOutcome,
    OutcomeSpace,
    audit,
    berkson_gap,
    build_polarization,
    check_feasible,
    conditional_x_given_d,
    construct_witness,
    estimate_from_events,
    loss_bounds,
    marginal,
    sample_events,
    validate,
    worst_case_erase_conditional,
)
from dcqe import feasibility
from dcqe.feasibility import (
    BINDING_DETECTED_ERASE,
    BINDING_INTERIOR,
    BINDING_LOSS_SLICE,
    INFEASIBLE_HIGH,
    INFEASIBLE_LOW,
    _phase1_feasible,
)

from oracles import dense_phase1_feasible, feasible_interval

CD_TABLE_HALF = np.array([[0.25, 0.0, 0.25], [0.0, 0.5, 0.0]])


class TestLossBounds:
    def test_half_choice(self):
        assert loss_bounds(0.5) == (0.25, 0.5)

    def test_formula(self):
        assert loss_bounds(0.8) == (0.4, 0.8)
        low, high = loss_bounds(1e-9)
        assert low == 5e-10 and high == 1e-9

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_degenerate_choice(self, q):
        with pytest.raises(InvalidChoiceProbability):
            loss_bounds(q)


class TestWorstCaseTarget:
    def test_even_width_alternates(self):
        target = worst_case_erase_conditional(4)
        assert np.array_equal(target, np.array([0.5, 0.0, 0.5, 0.0]))
        assert np.array_equal(
            worst_case_erase_conditional(6), np.array([1, 0, 1, 0, 1, 0]) / 3.0
        )

    def test_zero_set_carries_half_flat_mass(self):
        # the defining property: the flat preserve target puts exactly half
        # its mass on the bins where the erase target vanishes
        for n_x in (2, 4, 8, 10):
            target = worst_case_erase_conditional(n_x)
            dark = target == 0
            assert dark.sum() / n_x == 0.5

    def test_odd_width_peak_doubles_flat(self):
        target = worst_case_erase_conditional(5)
        assert target.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(target) == pytest.approx(2 / 5, abs=1e-12)
        assert np.min(target) > 0 or np.min(target) == 0  # nonnegative profile
        assert np.all(target >= 0)


class TestProblemValidation:
    def test_defaults_resolve(self):
        prob = LossFeasibilityProblem(q=0.5, n_x=4, p=0.3)
        assert np.array_equal(prob.resolved_erase(), worst_case_erase_conditional(4))
        assert np.array_equal(prob.resolved_preserve(), np.full(4, 0.25))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q=0.0, n_x=4, p=0.25),
            dict(q=1.0, n_x=4, p=0.25),
        ],
    )
    def test_degenerate_q(self, kwargs):
        with pytest.raises(InvalidChoiceProbability):
            LossFeasibilityProblem(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q=0.5, n_x=1, p=0.25),
            dict(q=0.5, n_x=4, p=-0.1),
            dict(q=0.5, n_x=4, p=1.1),
            dict(q=0.5, n_x=4, p=0.25, erase_conditional=[0.5, 0.5, 0.5, 0.5]),
            dict(q=0.5, n_x=4, p=0.25, erase_conditional=[0.5, 0.5]),
            dict(q=0.5, n_x=4, p=0.25, erase_conditional=[1.5, -0.5, 0.0, 0.0]),
            dict(q=0.5, n_x=4, p=0.25, preserve_conditional=[0.25, 0.25, 0.25, 0.25]),
        ],
    )
    def test_malformed_problems(self, kwargs):
        with pytest.raises(InvalidArgument):
            LossFeasibilityProblem(**kwargs)


class TestConstructWitness:
    def test_reference_witness(self):
        result = construct_witness(LossFeasibilityProblem(q=0.5, n_x=4, p=0.25))
        assert result.feasible
        witness = result.witness
        validate(witness)
        assert np.array_equal(marginal(witness, "cd"), CD_TABLE_HALF)
        report = audit(witness)
        assert report.independence.holds
        assert report.independence.statistic <= 1e-12
        assert report.lossless.statistic == pytest.approx(0.25, abs=1e-15)
        assert report.deterministic_routing.holds
        assert report.distinct_conditionals.holds
        assert result.binding_constraint == BINDING_LOSS_SLICE

    def test_witness_matches_targets(self):
        prob = LossFeasibilityProblem(q=0.5, n_x=4, p=0.3)
        witness = construct_witness(prob).witness
        assert np.allclose(
            conditional_x_given_d(witness, "D_erase"), prob.resolved_erase(), atol=1e-12
        )
        assert np.allclose(
            conditional_x_given_d(witness, "D_preserve"),
            prob.resolved_preserve(),
            atol=1e-12,
        )

    @pytest.mark.parametrize("p", [0.2, 0.6])
    def test_infeasible_rates_raise(self, p):
        with pytest.raises(InfeasibleLossRate) as exc:
            construct_witness(LossFeasibilityProblem(q=0.5, n_x=4, p=p))
        assert exc.value.bounds == (0.25, 0.5)

    def test_interior_binding_tag(self):
        result = construct_witness(LossFeasibilityProblem(q=0.5, n_x=4, p=0.3))
        assert result.binding_constraint == BINDING_INTERIOR

    def test_upper_endpoint_loses_all_erase_mass(self):
        result = construct_witness(LossFeasibilityProblem(q=0.5, n_x=4, p=0.5))
        assert result.feasible
        assert result.binding_constraint == BINDING_DETECTED_ERASE
        validate(result.witness)
        # the erase branch is entirely lost, so routing is undefined there
        with pytest.raises(AllMassLost):
            audit(result.witness)

    def test_independence_is_exact_for_any_feasible_rate(self):
        for q in (0.3, 0.5, 0.7):
            for t in (0.0, 0.4, 1.0):
                p = q / 2 + t * (q - q / 2)
                witness = construct_witness(
                    LossFeasibilityProblem(q=q, n_x=4, p=p)
                ).witness
                xc = marginal(witness, "xc")
                outer = np.outer(marginal(witness, "x"), marginal(witness, "c"))
                assert np.max(np.abs(xc - outer)) <= 1e-12


class TestCheckFeasible:
    def test_sweep_at_half(self):
        grid = [0.10, 0.20, 0.24, 0.25, 0.30, 0.50, 0.51]
        expect = [False, False, False, True, True, True, False]
        got = [
            check_feasible(LossFeasibilityProblem(q=0.5, n_x=4, p=p)).feasible
            for p in grid
        ]
        assert got == expect

    def test_infeasible_tags(self):
        low = check_feasible(LossFeasibilityProblem(q=0.5, n_x=4, p=0.1))
        assert not low.feasible and low.witness is None
        assert low.binding_constraint == INFEASIBLE_LOW
        high = check_feasible(LossFeasibilityProblem(q=0.5, n_x=4, p=0.9))
        assert not high.feasible and high.witness is None
        assert high.binding_constraint == INFEASIBLE_HIGH

    def test_equal_targets_need_no_loss(self):
        flat = np.full(4, 0.25)
        prob = LossFeasibilityProblem(
            q=0.5, n_x=4, p=0.0, erase_conditional=flat, preserve_conditional=flat
        )
        result = check_feasible(prob)
        assert result.feasible
        assert result.witness.p[:, :, 2].sum() == 0.0

    def test_feasible_witness_satisfies_problem(self):
        prob = LossFeasibilityProblem(q=0.5, n_x=4, p=0.3)
        result = check_feasible(prob)
        witness = result.witness
        validate(witness)
        assert np.allclose(
            marginal(witness, "cd"),
            np.array([[0.2, 0.0, 0.3], [0.0, 0.5, 0.0]]),
            atol=1e-12,
        )
        xc = marginal(witness, "xc")
        outer = np.outer(marginal(witness, "x"), marginal(witness, "c"))
        assert np.max(np.abs(xc - outer)) <= 1e-12
        report = audit(witness)
        assert report.independence.holds

    def test_agrees_with_construction_on_even_widths(self):
        # both routes must produce the same unique table, endpoints included
        for q in (0.3, 0.5, 0.7):
            for t in (0.0, 0.25, 0.6, 1.0):
                p = q / 2 + t * (q - q / 2)
                prob = LossFeasibilityProblem(q=q, n_x=4, p=p)
                built = construct_witness(prob)
                solved = check_feasible(prob)
                assert built.feasible and solved.feasible
                assert np.allclose(built.witness.p, solved.witness.p, atol=1e-12)

    def test_agrees_with_construction_on_odd_widths(self):
        # odd-width targets are irrational, so the two routes are compared
        # away from the knife-edge endpoints (well beyond float dust)
        for p in (0.2501, 0.3, 0.4999):
            prob = LossFeasibilityProblem(q=0.5, n_x=5, p=p)
            built = construct_witness(prob)
            solved = check_feasible(prob)
            assert built.feasible and solved.feasible
            assert np.allclose(built.witness.p, solved.witness.p, atol=1e-12)

    def test_odd_width_endpoint_probes(self):
        assert check_feasible(
            LossFeasibilityProblem(q=0.5, n_x=5, p=0.25 + 1e-9)
        ).feasible
        assert not check_feasible(
            LossFeasibilityProblem(q=0.5, n_x=5, p=0.25 - 1e-9)
        ).feasible

    @pytest.mark.parametrize("q", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_bounds_grid(self, q):
        low, high = loss_bounds(q)
        for p, expect in [
            (low, True),
            (high, True),
            ((low + high) / 2, True),
            (max(low - 1e-3, 0.0), False),
            (min(high + 1e-3, 1.0), False),
        ]:
            got = check_feasible(LossFeasibilityProblem(q=q, n_x=4, p=p)).feasible
            assert got == expect, (q, p)

    def test_monotone_in_loss_rate(self):
        q = 0.7
        rates = np.linspace(0.0, 1.0, 21)
        flags = [
            check_feasible(LossFeasibilityProblem(q=q, n_x=4, p=float(p))).feasible
            for p in rates
        ]
        # feasibility is an interval: False* True* False*
        first = flags.index(True)
        last = len(flags) - 1 - flags[::-1].index(True)
        assert all(flags[first : last + 1])
        assert not any(flags[:first])
        assert not any(flags[last + 1 :])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_interval_oracle_on_random_targets(self, seed):
        rng = np.random.default_rng(seed)
        n_x = int(rng.integers(2, 5))
        erase = rng.random(n_x) ** 2
        if rng.random() < 0.5:
            erase[rng.integers(0, n_x)] = 0.0
        if not erase.sum():
            erase[0] = 1.0
        erase /= erase.sum()
        preserve = rng.random(n_x) + 0.05
        preserve /= preserve.sum()
        q = float(rng.uniform(0.1, 0.9))
        low, high = feasible_interval(q, erase, preserve)
        for p in np.linspace(0.0, 1.0, 13):
            prob = LossFeasibilityProblem(
                q=q, n_x=n_x, p=float(p),
                erase_conditional=erase, preserve_conditional=preserve,
            )
            expect = low <= Fraction(float(p)) <= high
            assert check_feasible(prob).feasible == expect, (q, p)


@st.composite
def linear_systems(draw, denominators=(1,)):
    """Small A v = b systems with entries in -3..3 over the given denominators.

    Mixed-sign right-hand sides and tiny integer entries make infeasible,
    degenerate and redundant systems common.
    """
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    entry = st.builds(
        Fraction, st.integers(-3, 3), st.sampled_from(denominators)
    )
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    rhs = [draw(entry) for _ in range(m)]
    return rows, rhs


def fractions(values):
    return [Fraction(v) for v in values]


# A degenerate system on which ties in the ratio test decide the vertex
# reached: breaking them toward the larger basic column ends elsewhere.
TIE_BREAK_SYSTEM = (
    [
        fractions([0, 1, -3, -2, -3, -3]),
        fractions([-3, 3, -3, 3, 0, -1]),
        fractions([0, 3, 1, -1, -2, 0]),
    ],
    fractions([-2, 3, 3]),
)


def sparse(rows):
    return [{j: a for j, a in enumerate(row) if a} for row in rows]


def with_dense_solver(rows, rhs, n):
    dense = [[row.get(j, Fraction(0)) for j in range(n)] for row in rows]
    return dense_phase1_feasible(dense, rhs)


class TestSparseSimplex:
    """The fraction-free solver must follow the dense reference's pivot path."""

    @settings(max_examples=300, deadline=None)
    @given(system=linear_systems())
    @example(system=TIE_BREAK_SYSTEM)
    def test_matches_dense_reference_on_integer_systems(self, system):
        rows, rhs = system
        n = len(rows[0])
        assert _phase1_feasible(sparse(rows), rhs, n) == dense_phase1_feasible(rows, rhs)

    @settings(max_examples=150, deadline=None)
    @given(system=linear_systems(denominators=(1, 2, 3, 7)))
    def test_matches_dense_reference_on_rational_systems(self, system):
        rows, rhs = system
        n = len(rows[0])
        assert _phase1_feasible(sparse(rows), rhs, n) == dense_phase1_feasible(rows, rhs)

    def test_solution_satisfies_system(self):
        rows = [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1), 2: Fraction(-1)}]
        rhs = [Fraction(3), Fraction(-1, 2)]
        v = _phase1_feasible(rows, rhs, 3)
        assert v is not None and min(v) >= 0
        assert [sum(a * v[j] for j, a in row.items()) for row in rows] == rhs

    def test_infeasible_system(self):
        # v0 + v1 = 1 and v0 + v1 = 2 cannot both hold
        rows = [{0: Fraction(1), 1: Fraction(1)}] * 2
        assert _phase1_feasible(rows, [Fraction(1), Fraction(2)], 2) is None

    @pytest.mark.parametrize("n_x", [4, 8, 16])
    @pytest.mark.parametrize("p", [3 / 16, 1 / 4, 3 / 8, 1 / 2])
    def test_check_feasible_bits_match_dense_reference(self, n_x, p, monkeypatch):
        prob = LossFeasibilityProblem(q=0.5, n_x=n_x, p=p)
        got = check_feasible(prob)
        monkeypatch.setattr(feasibility, "_phase1_feasible", with_dense_solver)
        want = check_feasible(prob)
        assert got.feasible == want.feasible
        assert got.binding_constraint == want.binding_constraint
        if want.witness is None:
            assert got.witness is None
        else:
            assert got.witness.p.tobytes() == want.witness.p.tobytes()


class TestFeasibilityAtScale:
    """Hundreds of bins: every route must still agree."""

    @pytest.mark.parametrize("n_x, p", [(256, 0.375), (128, 0.25), (128, 0.2)])
    def test_routes_agree(self, n_x, p):
        prob = LossFeasibilityProblem(q=0.5, n_x=n_x, p=p)
        solved = check_feasible(prob)
        low, high = loss_bounds(0.5)
        assert solved.feasible == (low <= p <= high)
        exact_low, exact_high = feasible_interval(
            0.5, prob.resolved_erase(), prob.resolved_preserve()
        )
        assert solved.feasible == (exact_low <= Fraction(p) <= exact_high)
        if not solved.feasible:
            assert solved.binding_constraint == INFEASIBLE_LOW
            with pytest.raises(InfeasibleLossRate):
                construct_witness(prob)
            return
        built = construct_witness(prob)
        assert solved.binding_constraint == built.binding_constraint
        assert np.allclose(solved.witness.p, built.witness.p, rtol=0.0, atol=1e-12)


class TestBridgeToArchitectures:
    def test_analytic_polarization_marginals_are_feasible(self):
        m = FringeModel(n_x=8, cycles=1.0)
        joint = build_polarization(m, 0.5)
        q = float(joint.p[:, 0, :].sum())
        p = float(joint.p[:, :, joint.space.loss_index].sum())
        prob = LossFeasibilityProblem(
            q=q, n_x=8, p=p,
            erase_conditional=conditional_x_given_d(joint, "D_erase"),
            preserve_conditional=conditional_x_given_d(joint, "D_preserve"),
        )
        result = check_feasible(prob)
        assert result.feasible
        assert result.binding_constraint == BINDING_INTERIOR

    def test_empirical_polarization_marginals_are_feasible(self):
        # the intrinsic loss rate q/2 of the projection architecture is
        # accepted by the oracle when fed that architecture's own statistics
        m = FringeModel(n_x=8, cycles=1.0)
        est = estimate_from_events(sample_events(build_polarization(m, 0.5), 10**6, 13))
        q_hat = float(est.p[:, 0, :].sum())
        prob = LossFeasibilityProblem(
            q=q_hat, n_x=8, p=q_hat / 2,
            erase_conditional=conditional_x_given_d(est, "D_erase"),
            preserve_conditional=conditional_x_given_d(est, "D_preserve"),
        )
        assert check_feasible(prob).feasible


class TestBerksonGap:
    def test_reference_witness_gap(self):
        witness = construct_witness(LossFeasibilityProblem(q=0.5, n_x=4, p=0.25)).witness
        assert berkson_gap(witness) == pytest.approx(1 / 18, abs=1e-15)

    def test_uniform_thinning_keeps_independence(self):
        rng = np.random.default_rng(2)
        space = OutcomeSpace(4, ("erase", "preserve"), ("D1", "D2", "LOSS"))
        p_x = rng.random(4)
        p_x /= p_x.sum()
        p_c = np.array([0.3, 0.7])
        table = np.zeros((4, 2, 3))
        for c in range(2):
            table[:, c, c] = 0.8 * p_x * p_c[c]
            table[:, c, 2] = 0.2 * p_x * p_c[c]
        assert berkson_gap(JointDistribution(space, table)) <= 1e-12

    def test_requires_loss_outcome(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        with pytest.raises(NoLossOutcome):
            berkson_gap(JointDistribution(space, np.full((2, 2, 2), 0.125)))

    def test_requires_interior_loss_mass(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "LOSS"))
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 0.25
        with pytest.raises(DegenerateLossMass):
            berkson_gap(JointDistribution(space, table))
        all_lost = np.zeros((2, 2, 2))
        all_lost[:, :, 1] = 0.25
        with pytest.raises(DegenerateLossMass):
            berkson_gap(JointDistribution(space, all_lost))
