import hashlib
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
    _presolve,
)

from oracles import (
    dense_phase1_feasible,
    exact_normalized,
    feasible_interval,
    full_encoding_feasible,
    reference_feasibility_system,
    reference_presolve,
)

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

    def test_rejects_a_single_bin(self):
        with pytest.raises(InvalidArgument):
            worst_case_erase_conditional(1)

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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(q="0.5", n_x=4, p=0.3), "q must be a real number"),
        (dict(q=0.5, n_x=4, p="0.3"), "p must be a real number"),
        (dict(q=0.5, n_x=4, p=True), "p must be a real number"),
        (dict(q=True, n_x=4, p=0.3), "q must be a real number"),
        (dict(q=0.5, n_x=4.0, p=0.3), "bin count must be an integer"),
        (dict(q=0.5, n_x=3.5, p=0.3), "bin count must be an integer"),
        (dict(q=0.5, n_x="4", p=0.3), "bin count must be an integer"),
        (dict(q=0.5, n_x=True, p=0.3), "bin count must be an integer"),
        # the type is refused before the targets are looked at
        (dict(q="0.5", n_x=4, p=0.3, erase_conditional=[1.0]), "q must be a real number"),
    ])
    def test_refuses_strings_bools_and_fractional_bin_counts(self, kwargs, message):
        with pytest.raises(InvalidArgument, match=message):
            LossFeasibilityProblem(**kwargs)

    def test_numpy_scalars_are_kept_as_python_numbers(self):
        prob = LossFeasibilityProblem(q=np.float64(0.5), n_x=np.int64(4), p=np.float32(0.375))
        assert (type(prob.q), type(prob.n_x), type(prob.p)) == (float, int, float)
        assert prob == LossFeasibilityProblem(q=0.5, n_x=4, p=0.375)

    def test_equal_problems_compare_and_hash_equal(self):
        kwargs = dict(
            q=0.5, n_x=4, p=0.3,
            erase_conditional=[0.5, 0, 0.5, 0], preserve_conditional=[0.25] * 4,
        )
        a = LossFeasibilityProblem(**kwargs)
        b = LossFeasibilityProblem(**{**kwargs, "erase_conditional": np.array([0.5, 0, 0.5, 0])})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, LossFeasibilityProblem(q=0.5, n_x=4, p=0.3)}) == 2
        for key, value in (("erase_conditional", [0.5, 0, 0.25, 0.25]),
                           ("preserve_conditional", [0.25, 0.25, 0.5, 0.0])):
            other = LossFeasibilityProblem(**{**kwargs, key: value})
            assert a != other and b != other
        assert np.array_equal(a.resolved_erase(), [0.5, 0, 0.5, 0])
        assert np.array_equal(a.resolved_preserve(), [0.25] * 4)

    def test_both_routes_answer_a_numpy_problem(self):
        prob = LossFeasibilityProblem(q=np.float64(0.5), n_x=np.int64(4), p=np.float64(0.375))
        solved, built = check_feasible(prob), construct_witness(prob)
        assert solved.binding_constraint == built.binding_constraint == BINDING_INTERIOR
        assert np.allclose(solved.witness.p, built.witness.p, rtol=0.0, atol=1e-12)


class TestConstructWitness:
    def test_reference_witness(self):
        result = construct_witness(LossFeasibilityProblem(q=0.5, n_x=4, p=0.25))
        assert result.feasible
        witness = result.witness
        validate(witness)
        assert np.array_equal(witness.p.sum(axis=0), CD_TABLE_HALF)
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
                xc = witness.p.sum(axis=2)
                outer = np.outer(witness.p.sum(axis=(1, 2)), witness.p.sum(axis=(0, 2)))
                assert np.max(np.abs(xc - outer)) <= 1e-12

    def test_subnormal_erase_bin_answers_without_a_warning(self):
        # r/e overflows to inf at the subnormal bin, which the suite's
        # filterwarnings = error turns into a failure; the digest is the
        # answer the unguarded division gave with its warning suppressed
        e = np.full(8, 1 / 7)
        e[4], e[7] = 2.0**-1070, 0.0
        prob = LossFeasibilityProblem(q=0.78, n_x=8, p=0.7, erase_conditional=e / e.sum())
        result = construct_witness(prob)
        assert result_digest(result) == (
            "9f9e7c5674df7626b82faea540e5cd622d53953e9fd27fe3feea8189f2a03922"
        )
        assert result.binding_constraint == check_feasible(prob).binding_constraint


class TestCheckFeasible:
    @pytest.mark.parametrize("q", [1e-15, 1e-20])
    def test_binding_tags_scale_with_the_choice_mass(self, q):
        # every erase-branch cell scales with q, so at p = 0.75q the
        # smallest loss cell (q/8 here) is far from zero, however small q is
        for p, tag in ((0.75 * q, BINDING_INTERIOR), (q / 2, BINDING_LOSS_SLICE),
                       (q, BINDING_DETECTED_ERASE)):
            prob = LossFeasibilityProblem(q=q, n_x=4, p=p)
            assert check_feasible(prob).binding_constraint == tag, p
            assert construct_witness(prob).binding_constraint == tag, p

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
            witness.p.sum(axis=0),
            np.array([[0.2, 0.0, 0.3], [0.0, 0.5, 0.0]]),
            atol=1e-12,
        )
        xc = witness.p.sum(axis=2)
        outer = np.outer(witness.p.sum(axis=(1, 2)), witness.p.sum(axis=(0, 2)))
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


@st.composite
def sparse_degenerate_systems(draw):
    """Sparse, degenerate A v = b systems with few one-variable rows.

    6-12 rows and 8-16 columns, each column holding 1-3 non-zeros in -3..3
    over denominators 1-3, and integer right-hand sides in -2..3, zeros
    included.
    """
    m = draw(st.integers(6, 12))
    n = draw(st.integers(8, 16))
    nonzero = st.builds(
        Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)
    )
    rows = [[Fraction(0)] * n for _ in range(m)]
    for j in range(n):
        held = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True))
        for i in held:
            rows[i][j] = draw(nonzero)
    rhs = [Fraction(draw(st.integers(-2, 3))) for _ in range(m)]
    return rows, rhs


NONZERO = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
# half the coefficients a unit, as an int or a Fraction, as check_feasible's are
UNIT_HEAVY = st.one_of(st.sampled_from([1, Fraction(1)]), NONZERO)


@st.composite
def forced_systems(draw, nonzero=NONZERO, values=st.integers(0, 3)):
    """A v = b systems rich in one-variable rows, as check_feasible's are.

    Row i holds column i and up to two earlier columns, so each fixed value
    can leave a later row with one variable: a triangular cascade. Some rows
    also hold a later column, which leaves rows unsolved, and up to three
    extra rows sum 1-3 columns, as a mass row does. Entries are drawn from
    ``nonzero`` (by default non-zero in -3..3 over denominators 1-3), the
    rows come shuffled, and the right-hand sides are the Fractions A v for
    a v drawn from ``values`` (by default 0..3). At times one entry of v is
    -1 or one right-hand side is off by one, so negative fixed values and
    emptied rows with a non-zero right-hand side are common too.
    """
    n = draw(st.integers(1, 8))
    held = []
    for i in range(n):
        cols = [i] + (draw(st.lists(st.integers(0, i - 1), max_size=2, unique=True)) if i else [])
        if i < n - 1 and draw(st.integers(0, 3)) == 0:
            cols.append(draw(st.integers(i + 1, n - 1)))
        held.append(cols)
    for _ in range(draw(st.integers(0, 3))):
        held.append(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)))
    rows = [[Fraction(0)] * n for _ in held]
    for row, cols in zip(rows, held):
        for j in cols:
            row[j] = draw(nonzero)
    rows = draw(st.permutations(rows))
    v = [draw(values) for _ in range(n)]
    if draw(st.integers(0, 3)) == 0:
        v[draw(st.integers(0, n - 1))] = -1
    rhs = [Fraction(sum(a * x for a, x in zip(row, v))) for row in rows]
    if draw(st.integers(0, 3)) == 0:
        rhs[draw(st.integers(0, len(rhs) - 1))] += draw(st.sampled_from([-1, 1]))
    return rows, rhs


def fractions(values):
    return [Fraction(v) for v in values]


def sparse(rows):
    return [{j: a for j, a in enumerate(row) if a} for row in rows]


def assert_presolves_like_dense_reference(rows, rhs):
    """_presolve leaves its input as it was. When it refuses the system,
    the dense reference finds it infeasible; when it leaves no row, its
    fixed values, 0 on a column in no row, are the reference's vector; and
    the rows it leaves are feasible exactly when the whole system is."""
    n = len(rows[0])
    system = sparse(rows)
    reduced = _presolve(system, rhs, n)
    assert system == sparse(rows)
    want = dense_phase1_feasible(rows, rhs)
    if reduced is None:
        assert want is None
        return
    fixed, left, left_rhs = reduced
    if left:
        rest = [[row.get(j, Fraction(0)) for j in range(n)] for row in left]
        assert (dense_phase1_feasible(rest, left_rhs) is None) == (want is None)
    else:
        assert [fixed.get(j, Fraction(0)) for j in range(n)] == want


def assert_presolves_like_fraction_reference(rows, rhs):
    """_presolve gives the fixed values, rows left over and right-hand sides
    of the reference that divides, multiplies and subtracts every time."""
    n = len(rows[0])
    assert _presolve(sparse(rows), rhs, n) == reference_presolve(sparse(rows), rhs, n)


class TestPresolve:
    """Forced elimination: one-variable rows fix their variable until none is left."""

    @settings(max_examples=200, deadline=None)
    @given(system=linear_systems())
    def test_integer_systems(self, system):
        assert_presolves_like_dense_reference(*system)

    @settings(max_examples=100, deadline=None)
    @given(system=linear_systems(denominators=(1, 2, 3, 7)))
    def test_rational_systems(self, system):
        assert_presolves_like_dense_reference(*system)

    @settings(max_examples=60, deadline=None)
    @given(system=sparse_degenerate_systems())
    def test_sparse_degenerate_systems(self, system):
        assert_presolves_like_dense_reference(*system)

    @settings(max_examples=300, deadline=None)
    @given(system=forced_systems())
    def test_forced_systems(self, system):
        assert_presolves_like_dense_reference(*system)

    @settings(max_examples=150, deadline=None)
    @given(system=st.one_of(
        linear_systems(),
        linear_systems(denominators=(1, 2, 3, 7)),
        sparse_degenerate_systems(),
        forced_systems(),
    ))
    def test_matches_the_fraction_reference(self, system):
        assert_presolves_like_fraction_reference(*system)

    @settings(max_examples=300, deadline=None)
    @given(system=forced_systems(nonzero=UNIT_HEAVY, values=st.sampled_from([0, 0, 1, 2])))
    def test_unit_coefficients_and_zero_values_match_the_reference(self, system):
        # unit coefficients and values fixed at 0 take _presolve's short
        # cuts, and bring zero right-hand sides with them
        assert_presolves_like_fraction_reference(*system)

    def test_cascade_fixes_every_column(self):
        # v0 = 2, then v1 = 1 from the second row, then the sum row is met
        rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(3)}, {0: Fraction(1), 1: Fraction(1)}]
        rhs = fractions([4, 6, 3])
        assert _presolve(rows, rhs, 2) == ({0: 2, 1: 1}, [], [])

    def test_zero_coefficients_count_as_absent(self):
        # fixing v1 = 2 empties the first row, not leaves it as 0 * v0 = 0
        rows = [{0: Fraction(0), 1: Fraction(2)}, {1: Fraction(1)}]
        assert _presolve(rows, fractions([4, 2]), 2) == ({1: 2}, [], [])

    @pytest.mark.parametrize("rows, rhs", [
        # a forced negative value
        ([{0: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)}], fractions([-2, 1])),
        # an emptied row with a non-zero right-hand side
        ([{0: Fraction(1)}, {0: Fraction(2)}], fractions([1, 3])),
        # a row with no variable from the start
        ([{}, {0: Fraction(1), 1: Fraction(1)}], fractions([1, 1])),
    ])
    def test_infeasible_without_a_pivot(self, rows, rhs):
        assert _presolve(rows, rhs, 2) is None

    def test_residual_keeps_unfixed_rows(self):
        rows = [{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}]
        assert _presolve(rows, fractions([1, 3]), 3) == (
            {0: 1}, [{1: Fraction(1), 2: Fraction(1)}], [Fraction(2)]
        )


# Bin values from subnormal to huge, with zeros, the smallest subnormals and
# the floats either side of 1 drawn often.
BIN_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0**-1070, 1.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e300),
)


class TestExactNormalized:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(BIN_VALUES, min_size=1, max_size=12).filter(any))
    @example(values=[0.0, 5e-324, 0.0])
    @example(values=[2.0**-1070, 1.0 - 2.0**-53, 1e300, 0.0])
    def test_matches_the_fraction_reference(self, values):
        # the common power-of-two denominator gives the Fractions that
        # summing and dividing Fractions gives
        got = feasibility._exact_normalized(np.array(values))
        assert got == exact_normalized(values)
        assert all(type(f) is Fraction for f in got)


def result_digest(result):
    """sha256 of a result's verdict, binding tag and witness bytes."""
    h = hashlib.sha256()
    h.update(repr(result.feasible).encode())
    h.update(result.binding_constraint.encode())
    if result.witness is not None:
        h.update(result.witness.p.tobytes())
    return h.hexdigest()


def pinned_problems():
    """The 17 feasibility_grid benchmark problems and edge problems, by name."""
    cases = {
        f"grid-{n_x}-{p}": dict(q=0.5, n_x=n_x, p=p)
        for n_x in (4, 8, 16, 32)
        for p in (0.1875, 0.25, 0.375, 0.5)
    }
    cases["grid-64-0.375"] = dict(q=0.5, n_x=64, p=0.375)
    flat = [0.25] * 4
    cases["p0-worst"] = dict(q=0.5, n_x=4, p=0.0)
    cases["p0-equal-targets"] = dict(
        q=0.5, n_x=4, p=0.0, erase_conditional=flat, preserve_conditional=flat
    )
    cases["p-eq-q"] = dict(q=0.3, n_x=6, p=0.3)
    cases["p-gt-q"] = dict(q=0.5, n_x=4, p=0.9)
    cases["odd-5-interior"] = dict(q=0.5, n_x=5, p=0.3)
    cases["odd-5-above-floor"] = dict(q=0.5, n_x=5, p=0.25 + 1e-9)
    cases["odd-5-below-floor"] = dict(q=0.5, n_x=5, p=0.25 - 1e-9)
    erase = [0.5, 0.0, 0.25, 0.25, 0.0]
    cases["zero-bins-dark-preserve-under-erase"] = dict(
        q=0.4, n_x=5, p=0.3,
        erase_conditional=erase, preserve_conditional=[0.0, 0.25, 0.25, 0.25, 0.25],
    )
    cases["zero-bins-feasible"] = dict(
        q=0.4, n_x=5, p=0.3,
        erase_conditional=erase, preserve_conditional=[0.2, 0.3, 0.25, 0.25, 0.0],
    )
    cases["zero-bins-infeasible"] = dict(
        q=0.4, n_x=5, p=0.1,
        erase_conditional=erase, preserve_conditional=[0.0, 0.25, 0.25, 0.25, 0.25],
    )
    cases["zero-bins-p-eq-q"] = dict(
        q=0.7, n_x=3, p=0.7,
        erase_conditional=[0.0, 1.0, 0.0], preserve_conditional=[0.5, 0.5, 0.0],
    )
    return cases


# result_digest of check_feasible on each pinned problem, as the encoding
# over all 6*n_x cells solved it; 51db... is every infeasible-low result.
PINNED_DIGESTS = {
    "grid-4-0.1875": "51db43149ea7942c2990e0ac74f3bcfb9af978ed5a5d67644d49ae742be252de",
    "grid-4-0.25": "5f57b580b6ec9fd7a2fb4c4cdd4fb8dabbdcb30f301d9154473b8d3450838d28",
    "grid-4-0.375": "5ea46a362f4822f775218783010b341a7815e7d95fb9439304e68859ef5365df",
    "grid-4-0.5": "2e2e5e5ab0d92ae5e7c7c861e9604eb2a8c094839f42a64f73f9994680e98834",
    "grid-8-0.1875": "51db43149ea7942c2990e0ac74f3bcfb9af978ed5a5d67644d49ae742be252de",
    "grid-8-0.25": "142c27b382bcef7b010817672314428a7d77995895490ab80f36a93338f122d2",
    "grid-8-0.375": "ba00b547a9585b9f37a69d6537dac55e4f5cf38575475a241dc593ca137a7fad",
    "grid-8-0.5": "d112f2ed34ab065a5c31e9a83a1f7a078485608c51b5366ab7ef8e6ef4a9e31a",
    "grid-16-0.1875": "51db43149ea7942c2990e0ac74f3bcfb9af978ed5a5d67644d49ae742be252de",
    "grid-16-0.25": "6509b002a82361ad61e7e0bc03ec760be131383fcbe9bcd70f202e97ce4c03f4",
    "grid-16-0.375": "1e9e2c9b3fdc5d55715de6f607e1ba04079ddd9e2a5f26a0fbd80d86fe919433",
    "grid-16-0.5": "9807f956b06284cd3d055e9a25e5aaa7d38104bcac62d27f95fed8803c77514b",
    "grid-32-0.1875": "51db43149ea7942c2990e0ac74f3bcfb9af978ed5a5d67644d49ae742be252de",
    "grid-32-0.25": "0e43adbb1a8f42a6862826e530ae052021fe59c2c1f891327b2392f6c1480bcb",
    "grid-32-0.375": "0f55505d2d5cb3bdff85af4e6234dd8dc21a79a9ab2db0bb3b0333fc13a40bca",
    "grid-32-0.5": "73299588113b9ad732686d4cd91e2876dd1665759f5138711bf2675c4f6b4274",
    "grid-64-0.375": "8a90a7e42a1e8286c7b9485f6b474600f64b0b759105ea10fc807d10952440eb",
    "p0-worst": "51db43149ea7942c2990e0ac74f3bcfb9af978ed5a5d67644d49ae742be252de",
    "p0-equal-targets": "c2ef73d50eeb691a5e3c3f5ac3293af025fc61e8a9ed40c6a0e43a3d8775c73b",
    "p-eq-q": "87c2e7a02924e66bf43a5b4b1eff0f9a653c1387cda0198431e8310fd97b4e0e",
    "p-gt-q": "15c16cd9d9da7cede90b76c3aa5627fad49963cc029a67be573835b57bc0aa0c",
    "odd-5-interior": "9779d184d7602e7b8f03f0947fb7623fd84b4520ad441ad7553af7540b8b3ea6",
    "odd-5-above-floor": "b65f1fed533e96c574112aa7eb71d2f1410bc88d364f7c1be6a6bcb417248575",
    "odd-5-below-floor": "51db43149ea7942c2990e0ac74f3bcfb9af978ed5a5d67644d49ae742be252de",
    "zero-bins-dark-preserve-under-erase": "51db43149ea7942c2990e0ac74f3bcfb9af978ed5a5d67644d49ae742be252de",
    "zero-bins-feasible": "1939c9a130ef5594f657fb11a1f4f698bdac5682836c89d126ee49717a2f0243",
    "zero-bins-infeasible": "51db43149ea7942c2990e0ac74f3bcfb9af978ed5a5d67644d49ae742be252de",
    "zero-bins-p-eq-q": "02be28df523ef576bcb3d0b5fe997321c400172ed53a4152995ec4e50a38a9bf",
}


@st.composite
def rational_problems(draw):
    """Small problems with dyadic q and p, p = 0, p = q and p > q included,
    and targets from small integer weights, zero bins included."""
    n_x = draw(st.integers(2, 5))
    q = draw(st.integers(1, 15)) / 16
    p = draw(st.integers(0, 16)) / 16
    if not draw(st.booleans()):
        return LossFeasibilityProblem(q=q, n_x=n_x, p=p)
    weights = st.lists(st.integers(0, 4), min_size=n_x, max_size=n_x).filter(any)
    erase, preserve = (np.array(draw(weights), dtype=float) for _ in range(2))
    return LossFeasibilityProblem(
        q=q, n_x=n_x, p=p,
        erase_conditional=erase / erase.sum(),
        preserve_conditional=preserve / preserve.sum(),
    )


def float_target_problems(seed, n_x, subnormal, zero_bins=False):
    """Problems on seeded float targets at loss rates 0, half the floor, the
    floor, the floor-to-q midpoint and q. With ``subnormal`` the middle
    erase bin is 2**-1070; with ``zero_bins`` the first erase bin and the
    last preserve bin are 0."""
    rng = np.random.default_rng(seed)
    erase = rng.random(n_x) ** 2
    if subnormal:
        erase[n_x // 2] = 2.0**-1070
    preserve = rng.random(n_x) + 0.05
    q = float(rng.uniform(0.2, 0.8))
    if zero_bins:
        erase[0] = preserve[-1] = 0.0
    erase, preserve = erase / erase.sum(), preserve / preserve.sum()
    low, _ = feasible_interval(q, erase, preserve)
    for p in (0.0, float(low) / 2, float(low), (float(low) + q) / 2, q):
        yield LossFeasibilityProblem(
            q=q, n_x=n_x, p=p, erase_conditional=erase, preserve_conditional=preserve
        )


def assert_matches_full_encoding(prob):
    """check_feasible gives the verdict and witness bits of the dense
    simplex over all 6*n_x cells, and the tag of the side p lies on."""
    got = check_feasible(prob)
    want = full_encoding_feasible(prob.q, prob.p, prob.resolved_erase(), prob.resolved_preserve())
    assert got.feasible == (want is not None), prob
    if want is None:
        assert got.witness is None
        assert got.binding_constraint == (INFEASIBLE_HIGH if prob.p > prob.q else INFEASIBLE_LOW)
    else:
        table = np.array(want, dtype=float).reshape(prob.n_x, 2, 3)
        assert got.witness.p.tobytes() == table.tobytes(), prob


def assert_no_residual_system(prob, patch):
    """Per bin the preserve row holds one cell, the detected-erase row at
    most one, and then the independence row at most one: forced elimination
    fixes every column of check_feasible's encoding or refuses it."""
    unsolved = []

    def recording(rows, rhs, n):
        reduced = _presolve(rows, rhs, n)
        if reduced is not None:
            fixed, left, _ = reduced
            unsolved.append((n - len(fixed), len(left)))
        return reduced

    patch.setattr(feasibility, "_presolve", recording)
    check_feasible(prob)
    assert unsolved in ([], [(0, 0)]), prob


def assert_system_matches_reference(prob, patch):
    """check_feasible hands _presolve the rows, right-hand sides, order
    and column count of the cell-by-cell reference encoding."""
    seen = []

    def recording(rows, rhs, n):
        seen.append((rows, rhs, n))
        return _presolve(rows, rhs, n)

    patch.setattr(feasibility, "_presolve", recording)
    check_feasible(prob)
    assert seen == [reference_feasibility_system(prob)], prob


class TestSameBits:
    """The live-cell encoding answers as the full 6*n_x-cell encoding did."""

    @pytest.mark.parametrize("name", list(PINNED_DIGESTS))
    def test_pinned_digest(self, name):
        prob = LossFeasibilityProblem(**pinned_problems()[name])
        assert result_digest(check_feasible(prob)) == PINNED_DIGESTS[name]

    def test_every_pinned_problem_has_a_digest(self):
        assert set(pinned_problems()) == set(PINNED_DIGESTS)

    @settings(max_examples=200, deadline=None)
    @given(prob=rational_problems())
    def test_matches_the_full_encoding(self, prob):
        assert_matches_full_encoding(prob)

    @pytest.mark.parametrize("seed, n_x, subnormal", [(0, 5, False), (1, 8, False), (2, 8, True)])
    def test_float_targets_match_the_full_encoding(self, seed, n_x, subnormal):
        # float targets rationalize to large denominators, and a subnormal
        # bin to huge ones
        for prob in float_target_problems(seed, n_x, subnormal):
            assert_matches_full_encoding(prob)

    @pytest.mark.parametrize("n_x, q, p, live, m", [
        (64, 0.5, 0.375, 3, 195),
        (4, 0.5, 0.1875, 3, 15),
        # p = q: the per-bin detected-erase rows are left empty with rhs 0
        (6, 0.3, 0.3, 2, 14),
        (4, 0.5, 0.0, 2, 14),
        (4, 0.5, 0.9, 3, 15),
        (5, 0.5, 0.3, 3, 18),
    ])
    def test_no_column_for_a_zero_mass_cell(self, n_x, q, p, live, m, monkeypatch):
        # of the (C, D) masses (q-p, 0, p, 0, 1-q, 0), only the `live`
        # non-zero ones get a column per bin, and an equation with no
        # column is dropped when its rhs is zero
        seen = []

        def recording(rows, rhs, n):
            seen.append((rows, rhs, n))
            return _presolve(rows, rhs, n)

        monkeypatch.setattr(feasibility, "_presolve", recording)
        result = check_feasible(LossFeasibilityProblem(q=q, n_x=n_x, p=p))
        ((rows, rhs, n),) = seen
        assert n == live * n_x
        assert len(rows) == len(rhs) == m
        assert all(0 <= j < n for row in rows for j in row)
        assert all(row or b for row, b in zip(rows, rhs))
        if result.feasible:
            cd = result.witness.p.sum(axis=0)
            assert np.count_nonzero(cd) <= live
            assert cd[0, 1] == cd[1, 0] == cd[1, 2] == 0.0

    @pytest.mark.parametrize("name", list(PINNED_DIGESTS))
    def test_pinned_system_matches_the_reference(self, name, monkeypatch):
        assert_system_matches_reference(LossFeasibilityProblem(**pinned_problems()[name]), monkeypatch)

    @settings(max_examples=200, deadline=None)
    @given(prob=rational_problems())
    def test_rational_system_matches_the_reference(self, prob):
        with pytest.MonkeyPatch.context() as patch:
            assert_system_matches_reference(prob, patch)

    @pytest.mark.parametrize("seed", range(6))
    def test_float_system_matches_the_reference(self, seed, monkeypatch):
        for prob in float_target_problems(seed, 3 + seed, subnormal=True, zero_bins=True):
            assert_system_matches_reference(prob, monkeypatch)

    @pytest.mark.parametrize("name", list(PINNED_DIGESTS))
    def test_encoding_leaves_no_residual_system(self, name, monkeypatch):
        assert_no_residual_system(LossFeasibilityProblem(**pinned_problems()[name]), monkeypatch)

    @settings(max_examples=200, deadline=None)
    @given(prob=rational_problems())
    def test_rational_encoding_leaves_no_residual_system(self, prob):
        with pytest.MonkeyPatch.context() as patch:
            assert_no_residual_system(prob, patch)

    @pytest.mark.parametrize("seed", range(6))
    def test_float_encoding_leaves_no_residual_system(self, seed, monkeypatch):
        for prob in float_target_problems(seed, 3 + seed, subnormal=True, zero_bins=True):
            assert_no_residual_system(prob, monkeypatch)

    def test_rows_left_unsolved_are_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(feasibility, "_presolve", lambda rows, rhs, n: ({}, rows, rhs))
        with pytest.raises(AssertionError, match="12 cells unsolved"):
            check_feasible(LossFeasibilityProblem(q=0.5, n_x=4, p=0.375))

    def test_results_compare_by_value(self):
        prob = LossFeasibilityProblem(q=0.5, n_x=4, p=0.375)
        assert check_feasible(prob) == check_feasible(prob)
        assert check_feasible(prob) != check_feasible(
            LossFeasibilityProblem(q=0.5, n_x=4, p=0.25)
        )


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
