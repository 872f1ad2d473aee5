import dataclasses
import hashlib
import importlib
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcqe import (
    AllMassLost,
    ArchitectureSpec,
    AuditReport,
    DcqeError,
    InsufficientOutcomes,
    InvalidArgument,
    JointDistribution,
    LossFeasibilityProblem,
    NegativeMass,
    NotNormalized,
    OutcomeSpace,
    Verdict,
    audit,
    berkson_gap,
    check_deterministic_routing,
    check_distinct_conditionals,
    check_independence,
    check_lossless,
    coarse_grain,
    construct_witness,
    default_fringe_model,
    default_tolerance,
    estimate_from_events,
    kim_coarse_graining,
    route_by_region,
    sample_events,
)
from dcqe import LOSS
from dcqe.audit import ALL_CHECKS, LOSSLESS_TOL, g_test, upper_gamma
from dcqe.io import audit_report_dict, write_json

from oracles import (
    Refused,
    reference_audit,
    reference_berkson_gap,
    reference_distinct,
    reference_independence,
    reference_lossless,
    reference_routing,
)


def product_joint(p_x, p_c, kernel, d_values):
    """p(x,c,d) = P(x) P(c) P(d|c): independent by construction."""
    p_x = np.asarray(p_x)
    p_c = np.asarray(p_c)
    kernel = np.asarray(kernel)
    table = p_x[:, None, None] * p_c[None, :, None] * kernel[None, :, :]
    space = OutcomeSpace(
        len(p_x), tuple(f"c{k}" for k in range(len(p_c))), tuple(d_values)
    )
    return JointDistribution(space, table)


class TestDefaultTolerance:
    def test_analytic(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        joint = JointDistribution(space, np.full((2, 2, 2), 0.125))
        assert default_tolerance(joint) == 1e-9

    def test_empirical_scales_with_samples(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        counts = np.full((2, 2, 2), 112)
        counts[0, 0] = 114
        joint = JointDistribution(space, counts=counts)
        assert joint.n_samples == 900 and default_tolerance(joint) == pytest.approx(3 / 30)


class TestIndependence:
    def test_product_distribution_holds(self):
        joint = product_joint(
            [0.1, 0.2, 0.7], [0.4, 0.6], [[0.5, 0.5], [0.2, 0.8]], ("D1", "D2")
        )
        verdict = check_independence(joint)
        assert verdict.holds
        assert verdict.statistic <= 1e-12

    def test_correlated_fails_with_argmax_witness(self):
        # P(x=0,c=0)=0.4 while P(x=0)P(c=0)=0.25: deviation 0.15 at (0, a)
        space = OutcomeSpace(2, ("a", "b"), ("D1",))
        table = np.array([[[0.4], [0.1]], [[0.1], [0.4]]])
        verdict = check_independence(JointDistribution(space, table))
        assert not verdict.holds
        assert verdict.statistic == pytest.approx(0.15, abs=1e-15)
        assert verdict.detail["witness"] == {"x": 0, "c": "a"}

    def test_zero_mass_choice_skipped(self):
        space = OutcomeSpace(2, ("a", "b", "ghost"), ("D1", "D2"))
        table = np.zeros((2, 3, 2))
        table[:, :2, :] = 0.125
        verdict = check_independence(JointDistribution(space, table))
        assert verdict.holds
        assert verdict.detail["skipped_choices"] == ["ghost"]


class TestLossless:
    def test_no_loss_label_holds(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        verdict = check_lossless(JointDistribution(space, np.full((2, 2, 2), 0.125)))
        assert verdict.holds
        assert verdict.statistic == 0.0

    def test_loss_with_mass_fails(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "LOSS"))
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 0.2
        table[:, :, 1] = 0.05
        verdict = check_lossless(JointDistribution(space, table))
        assert not verdict.holds
        assert verdict.statistic == pytest.approx(0.2, abs=1e-15)

    def test_loss_label_with_zero_mass_holds(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "LOSS"))
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 0.25
        assert check_lossless(JointDistribution(space, table)).holds


class TestRouting:
    def test_deterministic_table_holds(self):
        joint = product_joint(
            [0.3, 0.7], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], ("D1", "D2")
        )
        verdict = check_deterministic_routing(joint)
        assert verdict.holds
        assert verdict.detail["routing"] == {"c0": "D1", "c1": "D2"}
        assert verdict.detail["counterexample"] is None
        assert verdict.statistic == 0.0

    def test_split_choice_fails_with_counterexample(self):
        # c0 splits 60/40 between D1 and D2
        joint = product_joint(
            [0.5, 0.5], [0.5, 0.5], [[0.6, 0.4], [0.0, 1.0]], ("D1", "D2")
        )
        verdict = check_deterministic_routing(joint)
        assert not verdict.holds
        assert verdict.detail["routing"] is None
        assert verdict.detail["counterexample"] == {"c": "c0", "d": "D1", "d_prime": "D2"}
        assert verdict.statistic == pytest.approx(0.4, abs=1e-15)

    def test_loss_excluded_from_routing(self):
        # every detected c0 event lands on D1; the loss mass must not count
        space = OutcomeSpace(2, ("c0", "c1"), ("D1", "D2", "LOSS"))
        table = np.zeros((2, 2, 3))
        table[:, 0, 0] = 0.1
        table[:, 0, 2] = 0.15
        table[:, 1, 1] = 0.25
        verdict = check_deterministic_routing(JointDistribution(space, table))
        assert verdict.holds
        assert verdict.detail["routing"] == {"c0": "D1", "c1": "D2"}

    def test_all_mass_lost_raises(self):
        space = OutcomeSpace(2, ("c0", "c1"), ("D1", "LOSS"))
        table = np.zeros((2, 2, 2))
        table[:, 0, 1] = 0.25
        table[:, 1, 0] = 0.25
        with pytest.raises(AllMassLost) as exc:
            check_deterministic_routing(JointDistribution(space, table))
        assert exc.value.c == "c0"

    def test_all_zero_table_raises(self):
        # every choice is skipped, so no choice is left to route
        space = OutcomeSpace(2, ("c0", "c1"), ("D1", "D2"))
        with pytest.raises(AllMassLost) as exc:
            check_deterministic_routing(JointDistribution(space, np.zeros((2, 2, 2))))
        assert exc.value.c == "c0"

    def test_zero_mass_choice_skipped(self):
        space = OutcomeSpace(2, ("c0", "c1", "ghost"), ("D1", "D2"))
        table = np.zeros((2, 3, 2))
        table[:, 0, 0] = 0.25
        table[:, 1, 1] = 0.25
        verdict = check_deterministic_routing(JointDistribution(space, table))
        assert verdict.holds
        assert verdict.detail["skipped_choices"] == ["ghost"]
        assert "ghost" not in verdict.detail["routing"]


class TestDistinctness:
    def test_single_detected_label_raises(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 0.25
        with pytest.raises(InsufficientOutcomes):
            check_distinct_conditionals(JointDistribution(space, table))

    def test_equal_conditionals_fail(self):
        joint = product_joint(
            [0.3, 0.7], [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], ("D1", "D2")
        )
        verdict = check_distinct_conditionals(joint)
        assert not verdict.holds
        assert verdict.statistic <= 1e-12

    def test_distinct_pair_witness(self):
        # dust-free table: conditionals are the opposite-phase fringe pair
        space = OutcomeSpace(4, ("a", "b"), ("D1", "D2"))
        table = np.zeros((4, 2, 2))
        table[:, 0, 0] = np.array([0.5, 0.25, 0.0, 0.25]) / 2
        table[:, 1, 1] = np.array([0.0, 0.25, 0.5, 0.25]) / 2
        verdict = check_distinct_conditionals(JointDistribution(space, table))
        assert verdict.holds
        assert verdict.statistic == 0.5
        witness = verdict.detail["witness"]
        assert (witness["d"], witness["d_prime"]) == ("D1", "D2")
        assert witness["bin_set"] == [0]

    def test_gap_equals_mass_over_bin_set(self):
        rng = np.random.default_rng(7)
        space = OutcomeSpace(5, ("a", "b"), ("D1", "D2", "D3"))
        table = rng.random((5, 2, 3)) + 0.02
        table /= table.sum()
        joint = JointDistribution(space, table)
        verdict = check_distinct_conditionals(joint)
        witness = verdict.detail["witness"]
        d, d2 = witness["d"], witness["d_prime"]
        a = table[:, :, space.d_index(d)].sum(axis=1)
        b = table[:, :, space.d_index(d2)].sum(axis=1)
        a, b = a / a.sum(), b / b.sum()
        assert verdict.statistic == pytest.approx((a - b)[witness["bin_set"]].sum(), abs=1e-12)

    def test_loss_excluded_from_pairs(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2", "LOSS"))
        table = np.zeros((2, 2, 3))
        # identical detected conditionals; loss has a wildly different shape
        table[:, 0, 0] = np.array([0.1, 0.1])
        table[:, 1, 1] = np.array([0.1, 0.1])
        table[0, 0, 2] = 0.6
        verdict = check_distinct_conditionals(JointDistribution(space, table))
        assert not verdict.holds


class TestAudit:
    def test_invalid_joint_rejected(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        with pytest.raises(NotNormalized):
            audit(JointDistribution(space, np.full((2, 2, 2), 0.2)))

    def test_negative_cell_rejected(self):
        # an exact table is validated first, whatever its total
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2"))
        table = np.full((2, 2, 2), 0.15)
        table[1, 0, 1] = -0.05
        with pytest.raises(NegativeMass) as exc:
            audit(JointDistribution(space, table))
        assert (exc.value.x, exc.value.c, exc.value.d) == (1, "a", "D2")

    def test_only_loss_leaves_nothing_to_route_or_compare(self):
        space = OutcomeSpace(2, ("a", "b"), (LOSS,))
        joint = JointDistribution(space, np.full((2, 2, 1), 0.25))
        with pytest.raises(AllMassLost):
            check_deterministic_routing(joint)
        with pytest.raises(InsufficientOutcomes, match="found 0"):
            check_distinct_conditionals(joint)

    def test_report_consistency_flag(self):
        joint = product_joint(
            [0.3, 0.7], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], ("D1", "D2")
        )
        report = audit(joint)
        # independence, lossless, routing all hold, so distinctness cannot
        assert report.independence.holds
        assert report.lossless.holds
        assert report.deterministic_routing.holds
        assert not report.distinct_conditionals.holds
        assert report.no_go_consistent
        assert report.violations == ("distinct_conditionals",)

    def test_tolerance_threads_through(self):
        joint = product_joint(
            [0.5, 0.5], [0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], ("D1", "D2")
        )
        strict = audit(joint, tol=1e-3)
        loose = audit(joint, tol=0.2)
        assert not strict.deterministic_routing.holds
        assert loose.deterministic_routing.holds
        assert strict.tolerance == 1e-3

    # an integer past the float range reads as inf
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, 10**400])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        joint = product_joint([0.5, 0.5], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], ("D1", "D2"))
        for check in (
            audit, check_independence, check_deterministic_routing, check_distinct_conditionals
        ):
            with pytest.raises(InvalidArgument, match="tolerance must be finite and positive"):
                check(joint, tol=tol)

    @pytest.mark.parametrize("tol", [True, "0.1"], ids=["bool", "str"])
    def test_tolerance_must_be_a_real_number(self, tol):
        joint = product_joint([0.5, 0.5], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], ("D1", "D2"))
        for check in (
            audit, check_independence, check_deterministic_routing, check_distinct_conditionals
        ):
            with pytest.raises(InvalidArgument, match="tolerance must be a real number"):
                check(joint, tol=tol)

    def test_numpy_tolerance_is_kept_as_a_float(self, tmp_path):
        report = audit(_paper_table("kim"), tol=np.float32(0.05))
        assert type(report.tolerance) is float
        assert all(type(verdict.holds) is bool for verdict in report.verdicts)
        write_json(audit_report_dict(report), tmp_path / "report.json")

    def test_audit_is_pure(self):
        joint = product_joint(
            [0.2, 0.8], [0.5, 0.5], [[0.7, 0.3], [0.3, 0.7]], ("D1", "D2")
        )
        assert audit(joint) == audit(joint)

    def test_as_dict_shape(self):
        joint = product_joint(
            [0.3, 0.7], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], ("D1", "D2")
        )
        doc = audit(joint).as_dict()
        assert set(doc) == {
            "independence",
            "lossless",
            "deterministic_routing",
            "distinct_conditionals",
            "violations",
            "no_go_consistent",
            "tolerance",
            "n_samples",
        }
        assert doc["independence"]["holds"] is True
        assert doc["deterministic_routing"]["routing"] == {"c0": "D1", "c1": "D2"}
        assert doc["distinct_conditionals"]["holds"] is False


def _paper_table(name):
    kind = "kim" if name == "kim_coarse" else name
    q = 0.5 if name in ("mach_zehnder", "polarization") else None
    joint = ArchitectureSpec(kind, default_fringe_model(), q).build()
    if name == "kim_coarse":
        joint = coarse_grain(joint, kim_coarse_graining())
    return joint


def _pinned_table(name):
    """One of the tables whose audit report digests are pinned below."""
    base, _, sampled = name.partition("@")
    if base == "witness":
        joint = construct_witness(LossFeasibilityProblem(q=0.5, n_x=4, p=0.25)).witness
    elif base == "region":
        joint = route_by_region([1] * 8 + [0] * 8, np.full(16, 1 / 16))
    elif base == "ghost":
        space = OutcomeSpace(2, ("c0", "c1", "ghost"), ("D1", "D2"))
        table = np.zeros((2, 3, 2))
        table[:, 0, 0] = 0.25
        table[:, 1, 1] = 0.25
        joint = JointDistribution(space, table)
    else:
        joint = _paper_table(base)
    if sampled:
        joint = estimate_from_events(sample_events(joint, 10_000, seed=3))
    return joint


#: sha256 of ``json.dumps(audit_report_dict(audit(table, tol)), indent=2,
#: sort_keys=True)`` per (table, tol); "@n" marks a table estimated from
#: 10**4 events drawn with seed 3, and tol None the default tolerance.
PINNED_REPORT_SHA256 = {
    ("kim", None): "220fe248b2a20e61ebb73f2c79ae3b8c6e0055118ca7c1aa8d3f6833e1754363",
    ("kim", 0.05): "3c6f905fd33b4f8a0a457f67af8d58460696a3ab61bb87e015c3403a389a3a3c",
    ("kim_coarse", None): "06be7ea52f443d68562ce5709c5d7d1d9034d7baf216fa9e3a8ea66faf30f44f",
    ("kim_coarse", 0.05): "e75ee8e59cb90404bc958f0223faf66f23bdefb083959a95b5bd670302a337f9",
    ("mach_zehnder", None): "66e19c4f21ade8e22de0e05eeb40666f3c5fe04d6c0ab94f01c862eadebe54cc",
    ("mach_zehnder", 0.05): "deb35c072a28e333f68c49edf216edc90e8907f8090e3bd8fdaf3248df16a4ac",
    ("polarization", None): "ba502e2397cd4c6fb6387200dc33408ce979f7cbf7cf2fe4d39a1eeedb5f1b05",
    ("polarization", 0.05): "32d1ba7e182529d43182cb07b2ee8382592faecf570951e7abfc50e5cc7442c2",
    ("passive_choice", None): "007b63ca8867f1213bacbe5d94a2bd4ddc21f9276e0131652d6ac922b9ff7a94",
    ("passive_choice", 0.05): "e91b12f2e7a62878bb4897097eedcd7b187f33fe6a497f3d6e793b924510143e",
    ("witness", None): "411545704ed7ee64db3f04169cd7fdb8de147fb201e5f2ca71c28358e9d78c74",
    ("witness", 0.05): "e987704887d8f95e36c5333e75ca985a3bd3e3d55351313dd58fcda60b92b0eb",
    ("region", None): "1b8ca4ed8115b4d640593abfc5eca01fc1f4b402d06d8131057571b93f310012",
    ("region", 0.05): "6a60f1684137ef33ea6b1f22e351b740bad3ba7457ddcac82f8ddb9c8066f97b",
    ("kim@n", None): "1654ec4fb96c749974b6ee482924bfad68a92d10198bba268ad139a095909115",
    ("kim@n", 0.05): "f2a8cd69a883a7fbb333b05283c4c11daf4c0f248a3bde2dac78189dd3b69eac",
    ("kim_coarse@n", None): "eae7c265635f9ddf9311f56d1d48e9a5c52034f5fb2c102d92127073b22c2c96",
    ("kim_coarse@n", 0.05): "d27fa3d53e6e24c3ff14fa80ba23e77ffb8e9ddb295ab29c94a2db53ea874e03",
    ("mach_zehnder@n", None): "6f8fb494e37b50604766171a1ef095d90c19b05ae9bbb549d7365962493c077f",
    ("mach_zehnder@n", 0.05): "501e237f5c6bcc8bb015b72f3c41b25616e2da657556be7fc9361be986533a76",
    ("polarization@n", None): "da827b25426b0c6cf78b177c9786472344af16ba12c64aa0d21f1792d0885268",
    ("polarization@n", 0.05): "13f4af619e9968739dfe5fb1126d5b51092027da1707f7263befdebcfa4c96c1",
    ("passive_choice@n", None): "11ebd0004f8ce1aaa50f5f37799d9e368d7deb131ae2572a856836e69683f004",
    ("passive_choice@n", 0.05): "2e4fe9f978fc97247d20d0ec6ba9dc6d664c8f1002109a2fefcf39a10cffa535",
    ("witness@n", None): "f1bbcbe64ba288656c4b6133050d40047727c936f64f562159c60c227c613663",
    ("witness@n", 0.05): "f102c4b853ebe4993f8452f5f17460c7704199494ea67c93aff050a4400103ea",
    ("region@n", None): "09292ca3039acd0c91ab7b4e3551f6d1a892877d948bf46e4335f0820f9e1fb3",
    ("region@n", 0.05): "1e9058a5351ccf0cd3db219abf60f331556d2d62736f164ad0a4e2e7a3d173c1",
    ("ghost", None): "9bc1d8b14146a2002981214741f6ed71f38bdedcc5a6792e22f020855b6d4a99",
    ("ghost", 0.05): "494baf89c3025ca13e5aadb3454e1280bd750b8fcbea094055ae695cc847ccb5",
}


class TestPinnedReports:
    @pytest.mark.parametrize("case", PINNED_REPORT_SHA256, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_report_bytes_are_pinned(self, case):
        name, tol = case
        doc = audit_report_dict(audit(_pinned_table(name), tol))
        text = json.dumps(doc, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT_SHA256[case]


class TestUpperGamma:
    def test_even_df_matches_the_closed_form(self):
        # Q(k, x) = e^-x Σ_{i<k} x^i / i! for integer k, i.e. even df = 2k
        for df in range(2, 127, 2):
            for statistic in (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, df - 1.0, df, df + 3.0, 100.0, 200.0):
                x = statistic / 2
                term, closed = math.exp(-x), 0.0
                for i in range(df // 2):
                    closed += term
                    term *= x / (i + 1)
                assert upper_gamma(df / 2, x) == pytest.approx(closed, rel=1e-12, abs=0.0)

    def test_odd_df_matches_erfc(self):
        # Q(1/2, x) = erfc(√x) and Q(3/2, x) = erfc(√x) + 2 √(x/π) e^-x
        for x in (0.01, 0.3, 1.0, 1.5, 2.0, 7.0, 40.0, 200.0):
            half = math.erfc(math.sqrt(x))
            assert upper_gamma(0.5, x) == pytest.approx(half, rel=1e-12, abs=0.0)
            three_halves = half + 2 * math.sqrt(x / math.pi) * math.exp(-x)
            assert upper_gamma(1.5, x) == pytest.approx(three_halves, rel=1e-12, abs=0.0)

    def test_zero_is_the_whole_tail(self):
        assert upper_gamma(3.5, 0.0) == 1.0

    def test_infinity_has_no_tail(self):
        # the continued fraction never converges at x = inf; run it on a
        # daemon thread so a regression fails here instead of hanging
        got = []
        worker = threading.Thread(
            target=lambda: got.extend(upper_gamma(a, math.inf) for a in (0.5, 1.0, 31.5)),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive(), "upper_gamma(a, inf) did not return"
        assert got == [0.0, 0.0, 0.0]


class TestGTest:
    def test_matches_the_definition(self):
        counts = np.array([[10.0, 20.0, 5.0], [30.0, 40.0, 1.0]])
        n = counts.sum()
        g = 2 * sum(
            o * math.log(o * n / (counts[i].sum() * counts[:, j].sum()))
            for (i, j), o in np.ndenumerate(counts)
        )
        statistic, df, p_value = g_test(counts)
        assert statistic == pytest.approx(g, rel=1e-12)
        assert df == 2
        assert p_value == pytest.approx(math.exp(-g / 2), rel=1e-12)  # Q(1, x) = e^-x

    def test_empty_rows_and_columns_are_dropped(self):
        counts = np.array([[10.0, 0.0, 20.0], [0.0, 0.0, 0.0], [30.0, 0.0, 40.0]])
        assert g_test(counts) == g_test(np.array([[10.0, 20.0], [30.0, 40.0]]))
        # 64 x 3 counts, some cells zero but no row or column empty, read
        # with empty rows and columns inserted at the edges and between
        rng = np.random.default_rng(7)
        dense = rng.integers(1, 50, size=(64, 3)) * (rng.random((64, 3)) > 0.3)
        dense[dense.sum(axis=1) == 0, 0] = 1
        sparse = np.insert(dense, [0, 5, 5, 17, 64], 0, axis=0)
        sparse = np.insert(sparse, [0, 2, 3], 0, axis=1)
        assert g_test(sparse) == g_test(dense) and type(g_test(sparse)[1]) is int

    def test_one_row_or_column_has_nothing_to_test(self):
        assert g_test(np.array([[3.0, 0.0, 7.0]])) == (0.0, 0, 1.0)
        assert g_test(np.array([[3.0], [0.0], [7.0]])) == (0.0, 0, 1.0)

    def test_totals_past_two_to_the_32_do_not_wrap(self):
        # row times column totals pass 2**63 here; G grows with the counts
        small = np.array([[3, 1], [1, 5]])
        g, df, _ = g_test(small * 2**40)
        assert df == 1 and g == pytest.approx(g_test(small)[0] * 2**40, rel=1e-12)

    def test_proportional_rows_give_zero(self):
        statistic, df, p_value = g_test(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]))
        assert (statistic, df) == (0.0, 2) and p_value == 1.0


def _sampled(joint, n, seed):
    return estimate_from_events(sample_events(joint, n, seed))


class TestAlpha:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, math.nan, math.inf])
    def test_alpha_must_lie_in_the_open_unit_interval(self, alpha):
        joint = _sampled(_paper_table("kim"), 1000, 0)
        for check in (audit, check_independence, check_distinct_conditionals):
            with pytest.raises(InvalidArgument, match="alpha must be in"):
                check(joint, alpha=alpha)

    @pytest.mark.parametrize("alpha", [True, "0.01"], ids=["bool", "str"])
    def test_alpha_must_be_a_real_number(self, alpha):
        joint = _sampled(_paper_table("kim"), 1000, 0)
        for check in (audit, check_independence, check_distinct_conditionals):
            with pytest.raises(InvalidArgument, match="alpha must be a real number"):
                check(joint, alpha=alpha)

    def test_numpy_alpha_is_kept_as_a_float(self, tmp_path):
        report = audit(_sampled(_paper_table("kim"), 1000, 0), alpha=np.float32(0.01))
        assert type(report.alpha) is float and type(report.independence.tolerance) is float
        write_json(audit_report_dict(report), tmp_path / "report.json")

    def test_alpha_needs_a_sampled_table(self):
        for check in (audit, check_independence, check_distinct_conditionals):
            with pytest.raises(InvalidArgument, match="not an exact one"):
                check(_paper_table("kim"), alpha=1e-6)

    def test_alpha_and_tolerance_exclude_each_other(self):
        joint = _sampled(_paper_table("kim"), 1000, 0)
        for check in (audit, check_independence, check_distinct_conditionals):
            with pytest.raises(InvalidArgument, match="not both"):
                check(joint, tol=0.05, alpha=1e-6)

    def test_report_fields(self):
        joint = _sampled(_paper_table("passive_choice"), 10_000, 1)
        report = audit(joint, alpha=1e-6)
        assert report.alpha == 1e-6 and report.tolerance == LOSSLESS_TOL
        doc = report.as_dict()
        assert doc["alpha"] == 1e-6 and doc["tolerance"] == LOSSLESS_TOL
        for check in ("independence", "distinct_conditionals"):
            verdict = getattr(report, check)
            assert verdict.tolerance == 1e-6
            statistic, df, p_value = g_test(
                joint.counts.sum(axis=2 if check == "independence" else 1)
            )
            assert (verdict.statistic, verdict.detail["df"]) == (statistic, df)
            assert verdict.detail["p_value"] == p_value
            assert doc[check]["g_statistic"] == statistic
            assert "max_deviation" not in doc[check] and "gap" not in doc[check]
        assert doc["independence"]["witness"] == audit(joint).as_dict()["independence"]["witness"]
        assert report.deterministic_routing.tolerance == LOSSLESS_TOL
        assert report.violations == ("independence",)

    def test_one_xc_test_per_alpha_audit(self, monkeypatch):
        """The α audit runs ``g_test`` once on X x C, which both G-tests
        read, and once on X x D; the tolerance audit runs none."""
        joint = _sampled(_paper_table("kim"), 1000, 0)
        tables = []

        def spy(counts, *args):
            tables.append(counts)
            return g_test(counts, *args)

        # the module, which the package's ``audit`` function shadows
        monkeypatch.setattr(importlib.import_module("dcqe.audit"), "g_test", spy)
        audit(joint)
        assert tables == []
        audit(joint, alpha=1e-6)
        xc, xd = tables
        assert np.array_equal(xc, joint.counts.sum(axis=2))
        assert np.array_equal(xd, joint.counts.sum(axis=1))

    def test_without_alpha_nothing_changes(self):
        joint = _sampled(_paper_table("kim"), 1000, 0)
        assert audit(joint, alpha=None) == audit(joint)
        assert "alpha" not in audit(joint).as_dict()

    def test_one_stray_or_lost_event_is_a_violation(self):
        space = OutcomeSpace(2, ("a", "b"), ("D1", "D2", LOSS))
        counts = np.zeros(space.shape, dtype=int)
        counts[:, 0, 0] = 2_500
        counts[:, 1, 1] = 2_500
        counts[0, 0, 1] = 1
        joint = JointDistribution(space, counts=counts)
        assert audit(joint).deterministic_routing.holds  # 1e-4 stray mass < 3/sqrt(n)
        assert not audit(joint, alpha=1e-6).deterministic_routing.holds
        counts[0, 0, 1] = 0
        counts[1, 1, 2] = 1
        joint = JointDistribution(space, counts=counts)
        report = audit(joint, alpha=1e-6)
        assert report.deterministic_routing.holds and not report.lossless.holds

    def test_stray_events_past_1e12_are_a_violation(self):
        report = audit(large_tables()["stray"], alpha=1e-6)
        assert report.violations == ("deterministic_routing",)
        assert report.deterministic_routing.statistic < LOSSLESS_TOL
        assert report.deterministic_routing.detail["counterexample"] == {
            "c": "a", "d": "D1", "d_prime": "D2"}

    def test_one_lost_event_among_1e13_is_a_violation(self):
        report = audit(large_tables()["lost"], alpha=1e-6)
        assert not report.lossless.holds
        assert report.lossless.statistic == pytest.approx(1e-13)
        assert report.deterministic_routing.holds


def large_tables():
    """Sampled tables past n = 1e12, where a lost or stray event is less
    than ``LOSSLESS_TOL`` of the mass: 3 bins with a -> D1 and b -> D2 and
    5e13 events in each routed cell of bins 0-1, plus 50 a-events and 50
    b-events at D2 in bin 2 (n = 2.0e14); and a D1/D2/LOSS table routed the
    same way with one lost event among 1e13."""
    stray = np.zeros((3, 2, 2), dtype=np.int64)
    stray[:2, 0, 0] = stray[:2, 1, 1] = 5 * 10**13
    stray[2, 0, 1] = stray[2, 1, 1] = 50
    lost = np.zeros((2, 2, 3), dtype=np.int64)
    lost[:, 0, 0] = lost[:, 1, 1] = 10**13 // 4
    lost[0, 0, 2] = 1
    return {
        "stray": JointDistribution(OutcomeSpace(3, ("a", "b"), ("D1", "D2")), counts=stray),
        "lost": JointDistribution(OutcomeSpace(2, ("a", "b"), ("D1", "D2", LOSS)), counts=lost),
    }


PAPER_TABLES = ("kim", "kim_coarse", "mach_zehnder", "polarization", "passive_choice")


class TestSampledCalibration:
    """The G-test audit at alpha = 1e-6 on event logs of the five paper tables."""

    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_violations_match_the_exact_table(self, n):
        for name in PAPER_TABLES:
            joint = _paper_table(name)
            exact = audit(joint).violations
            for seed in range(5):
                assert audit(_sampled(joint, n, seed), alpha=1e-6).violations == exact, (name, seed)

    def test_small_samples_only_add_violations(self):
        # at n = 1e3 a weak fringe may go undetected; the no-go never breaks
        extra = []
        for name in PAPER_TABLES:
            joint = _paper_table(name)
            exact = set(audit(joint).violations)
            for seed in range(300):
                report = audit(_sampled(joint, 1000, seed), alpha=1e-6)
                assert report.no_go_consistent
                assert set(report.violations) >= exact, (name, seed)
                if set(report.violations) != exact:
                    extra.append((name, seed))
        # 4 of the 1,500 runs when written: a missed distinctness at MZ and polarization
        assert len(extra) <= 8, extra

    def test_null_rejections_are_binomial(self):
        # coarse Kim's X is independent of C and has the same law at both
        # detectors; the rejections at alpha = 0.01 in 200 runs must not be
        # farther out in either tail of Binomial(200, 0.01) than 1e-6
        joint = _paper_table("kim_coarse")
        reports = [audit(_sampled(joint, 1000, seed), alpha=0.01) for seed in range(200)]

        def tail(ks):
            return sum(math.comb(200, k) * 0.01**k * 0.99 ** (200 - k) for k in ks)

        for rejections in (
            sum(not r.independence.holds for r in reports),
            sum(r.distinct_conditionals.holds for r in reports),
        ):
            assert tail(range(rejections, 201)) > 1e-6
            assert tail(range(rejections + 1)) > 1e-6


def shared_detector_table(n_x, masses, tilts, routing, n_d):
    """A lossless table routing choice c to detector ``routing[c]`` with mass
    ``masses[c]`` and P(x | c) ∝ 1 + ``tilts[c]``·ℓ(x), ℓ linear from -1 to 1
    across the bins."""
    space = OutcomeSpace(
        n_x, tuple(f"c{k}" for k in range(len(masses))), tuple(f"D{k}" for k in range(n_d))
    )
    ell = np.linspace(-1.0, 1.0, n_x)
    table = np.zeros(space.shape)
    for c, (mass, tilt, d) in enumerate(zip(masses, tilts, routing)):
        table[:, c, d] = mass * (1.0 + tilt * ell) / n_x
    return JointDistribution(space, table)


class TestSharedDetectors:
    """Choices sharing a detector. When no event strays or is lost, D is a
    function of C over the sample, so G_XD <= G_XC; independence and
    distinctness must not both hold however their G-tests' df differ."""

    @pytest.mark.parametrize("alpha, n, tilt, seeds", [
        (0.01, 2_000, 0.06, 300), (1e-6, 5_000, 0.1, 200),
    ])
    def test_probe_never_contradicts_the_no_go(self, alpha, n, tilt, seeds):
        # a and b go to D1 and c to D2, a third each; df_XD = 7, df_XC = 14
        joint = shared_detector_table(8, [1 / 3] * 3, [tilt, tilt, -2 * tilt], [0, 0, 1], 2)
        broken = [
            seed for seed in range(seeds)
            if not audit(_sampled(joint, n, seed), alpha=alpha).no_go_consistent
        ]
        assert not broken

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_sampled_tables_never_contradict_the_no_go(self, seed):
        # detectors' tilts scale as 1/sqrt(n), so the tests sit near alpha;
        # half the choices share their detector's tilt exactly
        rng = np.random.default_rng(seed)
        n_x = int(rng.choice([4, 8, 16, 32]))
        n_c = int(rng.integers(3, 7))
        n_d = int(rng.integers(2, n_c))
        routing = np.concatenate([np.arange(n_d), rng.integers(0, n_d, n_c - n_d)])
        rng.shuffle(routing)
        n = int(rng.choice([500, 2_000, 10_000]))
        masses = rng.random(n_c) + 0.2
        detector_tilts = rng.normal(size=n_d) * rng.random() * 12 / math.sqrt(n)
        jitter = np.where(rng.random(n_c) < 0.5, 1.0, 1.0 + 0.3 * rng.normal(size=n_c))
        tilts = np.clip(detector_tilts[routing] * jitter, -1.0, 1.0)
        exact = shared_detector_table(n_x, masses / masses.sum(), tilts, routing, n_d)
        p = exact.p.reshape(-1)
        counts = rng.multinomial(n, p / p.sum()).reshape(exact.p.shape)
        joint = JointDistribution(exact.space, counts=counts)
        report = audit(joint, alpha=float(rng.choice([0.05, 0.01, 1e-3, 1e-6])))
        assert report.no_go_consistent, report.violations


class TestCountTables:
    """Each G-test reads the table's event counts, summed over the axis its
    check drops; ``p * n`` rounds back to those counts, so the G-tests that
    rounded ``p * n`` saw the same tables."""

    @staticmethod
    def assert_full_table_tests(joint):
        report = audit(joint, alpha=1e-6)
        counts = joint.counts
        assert np.array_equal(np.rint(joint.p * joint.n_samples), counts)
        detected = list(joint.space.detected_indices)
        observed = [d for d in detected if counts[:, :, d].sum() > 0]
        xc = counts.sum(axis=2)
        # distinctness is read at the larger of its own df and independence's
        for verdict, table, least_df in (
            (report.independence, xc, 0),
            (report.distinct_conditionals, counts.sum(axis=1)[:, observed], g_test(xc)[1]),
        ):
            g, df, p_value = g_test(table, least_df)
            assert (verdict.statistic, verdict.detail["df"], verdict.detail["p_value"]) == (
                g, df, p_value
            )

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**6])
    def test_paper_tables(self, n):
        for name in PAPER_TABLES:
            self.assert_full_table_tests(_sampled(_paper_table(name), n, 7))

    def test_nine_choices_and_eight_detectors(self):
        # eight or more choices sum in another order along each axis
        rng = np.random.default_rng(5)
        space = OutcomeSpace(
            13, tuple(f"c{k}" for k in range(9)), tuple(f"D{k}" for k in range(8)) + (LOSS,)
        )
        w = rng.random(space.shape) ** 3
        w[:, :, 3] = 0.0
        joint = _sampled(JointDistribution(space, w / w.sum()), 10**6, 2)
        self.assert_full_table_tests(joint)
        # 13 bins by 9 choices has more df than by the 7 detectors with events
        report = audit(joint, alpha=1e-6)
        assert report.distinct_conditionals.detail["df"] == report.independence.detail["df"] == 96


def reference_tables(seed, count):
    """Random valid tables, each with its tolerance and, when it is
    sampled, its alpha, that reach the audit's edge cases.

    They have 1 to 10 detectors, with and without LOSS, and 2 to 9 choices
    over 2 to 64 bins; half are relative frequencies of 30 to 3,000 events.
    Some have a choice without mass, a choice whose mass is all lost, a
    choice whose two leading detectors tie (one detector's masses copied to
    another), or two detectors with the same conditional (so pair gaps tie).
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_det = int(rng.integers(1, 11))
        lossy = bool(rng.integers(2))
        space = OutcomeSpace(
            int(rng.choice([2, 3, 8, 13, 64])),
            tuple(f"c{k}" for k in range(int(rng.choice([2, 2, 3, 4, 9])))),
            tuple(f"D{k}" for k in range(n_det)) + ((LOSS,) if lossy else ()),
        )
        n_c = space.n_c
        w = rng.random(space.shape) ** 3
        w[rng.random(space.shape) < 0.2] = 0.0
        sampled = rng.random() < 0.5
        if sampled:
            n = int(rng.choice([30, 300, 3000]))
            w = rng.multinomial(n, (w / w.sum()).reshape(-1)).reshape(space.shape).astype(float)
        if rng.random() < 0.2:
            w[:, rng.integers(n_c), :] = 0.0
        if lossy and rng.random() < 0.1:
            ci = rng.integers(n_c)
            w[:, ci, :n_det] = 0.0
            w[0, ci, n_det] += 1.0
        if n_det >= 2 and rng.random() < 0.3:
            ci = rng.integers(n_c)
            top = int(np.argmax(w[:, ci, :n_det].sum(axis=0)))
            w[:, ci, (top + 1 + rng.integers(n_det - 1)) % n_det] = w[:, ci, top]
        if n_det >= 3 and rng.random() < 0.3:
            d, d_prime = rng.choice(n_det, 2, replace=False)
            w[:, :, d_prime] = w[:, :, d]
        if w.sum() == 0.0:
            w[0, 0, 0] = 1.0
        # a sampled table's columns were copied as counts, so it stays one
        joint = JointDistribution(space, counts=w.astype(int)) if sampled else (
            JointDistribution(space, w / w.sum()))
        tol = float(rng.choice([1e-9, 0.02, 0.1, 0.4]))
        alpha = float(rng.choice([0.01, 1e-6])) if sampled else None
        yield joint, tol, alpha


def paper_tables(n):
    """The paper tables as the benchmark audits them, each with its default
    tolerance: exact when ``n`` is None, else sampled at n events with
    seeds 0-2 and audited at alpha = 1e-6 too."""
    for name in PAPER_TABLES:
        exact = _paper_table(name)
        for joint in [exact] if n is None else [_sampled(exact, n, s) for s in range(3)]:
            yield joint, default_tolerance(joint), None if n is None else 1e-6


def outcome(call):
    """A call's report dict as sorted JSON, or its error's class and message."""
    try:
        return json.dumps(call(), sort_keys=True)
    except DcqeError as err:
        return type(err).__name__, str(err)
    except Refused as refused:
        return refused.name, refused.message


class TestMatchesReference:
    """Every verdict, witness and refusal equals a naive reference's, to the
    bit: the per-choice routing loop and per-pair total variation loop the
    checks were written as first (``oracles.reference_audit``)."""

    @staticmethod
    def assert_matches(tables, label):
        for k, (joint, tol, alpha) in enumerate(tables):
            p, space, counts = joint.p, joint.space, joint.counts
            pairs = [
                (lambda: audit(joint, tol).as_dict(),
                 lambda: reference_audit(p, space.c_values, space.d_values, counts, tol)),
                (lambda: check_independence(joint, tol).as_dict(),
                 lambda: reference_independence(p, space.c_values, tol)),
                (lambda: check_lossless(joint).as_dict(),
                 lambda: reference_lossless(p, space.d_values)),
                (lambda: check_deterministic_routing(joint, tol).as_dict(),
                 lambda: reference_routing(p, space.c_values, space.d_values, tol)),
                (lambda: check_distinct_conditionals(joint, tol).as_dict(),
                 lambda: reference_distinct(p, space.d_values, tol)),
            ]
            if alpha is not None:
                pairs += [
                    (lambda: audit(joint, alpha=alpha).as_dict(),
                     lambda: reference_audit(p, space.c_values, space.d_values, counts, None, alpha, g_test)),
                    (lambda: check_independence(joint, alpha=alpha).as_dict(),
                     lambda: reference_independence(p, space.c_values, None, alpha, counts, g_test)),
                    (lambda: check_deterministic_routing(joint, LOSSLESS_TOL).as_dict(),
                     lambda: reference_routing(p, space.c_values, space.d_values, LOSSLESS_TOL)),
                    (lambda: check_distinct_conditionals(joint, alpha=alpha).as_dict(),
                     lambda: reference_distinct(p, space.d_values, None, alpha, counts, g_test)),
                ]
            for i, (call, reference) in enumerate(pairs):
                assert outcome(call) == outcome(reference), (label, k, i)

    @pytest.mark.parametrize("seed", range(8))
    def test_reports_and_checks(self, seed):
        self.assert_matches(reference_tables(seed, 80), seed)

    @pytest.mark.parametrize("n", [None, 10**3, 10**4, 10**5])
    def test_paper_tables(self, n):
        """The benchmark's own traffic: the paper tables exact, and sampled
        at n = 1e3, 1e4 and 1e5."""
        self.assert_matches(paper_tables(n), n)

    def test_berkson_gap(self):
        """Every reference table, and polarization exact and sampled, the
        tables ``berkson_gap`` refuses too: no loss outcome, or no mass lost."""
        exact = _paper_table("polarization")
        tables = [exact] + [_sampled(exact, 10**3, seed) for seed in range(3)] + [
            joint for seed in range(8) for joint, _, _ in reference_tables(seed, 80)]
        seen = set()
        for k, joint in enumerate(tables):
            expected = outcome(lambda: reference_berkson_gap(joint.p, joint.space.d_values))
            assert outcome(lambda: berkson_gap(joint)) == expected, k
            seen.add(expected[0] if isinstance(expected, tuple) else "gap")
        assert seen == {"gap", "NoLossOutcome", "DegenerateLossMass"}

    def test_alpha_tables_past_1e12(self):
        tables = large_tables().values()
        self.assert_matches([(joint, 0.02, 1e-6) for joint in tables], "large")

    def test_tables_reach_the_edge_cases(self):
        seen = set()
        for seed in range(8):
            for joint, tol, _ in reference_tables(seed, 80):
                space, p = joint.space, joint.p
                n_det = len(space.detected_indices)
                routed = outcome(lambda: reference_routing(p, space.c_values, space.d_values, tol))
                distinct = outcome(lambda: reference_distinct(p, space.d_values, tol))
                seen.add(("detectors", n_det))
                seen.add(("loss", space.has_loss))
                if isinstance(routed, tuple):
                    seen.add(routed[0])
                else:
                    doc = json.loads(routed)
                    seen.add(("skipped", bool(doc["skipped_choices"])))
                    mass = p.sum(axis=0)[:, list(space.detected_indices)]
                    tops = np.sort(mass, axis=1)[:, -2:] if n_det > 1 else None
                    seen.add(("modal tie", tops is not None and bool(np.any(
                        (tops[:, 0] == tops[:, 1]) & (tops[:, 1] > 0)))))
                if isinstance(distinct, tuple):
                    seen.add(distinct[0])
                else:
                    conditionals = [p[:, :, di].sum(axis=1) for di in space.detected_indices]
                    seen.add(("equal conditionals", any(
                        np.array_equal(a, b) and a.any()
                        for i, a in enumerate(conditionals) for b in conditionals[i + 1:])))
        expected = {("detectors", k) for k in range(1, 11)} | {
            ("loss", True), ("loss", False), ("skipped", True), ("modal tie", True),
            ("equal conditionals", True), "AllMassLost", "InsufficientOutcomes",
        }
        assert expected <= seen, expected - seen


def constructed_twin(made):
    """A verdict or report made again by its constructor from ``made``'s
    fields, the verdicts of a report too."""
    fields = {f.name: getattr(made, f.name) for f in dataclasses.fields(made)}
    if isinstance(made, AuditReport):
        fields.update((check, constructed_twin(fields[check])) for check in ALL_CHECKS)
    return type(made)(**fields)


class TestByConstruction:
    """``audit`` makes its verdicts and report without their constructors,
    which check nothing; each is the same object as its constructor-made twin."""

    @staticmethod
    def made_objects():
        for n in (None, 10**3):
            for joint, tol, alpha in paper_tables(n):
                reports = [audit(joint, tol), audit(joint)]
                if alpha is not None:
                    reports.append(audit(joint, alpha=alpha))
                    yield check_independence(joint, alpha=alpha)
                    yield check_distinct_conditionals(joint, alpha=alpha)
                for report in reports:
                    yield report
                    yield from report.verdicts
                yield check_lossless(joint)
                yield check_deterministic_routing(joint, tol)

    def test_made_objects_equal_their_constructed_twins(self):
        seen = set()
        for made in self.made_objects():
            twin = constructed_twin(made)
            seen.add(type(made))
            assert made == twin and repr(made) == repr(twin)
            assert vars(made) == vars(twin) and list(vars(made)) == list(vars(twin))
            assert dataclasses.asdict(made) == dataclasses.asdict(twin)
            assert made.as_dict() == twin.as_dict()
            assert dataclasses.replace(made) == twin
            moved = dataclasses.replace(made, tolerance=0.5)
            assert moved == dataclasses.replace(twin, tolerance=0.5) and moved != made
            with pytest.raises(dataclasses.FrozenInstanceError):
                made.tolerance = 0.5
            with pytest.raises(dataclasses.FrozenInstanceError):
                del made.tolerance
        assert seen == {Verdict, AuditReport}

    def test_a_verdict_without_detail_has_its_own_empty_one(self):
        a, b = (check_lossless(_paper_table("polarization")) for _ in range(2))
        assert a.detail == {} and a.detail is not b.detail
        assert a == Verdict(a.check, a.holds, a.statistic, a.tolerance)


def detector_count_tables():
    """Sampled tables with 2, 3 and 4 observed detectors, some beside a
    detector without mass, in an order that revisits each count."""
    rng = np.random.default_rng(7)
    layouts = [(2, None), (3, None), (4, None), (4, 1), (3, None), (3, 0), (2, None), (4, 3)]
    for n_det, massless in layouts:
        detectors = tuple(f"D{k}" for k in range(n_det))
        space = OutcomeSpace(8, ("c0", "c1", "c2"), detectors + (LOSS,))
        w = rng.random(space.shape)
        if massless is not None:
            w[:, :, massless] = 0.0
        counts = rng.multinomial(2000, (w / w.sum()).reshape(-1)).reshape(space.shape)
        yield JointDistribution(space, counts=counts)


class TestDistinctPairs:
    """``_distinct`` keeps its pair indices per count of observed detectors."""

    def test_detector_counts_in_one_process(self):
        for k, joint in enumerate(detector_count_tables()):
            p, d_values, counts = joint.p, joint.space.d_values, joint.counts
            calls = [
                (lambda: check_distinct_conditionals(joint, 0.02).as_dict(),
                 lambda: reference_distinct(p, d_values, 0.02)),
                (lambda: check_distinct_conditionals(joint, alpha=1e-6).as_dict(),
                 lambda: reference_distinct(p, d_values, None, 1e-6, counts, g_test)),
            ]
            for call, reference in calls:
                assert outcome(call) == outcome(reference), k
