import hashlib
import json
import math

import numpy as np
import pytest

from dcqe import (
    AllMassLost,
    ArchitectureSpec,
    InsufficientOutcomes,
    InvalidArgument,
    JointDistribution,
    LossFeasibilityProblem,
    NotNormalized,
    OutcomeSpace,
    RegionMask,
    audit,
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
from dcqe.io import audit_report_dict


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
        joint = JointDistribution(space, np.full((2, 2, 2), 0.125), n_samples=900)
        assert default_tolerance(joint) == pytest.approx(3 / 30)


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

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        joint = product_joint([0.5, 0.5], [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], ("D1", "D2"))
        with pytest.raises(InvalidArgument, match="tolerance must be finite and positive"):
            audit(joint, tol=tol)

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
        joint = route_by_region(RegionMask.from_bits([1] * 8 + [0] * 8), np.full(16, 1 / 16))
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
