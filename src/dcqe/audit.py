"""Structural checks on joint distributions.

Four properties of a delayed-choice arrangement can be read off its joint
table: independence of the bin statistics from the choice setting (X and C
independent), losslessness (no mass on the loss outcome), deterministic
routing (the choice fixes the detection outcome), and distinctness (some
pair of detectors sees different conditional bin distributions). They are
jointly unsatisfiable: enforce the first three and every detector conditional
collapses onto the X marginal, so distinctness fails. The audit runs all
four, each giving one :class:`Verdict`, and reports which fail;
``no_go_consistent`` records that at least one did.

A table estimated from events can instead be audited at a significance
level ``alpha``: independence and distinctness become G-tests
(log-likelihood ratio tests, Sokal & Rohlf 1995, ch. 17) on the event
counts, and loss and stray detections are structural zeros, so a single
one violates its property.
"""

from __future__ import annotations

__all__ = [
    "ALL_CHECKS",
    "AuditReport",
    "Verdict",
    "audit",
    "berkson_gap",
    "check_deterministic_routing",
    "check_distinct_conditionals",
    "check_independence",
    "check_lossless",
    "default_tolerance",
]

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllMassLost, DegenerateLossMass, InsufficientOutcomes, InvalidArgument, NoLossOutcome
)
from .joint import JointDistribution, check_real, unchecked, validate

#: Check names, in report order.
CHECK_INDEPENDENCE = "independence"
CHECK_LOSSLESS = "lossless"
CHECK_ROUTING = "deterministic_routing"
CHECK_DISTINCT = "distinct_conditionals"

ALL_CHECKS = (CHECK_INDEPENDENCE, CHECK_LOSSLESS, CHECK_ROUTING, CHECK_DISTINCT)

#: Report key of the statistic each check compares with its tolerance.
STATISTIC_KEYS = {
    CHECK_INDEPENDENCE: "max_deviation",
    CHECK_LOSSLESS: "loss_mass",
    CHECK_ROUTING: "max_stray_mass",
    CHECK_DISTINCT: "gap",
}

#: Report key of a G-test verdict's statistic, in place of its check's own.
G_STATISTIC_KEY = "g_statistic"


#: Loss mass above this is a real loss channel regardless of sample noise.
LOSSLESS_TOL = 1e-12

#: Default deviation tolerance for exactly constructed tables.
ANALYTIC_TOL = 1e-9


def default_tolerance(joint: JointDistribution) -> float:
    """Deviation tolerance matched to the table's provenance.

    Exact tables get a tight analytic tolerance; empirical tables get a
    three-sigma-style allowance shrinking with the sample count.
    """
    if joint.n_samples is None:
        return ANALYTIC_TOL
    return 3.0 / math.sqrt(joint.n_samples)


class _Margins:
    """One audit's level and the margins that more than one check reads,
    resolved and computed once; each check's kernel takes this record alone.

    ``tol`` is the tolerance given or else the table's default, refused
    unless finite and positive; with ``alpha`` it is None, and alpha is
    refused unless given without ``tol``, in (0, 1) and on a sampled table.
    Each is kept as a ``float``; one that is not a real number (a bool or a
    string) is refused first. ``routing_tol`` is ``tol``, or ``LOSSLESS_TOL``
    at alpha; ``loss_mass`` is the mass on LOSS, 0.0 without it. At alpha,
    ``counts_cd`` holds the C x D event counts, which losslessness and
    routing read, and ``xc_test`` the X x C ``g_test`` both G-tests read.
    """

    def __init__(self, joint: JointDistribution, tol: float | None, alpha: float | None):
        self.counts_cd = self.xc_test = None
        if alpha is None:
            tol = default_tolerance(joint) if tol is None else check_real(tol, "tolerance")
            if not 0.0 < tol < math.inf:
                raise InvalidArgument(f"tolerance must be finite and positive, got {tol}")
        else:
            if tol is not None:
                raise InvalidArgument("give a tolerance or alpha, not both")
            alpha = check_real(alpha, "alpha")
            if not 0.0 < alpha < 1.0:
                raise InvalidArgument(f"alpha must be in (0, 1), got {alpha}")
            if joint.n_samples is None:
                raise InvalidArgument(
                    "alpha applies to a table estimated from events, not an exact one"
                )
            self.counts_cd = np.add.reduce(joint.counts, 0)
            self.xc_test = g_test(np.add.reduce(joint.counts, 2))
        self.joint, self.tol, self.alpha = joint, tol, alpha
        self.routing_tol = LOSSLESS_TOL if tol is None else tol
        li = joint.space.loss_index
        self.loss_mass = 0.0 if li is None else float(joint.p[:, :, li].sum())


#: Relative accuracy at which ``upper_gamma`` stops its series or fraction.
_GAMMA_EPS = 1e-15
#: Stand-in for zero in the modified Lentz method.
_GAMMA_TINY = 1e-300


def upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = Γ(a, x) / Γ(a), the regularized upper incomplete gamma.

    For x < a + 1 it is 1 - P(a, x) by P's power series; otherwise its
    continued fraction, evaluated by the modified Lentz method (*Numerical
    Recipes*, 3rd ed., §6.2). The chi-square tail with k degrees of freedom
    at s is Q(k/2, s/2). Needs a > 0 and x >= 0; Q(a, inf) = 0, where the
    continued fraction would never converge.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * _GAMMA_EPS:
            n += 1.0
            term *= x / n
            total += term
        return max(1.0 - front * total, 0.0)
    b = x + 1.0 - a
    c, d = 1.0 / _GAMMA_TINY, 1.0 / b
    h = d
    for i in itertools.count(1):
        an, b = -i * (i - a), b + 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _GAMMA_TINY else _GAMMA_TINY)
        c = b + an / c
        c = c if abs(c) > _GAMMA_TINY else _GAMMA_TINY
        h *= d * c
        if abs(d * c - 1.0) <= _GAMMA_EPS:
            return front * h


def g_test(counts: np.ndarray, least_df: int = 0) -> tuple[float, int, float]:
    """G-test of independence between the rows and columns of a count table.

    Rows and columns without counts add no cell and no degree of freedom:
    with r rows and c columns that have counts, df = (r - 1)(c - 1), or
    ``least_df`` when that is more. Returns G = 2 Σ O ln(O / E) over the
    observed cells, df, and the p-value Q(df/2, G/2); with df = 0 nothing
    can depend on anything, and the p-value is 1.
    """
    rows, columns = np.add.reduce(counts, 1), np.add.reduce(counts, 0)
    df = max(int((np.count_nonzero(rows) - 1) * (np.count_nonzero(columns) - 1)), least_df)
    # the observed cells' flat indices, gathered from each table by one take
    observed = (counts > 0).reshape(-1).nonzero()[0]
    # in floats, rounded once as the int product is, which may wrap past 2**63
    expected = np.multiply(rows[:, None], columns, dtype=float).take(observed)
    expected /= np.add.reduce(rows)
    o = counts.take(observed)
    g = max(2.0 * float(np.add.reduce(o * np.log(o / expected))), 0.0)
    return g, df, upper_gamma(df / 2, g / 2) if df else 1.0


@dataclass(frozen=True)
class Verdict:
    """Outcome of one structural check on one table.

    ``statistic`` is the number the check compares with ``tolerance``;
    ``detail`` holds the check's witness fields as they appear in the
    report, with JSON-native values only. A G-test's verdict has G as its
    statistic, alpha as its tolerance, and ``p_value`` and ``df`` in
    ``detail``; its report names the statistic ``g_statistic``.
    """

    check: str
    holds: bool
    statistic: float
    tolerance: float
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            G_STATISTIC_KEY if "p_value" in self.detail else STATISTIC_KEYS[self.check]:
                self.statistic,
            "tolerance": self.tolerance,
            **self.detail,
        }


def _verdict(check: str, holds: bool, statistic: float, tolerance: float, detail: dict) -> Verdict:
    """``Verdict(check, holds, statistic, tolerance, detail)``, made by
    ``unchecked``, as that constructor checks nothing."""
    return unchecked(
        Verdict, check=check, holds=holds, statistic=statistic, tolerance=tolerance, detail=detail
    )


def _dependence(p_xc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|p(x,c) - p(x) p(c)| per cell of an (X, C) table, and its C marginal."""
    p_c = np.add.reduce(p_xc, 0)
    return np.abs(p_xc - np.multiply(np.add.reduce(p_xc, 1)[:, None], p_c)), p_c


def check_independence(
    joint: JointDistribution, tol: float | None = None, alpha: float | None = None
) -> Verdict:
    """Compare the (X, C) marginal against the product of its marginals.

    The statistic is the largest cell deviation and ``witness`` its
    (x, c) cell; ties resolve to the lexicographically first cell. Choices
    carrying no mass cannot witness dependence and are listed in
    ``skipped_choices``. With ``alpha``, a sampled table is instead put to
    a G-test of independence on its X x C event counts; independence holds
    iff the p-value is at least alpha.
    """
    return _independence(_Margins(joint, tol, alpha))


def _independence(m: _Margins) -> Verdict:
    """``check_independence`` at the record's level; at alpha it decides on
    the record's X x C test."""
    joint = m.joint
    deviation, p_c = _dependence(np.add.reduce(joint.p, 2))
    x, c = divmod(int(deviation.argmax()), deviation.shape[1])
    worst = float(deviation[x, c])
    skipped = [label for label, mass in zip(joint.space.c_values, p_c.tolist()) if mass <= 0.0]
    detail = {"witness": {"x": x, "c": joint.space.c_values[c]}, "skipped_choices": skipped}
    if m.alpha is not None:
        g, df, p_value = m.xc_test
        detail.update(p_value=p_value, df=df)
        return _verdict(CHECK_INDEPENDENCE, p_value >= m.alpha, g, m.alpha, detail)
    return _verdict(CHECK_INDEPENDENCE, worst <= m.tol, worst, m.tol, detail)


def berkson_gap(joint: JointDistribution) -> float:
    """Dependence between X and C induced purely by discarding lost trials.

    Returns the largest cell-wise gap |P(x,c | D != LOSS) -
    P(x | D != LOSS) * P(c | D != LOSS)|. A joint with exact unconditional
    independence can still show a large gap here: conditioning on detection
    is a selection effect.
    """
    space = joint.space
    if not space.has_loss:
        raise NoLossOutcome("joint has no loss outcome to condition away")
    loss_mass = _Margins(joint, None, None).loss_mass
    total = float(joint.p.sum())
    detected_mass = total - loss_mass
    if loss_mass <= 0.0 or detected_mass <= 0.0:
        raise DegenerateLossMass(loss_mass)
    detected = list(space.detected_indices)
    deviation, _ = _dependence(joint.p[:, :, detected].sum(axis=2) / detected_mass)
    return float(np.max(deviation))


def check_lossless(joint: JointDistribution) -> Verdict:
    """Compare the total mass on the loss outcome with ``LOSSLESS_TOL``.

    Losslessness holds iff that mass is at most 1e-12, on exact and sampled
    tables alike: the tolerance is fixed rather than sample-scaled, as a
    loss channel is a structural feature of the arrangement. It decides on
    mass, as the tolerance-path audit does, so one lost event among more
    than 1e12 passes; only the α audit, ``audit(joint, alpha=...)``,
    decides on the counts, where any lost event is a violation.
    """
    return _lossless(_Margins(joint, None, None))


def _lossless(m: _Margins) -> Verdict:
    """``check_lossless`` on the record's loss mass; at alpha it holds iff
    its C x D counts hold no lost event, and reports the mass all the same."""
    li = m.joint.space.loss_index
    if m.alpha is None:
        holds = m.loss_mass <= LOSSLESS_TOL
    else:
        holds = li is None or not m.counts_cd[:, li].any()
    return _verdict(CHECK_LOSSLESS, holds, m.loss_mass, LOSSLESS_TOL, {})


def check_deterministic_routing(joint: JointDistribution, tol: float | None = None) -> Verdict:
    """Extract the modal detector per choice and measure stray mass.

    Routing is judged after conditioning on detection (D != LOSS), so a
    lossy arrangement can still route deterministically. The statistic is
    the largest conditional mass any choice puts outside its modal
    detector. On success ``routing`` maps each choice to its detector; on
    failure ``counterexample`` names the worst choice and two detectors it
    reaches. A choice with positive mass that is entirely lost leaves
    routing undefined and is an error; a choice with no mass at all is
    listed in ``skipped_choices``. Modal ties resolve to the first detector
    in axis order.
    """
    return _routing(_Margins(joint, tol, None))


def _routing(m: _Margins) -> Verdict:
    """``check_deterministic_routing`` at the record's ``routing_tol``; at
    alpha it holds iff each choice's detected events in the record's C x D
    counts all sit at one detector, and reports the stray mass all the same."""
    space, tol = m.joint.space, m.routing_tol
    detected = list(space.detected_indices)
    routing: dict[str, str] = {}
    skipped: list[str] = []
    max_stray = -1.0
    worst: dict[str, str] | None = None
    # p(c, d); take keeps rows contiguous, so each row's reduction is its 1-D sum
    mass = np.add.reduce(m.joint.p, 0)
    mass_d = mass.take(detected, 1)
    totals = np.add.reduce(mass_d, 1).tolist()
    for c, row, row_d, total in zip(space.c_values, mass.tolist(), mass_d.tolist(), totals):
        if sum(row) <= 0.0:
            skipped.append(c)
            continue
        if total <= 0.0:
            raise AllMassLost(c)
        cond = [m / total for m in row_d]
        target = max(range(len(cond)), key=cond.__getitem__)
        stray = 1.0 - cond[target]
        routing[c] = space.d_values[detected[target]]
        if stray > max_stray:
            max_stray = stray
            others = (i for i in range(len(cond)) if i != target)
            second = max(others, key=cond.__getitem__, default=target)
            worst = {"c": c, "d": routing[c], "d_prime": space.d_values[detected[second]]}
    if not routing:
        raise AllMassLost(space.c_values[0])
    if m.alpha is None:
        holds = max_stray <= tol
    else:
        # one detected event off its choice's one detector is a violation
        reached = np.count_nonzero(m.counts_cd.take(detected, 1), 1)
        holds = int(reached.max()) <= 1
    detail = {
        "routing": routing if holds else None,
        "counterexample": None if holds else worst,
        "skipped_choices": skipped,
    }
    return _verdict(CHECK_ROUTING, holds, max_stray, tol, detail)


def check_distinct_conditionals(
    joint: JointDistribution, tol: float | None = None, alpha: float | None = None
) -> Verdict:
    """Largest pairwise total variation among detector conditionals.

    Distinctness asks whether ANY pair of detectors separates, so the gap
    is a maximum over pairs of positive-mass non-loss detectors; fewer than
    two of those leaves nothing to compare. ``witness`` names the
    maximizing pair (d, d') and the ``bin_set`` where p(x|d) exceeds
    p(x|d'), which realizes the gap as a probability difference. Ties
    resolve to the first pair in detector axis order.

    With ``alpha``, a sampled table is instead put to a G-test of
    homogeneity of X across those detectors, on its X x D event counts,
    read at df* = max(df_XD, df_XC), df_XC the df of the X x C test that
    decides independence; the conditionals are distinct iff that p-value
    is below alpha, and ``df`` reports df*. So the α audit cannot report
    all four properties. It lets no event stray or be lost, so when
    routing and losslessness hold, D is a function of C over the sample,
    and data processing on the empirical law gives Î(X; D) <= Î(X; C),
    that is G_XD <= G_XC, as G = 2n·Î. The tail Q(df/2, G/2) falls as G grows and
    rises as df grows; so if independence holds, Q(df*/2, G_XD/2) >=
    Q(df*/2, G_XC/2) >= Q(df_XC/2, G_XC/2) >= alpha, and distinctness
    fails (up to rounding in the two G's last bits). A tail read at more
    df is no smaller, so the test keeps its level alpha.
    """
    return _distinct(_Margins(joint, tol, alpha))


@functools.cache
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only index arrays ``(first, second)`` of every pair i < j < m,
    in ``itertools.combinations`` order; built once per detector count m."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _distinct(m: _Margins) -> Verdict:
    """``check_distinct_conditionals`` at the record's level; at alpha it
    reads df_XC from the record's X x C test."""
    joint, space = m.joint, m.joint.space
    # p(d, x), each summed over choices as p[:, :, d].sum(axis=1) sums them,
    # and each detector's mass, a row reduction, so each row's 1-D sum
    p_dx = np.add.reduce(np.ascontiguousarray(joint.p.transpose(2, 0, 1)), 2)
    masses = np.add.reduce(p_dx, 1)
    positive = (masses > 0.0).tolist()
    observed = [di for di in space.detected_indices if positive[di]]
    if len(observed) < 2:
        raise InsufficientOutcomes(
            f"need at least 2 detectors with positive mass, found {len(observed)}"
        )
    conditionals = p_dx.take(observed, 0) / masses.take(observed)[:, None]
    # each pair's difference row, in combinations order
    first, second = _pairs(len(observed))
    diff = conditionals.take(first, 0) - conditionals.take(second, 0)
    tv = np.add.reduce(np.abs(diff), 1) * 0.5
    k = int(tv.argmax())
    gap = float(tv[k])
    witness = {
        "bin_set": (diff[k] > 0).nonzero()[0].tolist(),
        "d": space.d_values[observed[first[k]]],
        "d_prime": space.d_values[observed[second[k]]],
        "gap": gap,
    }
    if m.alpha is not None:
        g, df, p_value = g_test(np.add.reduce(joint.counts, 1).take(observed, 1), m.xc_test[1])
        detail = {"witness": witness, "p_value": p_value, "df": df}
        return _verdict(CHECK_DISTINCT, p_value < m.alpha, g, m.alpha, detail)
    return _verdict(CHECK_DISTINCT, gap > m.tol, gap, m.tol, {"witness": witness})


@dataclass(frozen=True)
class AuditReport:
    """The four verdicts on one table, each in the field named by its check.

    ``tolerance`` is the one routing used; ``alpha`` is the G-tests'
    level, and None (and left out of the report) when none ran.
    """

    independence: Verdict
    lossless: Verdict
    deterministic_routing: Verdict
    distinct_conditionals: Verdict
    tolerance: float
    n_samples: int | None = None
    alpha: float | None = None

    @property
    def verdicts(self) -> tuple[Verdict, ...]:
        """The four verdicts, in ``ALL_CHECKS`` order."""
        return tuple(getattr(self, check) for check in ALL_CHECKS)

    @property
    def violations(self) -> tuple[str, ...]:
        """Names of the failed checks, in report order."""
        return tuple(v.check for v in self.verdicts if not v.holds)

    @property
    def no_go_consistent(self) -> bool:
        """True iff not all four checks hold; true for every valid table."""
        return bool(self.violations)

    def as_dict(self) -> dict:
        doc = {v.check: v.as_dict() for v in self.verdicts}
        doc.update(
            violations=list(self.violations),
            no_go_consistent=self.no_go_consistent,
            tolerance=self.tolerance,
            n_samples=self.n_samples,
        )
        if self.alpha is not None:
            doc["alpha"] = self.alpha
        return doc


def audit(
    joint: JointDistribution, tol: float | None = None, alpha: float | None = None
) -> AuditReport:
    """Validate the table, run all four checks, and bundle the verdicts.

    With ``alpha``, which must lie in (0, 1) and needs a sampled table and
    no ``tol``, independence and distinctness are G-tests at level alpha
    on the table's event counts summed to X x C and X x D, the second read
    at the larger of the two df; and routing and losslessness are decided
    on the counts, so any stray detection or lost event violates them, at
    every n; their statistics are still the stray and loss mass, reported
    against ``LOSSLESS_TOL``. An alpha of 0.01 or more runs liberal below
    ~10 events per cell: at 0.01, coarse Kim's independence test rejects
    its true null 2.4 times as often as alpha at n = 1e3, and 10.7 times at
    n = 300."""
    m = _Margins(validate(joint), tol, alpha)
    # made by ``unchecked``, as the constructor checks nothing
    return unchecked(
        AuditReport,
        independence=_independence(m),
        lossless=_lossless(m),
        deterministic_routing=_routing(m),
        distinct_conditionals=_distinct(m),
        tolerance=m.routing_tol,
        n_samples=joint.n_samples,
        alpha=m.alpha,
    )
