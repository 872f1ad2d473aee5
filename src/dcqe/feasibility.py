"""Loss-rate feasibility for lossy eraser arrangements.

Fix the observable surface of a lossy eraser: choice probability
q = P(C=erase), loss rate p = P(D=LOSS), a detected-erase conditional
e(x) = P(x | D_erase) and a preserve conditional r(x) = P(x | D_preserve),
with the loss confined to the erase branch. Ask: is there any joint table
with X independent of C that reproduces all of it?

Because the preserve branch is lossless, independence forces the overall
bin marginal to equal r, and the erase branch must then carry exactly
q*r(x) at each bin. The detected part of that branch is pinned to
(q-p)*e(x), so the loss slice is forced to q*r(x) - (q-p)*e(x), and
feasibility reduces to that slice being nonnegative. For the worst-case
targets (erase conditional vanishing on a set carrying half the preserve
mass) this yields the closed interval q/2 <= p <= q, with minimum loss 1/4
at q = 1/2.

Two independent routes compute this: :func:`construct_witness` builds the
closed-form table directly, and :func:`check_feasible` decides the same
question as a generic exact-rational linear-feasibility problem over the
table, knowing nothing about the closed form.
"""

from __future__ import annotations

__all__ = [
    "FeasibilityResult",
    "LossFeasibilityProblem",
    "check_feasible",
    "construct_witness",
    "loss_bounds",
    "worst_case_erase_conditional",
]

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InfeasibleLossRate, InvalidArgument
from .joint import (
    LOSS,
    JointDistribution,
    OutcomeSpace,
    check_choice_probability,
    check_distribution,
    check_int,
    check_real,
)

#: Binding-constraint tags reported in FeasibilityResult.
BINDING_INTERIOR = "interior"
BINDING_LOSS_SLICE = "loss_slice_nonnegativity"
BINDING_DETECTED_ERASE = "erase_detected_mass"
INFEASIBLE_LOW = "loss_rate_below_minimum"
INFEASIBLE_HIGH = "loss_rate_exceeds_choice_mass"

_WITNESS_C = ("erase", "preserve")
_WITNESS_D = ("D_erase", "D_preserve", LOSS)


def loss_bounds(q: float) -> tuple[float, float]:
    """Feasible loss-rate interval [q/2, q] for the worst-case targets."""
    q = check_choice_probability(q)
    return (q / 2.0, q)


def worst_case_erase_conditional(n_x: int) -> np.ndarray:
    """Detected-erase profile that maximally strains independence.

    Even bin counts: uniform on the even-indexed bins, so the vanishing
    set (the odd bins) carries exactly half of a flat preserve channel and
    the loss floor sits at q/2 exactly. Odd bin counts cannot split a flat
    channel in half; there the profile is a full-contrast single-cycle
    fringe whose brightest bin has exactly twice the flat weight, which
    pins the same q/2 floor through its peak rather than its zero set.
    """
    n_x = check_int(n_x, "bin count", 2)
    if n_x % 2 == 0:
        e = np.zeros(n_x)
        e[0::2] = 2.0 / n_x
        return e
    weights = 1.0 + np.cos(2.0 * np.pi * np.arange(n_x) / n_x)
    return weights / weights.sum()


@dataclass(frozen=True)
class LossFeasibilityProblem:
    """Observable surface of a lossy eraser to reconcile with independence.

    Targets default to the worst case: flat preserve conditional and the
    profile from :func:`worst_case_erase_conditional`. A custom preserve
    conditional requires an explicit erase conditional, since "worst case"
    is defined against the flat channel.

    ``q`` and ``p`` must be real numbers and ``n_x`` an integer (numpy
    scalars included; a bool or a string is neither), else
    ``InvalidArgument``; they are kept as ``float``, ``float`` and ``int``,
    and custom targets as tuples of floats, so equal problems compare and
    hash equal.
    """

    q: float
    n_x: int
    p: float
    erase_conditional: tuple[float, ...] | None = None
    preserve_conditional: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "q", check_choice_probability(self.q))
        object.__setattr__(self, "p", check_real(self.p, "p"))
        object.__setattr__(self, "n_x", check_int(self.n_x, "bin count", 2))
        if not 0.0 <= self.p <= 1.0:
            raise InvalidArgument(f"loss rate must lie in [0, 1], got {self.p}")
        for name in ("erase_conditional", "preserve_conditional"):
            if getattr(self, name) is not None:
                target = check_distribution(getattr(self, name), self.n_x, name)
                object.__setattr__(self, name, tuple(target.tolist()))
        if self.preserve_conditional is not None and self.erase_conditional is None:
            raise InvalidArgument(
                "a custom preserve_conditional requires an explicit erase_conditional"
            )

    def resolved_preserve(self) -> np.ndarray:
        if self.preserve_conditional is not None:
            return np.asarray(self.preserve_conditional)
        return np.full(self.n_x, 1.0 / self.n_x)

    def resolved_erase(self) -> np.ndarray:
        if self.erase_conditional is not None:
            return np.asarray(self.erase_conditional)
        return worst_case_erase_conditional(self.n_x)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility question.

    ``witness`` is a concrete joint table realizing the constraints when
    one exists; ``binding_constraint`` names the constraint at its limit
    (or the reason for infeasibility).
    """

    feasible: bool
    witness: JointDistribution | None
    binding_constraint: str


def _construction_floor(q: float, e: np.ndarray, r: np.ndarray) -> float:
    """Smallest loss rate with a nonnegative forced loss slice.

    The slice q*r - (q-p)*e is nonnegative everywhere iff
    p >= q*(1 - min over supported bins of r/e); bins outside the erase
    support never constrain.
    """
    support = e > 0.0
    ratio = float(np.min(r[support] / e[support]))
    return max(q * (1.0 - ratio), 0.0)


def _witness(q: float, p: float, table: np.ndarray) -> FeasibilityResult:
    """A route's filled (n_x, 2, 3) table as the feasible result, tagged
    with the constraint it sits at: a zero loss cell, else no detected
    erase mass, else none."""
    space = OutcomeSpace(table.shape[0], _WITNESS_C, _WITNESS_D)
    if float(np.min(table[:, 0, 2])) <= 1e-15:
        binding = BINDING_LOSS_SLICE
    elif q - p <= 1e-15:
        binding = BINDING_DETECTED_ERASE
    else:
        binding = BINDING_INTERIOR
    return FeasibilityResult(True, JointDistribution(space, table), binding)


def construct_witness(prob: LossFeasibilityProblem) -> FeasibilityResult:
    """Closed-form witness joint for the problem's observable surface.

    The table is fully forced: preserve slice (1-q)*r(x) at D_preserve,
    detected-erase slice (q-p)*e(x) at D_erase, and loss slice
    q*r(x) - (q-p)*e(x), with every other cell zero. Raises when the loss
    rate lies outside what a nonnegative loss slice allows.
    """
    q, p = prob.q, prob.p
    e = prob.resolved_erase()
    r = prob.resolved_preserve()
    p_low = _construction_floor(q, e, r)
    if p < p_low or p > q:
        raise InfeasibleLossRate(p, (p_low, q))
    table = np.zeros((prob.n_x, 2, 3))
    table[:, 0, 0] = (q - p) * e
    # p >= p_low keeps every loss cell nonnegative up to rounding, which the clip removes
    table[:, 0, 2] = np.maximum(q * r - (q - p) * e, 0.0)
    table[:, 1, 1] = (1.0 - q) * r
    return _witness(q, p, table)


def _exact_normalized(vec: np.ndarray) -> list[Fraction]:
    fracs = [Fraction(float(v)) for v in vec]
    total = sum(fracs)
    return [f / total for f in fracs]


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """Clear ``col`` from ``row`` with the pivot row, fraction-free.

    Returns ``pivot_row[col] * row - row[col] * pivot_row`` divided by the
    gcd of its entries: a positive multiple of the reduced row, since the
    pivot entry is positive.
    """
    scale, factor = pivot_row[col], row[col]
    out = dict(row) if scale == 1 else {j: a * scale for j, a in row.items()}
    for j, a in pivot_row.items():
        v = out.get(j, 0) - factor * a
        if v:
            out[j] = v
        else:
            del out[j]
    g = math.gcd(*out.values())
    if g > 1:
        out = {j: a // g for j, a in out.items()}
    return out


def _phase1_feasible(
    rows: list[dict[int, Fraction]], rhs: list[Fraction], n: int
) -> list[Fraction] | None:
    """Exact phase-1 simplex: solve A v = b, v >= 0 over the rationals.

    ``rows`` holds the non-zero coefficients of each equation by column,
    over ``n`` variables. Minimizes the sum of one artificial variable per
    row (columns n..n+m-1) using Bland's least-index rule, which cannot
    cycle. Returns a solution vector when the optimum is zero, None when
    the system is infeasible.

    The tableau is sparse and fraction-free. Each row is a dict of non-zero
    integer numerators, the right-hand side in column n+m, all over one
    positive denominator: the row's own entry in its basic column. The
    set-up forms no Fraction: row i is multiplied by the lcm s_i of its
    denominators, each entry as ``a.numerator * (s_i // a.denominator)``.
    A pivot finds the rows holding the entering column in one scan and uses
    that list for both the ratio test and the elimination: every such row r
    becomes ``pivot * r - r[entering] * pivot_row``, divided by the gcd of
    its entries; the pivot row itself is kept as it is, its entering entry
    becoming its denominator. The ratio test compares b_i / a_i by
    cross-multiplying, as the row denominators cancel.

    The reduced costs start as -sum_i row_i * (L / s_i) over the structural
    columns and the right-hand side, L the lcm of the s_i, divided by its
    gcd: a positive multiple of the true reduced costs, whose objective
    entry sits in column n+m. From there they are exact fractions, each a
    ``(numerator, positive denominator)`` pair in lowest terms. A pivot
    changes only the columns its row holds, so it updates just those, as
    d_j - d_e * P_j / P_e over the pivot row P. Entering is the least column
    with a negative reduced cost (Bland), taken from a heap: a column is
    pushed when a pivot turns it negative, and a top that is no longer
    negative is popped when it surfaces, since no other column changes
    value. Leaving is the minimum ratio with ties to the smaller basic
    column. Exact arithmetic under that fixed rule visits the same pivots
    as a dense Fraction tableau and returns the same vector.
    """
    m = len(rows)
    b_col = n + m
    tableau: list[dict[int, int]] = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        sign = -1 if b < 0 else 1
        scale = math.lcm(b.denominator, *(a.denominator for a in row.values()))
        num = {j: sign * a.numerator * (scale // a.denominator) for j, a in row.items() if a}
        num[n + i] = scale
        if b:
            num[b_col] = sign * b.numerator * (scale // b.denominator)
        tableau.append(num)
    basis = list(range(n, n + m))
    # Reduced costs for minimizing the artificial sum: cbar_j = c_j - sum_i T[i][j] / s_i,
    # which vanishes on the artificial columns; the objective is -sum_i b_i.
    lcm = math.lcm(*(num[n + i] for i, num in enumerate(tableau)))
    total: dict[int, int] = {}
    for i, num in enumerate(tableau):
        weight = lcm // num[n + i]
        for j, a in num.items():
            if j < n or j == b_col:
                total[j] = total.get(j, 0) - a * weight
    g = math.gcd(*total.values())
    cost = {j: (c // g, 1) for j, c in total.items() if c}
    negative = [j for j, (c, _) in cost.items() if c < 0 and j < b_col]
    heapq.heapify(negative)

    while True:
        while negative and cost.get(negative[0], (0, 1))[0] >= 0:
            heapq.heappop(negative)
        if not negative:
            break
        entering = negative[0]
        hits = [i for i, row in enumerate(tableau) if entering in row]
        leaving = None
        for i in hits:
            a = tableau[i][entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs = tableau[i].get(b_col, 0) * tableau[leaving][entering]
                best = tableau[leaving].get(b_col, 0) * a
                if lhs < best or (lhs == best and basis[i] < basis[leaving]):
                    leaving = i
        # the phase-1 objective is bounded below by zero, so some row holding
        # the entering column has a positive entry there
        pivot_row = tableau[leaving]
        for i in hits:
            if i != leaving:
                tableau[i] = _eliminate(tableau[i], pivot_row, entering)
        # d_j -= d_e * P_j / P_e on the pivot row's columns, as k_num * P_j / k_den
        k_num, k_den = cost.pop(entering)
        k_den *= pivot_row[entering]
        g = math.gcd(k_num, k_den)
        k_num, k_den = k_num // g, k_den // g
        for j, a in pivot_row.items():
            old, d = cost.get(j, (0, 1))
            c, d = old * k_den - k_num * a * d, d * k_den
            if j == entering or not c:
                cost.pop(j, None)
                continue
            if c < 0 <= old and j < b_col:
                heapq.heappush(negative, j)
            g = math.gcd(c, d)
            cost[j] = (c // g, d // g)
        basis[leaving] = entering

    if b_col in cost:
        return None
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = Fraction(tableau[i].get(b_col, 0), tableau[i][var])
    return solution


def check_feasible(prob: LossFeasibilityProblem) -> FeasibilityResult:
    """Generic exact oracle for the same question as construct_witness.

    Encodes the table p(x, c, d) as nonnegative rationals under linear
    equalities only: the (C, D) mass table ((q-p, 0, p), (0, 1-q, 0)), the
    pinned detected conditionals, and per-bin proportionality of the two
    choice rows (independence). A cell is a variable only when its (C, D)
    pair has non-zero mass: nonnegative cells that sum to zero are all
    zero, so the others are fixed at 0 without a column. That drops
    (erase, D_preserve), (preserve, D_erase) and (preserve, LOSS) always,
    (erase, D_erase) when p = q and (erase, LOSS) when p = 0, and then any
    equation left with no variable and a zero right-hand side; a negative
    mass (p > q) keeps its cells, which the simplex finds infeasible. This
    reads nothing but the mass table, so the route stays independent of
    the closed form. Decides by exact phase-1 simplex and returns the
    solved table as the witness; never raises on infeasible input. Targets
    are renormalized in exact arithmetic so float dust in the inputs cannot
    manufacture inconsistency.
    """
    n = prob.n_x
    q = Fraction(float(prob.q))
    p = Fraction(float(prob.p))
    e = _exact_normalized(prob.resolved_erase())
    r = _exact_normalized(prob.resolved_preserve())

    cd_table = {
        (0, 0): q - p,
        (0, 1): Fraction(0),
        (0, 2): p,
        (1, 0): Fraction(0),
        (1, 1): 1 - q,
        (1, 2): Fraction(0),
    }
    live = [cd for cd, mass in cd_table.items() if mass]
    column = {cd: k for k, cd in enumerate(live)}
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []

    def equation(cells: dict[tuple[int, tuple[int, int]], Fraction], b: Fraction) -> None:
        """Add sum of a * p(x, c, d) over ``cells`` {(x, (c, d)): a} = b, on live cells."""
        row = {x * len(live) + column[cd]: a for (x, cd), a in cells.items() if cd in column}
        if row or b:
            rows.append(row)
            rhs.append(b)

    for cd, mass in cd_table.items():
        equation({(x, cd): 1 for x in range(n)}, mass)
    detected, kept, minus_q = q - p, 1 - q, -q
    for x in range(n):
        equation({(x, (0, 0)): 1, (x, (1, 0)): 1}, e[x] * detected)
        equation({(x, (0, 1)): 1, (x, (1, 1)): 1}, r[x] * kept)
        # Independence: the two choice rows of bin x in ratio q : (1-q).
        cells = {(x, (0, d)): kept for d in range(3)}
        cells.update({(x, (1, d)): minus_q for d in range(3)})
        equation(cells, Fraction(0))

    solution = _phase1_feasible(rows, rhs, n * len(live))
    if solution is None:
        tag = INFEASIBLE_HIGH if p > q else INFEASIBLE_LOW
        return FeasibilityResult(feasible=False, witness=None, binding_constraint=tag)
    table = np.zeros((n, 2, 3))
    c_live, d_live = zip(*live)
    table[:, c_live, d_live] = np.array(solution, dtype=float).reshape(n, len(live))
    return _witness(float(q), float(p), table)
