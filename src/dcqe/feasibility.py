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
table, knowing nothing about the closed form. It decides by forced
elimination, reading only the equations: each variable that a
one-variable equation forces is fixed and substituted into the others,
until every cell is fixed or a forced value is negative or an emptied
equation is not met.
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
    support never constrain. A subnormal e(x) can overflow r/e to inf
    there, which is silenced: inf never wins the min, since some bin holds
    e(x) >= 1/n_x.
    """
    support = e > 0.0
    with np.errstate(over="ignore"):
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


def _presolve(
    rows: list[dict[int, Fraction]], rhs: list[Fraction], n: int
) -> tuple[dict[int, Fraction], list[dict[int, Fraction]], list[Fraction]] | None:
    """Fix every variable of A v = b, v >= 0 that a one-variable row forces.

    A row a * v_j = b fixes v_j = b / a, which must be nonnegative. The
    value is substituted into every row holding j, found through a
    column-to-rows map built once, and a row left with no variable must
    have a zero right-hand side. This repeats until no row holds exactly one
    variable. Returns the fixed values by column and the rows still holding
    variables, with their right-hand sides; or None when fixing alone proves
    the system infeasible. Each fixed value holds in every solution, so the
    rest of the system is feasible exactly when the whole of it is.
    """
    rows = [{j: a for j, a in row.items() if a} for row in rows]
    rhs = list(rhs)
    if any(b for row, b in zip(rows, rhs) if not row):
        return None
    holding: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            holding[j].append(i)
    fixed: dict[int, Fraction] = {}
    pending = [i for i, row in enumerate(rows) if len(row) == 1]
    while pending:
        i = pending.pop()
        if len(rows[i]) != 1:
            # emptied, and checked, since it was queued
            continue
        ((j, a),) = rows[i].items()
        value = rhs[i] / a
        if value < 0:
            return None
        fixed[j] = value
        for k in holding[j]:
            row = rows[k]
            rhs[k] -= row.pop(j) * value
            if len(row) == 1:
                pending.append(k)
            elif not row and rhs[k]:
                return None
    left = [i for i, row in enumerate(rows) if row]
    return fixed, [rows[i] for i in left], [rhs[i] for i in left]


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
    mass (p > q) keeps its cells, which the solver finds infeasible. This
    reads nothing but the mass table, so the route stays independent of
    the closed form. Targets are renormalized in exact arithmetic so float
    dust in the inputs cannot manufacture inconsistency.

    Decides by forced elimination (:func:`_presolve`) alone, which fixes
    every cell: q lies in (0, 1), so each bin's preserve row holds one live
    cell, (preserve, D_preserve); its detected-erase row holds one,
    (erase, D_erase), when that cell is live, and is dropped otherwise;
    with both fixed, its independence row holds only (erase, LOSS), or no
    cell when p = 0. A negative fixed value or an unmet emptied equation
    is infeasibility, and a row left over an internal error. Returns the
    fixed table as the witness; never raises on infeasible input.
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

    columns = n * len(live)
    reduced = _presolve(rows, rhs, columns)
    if reduced is None:
        tag = INFEASIBLE_HIGH if p > q else INFEASIBLE_LOW
        return FeasibilityResult(feasible=False, witness=None, binding_constraint=tag)
    fixed, left, _ = reduced
    if left or len(fixed) != columns:
        raise AssertionError(f"forced elimination left {columns - len(fixed)} cells unsolved")
    solution = np.array([fixed[j] for j in range(columns)], dtype=float)
    table = np.zeros((n, 2, 3))
    c_live, d_live = zip(*live)
    table[:, c_live, d_live] = solution.reshape(n, len(live))
    return _witness(float(q), float(p), table)
