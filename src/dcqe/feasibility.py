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
full table, knowing nothing about the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .architectures import _check_q
from .errors import (
    DegenerateLossMass,
    InfeasibleLossRate,
    InvalidArgument,
    NoLossOutcome,
)
from .joint import LOSS, JointDistribution, OutcomeSpace

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
    q = _check_q(q)
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
    if n_x < 2:
        raise InvalidArgument(f"need at least 2 bins, got {n_x}")
    if n_x % 2 == 0:
        e = np.zeros(n_x)
        e[0::2] = 2.0 / n_x
        return e
    weights = 1.0 + np.cos(2.0 * np.pi * np.arange(n_x) / n_x)
    return weights / weights.sum()


def _validated_target(vec, n_x: int, name: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=float).copy()
    if arr.shape != (n_x,):
        raise InvalidArgument(f"{name} must have shape ({n_x},), got {arr.shape}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidArgument(f"{name} must be finite and nonnegative")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise InvalidArgument(f"{name} must be normalized, sums to {float(arr.sum())}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LossFeasibilityProblem:
    """Observable surface of a lossy eraser to reconcile with independence.

    Targets default to the worst case: flat preserve conditional and the
    profile from :func:`worst_case_erase_conditional`. A custom preserve
    conditional requires an explicit erase conditional, since "worst case"
    is defined against the flat channel.
    """

    q: float
    n_x: int
    p: float
    erase_conditional: np.ndarray | None = None
    preserve_conditional: np.ndarray | None = None

    def __post_init__(self):
        _check_q(self.q)
        if self.n_x < 2:
            raise InvalidArgument(f"need at least 2 bins, got {self.n_x}")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidArgument(f"loss rate must lie in [0, 1], got {self.p}")
        if self.erase_conditional is not None:
            object.__setattr__(
                self,
                "erase_conditional",
                _validated_target(self.erase_conditional, self.n_x, "erase_conditional"),
            )
        if self.preserve_conditional is not None:
            object.__setattr__(
                self,
                "preserve_conditional",
                _validated_target(
                    self.preserve_conditional, self.n_x, "preserve_conditional"
                ),
            )
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
    if not np.any(support):
        return 0.0
    ratio = float(np.min(r[support] / e[support]))
    return max(q * (1.0 - ratio), 0.0)


def _witness_space(n_x: int) -> OutcomeSpace:
    return OutcomeSpace(n_x, _WITNESS_C, _WITNESS_D)


def _binding_tag(q: float, p: float, loss_slice: np.ndarray) -> str:
    if float(np.min(loss_slice)) <= 1e-15:
        return BINDING_LOSS_SLICE
    if q - p <= 1e-15:
        return BINDING_DETECTED_ERASE
    return BINDING_INTERIOR


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
    loss_slice = q * r - (q - p) * e
    if np.any(loss_slice < -1e-12):
        raise InfeasibleLossRate(p, (p_low, q))
    loss_slice = np.maximum(loss_slice, 0.0)
    space = _witness_space(prob.n_x)
    table = np.zeros(space.shape)
    table[:, 0, 0] = (q - p) * e
    table[:, 0, 2] = loss_slice
    table[:, 1, 1] = (1.0 - q) * r
    return FeasibilityResult(
        feasible=True,
        witness=JointDistribution(space, table),
        binding_constraint=_binding_tag(q, p, loss_slice),
    )


def _exact_normalized(vec: np.ndarray) -> list[Fraction]:
    fracs = [Fraction(float(v)) for v in vec]
    total = sum(fracs)
    if total <= 0:
        raise InvalidArgument("target distribution has no mass")
    return [f / total for f in fracs]


def _phase1_feasible(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Exact phase-1 simplex: solve A v = b, v >= 0 over the rationals.

    Minimizes the sum of one artificial variable per row using Bland's
    least-index rule, which cannot cycle. Returns a solution vector when
    the optimum is zero, None when the system is infeasible. Dense exact
    arithmetic: intended for desk-scale systems (tens of variables).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = list(rows[i])
        b = rhs[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
        art = [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        tableau.append(row + art + [b])
    basis = list(range(n, n + m))
    width = n + m + 1
    # Reduced costs for minimizing the artificial sum: cbar_j = c_j - sum_i T[i][j].
    cbar = [Fraction(0)] * (n + m)
    for j in range(n + m):
        col = sum(tableau[i][j] for i in range(m))
        cost = Fraction(0) if j < n else Fraction(1)
        cbar[j] = cost - col
    objective = -sum(tableau[i][width - 1] for i in range(m))

    while True:
        entering = next((j for j in range(n + m) if cbar[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][width - 1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            # Phase-1 objective is bounded below by zero; unboundedness
            # cannot occur, so treat it as infeasibility defensively.
            return None
        pivot = tableau[leaving][entering]
        tableau[leaving] = [a / pivot for a in tableau[leaving]]
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [a - factor * piv for a, piv in zip(tableau[i], tableau[leaving])]
        factor = cbar[entering]
        cbar = [c - factor * piv for c, piv in zip(cbar, tableau[leaving][: n + m])]
        objective -= factor * tableau[leaving][width - 1]
        basis[leaving] = entering

    if objective != 0:
        return None
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tableau[i][width - 1]
    return solution


def check_feasible(prob: LossFeasibilityProblem) -> FeasibilityResult:
    """Generic exact oracle for the same question as construct_witness.

    Encodes the full table p(x, c, d) as 6*n_x nonnegative rationals under
    linear equalities only: the (C, D) mass table ((q-p, 0, p), (0, 1-q, 0)),
    the pinned detected conditionals, and per-bin proportionality of the
    two choice rows (independence). Decides by exact phase-1 simplex and
    returns the solved table as the witness; never raises on infeasible
    input. Targets are renormalized in exact arithmetic so float dust in
    the inputs cannot manufacture inconsistency.
    """
    n = prob.n_x
    q = Fraction(float(prob.q))
    p = Fraction(float(prob.p))
    e = _exact_normalized(prob.resolved_erase())
    r = _exact_normalized(prob.resolved_preserve())

    def var(x: int, c: int, d: int) -> int:
        return (x * 2 + c) * 3 + d

    n_vars = 6 * n
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def add_row(cells: dict[int, Fraction], b: Fraction) -> None:
        row = [Fraction(0)] * n_vars
        for j, a in cells.items():
            row[j] = a
        rows.append(row)
        rhs.append(b)

    cd_table = {
        (0, 0): q - p,
        (0, 1): Fraction(0),
        (0, 2): p,
        (1, 0): Fraction(0),
        (1, 1): 1 - q,
        (1, 2): Fraction(0),
    }
    for (c, d), mass in cd_table.items():
        add_row({var(x, c, d): Fraction(1) for x in range(n)}, mass)
    for x in range(n):
        add_row(
            {var(x, 0, 0): Fraction(1), var(x, 1, 0): Fraction(1)}, e[x] * (q - p)
        )
        add_row(
            {var(x, 0, 1): Fraction(1), var(x, 1, 1): Fraction(1)}, r[x] * (1 - q)
        )
        # Independence: the two choice rows of bin x in ratio q : (1-q).
        cells = {var(x, 0, d): 1 - q for d in range(3)}
        cells.update({var(x, 1, d): -q for d in range(3)})
        add_row(cells, Fraction(0))

    solution = _phase1_feasible(rows, rhs)
    if solution is None:
        tag = INFEASIBLE_HIGH if p > q else INFEASIBLE_LOW
        return FeasibilityResult(feasible=False, witness=None, binding_constraint=tag)
    space = _witness_space(n)
    table = np.array(solution, dtype=float).reshape(space.shape)
    witness = JointDistribution(space, table)
    loss_slice = table[:, 0, 2]
    return FeasibilityResult(
        feasible=True,
        witness=witness,
        binding_constraint=_binding_tag(float(q), float(p), loss_slice),
    )


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
    li = space.loss_index
    loss_mass = float(joint.p[:, :, li].sum())
    total = float(joint.p.sum())
    detected_mass = total - loss_mass
    if loss_mass <= 0.0 or detected_mass <= 0.0:
        raise DegenerateLossMass(loss_mass)
    detected = list(space.detected_indices)
    cond_xc = joint.p[:, :, detected].sum(axis=2) / detected_mass
    p_x = cond_xc.sum(axis=1)
    p_c = cond_xc.sum(axis=0)
    return float(np.max(np.abs(cond_xc - np.outer(p_x, p_c))))
