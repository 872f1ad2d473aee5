"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: exact Fractions,
brute-force mixtures. Nothing imports from dcqe, so a bug in the library
cannot hide in its own test oracle.
"""

import csv
import io
from fractions import Fraction

import numpy as np

# cos at the quarter-turn phases {0, pi/2, pi, 3pi/2}, as exact rationals
QUARTER_COS = (Fraction(1), Fraction(0), Fraction(-1), Fraction(0))


def rational_fringe_profile(offset_quarters: int, visibility=Fraction(1)):
    """Four-bin fringe profile with bin phases on the quarter-turn grid.

    offset_quarters shifts the phase by that many quarter turns; 2 is the
    opposite-phase profile. Returns exact Fractions summing to 1.
    """
    vals = [1 + visibility * QUARTER_COS[(x + offset_quarters) % 4] for x in range(4)]
    total = sum(vals)
    return [v / total for v in vals]


def tv_fraction(a, b):
    """Exact total variation distance between two rational vectors."""
    return sum(abs(x - y) for x, y in zip(a, b)) / 2


def pooled_conditional(q, fringe, flat):
    """Brute-force mixture q*fringe + (1-q)*flat, renormalized."""
    mix = np.asarray([q * f + (1 - q) * g for f, g in zip(fringe, flat)])
    return mix / mix.sum()


def modulation_depth(p):
    """(max - min) / (max + min) of a bin distribution."""
    return (np.max(p) - np.min(p)) / (np.max(p) + np.min(p))


def exact_normalized(values):
    """Float vector -> exact Fractions of the floats, normalized to sum 1."""
    fracs = [Fraction(float(v)) for v in values]
    total = sum(fracs)
    return [f / total for f in fracs]


def feasible_interval(q, erase_target, preserve_target):
    """Exact feasible loss-rate interval for pinned detected conditionals.

    Works directly from the nonnegativity of the forced loss slice
    q*r(x) - (q-p)*e(x): p must be at least q*(1 - min over e>0 of r/e),
    and at most q. All arithmetic is exact on the rationalized targets.
    """
    qf = Fraction(float(q))
    e = exact_normalized(erase_target)
    r = exact_normalized(preserve_target)
    ratios = [ri / ei for ei, ri in zip(e, r) if ei > 0]
    low = max(qf * (1 - min(ratios)), Fraction(0))
    return low, qf


def dense_phase1_feasible(rows, rhs):
    """Reference exact phase-1 simplex on a dense Fraction tableau.

    Solves A v = b, v >= 0 for dense rows of Fractions by minimizing the
    sum of one artificial variable per row. Entering is the least column
    with a negative reduced cost (Bland's rule); leaving is the minimum
    ratio, ties to the smaller basic column. Returns the solution vector,
    or None when the system is infeasible.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = []
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


def reference_presolve(rows, rhs, n):
    """Forced elimination on sparse rows {column: coefficient}, in Fractions.

    A row a * v_j = b fixes v_j = b / a, which must be nonnegative, and
    a * v_j is subtracted from every other row holding j; a row left with
    no variable must have a zero right-hand side. This repeats until no row
    holds exactly one variable. Every step divides, multiplies and
    subtracts, whatever the coefficient or value. Returns (fixed values by
    column, rows still holding variables, their right-hand sides), or None
    when fixing alone proves the system infeasible.
    """
    rows = [{j: a for j, a in row.items() if a} for row in rows]
    rhs = list(rhs)
    if any(b for row, b in zip(rows, rhs) if not row):
        return None
    holding = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            holding[j].append(i)
    fixed = {}
    pending = [i for i, row in enumerate(rows) if len(row) == 1]
    while pending:
        i = pending.pop()
        if len(rows[i]) != 1:
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


def full_encoding_feasible(q, p, erase_target, preserve_target):
    """Loss feasibility over all 6*n_x cells of p(x, c, d), by the dense simplex.

    Cell (x, c, d) is column (x*2 + c)*3 + d, with c in (erase, preserve)
    and d in (D_erase, D_preserve, LOSS). The equations are the (C, D) mass
    table ((q-p, 0, p), (0, 1-q, 0)), then per bin the detected-erase
    mass e(x)*(q-p), the detected-preserve mass r(x)*(1-q) and
    independence, (1-q) * p(x, erase, .) = q * p(x, preserve, .). No cell
    is left out, whatever its mass. Returns the solution as exact
    Fractions in column order, or None when the system is infeasible.
    """
    q, p = Fraction(float(q)), Fraction(float(p))
    e = exact_normalized(erase_target)
    r = exact_normalized(preserve_target)
    n = len(e)

    def var(x, c, d):
        return (x * 2 + c) * 3 + d

    def dense(cells):
        row = [Fraction(0)] * (6 * n)
        for j, a in cells.items():
            row[j] = a
        return row

    cd_table = ((q - p, Fraction(0), p), (Fraction(0), 1 - q, Fraction(0)))
    rows, rhs = [], []
    for c in range(2):
        for d in range(3):
            rows.append(dense({var(x, c, d): Fraction(1) for x in range(n)}))
            rhs.append(cd_table[c][d])
    for x in range(n):
        rows.append(dense({var(x, 0, 0): Fraction(1), var(x, 1, 0): Fraction(1)}))
        rhs.append(e[x] * (q - p))
        rows.append(dense({var(x, 0, 1): Fraction(1), var(x, 1, 1): Fraction(1)}))
        rhs.append(r[x] * (1 - q))
        cells = {var(x, 0, d): 1 - q for d in range(3)}
        cells.update({var(x, 1, d): -q for d in range(3)})
        rows.append(dense(cells))
        rhs.append(Fraction(0))
    return dense_phase1_feasible(rows, rhs)


def reference_feasibility_system(prob):
    """The live-cell system check_feasible hands its solver, built cell by cell.

    ``prob`` is read through ``q``, ``p``, ``n_x``, ``resolved_erase()`` and
    ``resolved_preserve()``. Each equation is a {(x, (c, d)): a} dict over
    cells; a cell whose (C, D) mass in ((q-p, 0, p), (0, 1-q, 0)) is zero
    has no column, the others get columns x * (live pairs) + k in mass-table
    order, and an equation left with no column is dropped when its
    right-hand side is zero. The equations are the six (C, D) masses, then
    per bin the detected-erase mass, the detected-preserve mass and
    independence. Returns (rows {column: a}, right-hand sides, column count).
    """
    n = prob.n_x
    q, p = Fraction(float(prob.q)), Fraction(float(prob.p))
    e = exact_normalized(prob.resolved_erase())
    r = exact_normalized(prob.resolved_preserve())
    cd_table = {
        (0, 0): q - p, (0, 1): Fraction(0), (0, 2): p,
        (1, 0): Fraction(0), (1, 1): 1 - q, (1, 2): Fraction(0),
    }
    live = [cd for cd, mass in cd_table.items() if mass]
    column = {cd: k for k, cd in enumerate(live)}
    rows, rhs = [], []

    def equation(cells, b):
        row = {x * len(live) + column[cd]: a for (x, cd), a in cells.items() if cd in column}
        if row or b:
            rows.append(row)
            rhs.append(b)

    for cd, mass in cd_table.items():
        equation({(x, cd): 1 for x in range(n)}, mass)
    for x in range(n):
        equation({(x, (0, 0)): 1, (x, (1, 0)): 1}, e[x] * (q - p))
        equation({(x, (0, 1)): 1, (x, (1, 1)): 1}, r[x] * (1 - q))
        cells = {(x, (0, d)): 1 - q for d in range(3)}
        cells.update({(x, (1, d)): -q for d in range(3)})
        equation(cells, Fraction(0))
    return rows, rhs, n * len(live)


def reference_write_events(log, path):
    """Event CSV written row by row with ``csv.writer``.

    ``log`` is read through ``space.n_x``, ``space.c_values``,
    ``space.d_values`` and its flat ``cells``. Each row ``trial,x,c,d`` is
    rendered with ``\\r\\n`` endings, so labels holding CR or LF are quoted,
    then written ending in ``\\n``.
    """
    space = log.space
    n_c, n_d = len(space.c_values), len(space.d_values)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("trial,x,c,d\n")
        for trial, cell in enumerate(log.cells.tolist()):
            buf.seek(0)
            buf.truncate()
            x, rest = divmod(cell, n_c * n_d)
            writer.writerow([trial, x, space.c_values[rest // n_d], space.d_values[rest % n_d]])
            fh.write(buf.getvalue()[:-2] + "\n")


def reference_read_events(path):
    """Event CSV parsed row by row with ``csv.reader``.

    Returns the ``x`` list and the ``(c, d)`` label list, or raises
    ``ValueError`` for a bad header, a row without exactly 4 fields, a
    non-integer field or trials that do not strictly increase.
    """
    xs, labels = [], []
    last_trial = -1
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["trial", "x", "c", "d"]:
            raise ValueError(f"bad header in {path}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"malformed event row {row!r} in {path}")
            trial = int(row[0])
            if trial <= last_trial:
                raise ValueError(f"trial indices must be strictly increasing in {path}")
            last_trial = trial
            xs.append(int(row[1]))
            labels.append((row[2], row[3]))
    return xs, labels


#: The loss label and the fixed loss tolerance, as the audit spells them.
LOSS_LABEL = "LOSS"
LOSS_TOL = 1e-12


class Refused(Exception):
    """A reference check's refusal: the library error's class name and message."""

    def __init__(self, name, message):
        super().__init__(name, message)
        self.name = name
        self.message = message


def reference_independence(p, c_values, tol, alpha=None, counts=None, g_test=None):
    """The independence verdict as a report dict: the largest cell of
    |p(x,c) - p(x) p(c)|, first cell on ties; with ``alpha``, ``g_test`` on
    the X x C counts instead."""
    p_xc = p.sum(axis=2)
    p_c = p_xc.sum(axis=0)
    deviation = np.abs(p_xc - np.outer(p_xc.sum(axis=1), p_c))
    x, c = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
    detail = {
        "witness": {"x": int(x), "c": c_values[c]},
        "skipped_choices": [c_values[ci] for ci in range(len(c_values)) if p_c[ci] <= 0.0],
    }
    if alpha is not None:
        g, df, p_value = g_test(counts.sum(axis=2))
        return {"holds": p_value >= alpha, "g_statistic": g, "tolerance": alpha,
                **detail, "p_value": p_value, "df": df}
    worst = float(deviation[x, c])
    return {"holds": worst <= tol, "max_deviation": worst, "tolerance": tol, **detail}


def reference_lossless(p, d_values, counts=None):
    """The lossless verdict as a report dict; given ``counts``, it holds
    iff no event is lost."""
    loss = float(p[:, :, d_values.index(LOSS_LABEL)].sum()) if LOSS_LABEL in d_values else 0.0
    holds = loss <= LOSS_TOL if counts is None else (
        LOSS_LABEL not in d_values or int(counts[:, :, d_values.index(LOSS_LABEL)].sum()) == 0)
    return {"holds": holds, "loss_mass": loss, "tolerance": LOSS_TOL}


def reference_berkson_gap(p, d_values):
    """``berkson_gap`` with naive sums: the largest cell of
    |p(x,c) - p(x) p(c)| in the detected table p(x, c, D != LOSS) / P(D != LOSS),
    refused without a loss outcome, or when P(LOSS) or P(D != LOSS) is 0."""
    if LOSS_LABEL not in d_values:
        raise Refused("NoLossOutcome", "joint has no loss outcome to condition away")
    li = d_values.index(LOSS_LABEL)
    loss = float(p[:, :, li].sum())
    detected = float(p.sum()) - loss
    if loss <= 0.0 or detected <= 0.0:
        raise Refused("DegenerateLossMass",
                      f"loss mass {loss!r} leaves no nondegenerate detected fraction")
    p_xc = p[:, :, [di for di in range(len(d_values)) if di != li]].sum(axis=2) / detected
    return float(np.abs(p_xc - np.outer(p_xc.sum(axis=1), p_xc.sum(axis=0))).max())


def reference_routing(p, c_values, d_values, tol, counts=None):
    """The routing verdict as a report dict, one choice at a time: each
    choice's detected masses, its modal detector (the first on ties) and
    the runner-up, each found with its own numpy calls. Given ``counts``,
    it holds iff no choice has detected events at two detectors."""
    detected = [di for di, d in enumerate(d_values) if d != LOSS_LABEL]
    routing, skipped, max_stray, worst = {}, [], -1.0, None
    for ci, c in enumerate(c_values):
        if float(p[:, ci, :].sum()) <= 0.0:
            skipped.append(c)
            continue
        mass_d = p[:, ci, :].sum(axis=0)[detected] if detected else np.zeros(0)
        total = float(mass_d.sum())
        if total <= 0.0:
            raise Refused("AllMassLost", f"choice {c!r} has no detected events; routing undefined")
        cond = mass_d / total
        target = int(np.argmax(cond))
        stray = float(1.0 - cond[target])
        routing[c] = d_values[detected[target]]
        if stray > max_stray:
            max_stray = stray
            runner_up = cond.copy()
            runner_up[target] = -1.0
            second = int(np.argmax(runner_up)) if cond.size > 1 else target
            worst = {"c": c, "d": routing[c], "d_prime": d_values[detected[second]]}
    if not routing:
        raise Refused("AllMassLost", f"choice {c_values[0]!r} has no detected events; routing undefined")
    holds = max_stray <= tol
    if counts is not None:
        reached = [sum(int(counts[:, ci, di].sum()) > 0 for di in detected)
                   for ci in range(len(c_values))]
        holds = max(reached) <= 1
    return {"holds": holds, "max_stray_mass": max_stray, "tolerance": tol,
            "routing": routing if holds else None,
            "counterexample": None if holds else worst, "skipped_choices": skipped}


def reference_distinct(p, d_values, tol, alpha=None, counts=None, g_test=None):
    """The distinctness verdict as a report dict, one detector pair at a
    time: half the L1 distance of each pair's conditionals, the first pair
    on ties; with ``alpha``, ``g_test`` on the X x D counts instead, read
    at df no less than the X x C counts' df."""
    conditionals, observed = [], []
    for di, d in enumerate(d_values):
        if d == LOSS_LABEL:
            continue
        slice_xd = p[:, :, di].sum(axis=1)
        mass = float(slice_xd.sum())
        if mass > 0.0:
            conditionals.append((d, slice_xd / mass))
            observed.append(di)
    if len(conditionals) < 2:
        raise Refused("InsufficientOutcomes",
                      f"need at least 2 detectors with positive mass, found {len(conditionals)}")
    gap, pair, bin_set = -1.0, None, []
    for i in range(len(conditionals)):
        for j in range(i + 1, len(conditionals)):
            (d, a), (d_prime, b) = conditionals[i], conditionals[j]
            tv = 0.5 * float(np.abs(a - b).sum())
            if tv > gap:
                gap, pair = tv, (d, d_prime)
                bin_set = [int(x) for x in np.nonzero(a - b > 0)[0]]
    witness = {"bin_set": bin_set, "d": pair[0], "d_prime": pair[1], "gap": gap}
    if alpha is not None:
        _, df_xc, _ = g_test(counts.sum(axis=2))
        g, df, p_value = g_test(counts.sum(axis=1)[:, observed], df_xc)
        return {"holds": p_value < alpha, "g_statistic": g, "tolerance": alpha,
                "witness": witness, "p_value": p_value, "df": df}
    return {"holds": gap > tol, "gap": gap, "tolerance": tol, "witness": witness}


def reference_audit(p, c_values, d_values, counts, tol, alpha=None, g_test=None):
    """The audit report dict of a valid table at a resolved level: ``tol``,
    or ``alpha`` (then ``tol`` is None) with ``g_test`` run on ``counts``, a
    sampled table's event counts (None for an exact table), whose total is
    its sample count. At ``alpha``, losslessness and routing are decided on
    ``counts``: one lost or stray event violates them. The checks run, and
    refuse, in report order."""
    n_samples = None if counts is None else int(counts.sum())
    routing_tol = LOSS_TOL if alpha is not None else tol
    verdicts = {
        "independence": reference_independence(p, c_values, tol, alpha, counts, g_test),
        "lossless": reference_lossless(p, d_values, None if alpha is None else counts),
        "deterministic_routing": reference_routing(
            p, c_values, d_values, routing_tol, None if alpha is None else counts),
        "distinct_conditionals": reference_distinct(p, d_values, tol, alpha, counts, g_test),
    }
    violations = [name for name, verdict in verdicts.items() if not verdict["holds"]]
    doc = {**verdicts, "violations": violations, "no_go_consistent": bool(violations),
           "tolerance": routing_tol, "n_samples": n_samples}
    if alpha is not None:
        doc["alpha"] = alpha
    return doc
