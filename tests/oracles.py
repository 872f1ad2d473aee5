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
