import math

import numpy as np
import pytest

from dcqe import FringeModel, JointDistribution, OutcomeSpace

# phase0 = -pi/4 puts the four bin-center phases exactly on {0, pi/2, pi, 3pi/2},
# where the cosine takes rational values; every worked example below relies on it.
FOUR_BIN_PHASE0 = -np.pi / 4


@pytest.fixture
def four_bin_model():
    return FringeModel(n_x=4, cycles=1.0, phase0=FOUR_BIN_PHASE0)


def routed_joint(rng):
    """Random joint with X independent of C and D a function of C.

    The routing image always has at least two detection labels so the
    distinctness check is well posed.
    """
    n_x = int(rng.integers(2, 7))
    n_c = int(rng.integers(2, 4))
    n_d = int(rng.integers(2, 5))
    p_x = rng.random(n_x) + 0.01
    p_x /= p_x.sum()
    p_c = rng.random(n_c) + 0.01
    p_c /= p_c.sum()
    routing = rng.integers(0, n_d, size=n_c)
    while len(set(routing.tolist())) < 2:
        routing = rng.integers(0, n_d, size=n_c)
    table = np.zeros((n_x, n_c, n_d))
    for c in range(n_c):
        table[:, c, routing[c]] = p_x * p_c[c]
    space = OutcomeSpace(
        n_x,
        tuple(f"c{k}" for k in range(n_c)),
        tuple(f"D{k}" for k in range(n_d)),
    )
    return JointDistribution(space, table)


def random_joint(rng, with_loss=False, n_x=None, n_c=None, n_d=None):
    """Fully positive random joint over a small outcome space."""
    n_x = n_x or int(rng.integers(2, 6))
    n_c = n_c or int(rng.integers(2, 4))
    n_d = n_d or int(rng.integers(2, 5))
    d_values = tuple(f"D{k}" for k in range(n_d))
    if with_loss:
        d_values = d_values + ("LOSS",)
    space = OutcomeSpace(n_x, tuple(f"c{k}" for k in range(n_c)), d_values)
    table = rng.random(space.shape) + 0.01
    table /= table.sum()
    return JointDistribution(space, table)


def no_memory_for_big_tables(monkeypatch):
    """Make ``np.zeros`` and ``np.full`` refuse arrays of more than 2**32 cells.

    Stands in for a failed allocation of tens of GiB, which not every host
    refuses; smaller arrays are allocated as usual.
    """
    for name in ("zeros", "full"):
        allocate = getattr(np, name)

        def guarded(shape, *args, allocate=allocate, **kwargs):
            if math.prod(np.atleast_1d(shape).tolist()) > 2**32:
                raise MemoryError(shape)
            return allocate(shape, *args, **kwargs)

        monkeypatch.setattr(np, name, guarded)
