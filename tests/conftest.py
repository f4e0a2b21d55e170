import tracemalloc

import numpy as np
import pytest

from framelab import numerics
from framelab.frames import VectorFamily
from framelab.measure import DiscretizedSpace, Node, Provenance


def complex_rng_matrix(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def unit_weight_space(count):
    nodes = tuple(
        Node(point=float(i), weight=1.0, provenance=Provenance.ATOM) for i in range(count)
    )
    return DiscretizedSpace(nodes=nodes)


def cell_space(weights):
    nodes = tuple(
        Node(point=float(i), weight=float(w), provenance=Provenance.CELL)
        for i, w in enumerate(weights)
    )
    return DiscretizedSpace(nodes=nodes)


# tables a family or kernel must copy rather than adopt: each could change
# under the caller's hands, or is not a C-contiguous complex128 table
COPIED_TABLES = {
    "writable": lambda a: a,
    "read-only-view-of-writable": lambda a: numerics.freeze(a[:]),
    "non-contiguous": lambda a: numerics.freeze(np.asfortranarray(a)),
    "non-complex": lambda a: numerics.freeze(a.real.copy()),
}


def random_family(rng, rows, cols, weighted=False):
    """Generic full-rank family; optionally over a random-weight cell space."""
    if weighted:
        space = cell_space(rng.uniform(0.25, 2.5, size=rows))
    else:
        space = unit_weight_space(rows)
    return VectorFamily(space=space, members=complex_rng_matrix(rng, rows, cols))


def conditioned_family(rng, rows, dim, ratio):
    """Weighted family whose weighted analysis singular values run from 1 to ``ratio``."""
    space = cell_space(rng.uniform(0.25, 2.5, rows))
    u, _ = np.linalg.qr(complex_rng_matrix(rng, rows, dim))
    v, _ = np.linalg.qr(complex_rng_matrix(rng, dim, dim))
    weighted_analysis = (u * np.logspace(0.0, np.log10(ratio), dim)) @ v.conj().T
    members = weighted_analysis.conj() / np.sqrt(space.weights)[:, None]
    return VectorFamily(space=space, members=members)


def onb_family(dim):
    return VectorFamily(space=unit_weight_space(dim), members=np.eye(dim, dtype=complex))


def random_unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def traced_peak(call):
    """``call()`` and the ``tracemalloc`` peak, in bytes, of what it allocated while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def svd_count(a, threshold):
    """Reference rank: singular values above ``threshold * sigma_max * max(shape)``."""
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > threshold * s[0] * max(a.shape)))


class SvdCalled(Exception):
    """Raised by :func:`no_svd` in place of an SVD."""


def no_svd(*args, **kwargs):
    """Stand-in for ``np.linalg.svd`` in tests that pin a route without one."""
    raise SvdCalled


@pytest.fixture(autouse=True)
def _default_rank_tolerance(monkeypatch):
    """Run every test under the default rank threshold, whatever the shell exports."""
    monkeypatch.delenv("FRAMELAB_RANK_TOL", raising=False)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
