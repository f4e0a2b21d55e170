import numpy as np
import pytest

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


def random_family(rng, rows, cols, weighted=False):
    """Generic full-rank family; optionally over a random-weight cell space."""
    if weighted:
        space = cell_space(rng.uniform(0.25, 2.5, size=rows))
    else:
        space = unit_weight_space(rows)
    return VectorFamily(space=space, members=complex_rng_matrix(rng, rows, cols))


def onb_family(dim):
    return VectorFamily(space=unit_weight_space(dim), members=np.eye(dim, dtype=complex))


def random_unit_vector(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


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
