import json
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framelab import numerics
from framelab.cli import main
from framelab.errors import NonSquareError, NotAFrameError, NotHermitianError, ValidationError
from framelab.frames import (
    Classification, VectorFamily, analysis_rank, frame_bounds, frame_operator, redundancy,
    semiframe_trend,
)
from framelab.gallery import GalleryKind, GallerySpec, build_affine, truncation_sequence
from framelab.pairs import (
    bessel_bound, frame_transfer, lower_semiframe_dual, pair_verdict, resolution_operator,
)
from framelab.rkhs import kernel_of_span, point_evaluation_bounds

from conftest import (
    COPIED_TABLES, SvdCalled, cell_space, complex_rng_matrix, conditioned_family, no_svd,
    onb_family, random_family, svd_count, traced_peak, unit_weight_space,
)


class TestHermitianEig:
    def test_identity(self):
        values, vectors = numerics.hermitian_eig(np.eye(3))
        np.testing.assert_allclose(values, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(vectors @ vectors.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal_sorted_ascending(self):
        values, _ = numerics.hermitian_eig(np.diag([1.0, 0.25, 1.0 / 9.0]))
        np.testing.assert_allclose(values, [1.0 / 9.0, 0.25, 1.0])

    def test_mercedes_frame_operator(self):
        # sum the three rank-one projectors of the planar equiangular triple by hand
        vectors = [
            np.array([1.0, 0.0]),
            np.array([-0.5, np.sqrt(3) / 2]),
            np.array([-0.5, -np.sqrt(3) / 2]),
        ]
        s = sum(np.outer(v, v.conj()) for v in vectors)
        values, _ = numerics.hermitian_eig(s)
        np.testing.assert_allclose(values, [1.5, 1.5], atol=1e-14)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            numerics.hermitian_eig(np.ones((2, 3)))

    def test_asymmetry_rejected(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NotHermitianError):
            numerics.hermitian_eig(a)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            numerics.hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_entries_near_the_float_limit(self):
        # twice 1e308 overflows, so the asymmetry check halves before it subtracts
        a = np.array([[1e308, 1e307j], [-1e307j, 2.0]])
        values, vectors = numerics.hermitian_eig(a)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(a / 1e308) * 1e308, rtol=1e-12)
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(2), atol=1e-14)

    def test_asymmetry_past_the_float_range_is_refused(self):
        # |a| overflows, so a scale read from a itself would be inf and no
        # asymmetry could exceed it: the imaginary diagonal would be dropped
        with pytest.raises(NotHermitianError, match="^asymmetry "):
            numerics.hermitian_eig([[1.5e308 + 1.5e308j]], vectors=False)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_solvers_read_the_input_in_place(self, rng, vectors, monkeypatch):
        # more rows than one quarter block, so the checks take several blocks
        a = complex_rng_matrix(rng, 300, 300)
        a += a.conj().T
        expected = np.linalg.eigvalsh(a)
        solved = []

        def spy(solve):
            def call(m, UPLO):
                solved.append(m)
                return solve(m, UPLO)

            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
        values, _ = numerics.hermitian_eig(a, vectors)
        assert len(solved) == 1 and np.shares_memory(solved[0], a)
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 12))
    def test_reconstruction(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = complex_rng_matrix(rng, dim, dim)
        a = m + m.conj().T
        values, vectors = numerics.hermitian_eig(a)
        rebuilt = vectors @ np.diag(values) @ vectors.conj().T
        scale = max(np.max(np.abs(a)), 1.0)
        assert np.max(np.abs(rebuilt - a)) <= 1e-10 * scale


# small flags for each gallery kind, as the golden corpus takes them
_GALLERY_FLAGS = {
    GalleryKind.TORUS: ("--dim", "4", "--grid", "16"),
    GalleryKind.AFFINE: ("--dim", "8"),
    GalleryKind.DELTA: ("--dim", "5"),
    GalleryKind.DOUBLED_ONB: ("--dim", "3"),
    GalleryKind.AUGMENTED_ONB: ("--dim", "3"),
    GalleryKind.MERCEDES: (),
    GalleryKind.RANDOM: ("--rows", "7", "--dim", "3", "--seed", "5"),
}
_GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


class TestSolverInputsAreHermitian:
    """Every matrix that reaches :func:`numerics.hermitian_eig` is exactly Hermitian.

    The solvers read only its lower triangle, so an input whose upper triangle
    differed would be solved as another matrix.
    """

    @pytest.fixture
    def hermitian(self, monkeypatch):
        verdicts = []
        solve = numerics.hermitian_eig

        def spy(a, vectors=True):
            m = np.asarray(a)
            verdicts.append(bool(np.array_equal(m, m.conj().T)))
            return solve(a, vectors)

        monkeypatch.setattr(numerics, "hermitian_eig", spy)
        return verdicts

    def test_every_gallery_kind_is_covered(self):
        assert set(_GALLERY_FLAGS) == set(GalleryKind)

    @pytest.mark.parametrize("command", ["bounds", "dual", "kernel", "partner"])
    @pytest.mark.parametrize(
        "source",
        [("--gallery", kind.value, *flags) for kind, flags in _GALLERY_FLAGS.items()]
        + [("--in", str(_GOLDEN_INPUTS / "mixed.json"))],
        ids=[kind.value for kind in _GALLERY_FLAGS] + ["weighted-file-with-atoms"],
    )
    def test_commands(self, hermitian, tmp_path, command, source):
        main([command, *source, "--out", str(tmp_path / "report")])
        assert hermitian and all(hermitian)

    def test_library_entry_points(self, hermitian, rng):
        psi = random_family(rng, 12, 3, weighted=True)
        phi = VectorFamily(space=psi.space, members=complex_rng_matrix(rng, 12, 3))
        space = cell_space(rng.uniform(0.25, 2.5, 9))
        calls = {}
        for name, call in {
            "frame_transfer": lambda: frame_transfer(psi, phi, complex_rng_matrix(rng, 5, 3)),
            "lower_semiframe_dual": lambda: lower_semiframe_dual(psi),
            "kernel_of_span": lambda: kernel_of_span(complex_rng_matrix(rng, 9, 4), space),
            "point_evaluation_bounds": lambda: point_evaluation_bounds(
                complex_rng_matrix(rng, 9, 4), space
            ),
            "pair_verdict": lambda: pair_verdict(psi, phi),
        }.items():
            before = len(hermitian)
            call()
            calls[name] = len(hermitian) - before
        assert all(hermitian)
        # a pair's verdict reads singular values and rank certificates, no spectrum
        assert calls.pop("pair_verdict") == 0
        assert all(calls.values()), calls


_LAYOUTS = {
    "c-order": lambda a: a,
    "fortran-order": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
    "transposed": lambda a: np.ascontiguousarray(a.T).T,
}


class TestGram:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 9),
        cols=st.integers(1, 8),
        layout=st.sampled_from(sorted(_LAYOUTS)),
        decades=st.integers(0, 12),
    )
    def test_matches_the_complex_product(self, seed, rows, cols, layout, decades):
        # one real SYRK of the float view gives the complex Gram: Hermitian
        # exactly, and within (n + 5) * eps * trace of table^H W table, the
        # first-order bound of certifies_full_rank (the complex product is
        # itself off by about eps * trace: it leaves an imaginary part on the
        # diagonal of a one-node Gram)
        rng = np.random.default_rng(seed)
        table = _LAYOUTS[layout](complex_rng_matrix(rng, rows, cols))
        weights = 10.0 ** rng.uniform(-decades / 2, decades / 2, rows)
        g = numerics.gram(table, weights)
        reference = numerics.weighted_gram(table, weights, table)
        assert np.array_equal(g, g.conj().T)
        trace = float(np.trace(reference).real)
        eps = np.finfo(float).eps
        assert np.max(np.abs(g - reference)) <= (rows + 5) * eps * trace

    def test_unit_weights_by_default(self, rng):
        table = complex_rng_matrix(rng, 6, 3)
        assert np.array_equal(numerics.gram(table), numerics.gram(table, np.ones(6)))

    def test_real_table(self):
        g = numerics.gram(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 4.0]))
        assert g.dtype == np.complex128
        assert g.tolist() == [[37.0, 50.0], [50.0, 68.0]]


# at BLOCK_ENTRIES = 256 a 4-column table has blocks of 64 rows, for the
# Gram (at least 8 * 4 rows) and the mixed product (256 // 4 rows) alike
_NODE_BLOCKS = {
    "no-nodes": (0, 4),
    "one-node": (1, 4),
    "under-one-block": (40, 4),
    "two-blocks": (128, 4),
    "one-row-past": (129, 4),
    "wide": (20, 40),  # the mixed product takes 6-row blocks of a 40-column table
}


class _SlicedRows(np.ndarray):
    """Node weights that record the row count of each block a node sum slices from them."""

    def __new__(cls, weights, rows: list):
        out = np.asarray(weights).view(cls)
        out.rows = rows
        return out

    def __getitem__(self, key):
        block = np.asarray(self)[key]
        self.rows.append(len(block))
        return block


class TestNodeBlocks:
    """Sums over the nodes, walked in row blocks, against the one-product forms."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_ENTRIES", 256)

    @pytest.mark.parametrize("shape", _NODE_BLOCKS.values(), ids=_NODE_BLOCKS.keys())
    def test_gram_matches_the_one_product(self, rng, shape):
        rows, cols = shape
        table = complex_rng_matrix(rng, rows, cols)
        weights = rng.uniform(0.25, 2.5, rows)
        scaled = np.sqrt(weights)[:, None] * table
        for g, reference in (
            (numerics.gram(table, weights), scaled.conj().T @ scaled),
            (numerics.gram(table), table.conj().T @ table),
        ):
            assert g.shape == (cols, cols)
            assert np.array_equal(g, g.conj().T)
            scale = np.max(np.abs(reference), initial=0.0)
            assert np.max(np.abs(g - reference), initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("shape", _NODE_BLOCKS.values(), ids=_NODE_BLOCKS.keys())
    def test_weighted_gram_matches_the_one_product(self, rng, shape):
        rows, cols = shape
        left = complex_rng_matrix(rng, rows, 3)
        right = complex_rng_matrix(rng, rows, cols)
        weights = rng.uniform(0.25, 2.5, rows)
        product = numerics.weighted_gram(left, weights, right)
        reference = left.conj().T @ (weights[:, None] * right)
        assert product.shape == (3, cols)
        scale = np.max(np.abs(reference), initial=0.0)
        assert np.max(np.abs(product - reference), initial=0.0) <= 1e-13 * scale

    def test_no_nodes_give_zeros(self):
        assert np.array_equal(numerics.gram(np.zeros((0, 3), dtype=complex)), np.zeros((3, 3)))
        empty = np.zeros((0, 2), dtype=complex)
        assert np.array_equal(numerics.weighted_gram(empty, np.ones(0), empty), np.zeros((2, 2)))

    def test_a_table_with_no_columns_is_one_block(self, rng, monkeypatch):
        # past BLOCK_ENTRIES rows, blocks of no entries would only cost calls
        rows = []
        gram = numerics.block_gram
        monkeypatch.setattr(
            numerics, "block_gram", lambda blocks: gram(b for b in blocks if not rows.append(len(b)))
        )
        empty, w = np.zeros((300, 0), dtype=complex), _SlicedRows(np.ones(300), rows)
        assert numerics.gram(empty, w).shape == (0, 0)
        assert numerics.weighted_gram(complex_rng_matrix(rng, 300, 3), w, empty).shape == (3, 0)
        assert rows == [300, 300]

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 200])
    def test_newton_update_in_place(self, rng, rows):
        table = complex_rng_matrix(rng, rows, 4)
        correction = 1e-3 * complex_rng_matrix(rng, 4, 4)
        expected = table - table @ correction
        before = table
        numerics.newton_update(table, correction)
        assert table is before
        assert np.max(np.abs(table - expected)) <= 1e-15 * np.max(np.abs(expected))


# node-sum shapes at the block edges of BLOCK_ENTRIES = 2**16: quarter blocks
# of 256 rows and Gram blocks of 1024 at 64 columns, Gram blocks of 1024 and
# quarter blocks of 128 at 128 columns, one Gram block of 65,536 rows at one
_BLOCK_EDGES = [(255, 64), (256, 64), (257, 64), (1023, 64), (1025, 64), (2049, 128),
                (0, 3), (300, 0), (70_000, 1)]


def _gram_by_blocks(table, weights=None) -> np.ndarray:
    """``table^H W table`` over Gram blocks of at least ``8 * cols`` and about
    ``BLOCK_ENTRIES`` entries, each block's part from one real symmetric product,
    summed from the first block's part; unit weights scale nothing."""
    rows, cols = table.shape
    step = max(8 * cols, numerics.BLOCK_ENTRIES // cols) if cols else rows + 1
    if weights is not None and np.all(weights == 1.0):
        weights = None
    total = None
    for start in range(0, rows or 1, step):
        block = table[start : start + step]
        if weights is not None:
            block = block * np.sqrt(weights[start : start + step])[:, None]
        real = np.ascontiguousarray(block).view(np.float64)
        product = real.T @ real
        part = np.empty((cols, cols), dtype=np.complex128)
        part.real = product[0::2, 0::2] + product[1::2, 1::2]
        part.imag = product[0::2, 1::2] - product[1::2, 0::2]
        total = part if total is None else total + part
    return total


def _quarter_steps(rows: int, cols: int):
    step = max(1, numerics.BLOCK_ENTRIES // cols // 4) if cols else rows + 1
    return [slice(start, start + step) for start in range(0, rows or 1, step)]


def _weighted_gram_by_blocks(left, weights, right) -> np.ndarray:
    """``conj`` of the sum, from the first quarter block's, of ``left^T conj(W right)``."""
    total = None
    for rows in _quarter_steps(*right.shape):
        part = left[rows].T @ np.conj(weights[rows, None] * right[rows])
        total = part if total is None else total + part
    return np.conj(total)


def _newton_by_blocks(table, correction) -> np.ndarray:
    out = table.copy()
    for rows in _quarter_steps(*table.shape):
        out[rows] -= out[rows] @ correction
    return out


class _CountedProducts(np.ndarray):
    """A row block that records the shape of each product taken of it in ``products``."""

    products: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [x.view(np.ndarray) if isinstance(x, _CountedProducts) else x for x in inputs]
        if ufunc is np.matmul:
            _CountedProducts.products.append((inputs[0].shape[0], inputs[1].shape[1]))
        return getattr(ufunc, method)(*inputs, **kwargs)


def _tile_products(table) -> tuple[np.ndarray, list]:
    """The :func:`numerics.block_gram` of ``table`` as one block, and its product shapes."""
    _CountedProducts.products = []
    gram = numerics.block_gram(iter([np.ascontiguousarray(table).view(_CountedProducts)]))
    return gram, _CountedProducts.products


class TestNodeSumBits:
    """The node sums keep the bits of their block order at every block edge."""

    @pytest.mark.parametrize("shape", _BLOCK_EDGES, ids=[f"{r}x{c}" for r, c in _BLOCK_EDGES])
    @pytest.mark.parametrize("unit", [False, True], ids=["weighted", "unit"])
    def test_node_sums_are_bitwise_the_block_sums(self, rng, shape, unit):
        rows, cols = shape
        table = complex_rng_matrix(rng, rows, cols)
        weights = np.ones(rows) if unit else rng.uniform(0.25, 2.5, rows)
        left = complex_rng_matrix(rng, rows, 3)
        correction = 1e-3 * complex_rng_matrix(rng, cols, cols)
        pairs = [
            (numerics.gram(table, weights), _gram_by_blocks(table, weights)),
            (numerics.gram(table), _gram_by_blocks(table)),
            (numerics.weighted_gram(left, weights, table),
             _weighted_gram_by_blocks(left, weights, table)),
            (numerics.weighted_gram(table, weights, table),
             _weighted_gram_by_blocks(table, weights, table)),
        ]
        updated = table.copy()
        numerics.newton_update(updated, correction)
        pairs.append((updated, _newton_by_blocks(table, correction)))
        for got, expected in pairs:
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(512, 64), (1024, 128), (320, 40)])
    def test_a_block_of_at_least_8_rows_a_component_is_one_tile(self, rng, shape):
        table = complex_rng_matrix(rng, *shape)
        gram, products = _tile_products(table)
        assert products == [(2 * shape[1], 2 * shape[1])]
        assert gram.tobytes() == _gram_by_blocks(table).tobytes()

    @pytest.mark.parametrize("shape", [(0, 32), (1, 32), (7, 32), (100, 17), (3, 1)])
    def test_at_most_32_components_are_one_tile(self, rng, shape):
        table = complex_rng_matrix(rng, *shape)
        gram, products = _tile_products(table)
        assert products == [(2 * shape[1], 2 * shape[1])]
        assert gram.tobytes() == _gram_by_blocks(table).tobytes()

    @pytest.mark.parametrize("shape", [(40, 128), (256, 64), (128, 128)])
    def test_a_block_of_at_most_a_quarter_block_is_one_product(self, rng, shape):
        # BLOCK_ENTRIES // 4 entries or fewer: tiles would cost more time than they save
        table = complex_rng_matrix(rng, *shape)
        gram, products = _tile_products(table)
        assert products == [(2 * shape[1], 2 * shape[1])]
        assert gram.tobytes() == _gram_by_blocks(table).tobytes()

    @pytest.mark.parametrize("shape", [(256, 256), (512, 128), (300, 256), (200, 128)])
    def test_tiles_are_bitwise_the_one_product(self, rng, shape):
        table = complex_rng_matrix(rng, *shape)
        gram, products = _tile_products(table)
        # several tiles, each product at most a quarter of the block's floats
        # or, in a block too short for that, one of 32 components
        assert len(products) > 1
        assert all(rows * cols <= max(table.size / 2, 64 * 64) for rows, cols in products)
        assert gram.tobytes() == _gram_by_blocks(table).tobytes()

    @pytest.mark.parametrize("shape", [(700, 97), (513, 513)])
    def test_tiles_stay_within_the_certificate_slack(self, rng, shape):
        rows, cols = shape
        table = complex_rng_matrix(rng, rows, cols)
        gram, products = _tile_products(table)
        reference = _gram_by_blocks(table)
        assert len(products) > 1
        assert np.array_equal(gram, gram.conj().T)
        slack = 4 * (rows + cols) * np.finfo(float).eps * np.trace(reference).real
        assert np.max(np.abs(gram - reference)) <= slack


class TestSquareOperatorMemory:
    """A square frame operator's steps hold its block, one d x d operator and small tiles."""

    D = 256

    def test_frame_bounds_of_a_square_family(self):
        frame_bounds(build_affine(self.D, self.D))
        report, peak = traced_peak(lambda: frame_bounds(build_affine(self.D, self.D)))
        assert report.redundancy == 0 and report.degenerate_zero_redundancy
        assert peak < 2.5 * self.D**2 * 16

    def test_hermitian_eig_holds_no_copy(self, rng):
        # two blocks of a quarter of the rows at most, and a modulus of one
        for dim, bound in ((64, 0.8), (128, 0.8), (self.D, 0.7)):
            m = complex_rng_matrix(rng, dim, dim)
            m += m.conj().T
            numerics.hermitian_eig(m, vectors=False)
            _, peak = traced_peak(lambda: numerics.hermitian_eig(m, vectors=False))
            assert peak < bound * m.nbytes, dim


class TestAdopt:
    def test_frozen_owning_table_is_adopted(self, rng):
        table = numerics.freeze(complex_rng_matrix(rng, 5, 3))
        assert numerics.adopt(table) is table

    @pytest.mark.parametrize("make", COPIED_TABLES.values(), ids=COPIED_TABLES.keys())
    def test_anything_else_is_copied(self, rng, make):
        table = make(complex_rng_matrix(rng, 5, 3))
        kept = numerics.adopt(table)
        assert kept is not table and not np.shares_memory(kept, table)
        assert kept.dtype == np.complex128 and kept.flags.c_contiguous and kept.flags.owndata
        assert not kept.flags.writeable
        np.testing.assert_array_equal(kept, table)

    def test_list_is_copied(self):
        kept = numerics.adopt([[1, 2j]])
        assert kept.dtype == np.complex128 and not kept.flags.writeable

    def test_freeze_hands_over(self, rng):
        table = complex_rng_matrix(rng, 4, 2)
        assert numerics.freeze(table) is table and not table.flags.writeable
        assert numerics.adopt(table) is table


class TestEigenvaluesAlone:
    """Bounds-only verdicts take eigenvalues, never eigenvectors."""

    @pytest.fixture(autouse=True)
    def _no_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvectors taken for a bounds-only verdict")

        monkeypatch.setattr(np.linalg, "eigh", refuse)

    def test_frame_bounds(self, rng):
        report = frame_bounds(random_family(rng, 12, 4, weighted=True))
        assert report.classification is Classification.FRAME

    def test_semiframe_trend(self):
        builder = truncation_sequence(GallerySpec(kind=GalleryKind.TORUS), [2, 4])
        assert [size for size, _, _ in semiframe_trend(builder, [2, 4])] == [2, 4]

    def test_bessel_bound(self, rng):
        assert bessel_bound(random_family(rng, 12, 4, weighted=True)) > 0.0

    def test_frame_transfer(self, rng):
        psi = random_family(rng, 12, 3, weighted=True)
        phi = VectorFamily(space=psi.space, members=complex_rng_matrix(rng, 12, 3))
        report = frame_transfer(psi, phi, complex_rng_matrix(rng, 5, 3))
        assert report.predicted_lower <= report.lower * (1 + 1e-10)

    def test_point_evaluation_bounds(self, rng):
        # more functions than nodes take the span basis from an SVD, so the
        # only spectrum left is the coordinate frame operator's
        space = cell_space(rng.uniform(0.25, 2.5, 3))
        bound = point_evaluation_bounds(complex_rng_matrix(rng, 3, 5), space)
        assert bound.upper_bound > 0.0


class TestSvd:
    def test_zero_matrix(self):
        s = numerics.singular_values(np.zeros((3, 2)))
        np.testing.assert_allclose(s, 0.0)

    def test_unitary(self):
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        s = numerics.singular_values(q)
        np.testing.assert_allclose(s, [1.0, 1.0], atol=1e-14)

    def test_rank_one_outer_product(self):
        u = 2.0 * np.array([0.6, 0.8, 0.0])
        v = 3.0 * np.array([1.0, 0.0])
        a = np.outer(u, v.conj())
        s = numerics.singular_values(a)
        np.testing.assert_allclose(s[0], 6.0, atol=1e-12)
        np.testing.assert_allclose(s[1:], 0.0, atol=1e-12)


class TestWeightedSvd:
    def test_identity(self):
        basis, s, vh = numerics.weighted_svd(np.eye(4), np.ones(4))
        np.testing.assert_allclose(s, 1.0, atol=1e-14)
        np.testing.assert_allclose(basis @ vh, np.eye(4), atol=1e-14)

    def test_singular_diagonal(self):
        basis, s, vh = numerics.weighted_svd(np.diag([2.0, 0.0]), np.ones(2))
        assert basis.shape == (2, 1)
        np.testing.assert_allclose(s, [2.0], atol=1e-14)
        np.testing.assert_allclose(basis @ (s[:, None] * vh), np.diag([2.0, 0.0]), atol=1e-14)

    def test_tall_isometry(self, rng):
        # an isometry in the weighted pairing has unit singular values
        w = rng.uniform(0.25, 2.5, 7)
        q, _ = np.linalg.qr(complex_rng_matrix(rng, 7, 3))
        table = q / np.sqrt(w)[:, None]
        basis, s, vh = numerics.weighted_svd(table, w)
        np.testing.assert_allclose(s, 1.0, atol=1e-12)
        np.testing.assert_allclose(basis @ vh, table, atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9), cols=st.integers(1, 6))
    def test_basis_orthonormal_in_weights(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        inner = int(rng.integers(0, min(rows, cols) + 1))
        w = rng.uniform(0.25, 2.5, rows)
        table = complex_rng_matrix(rng, rows, inner) @ complex_rng_matrix(rng, inner, cols)
        basis, s, vh = numerics.weighted_svd(table, w)
        assert basis.shape == (rows, inner) and s.shape == (inner,) and vh.shape == (inner, cols)
        gram = basis.conj().T @ (w[:, None] * basis)
        np.testing.assert_allclose(gram, np.eye(inner), atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9), cols=st.integers(1, 6))
    def test_weighted_reconstruction(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.25, 2.5, rows)
        table = complex_rng_matrix(rng, rows, cols)
        basis, s, vh = numerics.weighted_svd(table, w)
        root = np.sqrt(w)[:, None]
        scale = float(np.max(np.abs(root * table)))
        rebuilt = root * (basis @ (s[:, None] * vh))
        np.testing.assert_allclose(rebuilt, root * table, rtol=0, atol=1e-13 * scale)

    def test_cut_follows_rank_tolerance(self, monkeypatch):
        table = np.diag([1.0, 1e-6])
        assert numerics.weighted_svd(table, np.ones(2))[1].size == 2
        monkeypatch.setenv(numerics.RANK_TOL_ENV, "1e-3")
        basis, s, vh = numerics.weighted_svd(table, np.ones(2))
        assert basis.shape == (2, 1) and s.tolist() == [1.0] and vh.shape == (1, 2)

    def test_zero_table_has_an_empty_basis(self):
        basis, s, vh = numerics.weighted_svd(np.zeros((5, 3), dtype=complex), np.ones(5))
        assert basis.shape == (5, 0) and s.shape == (0,) and vh.shape == (0, 3)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(6, 24), dim=st.integers(2, 6))
    def test_penrose_identities(self, seed, rows, dim):
        # cond(S) = 1e10: the left-inverse dual of this injective non-frame comes from
        # the SVD route, and its weighted rows are the pseudoinverse of the weighted
        # analysis table
        psi = conditioned_family(np.random.default_rng(seed), rows, dim, 1e-5)
        assert not numerics.frame_spectrum(frame_operator(psi)).is_frame()
        dual = lower_semiframe_dual(psi)
        root = np.sqrt(psi.space.weights)[:, None]
        a = root * psi.members.conj()
        p = (root * dual.members).T
        scale = float(np.max(np.abs(p)))
        np.testing.assert_allclose(p, np.linalg.pinv(a), rtol=0, atol=1e-10 * scale)
        assert np.max(np.abs(a @ p @ a - a)) <= 1e-10
        assert np.max(np.abs(p @ a @ p - p)) <= 1e-10 * scale
        assert np.max(np.abs((a @ p).conj().T - a @ p)) <= 1e-10
        assert np.max(np.abs((p @ a).conj().T - p @ a)) <= 1e-10

    def test_involution_on_full_rank(self, rng):
        # the left-inverse dual of the left-inverse dual is the family again
        psi = conditioned_family(rng, 16, 4, 1e-5)
        again = lower_semiframe_dual(lower_semiframe_dual(psi))
        scale = float(np.max(np.abs(psi.members)))
        np.testing.assert_allclose(again.members, psi.members, rtol=0, atol=1e-8 * scale)


def _block_rank(a, step=None) -> int:
    """:func:`numerics.block_rank` of ``a``, cut into blocks of ``step`` rows or its weighted rows."""
    a = np.asarray(a, dtype=np.complex128)
    if step is None:
        return numerics.block_rank(numerics.weighted_rows(a), a.shape)
    blocks = (a[start : start + step] for start in range(0, len(a) or 1, step))
    return numerics.block_rank(blocks, a.shape)


class TestRank:
    def test_zero(self):
        assert _block_rank(np.zeros((4, 4))) == 0

    def test_identity(self):
        assert _block_rank(np.eye(4)) == 4

    def test_generic_full_rank(self, rng):
        a = complex_rng_matrix(rng, 12, 5)
        # oracle: count singular values via an independent svd call
        s = np.linalg.svd(a, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0] * 12)) == 5
        assert _block_rank(a) == 5
        assert _block_rank(a, step=1) == 5


class TestRankCertificate:
    """The Gram certificate of full rank and the block count give exactly the SVD count."""

    @pytest.mark.parametrize("threshold", [None, "1e-3", "0.5"])
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        short=st.integers(1, 12),
        extra=st.integers(0, 36),
        tall=st.booleans(),
        kind=st.sampled_from(
            ["generic", "thin-product", "above-cutoff", "below-cutoff", "trace-band"]
        ),
        exponent=st.sampled_from([0, 600, -600, -530, 510]),
        step=st.integers(1, 16),
    )
    def test_equals_svd_count(
        self, monkeypatch, threshold, seed, short, extra, tall, kind, exponent, step
    ):
        if threshold is not None:
            monkeypatch.setenv(numerics.RANK_TOL_ENV, threshold)
        rng = np.random.default_rng(seed)
        rows, cols = (short + extra, short) if tall else (short, short + extra)
        if kind == "generic":
            a = complex_rng_matrix(rng, rows, cols)
        elif kind == "thin-product":
            inner = int(rng.integers(0, short))
            a = complex_rng_matrix(rng, rows, inner) @ complex_rng_matrix(rng, inner, cols)
        else:
            # unit singular values except the smallest, placed just off the
            # cutoff, or between it and sqrt(short) times it, where the trace
            # bound on sigma_max**2 leaves the count to block_rank
            cutoff = float(threshold or numerics.DEFAULT_RANK_RTOL) * max(rows, cols)
            s = np.ones(short)
            factors = {"above-cutoff": 1 + 1e-6, "below-cutoff": 1 - 1e-6}
            s[-1] = cutoff * factors.get(kind, (1 + short**0.5) / 2)
            u, _ = np.linalg.qr(complex_rng_matrix(rng, rows, short))
            v, _ = np.linalg.qr(complex_rng_matrix(rng, cols, short))
            a = (u * s) @ v.conj().T
        a = a * 2.0**exponent
        count = svd_count(a, float(threshold or numerics.DEFAULT_RANK_RTOL))
        # the Gram of the shorter side: for a wide table, the Gram of a^T
        with np.errstate(all="ignore"):
            shorter = numerics.gram(a if tall else a.T)
        certified = numerics.certifies_full_rank(shorter, a.shape)
        if certified:
            assert count == short
        if kind == "trace-band" and short >= 3 and s[-1] < 1:
            # (1 + sqrt(short)) / 2 < sqrt(short - 1): sigma_min**2 < cutoff**2 * trace
            assert not certified
        assert _block_rank(a) == _block_rank(a, step) == count

    def test_well_conditioned_table_needs_no_svd(self, rng, monkeypatch):
        space = unit_weight_space(512)
        a = VectorFamily(space=space, members=complex_rng_matrix(rng, 512, 32))
        deficient = complex_rng_matrix(rng, 512, 31) @ complex_rng_matrix(rng, 31, 32)
        deficient = VectorFamily(space=space, members=deficient)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert analysis_rank(a) == 32
        with pytest.raises(SvdCalled):
            analysis_rank(deficient)

    def test_well_conditioned_redundancy_takes_no_eigenvalues(self, rng):
        family = random_family(rng, 512, 32, weighted=True)
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
                assert redundancy(family) == 512 - 32
        assert eigvalsh.call_count == 0
        assert cholesky.call_count == 1

    @pytest.mark.parametrize(
        "a", [[[1e200]], [[1e308, 1.0], [1.0, 1e-300]]], ids=["square-overflows", "ill-scaled"]
    )
    def test_overflowing_gram_falls_back_silently(self, a):
        a = np.asarray(a, dtype=np.complex128)
        with np.errstate(all="ignore"):
            shorter = numerics.gram(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not numerics.certifies_full_rank(shorter, a.shape)
            assert _block_rank(a) == svd_count(a, numerics.DEFAULT_RANK_RTOL)


class TestRankPolicy:
    """The relative rank threshold, read from ``FRAMELAB_RANK_TOL`` at each rank decision."""

    def test_threshold_positive(self, monkeypatch):
        monkeypatch.setenv(numerics.RANK_TOL_ENV, "0")
        message = "FRAMELAB_RANK_TOL must be a finite positive number, got '0'"
        with pytest.raises(ValidationError, match=message):
            analysis_rank(onb_family(2))
        with pytest.raises(ValidationError, match=message):
            _block_rank(np.eye(2))

    @pytest.mark.parametrize("threshold", [float("inf"), float("-inf"), float("nan")])
    def test_threshold_finite(self, monkeypatch, threshold):
        monkeypatch.setenv(numerics.RANK_TOL_ENV, str(threshold))
        message = f"must be a finite positive number, got '{threshold}'"
        with pytest.raises(ValidationError, match=message):
            analysis_rank(onb_family(2))
        with pytest.raises(ValidationError, match=message):
            _block_rank(np.eye(2))

    def test_custom_threshold_changes_rank(self, monkeypatch):
        a = np.diag([1.0, 1e-6])
        family = VectorFamily(space=unit_weight_space(2), members=a)
        assert _block_rank(a) == analysis_rank(family) == 2
        monkeypatch.setenv(numerics.RANK_TOL_ENV, "1e-3")
        assert _block_rank(a) == analysis_rank(family) == 1
        assert numerics.weighted_svd(a, np.ones(2))[1].size == 1

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(numerics.RANK_TOL_ENV, "1e-3")
        assert numerics.rank_cutoff(np.array([2.0]), (3, 1)) == 1e-3 * 2.0 * 3
        monkeypatch.setenv(numerics.RANK_TOL_ENV, "junk")
        with pytest.raises(ValidationError, match="finite positive number, got 'junk'"):
            numerics.rank_cutoff(np.array([2.0]), (3, 1))

    def test_environment_infinity_refused(self, monkeypatch):
        monkeypatch.setenv(numerics.RANK_TOL_ENV, "inf")
        with pytest.raises(ValidationError, match="finite positive number, got 'inf'"):
            numerics.rank_cutoff(np.array([2.0]), (3, 1))

    def test_environment_default(self, monkeypatch):
        monkeypatch.delenv(numerics.RANK_TOL_ENV, raising=False)
        assert numerics.rank_cutoff(np.array([1.0]), (1, 1)) == numerics.DEFAULT_RANK_RTOL


def test_condition_number_of_singular_matrix_is_infinite():
    psi = onb_family(2)
    phi = VectorFamily(space=unit_weight_space(2), members=np.diag([4.0, 2.0]))
    assert resolution_operator(psi, phi).condition == 2.0
    zero = VectorFamily(space=unit_weight_space(2), members=np.zeros((2, 2)))
    report = resolution_operator(psi, zero)
    assert report.condition == float("inf") and not report.invertible


@pytest.mark.parametrize(
    "layout",
    [
        lambda a: a,
        np.asfortranarray,
        lambda a: a[::2, 1:],
        lambda a: a.T,
        lambda a: a[2],
        lambda a: a[:0],
    ],
    ids=["c-order", "fortran-order", "sliced", "transposed", "row", "empty"],
)
def test_complex_pairs_match_per_entry_floats(rng, layout):
    a = complex_rng_matrix(rng, 5, 4)
    a[0, 0] = complex(-0.0, 0.0)
    a[2, 1] = complex(0.0, -0.0)
    a[4, 3] = complex(-0.0, -0.0)
    view = layout(a)
    oracle = [[float(z.real), float(z.imag)] for z in view.ravel()]
    # json text tells -0.0 from 0.0, as the written reports do
    assert json.dumps(numerics.complex_pairs(view).tolist()) == json.dumps(oracle)


class TestFrameSpectrum:
    def test_bounds_are_extreme_eigenvalues(self, rng):
        a = complex_rng_matrix(rng, 6, 4)
        op = a.conj().T @ a
        spectrum = numerics.frame_spectrum(op)
        exact = np.linalg.eigvalsh(op)
        assert spectrum.lower == pytest.approx(exact[0], rel=1e-10)
        assert spectrum.upper == pytest.approx(exact[-1], rel=1e-10)
        v = spectrum.vectors
        np.testing.assert_allclose(v @ np.diag(spectrum.values) @ v.conj().T, op, atol=1e-12)

    def test_negative_roundoff_clamped(self):
        spectrum = numerics.frame_spectrum(np.diag([-1e-18, 2.0]))
        assert spectrum.lower == 0.0 and spectrum.upper == 2.0
        assert spectrum.values[0] == -1e-18

    def test_refusal_boundary_is_inclusive(self):
        with pytest.raises(NotAFrameError, match="below tolerance 1e-08"):
            numerics.require_frame(np.diag([1e-8, 1.0]))
        assert numerics.require_frame(np.diag([2e-8, 1.0])).lower == 2e-8
        with pytest.raises(NotAFrameError):
            numerics.require_frame(np.zeros((2, 2)))
