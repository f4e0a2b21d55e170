import csv
import io
import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import codec, numerics, rkhs
from framelab.errors import (
    DimensionMismatchError,
    NotAFrameError,
    NotOrthonormalError,
    PairDegenerateError,
    ValidationError,
)
from framelab.frames import VectorFamily, analysis_matrix, analysis_rank, kernel_matrix
from framelab.gallery import build_torus
from framelab.measure import DiscretizedSpace, counting_space, unit_segment_space
from framelab.rkhs import (
    KernelTable,
    bessel_pointwise_check,
    blowup_experiment,
    function_matrix,
    kernel_from_onb,
    kernel_from_pair_report,
    kernel_of_span,
    mu_orthonormal_basis,
    point_evaluation_bounds,
)

from conftest import (
    COPIED_TABLES, cell_space, complex_rng_matrix, no_svd, random_family, traced_peak,
    unit_weight_space,
)


def random_span_basis(rng, space, dim):
    raw = complex_rng_matrix(rng, space.size, dim)
    return mu_orthonormal_basis(raw, space)


def modified_gram_schmidt(functions, space, drop_tol=1e-12):
    """Reference basis: modified Gram-Schmidt, one axpy per kept column, run twice."""
    b = function_matrix(functions, space)
    w = space.weights
    scale = max(space.norm(b[:, i]) for i in range(b.shape[1]))
    columns = []
    for i in range(b.shape[1]):
        v = b[:, i].copy()
        for _ in range(2):
            for q in columns:
                v -= np.sum(w * v * np.conj(q)) * q
        nv = space.norm(v)
        if nv > drop_tol * scale:
            columns.append(v / nv)
    return np.column_stack(columns)


@st.composite
def dependent_systems(draw):
    """Function systems with dependent, duplicated, nearly parallel, zero and tiny columns.

    ``rank`` independent random columns are mixed into the other columns, so
    each mixed, duplicated, zero or tiny column lies in their span; a nearly
    parallel column leaves it by ``1e-6`` of its norm.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rows = draw(st.integers(1, 12))
    rank = draw(st.integers(1, rows))
    extra = draw(
        st.lists(st.sampled_from(["mix", "duplicate", "near", "zero", "tiny"]), max_size=6)
    )
    rng = np.random.default_rng(seed)
    space = cell_space(rng.uniform(0.25, 2.5, size=rows))
    base = complex_rng_matrix(rng, rows, rank)
    columns = [base[:, j] for j in range(rank)]
    for kind in extra:
        pick = int(rng.integers(len(columns)))
        if kind == "mix":
            columns.append(base @ complex_rng_matrix(rng, rank, 1)[:, 0])
        elif kind == "duplicate":
            columns.append(columns[pick].copy())
        elif kind == "near":
            # kept, though its Gram is too ill-conditioned for the eigenpair route
            columns.append(columns[pick] + 1e-6 * complex_rng_matrix(rng, rows, 1)[:, 0])
        elif kind == "zero":
            columns.append(np.zeros(rows, dtype=complex))
        else:
            columns.append(1e-14 * columns[pick])
    order = rng.permutation(len(columns))
    return np.column_stack([columns[j] for j in order]), space


@st.composite
def low_rank_tables(draw):
    """Products of random ``rows x rank`` and ``rank x cols`` factors, wide tables included."""
    seed = draw(st.integers(0, 2**32 - 1))
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    rank = draw(st.integers(1, min(rows, cols)))
    rng = np.random.default_rng(seed)
    space = cell_space(rng.uniform(0.25, 2.5, size=rows))
    return complex_rng_matrix(rng, rows, rank) @ complex_rng_matrix(rng, rank, cols), space


class TestFunctionMatrix:
    def test_list_of_functions(self):
        space = unit_weight_space(3)
        out = function_matrix([np.ones(3), np.zeros(3)], space)
        assert out.shape == (3, 2)

    def test_column_array_passthrough(self):
        space = unit_weight_space(3)
        cols = np.arange(6, dtype=float).reshape(3, 2)
        np.testing.assert_allclose(function_matrix(cols, space), cols)

    def test_wrong_length(self):
        space = unit_weight_space(3)
        with pytest.raises(DimensionMismatchError):
            function_matrix([np.ones(4)], space)

    def test_single_function_becomes_one_column(self):
        out = function_matrix(np.arange(3.0), unit_weight_space(3))
        np.testing.assert_array_equal(out, np.arange(3.0)[:, None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_values_refused(self, bad):
        with pytest.raises(ValidationError, match="^function values must be finite$"):
            function_matrix([np.array([1.0, bad, 0.0])], unit_weight_space(3))


class TestMuOrthonormalBasis:
    def test_zero_span_refused(self):
        with pytest.raises(ValidationError, match="^function system spans only the zero space$"):
            mu_orthonormal_basis(np.zeros((4, 2)), unit_weight_space(4))

    def test_orthonormal_input_unchanged(self, rng):
        # the basis is unique only up to a unitary; the projector q q^H is not
        space = cell_space(rng.uniform(0.3, 1.5, 6))
        q = random_span_basis(rng, space, 3)
        again = mu_orthonormal_basis(q, space)
        np.testing.assert_allclose(again @ again.conj().T, q @ q.conj().T, atol=1e-12)

    def test_orthonormality(self, rng):
        space = cell_space(rng.uniform(0.3, 1.5, 8))
        q = random_span_basis(rng, space, 4)
        w = space.weights
        gram = q.conj().T @ (w[:, None] * q)
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-13)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dependent_systems())
    def test_matches_modified_gram_schmidt(self, case):
        functions, space = case
        reference = modified_gram_schmidt(functions, space)
        q = mu_orthonormal_basis(functions, space)
        # the same span survives; its projector, unlike its basis, is unique
        assert q.shape == reference.shape
        np.testing.assert_allclose(q @ q.conj().T, reference @ reference.conj().T, atol=1e-9)
        w = space.weights
        np.testing.assert_allclose(q.conj().T @ (w[:, None] * q), np.eye(q.shape[1]), atol=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(low_rank_tables(), dependent_systems()))
    def test_orthonormal_at_the_analysis_rank(self, case):
        functions, space = case
        q = mu_orthonormal_basis(functions, space)
        # F is the weighted analysis table of the family with members conj(F)
        rank = analysis_rank(VectorFamily(space=space, members=functions.conj()))
        assert q.shape == (space.size, rank)
        w = space.weights
        np.testing.assert_allclose(q.conj().T @ (w[:, None] * q), np.eye(rank), atol=1e-12)
        # the projector q q^H W fixes every function of the system
        scale = max(1.0, float(np.max(np.abs(functions))))
        projected = q @ (q.conj().T @ (w[:, None] * functions))
        np.testing.assert_allclose(projected, functions, atol=1e-9 * scale)

    @pytest.mark.parametrize("ratio", [1.0, 1.01e-4], ids=["cond-1", "cond-9.8e7"])
    def test_frame_gram_needs_no_svd(self, rng, monkeypatch, ratio):
        # sigma_min / sigma_max of sqrt(w) F; at a Gram condition just inside
        # 1 / FRAME_RTOL the Newton step keeps the defect at rounding
        space = cell_space(rng.uniform(0.3, 1.5, 512))
        span = random_span_basis(rng, space, 32)
        unitary, _ = np.linalg.qr(complex_rng_matrix(rng, 32, 32))
        functions = span @ (np.geomspace(1.0, ratio, 32)[:, None] * unitary)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        q = mu_orthonormal_basis(functions, space)
        w = space.weights
        np.testing.assert_allclose(q.conj().T @ (w[:, None] * q), np.eye(32), atol=1e-12)

    @pytest.mark.parametrize(
        "tolerance, offset, kept",
        [(None, 1e-6, 3), ("1e-3", 1e-6, 2), ("1e-2", 1e-3, 2)],
        ids=["default", "1e-3", "frame-gram-below-the-cutoff"],
    )
    def test_rank_tolerance_decides_a_near_parallel_column(
        self, rng, monkeypatch, tolerance, offset, kept
    ):
        space = cell_space(rng.uniform(0.3, 1.5, 8))
        base = random_span_basis(rng, space, 2)
        near = base[:, 0] + offset * random_span_basis(rng, space, 1)[:, 0]
        if tolerance is not None:
            monkeypatch.setenv("FRAMELAB_RANK_TOL", tolerance)
        q = mu_orthonormal_basis(np.column_stack([base, near]), space)
        assert q.shape[1] == kept
        # the eigenpairs serve only a frame's Gram that certifies full rank
        w = space.weights
        np.testing.assert_allclose(q.conj().T @ (w[:, None] * q), np.eye(kept), atol=1e-12)

    def test_dependent_columns_dropped(self, rng):
        space = unit_weight_space(5)
        base = complex_rng_matrix(rng, 5, 2)
        stacked = np.hstack([base, base[:, :1]])
        q = mu_orthonormal_basis(stacked, space)
        assert q.shape[1] == 2

    def test_overflowing_gram_takes_the_svd(self):
        # 1e200 squared leaves the float range; the SVD of sqrt(w) F does not
        space = counting_space(2)
        functions = np.array([[1e200], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = mu_orthonormal_basis(functions, space)
            basis, _, _ = numerics.weighted_svd(functions, space.weights)
        np.testing.assert_array_equal(q, basis)
        assert q.shape == (2, 1)


class TestKernelFromOnb:
    def test_delta_basis_identity(self):
        space = unit_weight_space(3)
        table = kernel_from_onb(np.eye(3, dtype=complex), space)
        np.testing.assert_allclose(table.entries, np.eye(3), atol=1e-14)

    def test_step_basis_diagonal(self):
        space = unit_segment_space(5)
        table = kernel_from_onb(np.sqrt(5) * np.eye(5, dtype=complex), space)
        np.testing.assert_allclose(table.diagonal, 5.0, atol=1e-12)

    def test_fourier_pair_on_four_nodes(self):
        space = unit_segment_space(4)
        points = np.array([node.point for node in space.nodes])
        basis = np.column_stack(
            [np.exp(2j * np.pi * n * points) for n in (0, 1)]
        )
        table = kernel_from_onb(basis, space)
        expected = sum(
            np.exp(2j * np.pi * n * (points[:, None] - points[None, :])) for n in (0, 1)
        )
        np.testing.assert_allclose(table.entries, expected, atol=1e-13)
        np.testing.assert_allclose(table.diagonal, 2.0, atol=1e-13)

    def test_rejects_non_orthonormal(self):
        space = unit_weight_space(3)
        with pytest.raises(NotOrthonormalError):
            kernel_from_onb(2.0 * np.eye(3, dtype=complex), space)

    def test_reproducing_identity(self, rng):
        space = cell_space(rng.uniform(0.4, 1.6, 7))
        q = random_span_basis(rng, space, 3)
        table = kernel_from_onb(q, space)
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = q @ coeffs
        for j in range(space.size):
            assert abs(space.inner(f, table.section(j)) - f[j]) <= 1e-10

    def test_kernel_uniqueness_across_bases(self, rng):
        space = cell_space(rng.uniform(0.4, 1.6, 8))
        q = random_span_basis(rng, space, 3)
        unitary, _ = np.linalg.qr(complex_rng_matrix(rng, 3, 3))
        table_a = kernel_from_onb(q, space)
        table_b = kernel_from_onb(q @ unitary, space)
        np.testing.assert_allclose(table_a.entries, table_b.entries, atol=1e-10)


class TestProjectionConsistency:
    def test_span_kernel_equals_frame_kernel(self, rng):
        family = random_family(rng, 9, 4, weighted=True)
        table_span = kernel_of_span(analysis_matrix(family), family.space)
        table_frame = kernel_matrix(family)
        np.testing.assert_allclose(table_span.entries, table_frame.entries, atol=1e-9)


class TestKernelFromPair:
    def test_onb_pair_with_identity(self, rng):
        space = cell_space(rng.uniform(0.4, 1.6, 7))
        q = random_span_basis(rng, space, 3)
        table = kernel_from_pair_report(q, q, space).table
        np.testing.assert_allclose(table.entries, kernel_from_onb(q, space).entries, atol=1e-11)

    def test_parseval_family_with_identity(self, rng):
        space = cell_space(rng.uniform(0.4, 1.6, 8))
        q = random_span_basis(rng, space, 3)
        unitary_tall, _ = np.linalg.qr(complex_rng_matrix(rng, 5, 5))
        parseval = q @ unitary_tall[:3, :]  # 5 functions, Parseval for the span
        table = kernel_from_pair_report(parseval, parseval, space).table
        np.testing.assert_allclose(table.entries, kernel_from_onb(q, space).entries, atol=1e-10)

    def test_generic_pair_default_operator(self, rng):
        space = cell_space(rng.uniform(0.4, 1.6, 10))
        q = random_span_basis(rng, space, 4)
        first = q @ (complex_rng_matrix(rng, 4, 4) + 0.5 * np.eye(4))
        second = q @ (complex_rng_matrix(rng, 4, 4) + 0.5 * np.eye(4))
        report = kernel_from_pair_report(first, second, space)
        np.testing.assert_allclose(
            report.table.entries, kernel_of_span(q, space).entries, atol=1e-10
        )
        assert report.order_disagreement <= 1e-10
        assert report.inverse_residual <= 1e-10
        assert report.span_dim == 4

    def test_ill_conditioned_first_system_keeps_the_span(self, rng):
        # a first system of condition 1e5 must not add a rounding direction to the joint span
        dim = 4
        for _ in range(5):
            space = cell_space(rng.uniform(0.3, 2.0, 24))
            span = random_span_basis(rng, space, dim)
            u, _ = np.linalg.qr(complex_rng_matrix(rng, dim, dim))
            v, _ = np.linalg.qr(complex_rng_matrix(rng, dim, dim))
            first = span @ (u * np.logspace(0, -5, dim)) @ v.conj().T
            second = span @ (complex_rng_matrix(rng, dim, dim) + 0.5 * np.eye(dim))
            report = kernel_from_pair_report(first, second, space)
            assert report.span_dim == dim
            reference = kernel_of_span(span, space).entries
            scale = float(np.max(np.abs(reference)))
            np.testing.assert_allclose(report.table.entries, reference, atol=1e-9 * scale)

    def test_degenerate_pair_rejected(self, rng):
        space = unit_weight_space(6)
        q = random_span_basis(rng, space, 2)
        first = np.column_stack([q[:, 0], q[:, 0]])
        second = np.column_stack([q[:, 1], -q[:, 1]])
        with pytest.raises(PairDegenerateError):
            kernel_from_pair_report(first, second, space)

    def test_unequal_lengths_refused(self, rng):
        space = unit_weight_space(6)
        q = random_span_basis(rng, space, 3)
        message = "^paired systems need equal length, got 3 and 2$"
        with pytest.raises(DimensionMismatchError, match=message):
            kernel_from_pair_report(q, q[:, :2], space)

    def test_span_pair_operator_shape(self, rng):
        # an orthonormal basis paired with itself resolves its span by the identity
        space = unit_weight_space(6)
        q = random_span_basis(rng, space, 2)
        report = kernel_from_pair_report(q, q, space)
        assert report.span_dim == 2
        assert report.inverse_residual <= 1e-12
        assert report.condition == pytest.approx(1.0)
        np.testing.assert_allclose(
            report.table.entries, kernel_of_span(q, space).entries, atol=1e-12
        )


class TestBesselPointwise:
    def test_onb_attains_equality(self, rng):
        space = cell_space(rng.uniform(0.4, 1.6, 7))
        q = random_span_basis(rng, space, 3)
        table = kernel_from_onb(q, space)
        verdict = bessel_pointwise_check(q, table, upper_bound=1.0)
        np.testing.assert_allclose(verdict.sums, table.diagonal, atol=1e-12)
        assert verdict.all_upper_ok

    def test_doubled_system_doubles_the_sums(self, rng):
        space = cell_space(rng.uniform(0.4, 1.6, 7))
        q = random_span_basis(rng, space, 3)
        doubled = np.hstack([q, q])
        table = kernel_from_onb(q, space)
        verdict = bessel_pointwise_check(doubled, table, upper_bound=2.0)
        np.testing.assert_allclose(verdict.sums, 2.0 * table.diagonal, atol=1e-12)
        assert verdict.all_upper_ok

    def test_violation_reported(self, rng):
        space = unit_weight_space(4)
        table = kernel_from_onb(np.eye(4, dtype=complex), space)
        too_big = 3.0 * np.eye(4, dtype=complex)
        verdict = bessel_pointwise_check(too_big, table, upper_bound=1.0)
        assert not verdict.all_upper_ok


class TestPointEvaluationBounds:
    def test_onb_bound_is_diagonal_and_tight(self, rng):
        space = cell_space(rng.uniform(0.4, 1.6, 7))
        q = random_span_basis(rng, space, 3)
        table = kernel_from_onb(q, space)
        bound = point_evaluation_bounds(q, space)
        np.testing.assert_allclose(bound.constants**2, table.diagonal, atol=1e-10)
        # tightness: the normalized kernel section attains the bound
        j = int(np.argmax(table.diagonal))
        section = table.section(j)
        f = section / space.norm(section)
        assert abs(f[j]) == pytest.approx(bound.constants[j], rel=1e-9)

    def test_quadratic_homogeneity(self, rng):
        space = cell_space(rng.uniform(0.4, 1.6, 6))
        q = random_span_basis(rng, space, 2)
        base = point_evaluation_bounds(q, space)
        scaled = point_evaluation_bounds(3.0 * q, space)
        np.testing.assert_allclose(scaled.constants, 9.0 * base.constants, rtol=1e-10)
        # the bound still dominates: |f(x)| over unit f is scale free, and the
        # squared amplitudes tripled both the sums and the upper frame bound
        assert scaled.upper_bound == pytest.approx(9.0 * base.upper_bound, rel=1e-10)

    def test_monte_carlo_domination(self, rng):
        space = cell_space(rng.uniform(0.4, 1.6, 8))
        span = random_span_basis(rng, space, 3)
        family = span @ (complex_rng_matrix(rng, 3, 5))
        bound = point_evaluation_bounds(family, space)
        for _ in range(100):
            coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            f = span @ coeffs
            f = f / space.norm(f)
            assert np.all(np.abs(f) <= bound.constants + 1e-9)

    def test_degenerate_family_rejected(self):
        space = unit_weight_space(5)
        nudged = np.ones(5, dtype=complex)
        nudged[0] += 1e-7
        with pytest.raises(NotAFrameError):
            point_evaluation_bounds(np.column_stack([np.ones(5), nudged]), space)


class TestBlowup:
    def test_small_refinements(self):
        points = blowup_experiment([2, 4, 8])
        for n, diag in points:
            assert diag == pytest.approx(n, abs=1e-9)

    def test_requires_ascending(self):
        with pytest.raises(ValidationError):
            blowup_experiment([8, 4])
        for repeated in ([4, 4], [2, 8, 8]):
            with pytest.raises(ValidationError, match="^refinement counts must be ascending$"):
                blowup_experiment(repeated)

    @pytest.mark.parametrize("sizes", [[0], [-1], [0, 2]])
    def test_requires_positive(self, sizes):
        with pytest.raises(ValidationError, match="^refinement counts must be positive$"):
            blowup_experiment(sizes)

    def test_refinement_beyond_any_array_refused(self):
        with pytest.raises(ValidationError, match="^cells_per_segment must be at most"):
            blowup_experiment([2**63])

    def test_diagonal_flat_across_nodes(self):
        # the O(n) maxima against the dense kernel of the step basis, bit for bit
        sizes = [1, 2, 3, 16, 17]
        for (n, largest), size in zip(blowup_experiment(sizes), sizes):
            table = kernel_from_onb(np.sqrt(size) * np.eye(size, dtype=complex),
                                    unit_segment_space(size))
            np.testing.assert_allclose(table.diagonal, size, atol=1e-12)
            assert (n, largest) == (size, float(np.max(table.diagonal)))


class TestKernelTable:
    def test_size_validation(self):
        space = unit_weight_space(3)
        with pytest.raises(ValidationError):
            KernelTable(space=space, left=np.eye(2), right=np.eye(2))

    def test_apply_is_weighted(self, rng):
        space = cell_space([2.0, 0.5])
        table = KernelTable(space=space, left=np.eye(2, dtype=complex), right=np.eye(2))
        np.testing.assert_allclose(table.apply([1.0, 1.0]), [2.0, 0.5])

    def test_section_bounds(self):
        space = unit_weight_space(2)
        table = KernelTable(space=space, left=np.eye(2, dtype=complex), right=np.eye(2))
        with pytest.raises(ValidationError):
            table.section(5)

    def test_csv_and_json_exports(self, rng):
        family = random_family(rng, 3, 2)
        table = kernel_matrix(family)
        rows = list(csv.reader(io.StringIO(codec.kernel_csv_bytes(table).decode())))
        assert rows[0] == ["x", "y", "re", "im"] and len(rows) == 10
        payload = json.loads(codec.json_bytes(table.to_json()))
        assert payload["geometry"] == "plain"
        assert len(payload["entries"]) == 9

    def test_entries_are_not_cached(self):
        table = kernel_from_onb(np.eye(3, dtype=complex), unit_weight_space(3))
        assert table.entries is not table.entries
        assert "entries" not in vars(table)

    def test_factors_are_read_only_copies(self, rng):
        space = unit_weight_space(4)
        left = complex_rng_matrix(rng, 4, 2)
        table = KernelTable(space=space, left=left, right=left)
        before = table.entries
        left[0, 0] = 100.0
        np.testing.assert_array_equal(table.entries, before)
        assert not table.left.flags.writeable and not table.right.flags.writeable

    @pytest.mark.parametrize(
        "factors",
        [
            {"left": np.ones((3, 2)), "right": np.ones((3, 1))},
            {"left": np.ones((2, 2)), "right": np.ones((2, 2))},
            {"left": np.ones(3), "right": np.ones(3)},
            {"left": np.full((3, 2), np.nan), "right": np.ones((3, 2))},
            {"left": np.ones((3, 2)), "right": np.full((3, 2), np.inf)},
        ],
        ids=[
            "rank-mismatch", "node-mismatch", "one-dimensional", "nan-factor", "infinite-factor",
        ],
    )
    def test_malformed_factors_refused(self, factors):
        with pytest.raises(ValidationError):
            KernelTable(space=unit_weight_space(3), **factors)

    def test_overflowing_row_norms_refused(self):
        space = unit_weight_space(2)
        big = np.full((2, 1), 1e200, dtype=complex)
        with pytest.raises(ValidationError, match="overflow"):
            KernelTable(space=space, left=big, right=big)

    def test_extreme_but_finite_row_norms_accepted(self):
        # the squared left row norms overflow, the product of the norms does not
        space = unit_weight_space(2)
        left = np.full((2, 2), 1e160, dtype=complex)
        right = np.full((2, 2), 1e-160, dtype=complex)
        table = KernelTable(space=space, left=left, right=right)
        np.testing.assert_allclose(table.entries, 2.0, rtol=1e-12)


def random_factors(rng, rows, rank, hermitian):
    left = complex_rng_matrix(rng, rows, rank)
    right = left.copy() if hermitian else complex_rng_matrix(rng, rows, rank)
    return left, right


@st.composite
def factored_tables(draw):
    """Random factored tables with rank 1, rank n or a rank in between."""
    seed = draw(st.integers(0, 2**32 - 1))
    rows = draw(st.integers(1, 9))
    rank = draw(st.sampled_from([1, rows, max(1, rows // 2)]))
    hermitian = draw(st.booleans())
    induced = draw(st.booleans())
    rng = np.random.default_rng(seed)
    space = cell_space(rng.uniform(0.25, 2.5, size=rows))
    left, right = random_factors(rng, rows, rank, hermitian)
    geometry = None
    if induced:
        geometry = random_family(rng, rows, 2, weighted=False)
    table = KernelTable(space=space, left=left, right=right, geometry=geometry)
    return table, left @ right.conj().T, rng


class TestFactoredKernelTable:
    """The factored table against the dense oracle ``left @ right^H``."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(factored_tables())
    def test_matches_dense_oracle(self, case):
        table, dense, rng = case
        n = table.size
        w = table.space.weights
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        scale = max(float(np.max(np.abs(dense))), 1.0)
        np.testing.assert_allclose(table.apply(f), dense @ (w * f), atol=1e-12 * scale * n)
        np.testing.assert_allclose(table.diagonal, np.real(np.diag(dense)), atol=1e-13 * scale)
        for j in range(n):
            expected = dense[:, j] if table.geometry is None else dense[j, :]
            np.testing.assert_allclose(table.section(j), expected, atol=1e-13 * scale)
        oracle_gap = float(np.max(np.abs(dense - dense.conj().T)))
        oracle_scale = float(np.max(np.abs(dense)))
        assert table.is_hermitian() == (oracle_gap <= 1e-12 * max(oracle_scale, 1.0))
        np.testing.assert_array_equal(table.entries, dense)
        pairs = [[float(z.real), float(z.imag)] for z in dense.ravel()]
        assert table.to_json()["entries"].tolist() == pairs
        points = [node.point for node in table.space.nodes]
        rows = [(points[j], points[k], *pairs[j * n + k]) for j in range(n) for k in range(n)]
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([("x", "y", "re", "im"), *rows])
        assert codec.kernel_csv_bytes(table) == expected.getvalue().encode()

    def test_frozen_owning_factors_are_adopted(self, rng):
        left, right = (numerics.freeze(complex_rng_matrix(rng, 4, 2)) for _ in range(2))
        table = KernelTable(space=unit_weight_space(4), left=left, right=right)
        assert table.left is left and table.right is right

    def test_one_factor_is_kept_once(self, rng):
        factor = complex_rng_matrix(rng, 4, 2)
        table = KernelTable(space=unit_weight_space(4), left=factor, right=factor)
        assert table.left is table.right and not np.shares_memory(table.left, factor)

    @pytest.mark.parametrize("make", COPIED_TABLES.values(), ids=COPIED_TABLES.keys())
    def test_other_factors_are_copied(self, rng, make):
        left = make(complex_rng_matrix(rng, 4, 2))
        kept = left.copy()
        table = KernelTable(space=unit_weight_space(4), left=left, right=np.ones((4, 2)))
        assert not np.shares_memory(table.left, left) and not table.left.flags.writeable
        if left.flags.writeable:
            left[:] = 0.0
        np.testing.assert_array_equal(table.left, kept)

    def test_dense_table_round_trips(self, rng):
        space = unit_weight_space(4)
        dense = complex_rng_matrix(rng, 4, 4)
        table = KernelTable(space=space, left=dense, right=np.eye(4))
        np.testing.assert_array_equal(table.entries, dense)
        assert not table.is_hermitian()
        assert KernelTable(space=space, left=dense + dense.conj().T, right=np.eye(4)).is_hermitian()

    def test_hermitian_check_spans_row_blocks(self, rng, monkeypatch):
        # one asymmetric entry in the last row block still fails the check
        monkeypatch.setattr(numerics, "BLOCK_ENTRIES", 12)  # blocks of two rows
        space = unit_weight_space(6)
        dense = np.eye(6, dtype=complex)
        dense[5, 4] = 1e-6
        assert not KernelTable(space=space, left=dense, right=np.eye(6)).is_hermitian()

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 10])
    @pytest.mark.parametrize("entries", [1, 6, 20, 1 << 10])
    def test_row_blocks_tile_the_table(self, rng, rows, entries):
        left, right = random_factors(rng, rows, 2, hermitian=False)
        table = KernelTable(space=unit_weight_space(rows), left=left, right=right)
        blocks = list(table.row_blocks(entries))
        starts = [start for start, _, _ in blocks]
        stops = [stop for _, stop, _ in blocks]
        assert starts == [0] + stops[:-1] and stops[-1] == rows
        for start, stop, block in blocks:
            assert stop - start >= 2 or (start, stop) == (0, rows)
            assert block.shape == (stop - start, rows)
        np.testing.assert_array_equal(np.vstack([block for *_, block in blocks]), table.entries)

    def test_empty_table_has_no_row_blocks(self):
        empty = np.zeros((0, 2), dtype=complex)
        table = KernelTable(space=DiscretizedSpace(nodes=()), left=empty, right=empty)
        assert list(table.row_blocks(numerics.BLOCK_ENTRIES)) == []
        assert table.is_hermitian()
        assert codec.kernel_csv_bytes(table) == b"x,y,re,im\n"

    def test_frame_kernel_scales_with_rank_not_nodes(self):
        # n = 16384 nodes at rank 64: the dense table alone would take 4 GiB
        family = build_torus(64, 16384)
        n, d = family.members.shape
        start = time.perf_counter()

        def use_kernel():
            table = kernel_matrix(family)
            return table, table.apply(np.ones(n)), table.diagonal, table.section(n // 2)

        (table, once, diagonal, section), peak = traced_peak(use_kernel)
        elapsed = time.perf_counter() - start
        # the factor is the one n x d table the kernel holds
        assert peak < 1.5 * n * d * 16
        assert elapsed < 10.0
        # the kernel of a frame sums to the rank against the weights
        assert float(np.sum(family.space.weights * diagonal)) == pytest.approx(d, rel=1e-9)
        np.testing.assert_allclose(table.apply(once), once, atol=1e-9)
        assert section.shape == (n,) and np.all(np.isfinite(section))

    def test_span_kernel_scales_with_rank_not_nodes(self):
        # the span kernel of the same n = 16384 torus members stays within O(n d) memory
        family = build_torus(64, 16384)
        n, d = family.members.shape
        start = time.perf_counter()

        def use_kernel():
            table = kernel_of_span(family.members, family.space)
            return table, table.apply(np.ones(n)), table.diagonal

        (table, once, diagonal), peak = traced_peak(use_kernel)
        elapsed = time.perf_counter() - start
        assert peak < 4 * n * d * 16
        assert elapsed < 10.0
        assert float(np.sum(family.space.weights * diagonal)) == pytest.approx(d, rel=1e-9)
        np.testing.assert_allclose(table.apply(once), once, atol=1e-9)

    def test_pair_kernel_scales_with_rank_not_nodes(self):
        # a pair on n = 32768 nodes spanning r = 8 exponentials is checked on
        # its r x r span coordinates, never on an n x n table
        space = unit_segment_space(32768)
        n, r = space.size, 8
        span = np.exp(2j * np.pi * np.outer(space.points, np.arange(r)))
        rng = np.random.default_rng(8)
        first = span @ (complex_rng_matrix(rng, r, r) + 0.5 * np.eye(r))
        second = span @ (complex_rng_matrix(rng, r, r) + 0.5 * np.eye(r))
        start = time.perf_counter()
        report, peak = traced_peak(lambda: kernel_from_pair_report(first, second, space))
        elapsed = time.perf_counter() - start
        assert peak < 8 * n * r * 16
        assert elapsed < 10.0
        assert report.span_dim == r
        assert report.order_disagreement <= 1e-10
        assert report.inverse_residual <= 1e-10


class TestRefusedTolerances:
    @pytest.mark.parametrize("bound", [-1.0, float("nan"), float("inf")])
    def test_bessel_pointwise_upper_bound(self, bound):
        space = unit_weight_space(3)
        table = kernel_from_onb(np.eye(3, dtype=complex), space)
        with pytest.raises(ValidationError, match="upper_bound"):
            bessel_pointwise_check(np.eye(3, dtype=complex), table, bound)
