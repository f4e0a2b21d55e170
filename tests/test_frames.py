import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framelab import codec, numerics
from framelab.errors import (
    DimensionMismatchError,
    NotAFrameError,
    ValidationError,
)
from framelab.frames import (
    ROW_MATCH_TOL,
    Classification,
    VectorFamily,
    analysis,
    analysis_matrix,
    analysis_rank,
    canonical_dual,
    classify_trend,
    frame_bounds,
    frame_operator,
    kernel_matrix,
    redundancy,
    semiframe_trend,
    _equal_row_groups,
    split,
    synthesis,
)
from framelab.gallery import RootSource, build_affine, build_random, build_torus
from framelab.measure import DiscretizedSpace, Node, Provenance, unit_segment_space
from framelab.numerics import FRAME_RTOL

from conftest import (
    COPIED_TABLES,
    cell_space,
    complex_rng_matrix,
    onb_family,
    random_family,
    svd_count,
    traced_peak,
    unit_weight_space,
)


def mercedes_family():
    members = np.array(
        [[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]], dtype=complex
    )
    return VectorFamily(space=unit_weight_space(3), members=members)


class TestVectorFamily:
    def test_row_count_must_match_space(self):
        with pytest.raises(ValidationError):
            VectorFamily(space=unit_weight_space(3), members=np.eye(2))

    def test_members_read_only(self):
        family = onb_family(2)
        with pytest.raises(ValueError):
            family.members[0, 0] = 5.0

    def test_frozen_owning_table_is_adopted(self, rng):
        members = numerics.freeze(complex_rng_matrix(rng, 3, 2))
        assert VectorFamily(space=unit_weight_space(3), members=members).members is members

    @pytest.mark.parametrize("make", COPIED_TABLES.values(), ids=COPIED_TABLES.keys())
    def test_other_tables_are_copied(self, rng, make):
        members = make(complex_rng_matrix(rng, 3, 2))
        family = VectorFamily(space=unit_weight_space(3), members=members)
        assert not np.shares_memory(family.members, members)
        assert not family.members.flags.writeable
        np.testing.assert_array_equal(family.members, members)

    def test_writes_to_the_callers_table_never_reach_the_family(self, rng):
        members = complex_rng_matrix(rng, 3, 2)
        kept = members.copy()
        family = VectorFamily(space=unit_weight_space(3), members=members)
        members[:] = 0.0
        np.testing.assert_array_equal(family.members, kept)

    def test_json_round_trip(self, rng):
        family = random_family(rng, 5, 3, weighted=True)
        data = json.loads(codec.json_bytes(family.to_json()))
        back = VectorFamily.from_json(data)
        assert back.space == family.space
        np.testing.assert_allclose(back.members, family.members, atol=1e-15)

    @pytest.mark.parametrize(
        "members, message",
        [
            (np.ones(3), "members must be a 2-d table, got ndim=1"),
            (np.ones((3, 0)), "ambient dimension must be at least 1"),
        ],
        ids=["one-dimensional", "no-columns"],
    )
    def test_malformed_member_table_refused(self, members, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            VectorFamily(space=unit_weight_space(3), members=members)

    def test_decoded_table_is_exact_and_adopted(self):
        pairs = [[1, -0.0], [-0.0, 2.5], [10**30, -3], [0.1, 1e-300], [-7, 0], [2**53 + 1, 0.5]]
        data = {"space": unit_weight_space(3).to_json(), "dim": 2, "members": pairs}
        family = VectorFamily.from_json(data)
        expected = np.array([float(x) for pair in pairs for x in pair]).view(complex).reshape(3, 2)
        assert family.members.tobytes() == expected.tobytes()
        # decoded in the family's shape, so the family keeps the decoded array
        assert family.members.flags.owndata and family.members.base is None

    def test_from_json_holds_one_member_table(self, rng):
        # the table is decoded a block of numerics.BLOCK_ENTRIES values at a
        # time into the array the family adopts: one table plus about a
        # block; the parent's decoder held a float copy beside it (2.2 tables)
        rows, dim = 2048, 64
        members = complex_rng_matrix(rng, rows, dim)
        data = json.loads(json.dumps({
            "space": unit_weight_space(rows).to_json(),
            "dim": dim,
            "members": numerics.complex_pairs(members).tolist(),
        }))
        family, peak = traced_peak(lambda: VectorFamily.from_json(data))
        np.testing.assert_array_equal(family.members, members)
        assert peak < 1.7 * members.nbytes

    def test_profile_rows(self):
        family = mercedes_family()
        rows = list(family.profile_rows())
        assert len(rows) == 3
        for _, weight, sq in rows:
            assert weight == 1.0
            assert sq == pytest.approx(1.0)


class TestAnalysis:
    def test_onb_rows_give_coordinates(self):
        family = onb_family(2)
        np.testing.assert_allclose(analysis(family, [3.0, 4.0]), [3.0, 4.0])

    def test_zero_vector(self):
        family = onb_family(4)
        np.testing.assert_allclose(analysis(family, np.zeros(4)), 0.0)

    def test_hadamard_rows(self):
        members = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        family = VectorFamily(space=unit_weight_space(2), members=members.astype(complex))
        np.testing.assert_allclose(
            analysis(family, [1.0, 0.0]), [1 / np.sqrt(2), 1 / np.sqrt(2)]
        )

    def test_conjugation_sits_on_the_member_slot(self):
        members = np.array([[1j, 0.0]], dtype=complex)
        family = VectorFamily(space=unit_weight_space(1), members=members)
        # linear in the argument, conjugate-linear in the member
        np.testing.assert_allclose(analysis(family, [1.0, 0.0]), [-1j])
        np.testing.assert_allclose(analysis(family, [2j, 0.0]), [2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            analysis(onb_family(3), [1.0, 2.0])


class TestSynthesis:
    def test_unit_weights_onb(self):
        family = onb_family(2)
        np.testing.assert_allclose(synthesis(family, [1.0, 0.0]), [1.0, 0.0])

    def test_parseval_round_trip(self, rng):
        family = onb_family(5)
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        np.testing.assert_allclose(synthesis(family, analysis(family, f)), f, atol=1e-14)

    def test_weighted_sum(self):
        space = cell_space([2.0, 2.0])
        family = VectorFamily(space=space, members=np.eye(2, dtype=complex))
        np.testing.assert_allclose(synthesis(family, [1.0, 1.0]), [2.0, 2.0])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_adjoint_of_analysis(self, seed):
        rng = np.random.default_rng(seed)
        family = random_family(rng, 7, 3, weighted=True)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        lhs = family.space.inner(analysis(family, f), coeffs)
        rhs = np.vdot(synthesis(family, coeffs), f)  # <f, synthesis> in first-linear form
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestFrameOperator:
    def test_onb_identity(self):
        np.testing.assert_allclose(frame_operator(onb_family(3)), np.eye(3), atol=1e-15)

    def test_doubled_onb(self):
        members = np.repeat(np.eye(2, dtype=complex), 2, axis=0)
        family = VectorFamily(space=unit_weight_space(4), members=members)
        np.testing.assert_allclose(frame_operator(family), 2 * np.eye(2), atol=1e-15)

    def test_mercedes(self):
        np.testing.assert_allclose(
            frame_operator(mercedes_family()), 1.5 * np.eye(2), atol=1e-14
        )

    def test_counting_measure_reads_the_rows_in_place(self, monkeypatch):
        # every weight is 1, so sqrt(w) * members is the table itself: its
        # Gram takes row views with the bits of the weighted blocks
        family = build_random(2048, 128, seed=3)
        members, weights = family.members, family.space.weights
        step = numerics.gram_rows(family.dim)
        reference = numerics.block_gram(
            numerics.root_weighted(members[lo : lo + step], weights[lo : lo + step])
            for lo in range(0, family.size, step)
        )
        frame_operator(family)

        def scaled_copy(*args, **kwargs):
            raise AssertionError("rows copied to scale them by sqrt(1)")

        monkeypatch.setattr(numerics, "root_weighted", scaled_copy)
        operator, peak = traced_peak(lambda: frame_operator(family))
        assert peak <= 1.5 * 2**20
        assert np.array_equal(operator.view(np.uint64), np.conj(reference).view(np.uint64))

    def test_equals_synthesis_after_analysis(self, rng):
        family = random_family(rng, 6, 4, weighted=True)
        w = family.space.weights
        synthesis_map = family.members.T @ np.diag(w)
        composite = synthesis_map @ analysis_matrix(family)
        np.testing.assert_allclose(frame_operator(family), composite, atol=1e-12)


class TestFrameBounds:
    def test_onb(self):
        report = frame_bounds(onb_family(4))
        assert report.lower == pytest.approx(1.0)
        assert report.upper == pytest.approx(1.0)
        assert report.redundancy == 0
        assert report.index == 0
        assert report.classification is Classification.FRAME

    def test_generic_redundancy(self, rng):
        report = frame_bounds(random_family(rng, 12, 5))
        assert report.redundancy == 7
        assert report.index == -7

    def test_augmented_onb_redundancy(self):
        members = np.vstack([np.eye(3)[:1], np.eye(3)]).astype(complex)
        family = VectorFamily(space=unit_weight_space(4), members=members)
        assert frame_bounds(family).redundancy == 1

    def test_bound_inequality_on_random_vectors(self, rng):
        family = random_family(rng, 9, 4, weighted=True)
        report = frame_bounds(family)
        samples = rng.standard_normal((4, 1000)) + 1j * rng.standard_normal((4, 1000))
        samples /= np.linalg.norm(samples, axis=0, keepdims=True)
        coefficients = family.members.conj() @ samples
        energies = np.sum(
            family.space.weights[:, None] * np.abs(coefficients) ** 2, axis=0
        )
        assert np.all(report.lower <= energies * (1 + 1e-10) + 1e-12)
        assert np.all(energies <= report.upper * (1 + 1e-10) + 1e-12)

    def test_rank_deficient_is_bessel_only(self):
        members = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], dtype=complex)
        family = VectorFamily(space=unit_weight_space(3), members=members)
        report = frame_bounds(family)
        assert report.classification is Classification.BESSEL_ONLY
        assert report.condition == float("inf")

    def test_degenerate_zero_redundancy_flag(self, rng):
        # quadrature-only nodes, unique rows, square full rank: the finite
        # shadow of a refinement too coarse to rule out discreteness
        space = cell_space([0.5, 0.5, 0.5])
        family = VectorFamily(space=space, members=complex_rng_matrix(rng, 3, 3))
        assert frame_bounds(family).degenerate_zero_redundancy
        atoms = unit_weight_space(3)
        family_atoms = VectorFamily(space=atoms, members=complex_rng_matrix(rng, 3, 3))
        assert not frame_bounds(family_atoms).degenerate_zero_redundancy

    def test_report_json(self):
        payload = frame_bounds(onb_family(2)).to_json()
        assert payload["classification"] == "frame"
        assert payload["redundancy"] == 0


class RankCalled(Exception):
    """Raised by a stand-in for ``numerics.block_rank``."""


def no_rank(*args, **kwargs):
    raise RankCalled


def refused(self):
    raise AssertionError("member table asked for")


class TestAnalysisRank:
    def test_weighted_analysis_is_the_scaled_conjugate(self, rng):
        # the weighted blocks the count folds are the conjugate of the analysis table
        family = random_family(rng, 7, 3, weighted=True)
        table = np.vstack(list(family.weighted_blocks())).conj()
        expected = np.sqrt(family.space.weights)[:, None] * family.members.conj()
        np.testing.assert_array_equal(table, expected)
        # its Gram is the frame operator
        np.testing.assert_allclose(table.conj().T @ table, frame_operator(family), atol=1e-12)

    def test_certified_frame_needs_no_rank_call(self, rng, monkeypatch):
        # frame_bounds certifies full rank from the frame operator it already holds
        family = random_family(rng, 64, 8, weighted=True)
        assert redundancy(family) == 56
        monkeypatch.setattr(numerics, "block_rank", no_rank)
        assert frame_bounds(family).redundancy == 56

    def test_rank_deficient_family_falls_back_on_the_count(self, rng, monkeypatch):
        members = complex_rng_matrix(rng, 6, 3)
        members[:, 2] = members[:, 0]
        family = VectorFamily(space=unit_weight_space(6), members=members)
        assert analysis_rank(family) == 2
        monkeypatch.setattr(numerics, "block_rank", no_rank)
        with pytest.raises(RankCalled):
            frame_bounds(family)

    @pytest.mark.parametrize(
        "weight, entry, rank", [(1e-10, 1e-6, 1), (1e10, 1e-11, 2)], ids=["light", "heavy"]
    )
    def test_weights_enter_the_rank(self, weight, entry, rank):
        # the raw member rows diag(1, entry) have the other rank at the default cutoff
        members = np.diag([1.0, entry]).astype(complex)
        family = VectorFamily(space=cell_space([1.0, weight]), members=members)
        assert numerics.block_rank(numerics.weighted_rows(members), members.shape) == 3 - rank
        assert analysis_rank(family) == rank
        assert redundancy(family) == frame_bounds(family).redundancy == 2 - rank

    def test_certified_rank_forms_no_analysis_table(self, monkeypatch):
        # redundancy certifies full rank from the frame operator first: one pass
        # over the weighted rows, and no table
        family = build_torus(8, 64)
        passes = []
        blocks = RootSource.weighted_blocks
        monkeypatch.setattr(
            RootSource, "weighted_blocks", lambda self: passes.append(1) or blocks(self)
        )
        monkeypatch.setattr(RootSource, "members", property(refused))
        assert redundancy(family) == 56
        assert len(passes) == 1

    def test_uncertified_rank_forms_one_gram(self, rng, monkeypatch):
        # the count reads the frame operator frame_bounds holds as the table's Gram
        members = complex_rng_matrix(rng, 6, 3)
        members[:, 2] = members[:, 0]
        family = VectorFamily(space=unit_weight_space(6), members=members)
        calls = []
        gram = numerics.block_gram  # every Gram, of a table or of a source's blocks
        monkeypatch.setattr(
            numerics, "block_gram", lambda *a, **k: calls.append(1) or gram(*a, **k)
        )
        assert frame_bounds(family).redundancy == 4
        assert len(calls) == 1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
        cols=st.integers(1, 6),
        deficit=st.integers(0, 3),
        decades=st.integers(0, 12),
    )
    def test_verdict_is_the_count_of_the_table(self, seed, rows, cols, deficit, decades):
        rng = np.random.default_rng(seed)
        members = complex_rng_matrix(rng, rows, cols)
        members[:, : min(deficit, cols - 1)] = members[:, -1:]
        weights = 10.0 ** rng.uniform(-decades / 2, decades / 2, rows)
        family = VectorFamily(space=cell_space(weights), members=members)
        table = np.sqrt(family.space.weights)[:, None] * family.members.conj()
        assert analysis_rank(family) == svd_count(table, numerics.DEFAULT_RANK_RTOL)

    def test_fewer_nodes_than_dimensions(self, rng):
        family = random_family(rng, 2, 5, weighted=True)
        assert analysis_rank(family) == 2
        assert redundancy(family) == 0

    def test_uncertified_redundancy_peaks_at_a_few_blocks(self, rng):
        # rank 48 of 64 dimensions over 65,536 nodes: the 64 MiB table is the
        # family's own; the count folds its weighted rows, 1 MiB blocks, into
        # a 64 x 64 factor and forms no second table
        members = complex_rng_matrix(rng, 2**16, 48) @ complex_rng_matrix(rng, 48, 64)
        family = VectorFamily(space=unit_segment_space(2**16), members=numerics.freeze(members))
        excess, peak = traced_peak(lambda: redundancy(family))
        assert excess == 2**16 - 48
        assert peak <= 8 * 2**20


class TestCanonicalDual:
    def test_onb_self_dual(self):
        family = onb_family(3)
        np.testing.assert_allclose(canonical_dual(family).members, family.members, atol=1e-14)

    def test_tight_frame_scales(self):
        family = mercedes_family()
        dual = canonical_dual(family)
        np.testing.assert_allclose(dual.members, family.members * (2.0 / 3.0), atol=1e-14)

    def test_reconstruction(self, rng):
        family = random_family(rng, 10, 4, weighted=True)
        dual = canonical_dual(family)
        for _ in range(100):
            f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rebuilt = synthesis(family, analysis(dual, f))
            assert np.max(np.abs(rebuilt - f)) <= 1e-10 * max(np.linalg.norm(f), 1.0)

    def test_refuses_rank_deficient(self):
        members = np.array([[1.0, 0.0], [2.0, 0.0]], dtype=complex)
        family = VectorFamily(space=unit_weight_space(2), members=members)
        with pytest.raises(NotAFrameError):
            canonical_dual(family)


class TestKernelMatrix:
    def test_onb_identity_table(self):
        table = kernel_matrix(onb_family(3))
        np.testing.assert_allclose(table.entries, np.eye(3), atol=1e-14)

    def test_mercedes_scaled_gram(self):
        family = mercedes_family()
        table = kernel_matrix(family)
        gram = family.members @ family.members.conj().T
        np.testing.assert_allclose(table.entries, gram * (2.0 / 3.0), atol=1e-14)
        np.testing.assert_allclose(table.diagonal, 2.0 / 3.0, atol=1e-14)

    def test_doubled_onb_blocks(self):
        members = np.repeat(np.eye(2, dtype=complex), 2, axis=0)
        family = VectorFamily(space=unit_weight_space(4), members=members)
        table = kernel_matrix(family)
        expected = np.kron(np.eye(2), np.full((2, 2), 0.5))
        np.testing.assert_allclose(table.entries, expected, atol=1e-14)

    def test_hermitian(self, rng):
        family = random_family(rng, 8, 3, weighted=True)
        assert kernel_matrix(family).is_hermitian()


class TestKernelProject:
    def test_fixes_analysis_images(self, rng):
        family = random_family(rng, 9, 4, weighted=True)
        table = kernel_matrix(family)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        image = analysis(family, f)
        np.testing.assert_allclose(table.apply(image), image, atol=1e-10)

    def test_annihilates_orthogonal_complement(self, rng):
        family = random_family(rng, 9, 4, weighted=True)
        table = kernel_matrix(family)
        w = family.space.weights
        a = analysis_matrix(family)
        # orthonormalize the analysis range in weighted coordinates, then
        # project a random coefficient vector onto its complement
        q, _ = np.linalg.qr(np.sqrt(w)[:, None] * a)
        coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        weighted = np.sqrt(w) * coeffs
        complement = (weighted - q @ (q.conj().T @ weighted)) / np.sqrt(w)
        np.testing.assert_allclose(table.apply(complement), 0.0, atol=1e-10)

    def test_idempotent_and_mu_self_adjoint(self, rng):
        family = random_family(rng, 12, 5, weighted=True)
        table = kernel_matrix(family)
        w = family.space.weights
        projector = table.entries @ np.diag(w)
        np.testing.assert_allclose(projector @ projector, projector, atol=1e-10)
        # sampled adjoint identity in the weighted pairing
        for _ in range(20):
            f = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            g = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            lhs = family.space.inner(table.apply(f), g)
            rhs = family.space.inner(f, table.apply(g))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
        # equivalently: the table itself is Hermitian
        np.testing.assert_allclose(table.entries, table.entries.conj().T, atol=1e-12)

    def test_matches_brute_force_projector(self, rng):
        family = random_family(rng, 10, 4, weighted=True)
        table = kernel_matrix(family)
        sw = np.sqrt(family.space.weights)
        q, _ = np.linalg.qr(sw[:, None] * analysis_matrix(family))
        oracle = (q @ q.conj().T) / np.outer(sw, sw)
        np.testing.assert_allclose(table.entries, oracle, atol=1e-9)


def family_with_spectrum(seed, rows, eigenvalues):
    """Weighted cell family whose frame operator has exactly the given eigenvalues.

    Members ``W^-1/2 Q diag(sqrt(eigenvalues)) V^H`` with orthonormal columns Q
    and unitary V give the frame operator ``conj(V) diag(eigenvalues) V^T``.
    """
    rng = np.random.default_rng(seed)
    dim = len(eigenvalues)
    weights = rng.uniform(0.1, 3.0, rows)
    q, _ = np.linalg.qr(complex_rng_matrix(rng, rows, dim))
    v, _ = np.linalg.qr(complex_rng_matrix(rng, dim, dim))
    members = (q * np.sqrt(eigenvalues)) @ v.conj().T / np.sqrt(weights)[:, None]
    return VectorFamily(space=cell_space(weights), members=members)


@st.composite
def conditioned_families(draw):
    """Weighted families with frame-operator condition between 1 and 1e6."""
    dim = draw(st.integers(1, 5))
    rows = draw(st.integers(dim, 9))
    condition = 10.0 ** draw(st.floats(0.0, 6.0))
    top = draw(st.floats(0.1, 10.0))
    seed = draw(st.integers(0, 2**32 - 1))
    family = family_with_spectrum(seed, rows, top * np.geomspace(1.0 / condition, 1.0, dim))
    return family, condition


class TestSpectralProperties:
    """Identities of the dual and the frame kernel, with roundoff scaled by the condition."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(conditioned_families())
    def test_dual_reconstruction(self, case):
        family, condition = case
        dual = canonical_dual(family)
        eye = np.eye(family.dim)
        rebuilt = np.column_stack([synthesis(dual, analysis(family, e)) for e in eye])
        np.testing.assert_allclose(rebuilt, eye, atol=1e-13 * condition)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(conditioned_families())
    def test_kernel_hermitian_and_idempotent(self, case):
        family, condition = case
        table = kernel_matrix(family)
        assert table.is_hermitian()
        entries = table.entries
        twice = np.column_stack([table.apply(entries[:, j]) for j in range(table.size)])
        scale = np.max(np.abs(entries))
        np.testing.assert_allclose(twice, entries, atol=1e-13 * condition * scale)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 5),
        st.one_of(st.sampled_from([0.0, FRAME_RTOL]), st.floats(0.0, 3.0 * FRAME_RTOL)),
    )
    def test_refused_exactly_below_relative_tolerance(self, seed, dim, ratio):
        eigenvalues = np.geomspace(1.0, 4.0, dim)
        eigenvalues[0] = ratio * eigenvalues[-1]
        family = family_with_spectrum(seed, dim + 2, eigenvalues)
        report = frame_bounds(family)
        refused = report.lower <= FRAME_RTOL * report.upper
        assert (report.classification is Classification.BESSEL_ONLY) == refused
        for build in (canonical_dual, kernel_matrix):
            if refused:
                with pytest.raises(NotAFrameError):
                    build(family)
            else:
                build(family)


class TestSplit:
    def test_atom_vectors_are_the_scaled_rows_bit_for_bit(self, rng):
        # the vectorized atoms give sqrt(w_j) * members[j] as the loop over
        # atoms gave it, signed zeros included
        weights = rng.uniform(0.25, 2.5, size=6)
        kinds = [Provenance.ATOM, Provenance.CELL] * 3
        space = DiscretizedSpace(nodes=zip(map(float, range(6)), weights, kinds))
        members = complex_rng_matrix(rng, 6, 3)
        members[0, :2] = [complex(-0.0, -1.0), complex(0.0, -0.0)]
        members[4, 1:] = [complex(-0.0, 0.0), complex(-2.0, -0.0)]
        discrete, _ = split(VectorFamily(space=space, members=members))
        expected = [np.sqrt(space.weights[j]) * members[j] for j in (0, 2, 4)]
        assert [v.tobytes() for v in discrete[:3]] == [e.tobytes() for e in expected]

    def test_all_atoms(self, rng):
        family = random_family(rng, 4, 3)  # atom provenance, unit weights
        discrete, continuous = split(family)
        assert len(discrete) == 4
        assert continuous.size == 0
        np.testing.assert_allclose(np.array(discrete), family.members, atol=1e-15)

    def test_no_duplicates_stays_continuous(self, rng):
        space = cell_space(rng.uniform(0.2, 1.0, 5))
        family = VectorFamily(space=space, members=complex_rng_matrix(rng, 5, 3))
        discrete, continuous = split(family)
        assert discrete == []
        assert continuous.size == 5
        np.testing.assert_allclose(continuous.members, family.members, atol=1e-15)

    def test_duplicate_rows_merge(self):
        v = np.array([1.0, 2.0], dtype=complex)
        space = cell_space([0.25, 0.25])
        family = VectorFamily(space=space, members=np.vstack([v, v]))
        discrete, continuous = split(family)
        assert continuous.size == 0
        np.testing.assert_allclose(discrete[0], np.sqrt(0.5) * v, atol=1e-15)

    def test_norm_identity(self, rng):
        v = complex_rng_matrix(rng, 1, 3)[0]
        nodes = (
            Node(point="a", weight=0.7, provenance=Provenance.ATOM),
            Node(point=0.1, weight=0.3, provenance=Provenance.CELL),
            Node(point=0.2, weight=0.5, provenance=Provenance.CELL),
            Node(point=0.3, weight=0.4, provenance=Provenance.CELL),
            Node(point=0.4, weight=0.6, provenance=Provenance.CELL),
        )
        space = DiscretizedSpace(nodes=nodes)
        members = complex_rng_matrix(rng, 5, 3)
        members[2] = v
        members[4] = v
        family = VectorFamily(space=space, members=members)
        discrete, continuous = split(family)
        assert len(discrete) == 2  # one atom, one merged duplicate group
        assert continuous.size == 2
        for _ in range(100):
            f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            total = family.space.norm(analysis(family, f)) ** 2
            cont = continuous.space.norm(analysis(continuous, f)) ** 2
            disc = sum(abs(np.vdot(vec, f)) ** 2 for vec in discrete)
            assert abs(total - (cont + disc)) <= 1e-10 * max(total, 1.0)

    def test_bessel_bound_preserved(self, rng):
        space = cell_space([0.25, 0.25, 0.5, 0.5])
        members = complex_rng_matrix(rng, 4, 2)
        members[1] = members[0]
        family = VectorFamily(space=space, members=members)
        discrete, continuous = split(family)
        original_upper = frame_bounds(family).upper
        merged = np.zeros((2, 2), dtype=complex)
        for vec in discrete:
            merged += np.outer(vec, vec.conj())
        merged += frame_operator(continuous)
        values = np.linalg.eigvalsh(merged)
        assert values[-1] <= original_upper + 1e-9

    def test_negative_tolerance_rejected(self, rng):
        with pytest.raises(ValidationError):
            split(random_family(rng, 3, 2), row_tolerance=-1.0)

    @pytest.mark.parametrize("tolerance", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("command", [split], ids=["split"])
    def test_non_finite_tolerance_rejected(self, rng, command, tolerance):
        with pytest.raises(ValidationError, match="row_tolerance must be finite"):
            command(random_family(rng, 3, 2), row_tolerance=tolerance)


def all_pairs_row_groups(family, row_tolerance):
    """Reference grouping: every seed against every later unused cell row.

    Two rows match within ``row_tolerance`` times the largest ``|entry|`` of
    the two.
    """
    cell_indices = np.flatnonzero(~family.space.is_atom).tolist()
    used: set[int] = set()
    groups: list[list[int]] = []
    for pos, j in enumerate(cell_indices):
        if j in used:
            continue
        group = [j]
        seed = family.members[j]
        for k in cell_indices[pos + 1 :]:
            if k in used:
                continue
            tolerance = row_tolerance * max(np.max(np.abs(seed)), np.max(np.abs(family.members[k])))
            if np.max(np.abs(family.members[k] - seed)) <= tolerance:
                group.append(k)
        if len(group) >= 2:
            groups.append(group)
            used.update(group)
    return groups


def mixed_space(rng, atoms):
    nodes = tuple(
        Node(
            point=float(i),
            weight=float(rng.uniform(0.1, 2.0)),
            provenance=Provenance.ATOM if atom else Provenance.CELL,
        )
        for i, atom in enumerate(atoms)
    )
    return DiscretizedSpace(nodes=nodes)


@st.composite
def repeated_row_families(draw):
    """Repeated rows over atom and cell nodes, with noise near the row tolerance.

    Half of the rows are moved by up to ``factor * tolerance`` in each real
    and imaginary part.  A flat family has equal real parts and imaginary
    parts within ``tolerance`` of zero, so every window holds every row.
    """
    tolerance = draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.3, 1.0]))
    factor = draw(st.sampled_from([0.0, 0.5, 1 / np.sqrt(2), 1.0, 1.5]))
    rows = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 4))
    flat = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if flat:
        members = 1.0 + 1j * tolerance * rng.uniform(-1.0, 1.0, (rows, dim))
    else:
        distinct = complex_rng_matrix(rng, int(rng.integers(1, rows + 1)), dim)
        members = distinct[rng.integers(0, distinct.shape[0], rows)]
        noise = rng.uniform(-1.0, 1.0, (rows, dim)) + 1j * rng.uniform(-1.0, 1.0, (rows, dim))
        moved = rng.random(rows) < 0.5
        members = members + factor * tolerance * noise * moved[:, None]
    space = mixed_space(rng, rng.random(rows) < 0.25)
    return VectorFamily(space=space, members=members), tolerance


@pytest.mark.parametrize("scale", [1.0, 2.0**400, 2.0**-400], ids=["2^0", "2^400", "2^-400"])
@pytest.mark.parametrize(
    "make",
    [
        lambda: VectorFamily(space=cell_space([0.5, 0.5]), members=np.eye(2, dtype=complex)),
        lambda: build_torus(5, 5),
        lambda: build_torus(4, 16),
        lambda: build_affine(6, 6),
        lambda: build_affine(8, 8, power=2),
    ],
    ids=["onb-c2", "torus-5x5", "torus-4x16", "affine-6", "affine-8-power-2"],
)
def test_row_match_is_scale_free(make, scale, rng):
    # orthogonal rows of a family scaled by 2^-400 lie within the default
    # row tolerance of each other in absolute terms; a relative match keeps
    # them apart, so the split keeps its energy identity and the
    # zero-redundancy check reads as at scale 1
    base = make()
    family = VectorFamily(space=base.space, members=base.members * scale)
    discrete, continuous = split(family)
    for f in [np.eye(base.dim)[0], *complex_rng_matrix(rng, 4, base.dim)]:
        total = family.space.norm(analysis(family, f)) ** 2
        cont = continuous.space.norm(analysis(continuous, f)) ** 2
        disc = sum(abs(np.vdot(vec, f)) ** 2 for vec in discrete)
        assert abs(total - (cont + disc)) <= 1e-10 * total
    degenerate = frame_bounds(family).degenerate_zero_redundancy
    assert degenerate == frame_bounds(base).degenerate_zero_redundancy


def test_a_tiny_weight_keeps_orthogonal_rows_apart():
    # e1, e2 and 1e12 * e3 at weights 1, 1 and 1e-24: an orthonormal basis in
    # the weighted pairing, whose large third row must not make e1 and e2 equal
    family = VectorFamily(
        space=cell_space([1.0, 1.0, 1e-24]), members=np.diag([1.0, 1.0, 1e12]).astype(complex)
    )
    report = frame_bounds(family)
    assert report.condition == pytest.approx(1.0) and report.redundancy == 0
    assert report.degenerate_zero_redundancy
    discrete, continuous = split(family)
    for f in np.eye(3):
        total = family.space.norm(analysis(family, f)) ** 2
        cont = continuous.space.norm(analysis(continuous, f)) ** 2
        disc = sum(abs(np.vdot(vec, f)) ** 2 for vec in discrete)
        assert total == pytest.approx(1.0)
        assert abs(total - (cont + disc)) <= 1e-10 * total


class TestEqualRowGroups:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(repeated_row_families())
    def test_matches_all_pairs_reference(self, case):
        family, tolerance = case
        assert _equal_row_groups(family, tolerance) == all_pairs_row_groups(family, tolerance)

    def test_block_family(self, rng):
        labels = [0, 1, 0, 1, 2, 0, 2, 1]
        distinct = complex_rng_matrix(rng, 3, 2)
        space = mixed_space(rng, [j == 3 for j in range(len(labels))])
        family = VectorFamily(space=space, members=distinct[labels])
        groups = _equal_row_groups(family, ROW_MATCH_TOL)
        assert groups == [[0, 2, 5], [1, 7], [4, 6]]  # node 3 is an atom
        assert groups == all_pairs_row_groups(family, ROW_MATCH_TOL)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(repeated_row_families())
    def test_a_large_row_of_tiny_weight_changes_no_match(self, case):
        # a row 2^40 times a fresh one matches no other row, so it must leave
        # the other rows' groups as they were
        family, tolerance = case
        assume(tolerance < 1.0)  # at 1.0 a row may lie within the tolerance of 2^40 times another
        rng = np.random.default_rng(family.size)
        large = 2.0**40 * complex_rng_matrix(rng, 1, family.dim)
        space = DiscretizedSpace.from_columns(
            np.append(family.space.weights, 2.0**-80),
            np.append(family.space.is_atom, False),
            np.append(family.space.points, float(family.size)),
        )
        grown = VectorFamily(space=space, members=np.vstack([family.members, large]))
        assert _equal_row_groups(grown, tolerance) == _equal_row_groups(family, tolerance)

    def test_large_torus_has_no_repeated_rows(self):
        assert _equal_row_groups(build_torus(256, 4096), ROW_MATCH_TOL) == []


class TestTrend:
    def test_onb_trend_is_stable(self):
        trend = semiframe_trend(lambda size: onb_family(size), [2, 4, 8])
        for _, lower, upper in trend:
            assert lower == pytest.approx(1.0)
            assert upper == pytest.approx(1.0)
        assert classify_trend(trend) is Classification.FRAME

    def test_vanishing_lower_bound(self):
        def builder(size):
            members = np.diag(1.0 / (np.arange(size) + 1.0)).astype(complex)
            return VectorFamily(space=unit_weight_space(size), members=members)

        trend = semiframe_trend(builder, [2, 4, 8])
        assert classify_trend(trend) is Classification.BESSEL_ONLY

    def test_no_lower_bound_at_the_last_size_vanishes(self):
        # a lower bound of 0 at every size never drops by a ratio, and one of
        # rounding size rises from 0; the last size's frame verdict decides
        assert classify_trend([(2, 0.0, 11.9), (3, 0.0, 9.4)]) is Classification.BESSEL_ONLY
        assert classify_trend([(3, 0.0, 9.4), (6, 1.4e-16, 18.9)]) is Classification.NEITHER
        assert classify_trend([(3, 0.0, 9.4), (6, 0.5, 9.4)]) is Classification.FRAME

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            classify_trend([(2, 1.0, 1.0)])
