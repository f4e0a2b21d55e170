import json
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framelab import codec, frames, numerics, pairs
from framelab.errors import (
    DimensionMismatchError,
    NotAFrameError,
    NotInjectiveError,
    NotInvertibleError,
    NotSurjectiveError,
    SpaceMismatchError,
)
from framelab.frames import (
    VectorFamily,
    analysis,
    frame_operator,
    kernel_matrix,
    redundancy,
    synthesis,
)
from framelab.pairs import (
    bessel_bound,
    frame_transfer,
    induced_inner,
    induced_kernel,
    lower_semiframe_dual,
    pair_verdict,
    range_kernel,
    reproducing_partner,
    resolution_operator,
)

from conftest import (
    cell_space,
    complex_rng_matrix,
    conditioned_family,
    no_svd,
    onb_family,
    random_family,
    traced_peak,
    unit_weight_space,
)

# sigma_min / sigma_max of the weighted analysis table; 0.99e-4 and 1.01e-4
# straddle cond(S) = 1 / FRAME_RTOL, where the dual changes route
SWITCH_RATIOS = [1.0, 1e-2, 10**-3.5, 0.99e-4, 1.01e-4, 1e-6]


def random_pair(rng, rows=10, dim=4):
    space = cell_space(rng.uniform(0.4, 1.8, rows))
    psi = VectorFamily(space=space, members=complex_rng_matrix(rng, rows, dim))
    phi = VectorFamily(space=space, members=complex_rng_matrix(rng, rows, dim))
    return psi, phi


def pinv_dual(family):
    """Reference dual: conjugated minimal-norm preimages under weighted synthesis."""
    sqrt_w = np.sqrt(family.space.weights)
    return (np.linalg.pinv(family.members.T * sqrt_w) / sqrt_w[:, None]).conj()


def identity_gap(family, dual):
    """Largest entry of the pair's resolution operator minus the identity."""
    return float(np.max(np.abs(pairs.mixed_operator(family, dual) - np.eye(family.dim))))


class TestResolutionOperator:
    def test_self_pair_is_frame_operator(self, rng):
        family = random_family(rng, 8, 3, weighted=True)
        report = resolution_operator(family, family)
        np.testing.assert_allclose(report.operator, frame_operator(family), atol=1e-13)
        assert report.invertible

    def test_factors_through_analysis_and_synthesis(self, rng):
        psi, phi = random_pair(rng)
        w = psi.space.weights
        synthesis_map = phi.members.T @ np.diag(w)
        analysis_map = psi.members.conj()
        np.testing.assert_allclose(
            resolution_operator(psi, phi).operator,
            synthesis_map @ analysis_map,
            atol=1e-12,
        )

    def test_bilinearity_in_second_family(self, rng):
        psi, phi = random_pair(rng)
        base = resolution_operator(psi, phi).operator
        doubled = resolution_operator(psi, VectorFamily(space=phi.space, members=2.0 * phi.members)).operator
        np.testing.assert_allclose(doubled, 2.0 * base, atol=1e-13)

    def test_adjoint_identity(self, rng):
        psi, phi = random_pair(rng)
        forward = resolution_operator(psi, phi).operator
        backward = resolution_operator(phi, psi).operator
        np.testing.assert_allclose(backward, forward.conj().T, atol=1e-13)

    def test_inverse_when_invertible(self, rng):
        psi, phi = random_pair(rng)
        report = resolution_operator(psi, phi)
        assert report.invertible
        np.testing.assert_allclose(
            report.operator @ report.inverse, np.eye(psi.dim), atol=1e-9
        )

    def test_space_mismatch(self, rng):
        psi = random_family(rng, 5, 3)
        phi = random_family(rng, 6, 3)
        with pytest.raises(SpaceMismatchError):
            resolution_operator(psi, phi)

    def test_json_shape(self, rng):
        psi, phi = random_pair(rng)
        payload = json.loads(codec.json_bytes(resolution_operator(psi, phi).to_json()))
        assert payload["invertible"]
        assert len(payload["operator"]) == psi.dim * psi.dim


class TestExtendedSynthesis:
    def test_delta_coefficients(self):
        family = onb_family(3)
        coeffs = np.zeros(3)
        coeffs[1] = 1.0
        np.testing.assert_allclose(synthesis(family, coeffs), [0, 1, 0])

    def test_kernel_coefficients_vanish(self, rng):
        family = random_family(rng, 6, 3, weighted=True)
        w = family.space.weights
        synthesis_map = family.members.T * w[None, :]
        _, _, vh = np.linalg.svd(synthesis_map)
        null_vector = vh[-1].conj()
        np.testing.assert_allclose(
            synthesis(family, null_vector), 0.0, atol=1e-12
        )

    def test_matches_direct_summation(self, rng):
        family = random_family(rng, 6, 3, weighted=True)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        oracle = np.zeros(3, dtype=complex)
        for j in range(6):
            oracle += family.space.weights[j] * coeffs[j] * family.members[j]
        np.testing.assert_allclose(synthesis(family, coeffs), oracle, atol=1e-12)


class TestPairRedundancy:
    def test_onb(self):
        assert redundancy(onb_family(4)) == 0

    def test_doubled_onb(self):
        members = np.repeat(np.eye(3, dtype=complex), 2, axis=0)
        family = VectorFamily(space=unit_weight_space(6), members=members)
        assert redundancy(family) == 3

    def test_generic(self, rng):
        assert redundancy(random_family(rng, 12, 5)) == 7

    def test_dimension_count_for_reproducing_pairs(self, rng):
        psi, phi = random_pair(rng, rows=11, dim=4)
        assert resolution_operator(psi, phi).invertible
        assert phi.dim + redundancy(phi) == phi.size


class TestInducedInner:
    def test_onb_reduces_to_plain_pairing(self, rng):
        family = onb_family(4)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert induced_inner(family, f, g) == pytest.approx(np.sum(f * np.conj(g)))

    def test_kernel_functions_have_zero_norm(self, rng):
        family = random_family(rng, 6, 3, weighted=True)
        w = family.space.weights
        _, _, vh = np.linalg.svd(family.members.T * w[None, :])
        null_vector = vh[-1].conj()
        assert abs(induced_inner(family, null_vector, null_vector)) <= 1e-20

    def test_double_sum_oracle(self, rng):
        family = random_family(rng, 7, 3, weighted=True)
        w = family.space.weights
        f = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        g = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        gram = family.members @ family.members.conj().T
        oracle = np.einsum("x,xy,y->", w * f, gram, np.conj(w * g))
        assert abs(induced_inner(family, f, g) - oracle) <= 1e-10 * max(abs(oracle), 1.0)


class TestRangeKernel:
    def test_self_onb_identity(self):
        family = onb_family(3)
        table = range_kernel(family, family)
        np.testing.assert_allclose(table.entries, np.eye(3), atol=1e-13)

    def test_self_pair_equals_frame_kernel(self, rng):
        family = random_family(rng, 8, 3, weighted=True)
        np.testing.assert_allclose(
            range_kernel(family, family).entries,
            kernel_matrix(family).entries,
            atol=1e-11,
        )

    def test_oblique_projection(self, rng):
        psi, phi = random_pair(rng)
        table = range_kernel(psi, phi)
        w = psi.space.weights
        projector = table.entries @ np.diag(w)
        np.testing.assert_allclose(projector @ projector, projector, atol=1e-9)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        image = analysis(psi, f)
        np.testing.assert_allclose(table.apply(image), image, atol=1e-10)

    def test_matches_explicit_oblique_projector(self, rng):
        psi, phi = random_pair(rng)
        w = psi.space.weights
        range_basis = psi.members.conj()  # analysis images span = its columns
        synthesis_map = phi.members.T * w[None, :]
        oracle = range_basis @ np.linalg.solve(synthesis_map @ range_basis, synthesis_map)
        table = range_kernel(psi, phi)
        np.testing.assert_allclose(table.entries @ np.diag(w), oracle, atol=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8), extra=st.integers(0, 24))
    def test_idempotent_on_the_factors(self, seed, dim, extra):
        # K W with K = L R^H is idempotent exactly when the r x r core R^H W L is I
        psi, phi = random_pair(np.random.default_rng(seed), rows=dim + extra, dim=dim)
        table = range_kernel(psi, phi)
        core = table.right.conj().T @ (psi.space.weights[:, None] * table.left)
        np.testing.assert_allclose(core, np.eye(dim), rtol=0, atol=1e-9)

    def test_not_invertible(self, rng):
        space = unit_weight_space(4)
        psi = VectorFamily(space=space, members=complex_rng_matrix(rng, 4, 2))
        phi = VectorFamily(space=space, members=np.zeros((4, 2), dtype=complex))
        with pytest.raises(NotInvertibleError):
            range_kernel(psi, phi)


class TestInducedKernel:
    def test_onb_identity_and_exact_reproduction(self):
        family = onb_family(3)
        table = induced_kernel(family, family)
        np.testing.assert_allclose(table.entries, np.eye(3), atol=1e-13)

    def test_tight_frame_scaled_gram(self, rng):
        members = np.array(
            [[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]], dtype=complex
        )
        family = VectorFamily(space=unit_weight_space(3), members=members)
        table = induced_kernel(family, family)
        gram = family.members @ family.members.conj().T
        np.testing.assert_allclose(table.entries, gram / 1.5**2, atol=1e-13)

    def test_hermitian_psd(self, rng):
        psi, phi = random_pair(rng)
        table = induced_kernel(psi, phi)
        assert table.is_hermitian()
        values = np.linalg.eigvalsh(table.entries)
        assert values[0] >= -1e-10 * max(values[-1], 1.0)

    def test_reproducing_identity(self, rng):
        psi, phi = random_pair(rng)
        table = induced_kernel(psi, phi)
        geometry = table.geometry
        for _ in range(20):
            f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            coeffs = analysis(psi, f)
            for j in range(psi.size):
                value = induced_inner(geometry, coeffs, table.section(j))
                assert abs(value - coeffs[j]) <= 1e-9 * max(abs(coeffs[j]), 1.0)


class TestFrameTransfer:
    @pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 5, 4)], ids=["1-d", "short-rows", "3-d"])
    def test_frame_vectors_of_the_wrong_shape_refused(self, rng, shape):
        psi, phi = random_pair(rng)
        message = f"frame vectors must form a (count, 4) table, got {shape}"
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            frame_transfer(psi, phi, np.ones(shape))

    def test_onb_pair_with_onb_frame(self):
        family = onb_family(3)
        report = frame_transfer(family, family, np.eye(3))
        assert report.lower == pytest.approx(1.0)
        assert report.upper == pytest.approx(1.0)
        np.testing.assert_allclose(report.functions, np.eye(3), atol=1e-13)

    def test_functions_formed_on_first_use(self, rng):
        psi, phi = random_pair(rng)
        g = complex_rng_matrix(rng, 5, 4)
        report = frame_transfer(psi, phi, g)
        assert "functions" not in vars(report)
        expected = g @ psi.members.conj().T
        g[:] = 0.0  # the report keeps its own frame vectors
        np.testing.assert_array_equal(report.functions, expected)
        assert report.functions is report.functions

    def test_quadratic_homogeneity(self, rng):
        psi, phi = random_pair(rng)
        g = complex_rng_matrix(rng, 5, 4)
        base = frame_transfer(psi, phi, g)
        scaled = frame_transfer(psi, phi, 2.0 * g)
        assert scaled.lower == pytest.approx(4.0 * base.lower, rel=1e-12)
        assert scaled.upper == pytest.approx(4.0 * base.upper, rel=1e-12)

    def test_bounds_inside_predicted_interval(self, rng):
        psi, phi = random_pair(rng)
        g = complex_rng_matrix(rng, 6, 4)
        report = frame_transfer(psi, phi, g)
        slack = 1e-9 * report.predicted_upper
        assert report.predicted_lower - slack <= report.lower
        assert report.upper <= report.predicted_upper + slack

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        extra=st.integers(0, 12),
        count_extra=st.integers(0, 6),
    )
    def test_bounds_inside_predicted_interval_property(self, seed, dim, extra, count_extra):
        rng = np.random.default_rng(seed)
        psi, phi = random_pair(rng, rows=dim + extra, dim=dim)
        report = frame_transfer(psi, phi, complex_rng_matrix(rng, dim + count_extra, dim))
        slack = 1e-9 * report.predicted_upper
        assert report.predicted_lower - slack <= report.lower <= report.upper
        assert report.upper <= report.predicted_upper + slack

    def test_gram_eigenvalues_match_bounds(self, rng):
        psi, phi = random_pair(rng, rows=9, dim=3)
        g = complex_rng_matrix(rng, 5, 3)
        report = frame_transfer(psi, phi, g)
        gram = np.empty((5, 5), dtype=complex)
        for i in range(5):
            for j in range(5):
                gram[i, j] = induced_inner(phi, report.functions[j], report.functions[i])
        values = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        top = np.sort(values)[-3:]
        assert top[0] == pytest.approx(report.lower, rel=1e-9)
        assert top[-1] == pytest.approx(report.upper, rel=1e-9)

    def test_companion_direction_gives_ambient_frame(self, rng):
        # synthesis images of a coefficient-side frame must frame the ambient
        # space again: with transported analysis images the composite is the
        # resolution operator applied to the original frame
        psi, phi = random_pair(rng, rows=9, dim=3)
        g = complex_rng_matrix(rng, 5, 3)
        report = frame_transfer(psi, phi, g)
        companions = np.array(
            [synthesis(phi, row) for row in report.functions]
        )
        operator = companions.T @ companions.conj()
        values = np.linalg.eigvalsh((operator + operator.conj().T) / 2)
        assert values[0] > 1e-8 * values[-1]
        expected = resolution_operator(psi, phi).operator @ g.T
        np.testing.assert_allclose(companions.T, expected, atol=1e-12)

    def test_degenerate_frame_rejected(self, rng):
        psi, phi = random_pair(rng)
        g = np.zeros((3, 4), dtype=complex)
        g[:, 0] = 1.0
        with pytest.raises(NotAFrameError):
            frame_transfer(psi, phi, g)

    def test_forms_no_inverse_and_refuses_a_singular_pair(self, rng):
        # the transfer reads the resolution operator and its singular values only
        psi, phi = random_pair(rng)
        with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv:
            frame_transfer(psi, phi, complex_rng_matrix(rng, 5, 4))
            assert inv.call_count == 0
            singular = VectorFamily(space=phi.space, members=np.zeros_like(phi.members))
            with pytest.raises(NotInvertibleError):
                frame_transfer(psi, singular, complex_rng_matrix(rng, 5, 4))
            assert inv.call_count == 0


class TestLowerSemiframeDual:
    def test_onb_self_dual(self):
        family = onb_family(4)
        dual = lower_semiframe_dual(family)
        np.testing.assert_allclose(dual.members, family.members, atol=1e-13)

    def test_tight_frame(self):
        members = np.array(
            [[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]], dtype=complex
        )
        family = VectorFamily(space=unit_weight_space(3), members=members)
        dual = lower_semiframe_dual(family)
        np.testing.assert_allclose(dual.members, members / 1.5, atol=1e-13)
        report = resolution_operator(family, dual)
        np.testing.assert_allclose(report.operator, np.eye(2), atol=1e-10)

    def test_identity_resolution_on_weighted_space(self, rng):
        psi = random_family(rng, 9, 4, weighted=True)
        dual = lower_semiframe_dual(psi)
        report = resolution_operator(psi, dual)
        np.testing.assert_allclose(report.operator, np.eye(4), atol=1e-10)

    def test_bessel_bound_capped_by_inverse_norm(self, rng):
        psi = random_family(rng, 9, 4, weighted=True)
        dual = lower_semiframe_dual(psi)
        sw = np.sqrt(psi.space.weights)
        weighted_analysis = sw[:, None] * psi.members.conj()
        smallest = np.linalg.svd(weighted_analysis, compute_uv=False)[-1]
        assert bessel_bound(dual) <= (1.0 / smallest) ** 2 + 1e-9

    def test_rank_deficient_rejected(self):
        members = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]], dtype=complex)
        family = VectorFamily(space=unit_weight_space(3), members=members)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            with pytest.raises(NotInjectiveError, match="^analysis map is rank deficient$"):
                lower_semiframe_dual(family)
        assert svd.called

    @pytest.mark.parametrize("ratio", [None, 1.01e-4], ids=["random", "cond-9.8e7"])
    def test_frame_needs_no_svd(self, rng, monkeypatch, ratio):
        # at cond(S) just inside 1 / FRAME_RTOL the Newton step keeps the gap at SVD level
        if ratio is None:
            psi = random_family(rng, 512, 32, weighted=True)
        else:
            psi = conditioned_family(rng, 512, 32, ratio)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        dual = lower_semiframe_dual(psi)
        partner = reproducing_partner(psi)
        np.testing.assert_array_equal(partner.members, dual.members)
        assert identity_gap(psi, dual) <= 1e-12

    def test_injective_non_frame_takes_the_svd(self, rng):
        # cond(S) = 1e10 is past 1 / FRAME_RTOL, yet the analysis map is injective
        psi = conditioned_family(rng, 64, 8, 1e-5)
        assert not numerics.frame_spectrum(frame_operator(psi)).is_frame()
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            dual = lower_semiframe_dual(psi)
        assert svd.called
        reference = pinv_dual(psi)
        scale = np.max(np.abs(reference))
        np.testing.assert_allclose(dual.members, reference, rtol=0, atol=1e-10 * scale)
        assert identity_gap(psi, dual) <= 1e-10


class TestReproducingPartner:
    def test_onb_partner_is_onb(self):
        family = onb_family(3)
        partner = reproducing_partner(family)
        np.testing.assert_allclose(partner.members, family.members, atol=1e-13)

    def test_doubled_onb_partner_halves(self):
        members = np.repeat(np.eye(3, dtype=complex), 2, axis=0)
        family = VectorFamily(space=unit_weight_space(6), members=members)
        partner = reproducing_partner(family)
        np.testing.assert_allclose(partner.members, members / 2.0, atol=1e-13)
        report = resolution_operator(partner, family)
        np.testing.assert_allclose(report.operator, np.eye(3), atol=1e-10)

    def test_generic_full_rank(self, rng):
        space = cell_space(rng.uniform(0.3, 2.0, 20))
        phi = VectorFamily(space=space, members=complex_rng_matrix(rng, 20, 6))
        partner = reproducing_partner(phi)
        report = resolution_operator(partner, phi)
        np.testing.assert_allclose(report.operator, np.eye(6), atol=1e-9)
        sums = pairs.partner_pointwise_sums(partner)
        preimages = partner.members.conj()
        oracle = np.diag(preimages @ preimages.conj().T).real
        np.testing.assert_allclose(sums, oracle, atol=1e-12)
        assert np.all(np.isfinite(sums))

    def test_analysis_then_synthesis_is_identity(self, rng):
        phi = random_family(rng, 12, 5, weighted=True)
        partner = reproducing_partner(phi)
        for _ in range(100):
            f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            rebuilt = synthesis(phi, analysis(partner, f))
            assert np.max(np.abs(rebuilt - f)) <= 1e-9 * max(np.linalg.norm(f), 1.0)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        extra=st.integers(0, 16),
        ratio=st.sampled_from(SWITCH_RATIOS),
        threshold=st.sampled_from([None, "1e-3", "0.5"]),
    )
    def test_equals_lower_semiframe_dual(self, seed, dim, extra, ratio, threshold):
        phi = conditioned_family(np.random.default_rng(seed), dim + extra, dim, ratio)
        env = {} if threshold is None else {numerics.RANK_TOL_ENV: threshold}
        # reference rank: SVD count of the weighted analysis table
        weighted_analysis = np.sqrt(phi.space.weights)[:, None] * phi.members.conj()
        s = np.linalg.svd(weighted_analysis, compute_uv=False)
        tolerance = float(threshold or numerics.DEFAULT_RANK_RTOL)
        if np.count_nonzero(s > tolerance * s[0] * max(weighted_analysis.shape)) < dim:
            with mock.patch.dict(os.environ, env):
                with pytest.raises(NotSurjectiveError):
                    reproducing_partner(phi)
                with pytest.raises(NotInjectiveError):
                    lower_semiframe_dual(phi)
            return
        with mock.patch.dict(os.environ, env):
            partner = reproducing_partner(phi)
            dual = lower_semiframe_dual(phi)
        np.testing.assert_array_equal(partner.members, dual.members)
        # no backward-stable pseudoinverse beats cond(A) * eps, so past
        # cond(A) ~ 4e4 (ratio 1e-6 here) the bound follows the conditioning
        bound = max(1e-10, 10 * s[0] / s[-1] * np.finfo(float).eps)
        reference = pinv_dual(phi)
        scale = np.max(np.abs(reference))
        np.testing.assert_allclose(partner.members, reference, rtol=0, atol=bound * scale)
        assert identity_gap(phi, dual) <= bound

    def test_rank_deficient_rejected(self, rng):
        members = complex_rng_matrix(rng, 8, 4)
        members[:, 3] = members[:, 0] + members[:, 1]
        family = VectorFamily(space=unit_weight_space(8), members=members)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            with pytest.raises(
                NotSurjectiveError, match="^synthesis map does not reach the ambient space$"
            ):
                reproducing_partner(family)
        assert svd.called


class TestOneMemberTable:
    """Each spectral op holds at most one n x d member table beyond its inputs."""

    N, D = 2048, 128

    @pytest.fixture(scope="class")
    def inputs(self):
        rng = np.random.default_rng(2048)
        psi, phi = random_pair(rng, rows=self.N, dim=self.D)
        return psi, phi, complex_rng_matrix(rng, 2 * self.D, self.D)

    @pytest.mark.parametrize(
        "op, tables",
        [
            # a node sum holds one row block of about BLOCK_ENTRIES entries,
            # a Gram block at least 8 * d rows: half the table at this size
            (lambda psi, phi, g: frames.frame_bounds(psi), 1.0),
            (lambda psi, phi, g: redundancy(psi), 1.0),
            (lambda psi, phi, g: pair_verdict(psi, phi), 1.0),
            (lambda psi, phi, g: frame_transfer(psi, phi, g), 1.0),
            # the dual is the one new table, corrected in place
            (lambda psi, phi, g: frames.canonical_dual(psi), 1.6),
            (lambda psi, phi, g: lower_semiframe_dual(psi), 1.6),
        ],
        ids=[
            "frame_bounds", "redundancy", "pair_verdict", "frame_transfer",
            "canonical_dual", "lower_semiframe_dual",
        ],
    )
    def test_peak_beyond_the_inputs(self, inputs, op, tables):
        _, peak = traced_peak(lambda: op(*inputs))
        assert peak < tables * self.N * self.D * 16


    def test_dual_holds_its_table_and_quarter_blocks(self, inputs):
        # the residual's node sum and the Newton step each hold a quarter block
        psi = inputs[0]
        lower_semiframe_dual(psi)
        dual, peak = traced_peak(lambda: lower_semiframe_dual(psi))
        assert peak <= dual.members.nbytes + 1.5 * 2**20


def _pair_of_kind(rng, rows, dim, kind, exponent, threshold):
    """A pair over one weighted space at weight scale ``2**exponent``; ``psi`` is of ``kind``.

    ``thin-product`` has rank below ``min(rows, dim)``; the cutoff kinds have a
    weighted analysis table with unit singular values except the smallest,
    at the rank cutoff times ``1 +- 1e-6``.
    """
    space = cell_space(rng.uniform(0.25, 2.5, rows) * 2.0**exponent)
    phi = VectorFamily(space=space, members=complex_rng_matrix(rng, rows, dim))
    short = min(rows, dim)
    if kind == "generic":
        members = complex_rng_matrix(rng, rows, dim)
    elif kind == "thin-product":
        inner = int(rng.integers(0, short))
        members = complex_rng_matrix(rng, rows, inner) @ complex_rng_matrix(rng, inner, dim)
    else:
        cutoff = float(threshold or numerics.DEFAULT_RANK_RTOL) * max(rows, dim)
        s = np.ones(short)
        s[-1] = cutoff * (1 + 1e-6 if kind == "above-cutoff" else 1 - 1e-6)
        u, _ = np.linalg.qr(complex_rng_matrix(rng, rows, short))
        v, _ = np.linalg.qr(complex_rng_matrix(rng, dim, short))
        weighted_analysis = (u * s) @ v.conj().T
        members = weighted_analysis.conj() / np.sqrt(space.weights)[:, None]
    return VectorFamily(space=space, members=members), phi


class TestPairRankCertificate:
    """``pair_verdict`` reads both redundancies off its resolution operator when it can."""

    @pytest.mark.parametrize("threshold", [None, "1e-3", "0.5"])
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 8),
        extra=st.integers(-4, 24),
        kind=st.sampled_from(["generic", "thin-product", "above-cutoff", "below-cutoff"]),
        exponent=st.sampled_from([0, 600, -600]),
        swap=st.booleans(),
    )
    def test_redundancies_are_each_familys(
        self, monkeypatch, threshold, seed, dim, extra, kind, exponent, swap
    ):
        if threshold is not None:
            monkeypatch.setenv(numerics.RANK_TOL_ENV, threshold)
        rows = max(1, dim + extra)
        psi, phi = _pair_of_kind(np.random.default_rng(seed), rows, dim, kind, exponent, threshold)
        if swap:
            psi, phi = phi, psi
        verdict = pair_verdict(psi, phi)
        assert verdict["redundancy_psi"] == redundancy(psi)
        assert verdict["redundancy_phi"] == redundancy(phi)

    @pytest.mark.parametrize("exponent", [0, 600, -600])
    @pytest.mark.parametrize("shape", [(2048, 128), (12, 4), (4, 4)], ids=["2048x128", "12x4", "4x4"])
    def test_a_reproducing_pair_forms_no_frame_operator(self, exponent, shape):
        rows, dim = shape
        psi, phi = _pair_of_kind(np.random.default_rng(rows), rows, dim, "generic", exponent, None)
        with mock.patch.object(frames, "frame_operator", wraps=frames.frame_operator) as operator:
            with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
                verdict = pair_verdict(psi, phi)
        assert verdict["reproducing_pair"]
        assert verdict["redundancy_psi"] == verdict["redundancy_phi"] == rows - dim
        assert operator.call_count == eigvalsh.call_count == 0

    @pytest.mark.parametrize("swap", [False, True], ids=["psi-thin", "phi-thin"])
    def test_an_uncertified_pair_forms_both_operators(self, rng, swap):
        psi, phi = _pair_of_kind(rng, 12, 4, "generic", 0, None)
        thin = complex_rng_matrix(rng, 12, 3) @ complex_rng_matrix(rng, 3, 4)
        psi = VectorFamily(space=psi.space, members=thin)
        if swap:
            psi, phi = phi, psi
        with mock.patch.object(frames, "frame_operator", wraps=frames.frame_operator) as operator:
            verdict = pair_verdict(psi, phi)
        assert not verdict["reproducing_pair"]
        assert operator.call_count == 2
        assert (verdict["redundancy_psi"], verdict["redundancy_phi"]) == ((8, 9) if swap else (9, 8))

    def test_fewer_nodes_than_dimensions_take_the_block_count(self, rng):
        psi, phi = _pair_of_kind(rng, 3, 5, "generic", 0, None)
        with mock.patch.object(numerics, "block_rank", wraps=numerics.block_rank) as block_rank:
            verdict = pair_verdict(psi, phi)
        assert verdict["redundancy_psi"] == verdict["redundancy_phi"] == 0
        assert block_rank.call_count == 2


class TestScalingCovariance:
    def test_resolution_scales_linearly(self, rng):
        psi, phi = random_pair(rng)
        base = resolution_operator(psi, phi).operator
        for c in (0.5, 2.0, 1.5 - 0.5j):
            scaled = resolution_operator(psi, VectorFamily(space=phi.space, members=c * phi.members)).operator
            np.testing.assert_allclose(scaled, c * base, atol=1e-12)


def test_pair_verdict_shape(rng):
    psi, phi = random_pair(rng)
    verdict = pair_verdict(psi, phi)
    assert verdict["reproducing_pair"]
    assert verdict["adjoint_identity_gap"] <= 1e-12
    assert verdict["inverse_residual"] <= 1e-9
    assert verdict["redundancy_phi"] == phi.size - phi.dim
