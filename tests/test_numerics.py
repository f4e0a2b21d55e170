import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framelab import numerics
from framelab.errors import NonSquareError, NotAFrameError, NotHermitianError, ValidationError
from framelab.frames import VectorFamily
from framelab.pairs import resolution_operator

from conftest import complex_rng_matrix, onb_family, unit_weight_space


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


class TestPinv:
    def test_identity(self):
        p, rank = numerics.pinv(np.eye(4))
        np.testing.assert_allclose(p, np.eye(4), atol=1e-14)
        assert rank == 4

    def test_singular_diagonal(self):
        p, rank = numerics.pinv(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(p, np.diag([0.5, 0.0]), atol=1e-14)
        assert rank == 1

    def test_tall_isometry(self, rng):
        m = complex_rng_matrix(rng, 7, 3)
        q, _ = np.linalg.qr(m)
        p, rank = numerics.pinv(q)
        np.testing.assert_allclose(p, q.conj().T, atol=1e-12)
        assert rank == 3

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_penrose_identities(self, seed):
        rng = np.random.default_rng(seed)
        a = complex_rng_matrix(rng, 6, 4)
        p, _ = numerics.pinv(a)
        scale = max(np.max(np.abs(p)), 1.0)
        assert np.max(np.abs(a @ p @ a - a)) <= 1e-9 * scale
        assert np.max(np.abs(p @ a @ p - p)) <= 1e-9 * scale
        assert np.max(np.abs((a @ p).conj().T - a @ p)) <= 1e-9 * scale
        assert np.max(np.abs((p @ a).conj().T - p @ a)) <= 1e-9 * scale

    def test_involution_on_full_rank(self, rng):
        a = complex_rng_matrix(rng, 5, 5) + 2 * np.eye(5)
        back, _ = numerics.pinv(numerics.pinv(a)[0])
        assert np.max(np.abs(back - a)) <= 1e-8 * np.max(np.abs(a))


class TestRank:
    def test_zero(self):
        assert numerics.rank(np.zeros((4, 4))) == 0

    def test_identity(self):
        assert numerics.rank(np.eye(4)) == 4

    def test_generic_full_rank(self, rng):
        a = complex_rng_matrix(rng, 12, 5)
        # oracle: count singular values via an independent svd call
        s = np.linalg.svd(a, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0] * 12)) == 5
        assert numerics.rank(a) == 5


def _svd_count(a, threshold):
    """Reference rank: singular values above ``threshold * sigma_max * max(shape)``."""
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > threshold * s[0] * max(a.shape)))


class _SvdCalled(Exception):
    pass


def _no_svd(*args, **kwargs):
    raise _SvdCalled


class TestRankCertificate:
    """The Gram certificate of full rank gives exactly the SVD count."""

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
        kind=st.sampled_from(["generic", "thin-product", "above-cutoff", "below-cutoff"]),
        exponent=st.sampled_from([0, 600, -600, -530, 510]),
    )
    def test_equals_svd_count(
        self, monkeypatch, threshold, seed, short, extra, tall, kind, exponent
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
            # unit singular values except the smallest, placed just off the cutoff
            cutoff = float(threshold or numerics.DEFAULT_RANK_RTOL) * max(rows, cols)
            s = np.ones(short)
            s[-1] = cutoff * (1 + 1e-6 if kind == "above-cutoff" else 1 - 1e-6)
            u, _ = np.linalg.qr(complex_rng_matrix(rng, rows, short))
            v, _ = np.linalg.qr(complex_rng_matrix(rng, cols, short))
            a = (u * s) @ v.conj().T
        a = a * 2.0**exponent
        tolerance = float(threshold or numerics.DEFAULT_RANK_RTOL)
        assert numerics.rank(a) == _svd_count(a, tolerance)

    def test_well_conditioned_table_needs_no_svd(self, rng, monkeypatch):
        a = complex_rng_matrix(rng, 512, 32)
        deficient = complex_rng_matrix(rng, 512, 31) @ complex_rng_matrix(rng, 31, 32)
        monkeypatch.setattr(np.linalg, "svd", _no_svd)
        assert numerics.rank(a) == 32
        with pytest.raises(_SvdCalled):
            numerics.rank(deficient)

    @pytest.mark.parametrize(
        "a", [[[1e200]], [[1e308, 1.0], [1.0, 1e-300]]], ids=["square-overflows", "ill-scaled"]
    )
    def test_overflowing_gram_falls_back_silently(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert numerics.rank(a) == _svd_count(np.asarray(a), numerics.DEFAULT_RANK_RTOL)


class TestRankPolicy:
    """The relative rank threshold, read from ``FRAMELAB_RANK_TOL`` at each rank decision."""

    def test_threshold_positive(self, monkeypatch):
        monkeypatch.setenv(numerics.RANK_TOL_ENV, "0")
        with pytest.raises(
            ValidationError, match="FRAMELAB_RANK_TOL must be a finite positive number, got '0'"
        ):
            numerics.rank(np.eye(2))

    @pytest.mark.parametrize("threshold", [float("inf"), float("-inf"), float("nan")])
    def test_threshold_finite(self, monkeypatch, threshold):
        monkeypatch.setenv(numerics.RANK_TOL_ENV, str(threshold))
        with pytest.raises(
            ValidationError, match=f"must be a finite positive number, got '{threshold}'"
        ):
            numerics.rank(np.eye(2))

    def test_custom_threshold_changes_rank(self, monkeypatch):
        a = np.diag([1.0, 1e-6])
        assert numerics.rank(a) == 2
        monkeypatch.setenv(numerics.RANK_TOL_ENV, "1e-3")
        assert numerics.rank(a) == 1
        assert numerics.pinv(a)[1] == 1

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
    assert json.dumps(numerics.complex_pairs(view)) == json.dumps(oracle)


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
