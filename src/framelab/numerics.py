"""Dense complex linear algebra with one shared floating-point policy.

Operators on the ambient space (frame operators, resolution operators,
coordinate Gram matrices) are dense ``complex128`` numpy arrays of size at
most ``d x d`` or ``n x d``; node-indexed ``n x n`` kernels are kept by
:mod:`framelab.rkhs` as two ``n x r`` factors instead.  There is no sparse or
iterative machinery.  Every rank decision and pseudoinverse cutoff comes
from :func:`rank_cutoff`.  :func:`rank` first tries to certify full rank
from a Gram spectrum (:func:`certifies_full_rank`) and otherwise counts
singular values from an SVD, so a rank verdict is the SVD count; every rank
verdict on a family is :func:`framelab.frames.analysis_rank`, which asks the
certificate of the frame operator first.  The frame bounds of a frame
operator together with the rule that refuses to invert it live in
:func:`frame_spectrum` and :func:`require_frame`, and the inverse applied to
the rows of a member table in :meth:`FrameSpectrum.inverse_rows`, so no other
module hand-rolls its own thresholds or dual formula.  The
thresholds are constants: ``DEFAULT_RANK_RTOL`` (overridable only through
``FRAMELAB_RANK_TOL``, read at each rank decision), ``HERMITIAN_RTOL`` for
Hermitian symmetry and ``FRAME_RTOL`` for the frame verdict; the few
tolerances and bounds that callers still pass go through
:func:`check_tolerance`.  Complex arrays are written out as ``[re, im]``
pairs through :func:`complex_pairs`, an ``(m, 2)`` float64 view of the
entries in C order; a report renders that view as ``json.dumps`` renders its
``.tolist()``.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from .errors import NonSquareError, NotAFrameError, NotHermitianError, ValidationError

DEFAULT_RANK_RTOL = 1e-10
HERMITIAN_RTOL = 1e-12
FRAME_RTOL = 1e-8

RANK_TOL_ENV = "FRAMELAB_RANK_TOL"

_EPS = float(np.finfo(np.float64).eps)
# below this Gram trace per table entry, gradual underflow in forming the Gram
# could exceed the rank certificate's rounding slack
_GRAM_FLOOR = float(np.finfo(np.float64).tiny) / _EPS


def check_tolerance(value: float, name: str) -> None:
    """Refuse a tolerance or bound that is not a finite, nonnegative number."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    if value < 0:
        raise ValidationError(f"{name} must be nonnegative")


def complex_pairs(a) -> np.ndarray:
    """Entries of a complex array in C order as the rows ``[re, im]`` of an ``(m, 2)`` float view.

    A C-contiguous ``complex128`` input is viewed, not copied; ``.tolist()``
    gives the ``[re, im]`` lists the reports write.
    """
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).reshape(-1, 2)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValidationError(f"expected a 2-d array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    return m


def rank_cutoff(singular_values: np.ndarray, shape: tuple[int, int]) -> float:
    """Bound at or below which a singular value falls outside the numerical rank.

    The cutoff is ``threshold * sigma_max * max(rows, cols)``.  The relative
    threshold is read from ``FRAMELAB_RANK_TOL`` on every call, or is
    ``DEFAULT_RANK_RTOL`` when the variable is unset, and must be a finite
    positive number.
    """
    raw = os.environ.get(RANK_TOL_ENV)
    try:
        threshold = DEFAULT_RANK_RTOL if raw is None else float(raw)
    except ValueError:
        threshold = math.nan
    if not 0 < threshold < math.inf:
        raise ValidationError(f"{RANK_TOL_ENV} must be a finite positive number, got {raw!r}")
    if singular_values.size == 0:
        return 0.0
    return threshold * float(singular_values[0]) * max(shape)


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as unitary columns, so ``a = V @ diag(vals) @ V.conj().T``.
    The input is symmetrized to absorb roundoff; asymmetry beyond
    ``HERMITIAN_RTOL`` times the matrix scale is an error.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    asymmetry = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if asymmetry > HERMITIAN_RTOL * scale:
        raise NotHermitianError(
            f"asymmetry {asymmetry:.3e} exceeds {HERMITIAN_RTOL:.0e} * scale {scale:.3e}"
        )
    sym = (m + m.conj().T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    return values, vectors


class FrameSpectrum(NamedTuple):
    """Frame bounds of a frame operator and the eigenpairs they were read from.

    ``lower`` is the smallest eigenvalue clamped at 0 and ``upper`` the largest;
    ``values`` ascend and ``vectors`` holds the matching unitary columns, so
    inverses and square roots of the operator need no further factorization.
    """

    lower: float
    upper: float
    values: np.ndarray
    vectors: np.ndarray

    def is_frame(self) -> bool:
        """Whether the lower bound clears ``FRAME_RTOL`` times a nonzero upper bound."""
        return self.lower > FRAME_RTOL * self.upper and self.upper != 0.0

    def inverse_rows(self, members) -> np.ndarray:
        """Each row of ``members`` mapped by the inverse operator: ``members @ S^-T``.

        For the members of a frame this is its canonical dual.  ``S^-T =
        conj(V) diag(1 / values) V^T`` is formed first, so the rows cost one
        ``n x d x d`` product.
        """
        return members @ ((self.vectors.conj() / self.values) @ self.vectors.T)


def frame_spectrum(operator) -> FrameSpectrum:
    """Spectral frame bounds of a Hermitian positive semidefinite operator."""
    values, vectors = hermitian_eig(operator)
    return FrameSpectrum(float(max(values[0], 0.0)), float(values[-1]), values, vectors)


def require_frame(operator) -> FrameSpectrum:
    """:func:`frame_spectrum` of an operator that is about to be inverted.

    Refuses with ``NotAFrameError`` when the spectrum fails
    :meth:`FrameSpectrum.is_frame`, since the inverse would amplify noise
    unboundedly.
    """
    spectrum = frame_spectrum(operator)
    if not spectrum.is_frame():
        raise NotAFrameError(
            f"lower bound {spectrum.lower:.3e} below tolerance {FRAME_RTOL:.0e} "
            f"* {spectrum.upper:.3e}"
        )
    return spectrum


def singular_values(a) -> np.ndarray:
    m = as_matrix(a)
    return np.linalg.svd(m, compute_uv=False)


def pinv(a) -> tuple[np.ndarray, int]:
    """Moore-Penrose pseudoinverse and numerical rank, both from one SVD.

    Inverts the singular values above :func:`rank_cutoff` and annihilates the
    rest, which is exactly the bounded left inverse used by the dual
    constructions; the rank is the number of inverted values.
    """
    m = as_matrix(a)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s > rank_cutoff(s, m.shape)
    inverted = np.zeros_like(s)
    inverted[keep] = 1.0 / s[keep]
    return vh.conj().T @ (inverted[:, None] * u.conj().T), int(np.count_nonzero(keep))


def certifies_full_rank(gram, shape: tuple[int, int], values=None) -> bool:
    """Whether a Gram matrix certifies that a ``shape`` table has full rank.

    ``gram`` is the Gram matrix of the table's shorter side (``min(rows,
    cols)`` square) and ``values`` its ascending eigenvalues, taken with
    ``eigvalsh`` when not given.  Forming ``gram`` and taking its eigenvalues
    is backward stable, so by Weyl's inequality
    ``|values[i] - sigma_i**2| <= slack`` with
    ``slack = 4 * (rows + cols) * eps * trace(gram)`` and
    ``trace(gram) = ||table||_F**2``.  Full rank is certified when
    ``values[0] - slack`` exceeds the squared :func:`rank_cutoff` of the
    upper bound ``sqrt(values[-1] + slack)`` on ``sigma_max``: every singular
    value then clears the cutoff.  The trace must be finite and above
    ``rows * cols * tiny / eps``, and every entry of ``gram`` finite, so that
    neither overflow nor gradual underflow escapes the slack; otherwise
    nothing is certified.

    The slack also covers a frame operator ``S = members^T (w * conj(members))``
    over ``n`` nodes in ``d`` dimensions, taken as the Gram of the weighted
    analysis table ``A = sqrt(w) * conj(members)`` of shape ``(n, d)``
    although ``A`` is never formed.  Each entry of the computed ``S`` is a
    length-``n`` complex inner product of weighted terms, so to first order it
    is off by at most ``(n + 3) * eps`` times the same entry of ``|A|^H |A|``;
    that error matrix has norm at most ``(n + 3) * eps * trace(S)``, since
    ``|| |A|^H |A| || <= ||A||_F**2``.  It fits inside the slack together with
    the symmetrization and the eigensolver's own backward error.
    """
    rows, cols = shape
    with np.errstate(all="ignore"):
        trace = float(np.trace(gram).real)
    if not (_GRAM_FLOOR * rows * cols < trace < math.inf and np.all(np.isfinite(gram))):
        return False
    if values is None:
        values = np.linalg.eigvalsh(gram)
    slack = 4 * (rows + cols) * _EPS * trace
    bound = rank_cutoff(np.sqrt([values[-1] + slack]), shape)
    return bool(values[0] - slack > bound * bound)


def rank(a) -> int:
    """Number of singular values above :func:`rank_cutoff`.

    Full rank is first certified by :func:`certifies_full_rank` from the
    Gram matrix of the shorter side; otherwise the singular values are
    counted from an SVD.  Either way the verdict is the SVD count.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    with np.errstate(all="ignore"):
        gram = m.conj().T @ m if rows >= cols else m @ m.conj().T
    if certifies_full_rank(gram, m.shape):
        return min(rows, cols)
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > rank_cutoff(s, m.shape)))


def operator_norm(a) -> float:
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0
