"""Dense complex linear algebra with one shared floating-point policy.

Operators on the ambient space (frame operators, resolution operators,
coordinate Gram matrices) are dense ``complex128`` numpy arrays of size at
most ``d x d`` or ``n x d``; node-indexed ``n x n`` kernels are kept by
:mod:`framelab.rkhs` as two ``n x r`` factors instead.  There is no sparse or
iterative machinery.  Every rank decision and pseudoinverse cutoff comes
from :func:`rank_cutoff`.  :func:`rank` certifies full rank from the Gram
spectrum of the shorter side: with eigenvalues ``lam`` ascending and the
slack ``4 * (rows + cols) * eps * trace``, the rank is ``min(rows, cols)``
when ``lam[0] - slack`` exceeds the squared cutoff of
``sqrt(lam[-1] + slack)``; otherwise, and for empty, overflowing or
underflowing input, it counts singular values from an SVD.  Either way the
verdict is the SVD count.  The frame bounds of a frame operator together
with the rule that refuses to invert it live in :func:`frame_spectrum` and
:func:`require_frame`, so no other module hand-rolls its own thresholds.  The
thresholds are constants: ``DEFAULT_RANK_RTOL`` (overridable only through
``FRAMELAB_RANK_TOL``, read at each rank decision), ``HERMITIAN_RTOL`` for
Hermitian symmetry and ``FRAME_RTOL`` for the frame verdict; the few
tolerances and bounds that callers still pass go through
:func:`check_tolerance`.  Complex arrays are written out as ``[re, im]``
pairs by :func:`complex_pairs`.
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


def complex_pairs(a) -> list[list[float]]:
    """Entries of a complex array in C order as ``[re, im]`` lists of floats."""
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).reshape(-1, 2).tolist()


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


def rank(a) -> int:
    """Number of singular values above :func:`rank_cutoff`.

    Full rank is first certified from the eigenvalues ``lam`` of the Gram
    matrix ``G`` of the shorter side (``min(rows, cols)`` square).  Forming
    ``G`` and taking its eigenvalues is backward stable, so by Weyl's
    inequality ``|lam_i - sigma_i**2| <= slack`` with
    ``slack = 4 * (rows + cols) * eps * trace(G)`` and
    ``trace(G) = ||a||_F**2``.  When ``lam[0] - slack`` exceeds the squared
    cutoff of the upper bound ``sqrt(lam[-1] + slack)`` on ``sigma_max``,
    every singular value clears the cutoff and the rank is
    ``min(rows, cols)``.  The certificate also requires ``trace(G)`` to be
    finite and above ``rows * cols * tiny / eps``, so that neither
    overflow nor gradual underflow in ``G`` escapes the slack.  Otherwise the
    singular values are counted from an SVD; either way the verdict is the
    SVD count.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    with np.errstate(all="ignore"):
        gram = m.conj().T @ m if rows >= cols else m @ m.conj().T
        trace = float(np.trace(gram).real)
    if _GRAM_FLOOR * rows * cols < trace < math.inf and np.all(np.isfinite(gram)):
        lam = np.linalg.eigvalsh(gram)
        slack = 4 * (rows + cols) * _EPS * trace
        bound = rank_cutoff(np.sqrt([lam[-1] + slack]), m.shape)
        if lam[0] - slack > bound * bound:
            return min(rows, cols)
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > rank_cutoff(s, m.shape)))


def operator_norm(a) -> float:
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0
