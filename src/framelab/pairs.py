"""Reproducing pairs: mixed resolution operators, induced geometry, duals.

A pair of families over one space interacts through the resolution operator
``S f = sum_j w_j <f, psi_j> phi_j`` (analysis against the first family,
synthesis onto the second).  Nothing here assumes frame bounds of either
family; everything hinges on the resolution operator being invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError,
    NotInjectiveError,
    NotInvertibleError,
    NotSurjectiveError,
    SpaceMismatchError,
)
from .frames import (
    VectorFamily, analysis_rank, dual_family, frame_operator, redundancy, synthesis,
)
from .rkhs import KernelTable

CONDITION_THRESHOLD = 1e10


@dataclass(frozen=True, eq=False)
class ResolutionReport:
    """Resolution operator of a pair together with its invertibility verdict.

    The operator counts as invertible when its condition number is at most
    ``CONDITION_THRESHOLD``; ``singular_values`` (descending) are the ones
    that number was read from.
    """

    operator: np.ndarray
    singular_values: np.ndarray
    condition: float
    invertible: bool

    @cached_property
    def inverse(self) -> np.ndarray | None:
        """The operator's inverse when it is invertible, formed on first use."""
        return np.linalg.inv(self.operator) if self.invertible else None

    def to_json(self) -> dict:
        return {
            "operator": numerics.complex_pairs(self.operator),
            "dim": self.operator.shape[0],
            "condition": self.condition if np.isfinite(self.condition) else "infinite",
            "invertible": self.invertible,
            "condition_threshold": CONDITION_THRESHOLD,
        }


def _check_same_space(psi: VectorFamily, phi: VectorFamily) -> None:
    if psi.space != phi.space:
        raise SpaceMismatchError("families live on different discretized spaces")
    if psi.dim != phi.dim:
        raise SpaceMismatchError(
            f"families have different ambient dimensions {psi.dim} and {phi.dim}"
        )


def resolution_operator(psi: VectorFamily, phi: VectorFamily) -> ResolutionReport:
    """Analysis against ``psi`` composed with weighted synthesis onto ``phi``."""
    _check_same_space(psi, phi)
    operator = mixed_operator(psi, phi)
    sing = numerics.singular_values(operator)
    # a family has dim >= 1, so there is always a smallest singular value
    condition = float(sing[0] / sing[-1]) if sing[-1] > 0.0 else float("inf")
    invertible = bool(np.isfinite(condition) and condition <= CONDITION_THRESHOLD)
    return ResolutionReport(
        operator=operator, singular_values=sing, condition=condition, invertible=invertible
    )


def mixed_operator(psi: VectorFamily, phi: VectorFamily) -> np.ndarray:
    """Matrix of ``f -> sum_j w_j <f, psi_j> phi_j`` on one shared space."""
    return np.conj(numerics.weighted_gram(phi.members, psi.space.weights, psi.members))


def induced_inner(family: VectorFamily, f_values, g_values) -> complex:
    """Pairing ``< T F, T G >`` of synthesis images under ``family``.

    This is a genuine inner product only modulo the null space of the
    synthesis map: any coefficient function synthesizing to zero pairs to
    zero against everything.
    """
    tf = synthesis(family, f_values)
    tg = synthesis(family, g_values)
    return complex(np.vdot(tg, tf))


def _invertible_resolution(psi: VectorFamily, phi: VectorFamily) -> ResolutionReport:
    report = resolution_operator(psi, phi)
    if not report.invertible:
        raise NotInvertibleError(
            f"resolution operator condition {report.condition:.3e} exceeds "
            f"{CONDITION_THRESHOLD:.0e}"
        )
    return report


def range_kernel(psi: VectorFamily, phi: VectorFamily) -> KernelTable:
    """Mixed kernel whose integral operator fixes exactly the analysis images.

    The induced operator is an oblique projection: idempotent with range the
    analysis images of ``psi`` and null space the synthesis kernel of
    ``phi``.  Its table is in general not Hermitian; it coincides with the
    frame kernel when the two families are one frame.
    """
    report = _invertible_resolution(psi, phi)
    # entries conj(psi) S^-1 phi^T, stored as the factors conj(psi) S^-1 and conj(phi)
    left = numerics.freeze(psi.members.conj() @ report.inverse)
    return KernelTable(space=psi.space, left=left, right=numerics.freeze(phi.members.conj()))


def induced_kernel(psi: VectorFamily, phi: VectorFamily) -> KernelTable:
    """Reproducing kernel of the analysis range in the induced geometry.

    Section ``k_x = entries[x, :]`` reproduces point values through
    :func:`induced_inner` against the geometry of ``phi`` for every analysis
    image of ``psi``.  The table is the Gram of transported members, stored
    as those members on both sides, hence Hermitian and positive
    semidefinite.
    """
    report = _invertible_resolution(psi, phi)
    # row x is the member psi_x transported by the inverse of the adjoint-side
    # resolution operator (analysis against phi, synthesis onto psi), which is
    # the adjoint of the inverse
    transported = numerics.freeze(psi.members @ report.inverse.conj())
    return KernelTable(space=psi.space, left=transported, right=transported, geometry=phi)


@dataclass(frozen=True, eq=False)
class FrameTransferReport:
    """Transfer of an ambient frame into the induced coefficient geometry.

    The computed bounds are the frame bounds of the analysis images of the
    ``frame_vectors`` under ``psi`` in the induced geometry, guaranteed to
    land inside ``[predicted_lower, predicted_upper]``; the bounds are read
    without forming those images.
    """

    frame_vectors: np.ndarray
    psi: VectorFamily
    lower: float
    upper: float
    predicted_lower: float
    predicted_upper: float

    @cached_property
    def functions(self) -> np.ndarray:
        """``functions[i]``: the analysis image of the i-th frame vector, formed on first use."""
        return self.frame_vectors @ self.psi.members.conj().T


def frame_transfer(psi: VectorFamily, phi: VectorFamily, frame_vectors) -> FrameTransferReport:
    """Push an ambient frame through analysis into the induced geometry.

    The transported system is a frame there, with bounds squeezed between the
    ambient bounds scaled by the extreme squared singular values of the
    resolution operator.
    """
    g = numerics.adopt(frame_vectors)
    if g.ndim != 2 or g.shape[1] != psi.dim:
        raise DimensionMismatchError(
            f"frame vectors must form a (count, {psi.dim}) table, got {g.shape}"
        )
    # each frame operator below, sum_i v_i v_i^H over the rows v_i, is the
    # conjugate of the rows' Gram: the same spectrum
    g_lower, g_upper, _, _ = numerics.require_frame(numerics.gram(g), vectors=False)
    report = _invertible_resolution(psi, phi)
    transported = g @ report.operator.T
    lower, upper, _, _ = numerics.frame_spectrum(numerics.gram(transported), vectors=False)
    return FrameTransferReport(
        frame_vectors=g,
        psi=psi,
        lower=lower,
        upper=upper,
        predicted_lower=g_lower * float(report.singular_values[-1]) ** 2,
        predicted_upper=g_upper * float(report.singular_values[0]) ** 2,
    )


def lower_semiframe_dual(psi: VectorFamily) -> VectorFamily:
    """Dual family built from the bounded left inverse of analysis.

    Requires an injective analysis map: refused with ``NotInjectiveError``
    when :func:`~framelab.frames.analysis_rank` is below the dimension.  The
    dual comes from the minimal-norm left inverse ``A^+`` of the weighted
    analysis table ``A = sqrt(w) * conj(members)``, which makes the mixed
    resolution operator of (``psi``, dual) the identity and caps the dual's
    Bessel constant by the squared operator norm of that inverse.

    ``A^H A`` is the frame operator ``S``, so on full rank ``A^+ = S^-1 A^H``
    and the dual is the canonical dual ``members @ S^-T``.  It is built that
    way, from the eigenpairs of ``S``, when the spectrum of ``S`` is a
    frame's (:meth:`~framelab.numerics.FrameSpectrum.is_frame`); one Newton
    step on the resolution residual ``R = dual^T (w * conj(members)) - I``
    then brings the identity gap down to what an SVD gives.  Otherwise, as
    when ``cond(S)`` is past ``1 / FRAME_RTOL``, it is ``conj(B diag(1/s) vh)``
    from the :func:`~framelab.numerics.weighted_svd` of ``conj(members)``, whose
    ``B`` has ``B^H W B = I``.  The routes agree to rounding.
    """
    operator = frame_operator(psi)
    spectrum = numerics.frame_spectrum(operator)
    if analysis_rank(psi, operator, spectrum.values) < psi.dim:
        raise NotInjectiveError("analysis map is rank deficient")
    with np.errstate(all="ignore"):  # dual_family refuses a dual past the float range
        if spectrum.is_frame():
            dual_members = spectrum.inverse_rows(psi.members)
            residual = np.conj(numerics.weighted_gram(dual_members, psi.space.weights, psi.members))
            residual -= np.eye(psi.dim)
            numerics.newton_update(dual_members, residual.T)
            return dual_family(psi.space, dual_members)
        basis, s, vh = numerics.weighted_svd(psi.members.conj(), psi.space.weights)
        return dual_family(psi.space, np.conj((basis / s) @ vh))


def reproducing_partner(phi: VectorFamily) -> VectorFamily:
    """Partner family turning ``phi`` into a reproducing pair.

    Requires the weighted synthesis map of ``phi`` to be surjective.  Each
    ambient basis vector is pulled back to its minimal-norm coefficient
    preimage; conjugating those preimages row by row yields the partner, and
    the minimal-norm choice makes the pair's resolution operator exactly the
    identity.  The per-node squared sums of the preimages equal the squared
    row norms of the returned members.

    Weighted synthesis is the adjoint of weighted analysis, so its
    minimal-norm right inverse is the adjoint of the minimal-norm left
    inverse behind :func:`lower_semiframe_dual`: the partner is that dual,
    refused on the same rank rule as :func:`~framelab.frames.redundancy`.
    """
    try:
        return lower_semiframe_dual(phi)
    except NotInjectiveError as exc:
        raise NotSurjectiveError("synthesis map does not reach the ambient space") from exc


def partner_pointwise_sums(partner: VectorFamily) -> np.ndarray:
    """Per-node squared sums of the coefficient preimages behind a partner."""
    return np.sum(np.abs(partner.members) ** 2, axis=1)


def bessel_bound(family: VectorFamily) -> float:
    """Largest eigenvalue of the frame operator: the optimal Bessel constant."""
    return numerics.frame_spectrum(frame_operator(family), vectors=False).upper


def pair_verdict(psi: VectorFamily, phi: VectorFamily) -> dict:
    """One-shot reproducing-pair check, shaped for report serialization.

    The resolution operator is the mixed Gram of the weighted analysis
    tables, so when its least singular value certifies both at full rank
    (:func:`~framelab.numerics.certifies_pair_rank`) each redundancy is
    ``n - d``, the count of :func:`~framelab.frames.redundancy`, and neither
    frame operator is formed; otherwise each is that function's.
    """
    report = resolution_operator(psi, phi)
    swapped = mixed_operator(phi, psi)
    adjoint_gap = float(np.max(np.abs(swapped - report.operator.conj().T)))
    energies = [numerics.weighted_energy(f.members, f.space.weights) for f in (psi, phi)]
    if numerics.certifies_pair_rank(report.singular_values[-1], energies, (psi.size, psi.dim)):
        excess_psi = excess_phi = psi.size - psi.dim
    else:
        excess_psi, excess_phi = redundancy(psi), redundancy(phi)
    verdict = {
        "reproducing_pair": report.invertible,
        "resolution": report.to_json(),
        "adjoint_identity_gap": adjoint_gap,
        "redundancy_psi": excess_psi,
        "redundancy_phi": excess_phi,
    }
    if report.invertible:
        identity_gap = report.operator @ report.inverse - np.eye(psi.dim)
        verdict["inverse_residual"] = float(np.max(np.abs(identity_gap)))
    return verdict
