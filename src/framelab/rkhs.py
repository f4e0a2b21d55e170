"""Reproducing kernels over finite node sets.

A :class:`KernelTable` stores a kernel over the nodes of a
:class:`~framelab.measure.DiscretizedSpace` as two ``n x r`` factors,
``K = left @ right^H``, with ``r`` at most the ambient dimension, so it costs
O(n r) unless a caller asks for the dense table.  The kernel of a span is
``B B^H`` for one factor with ``B^H W B = I`` (:func:`mu_orthonormal_basis`),
taken from the eigenpairs of the span's Gram when they certify full rank and
from one SVD otherwise; the span rank follows
:func:`~framelab.numerics.rank_cutoff` like every other rank verdict.  Only
:meth:`KernelTable.row_blocks` forms dense rows.  A pair of function systems
expands the kernel of its joint span through the inverse of the pair's
resolution operator and reports how far its two summation orders disagree,
on ``r x r`` span coordinates.  The refinement blow-up needs no table: the
step basis has a diagonal kernel, read from its ``n`` values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError, NotOrthonormalError, PairDegenerateError, ValidationError,
)
from .measure import DiscretizedSpace, unit_segment_space

if TYPE_CHECKING:
    from .frames import VectorFamily

ORTHO_TOL = 1e-10
SPAN_CONDITION_LIMIT = 1e10
# absolute room the pointwise square-sum bound leaves for roundoff
POINTWISE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Kernel ``K[x, y] = sum_k left[x, k] conj(right[y, k])`` over the nodes of a space.

    ``apply`` realizes the induced integral operator
    ``(K F)(x) = sum_y w_y K[x, y] F(y)``.  ``apply``, ``diagonal`` and
    ``section`` work on the factors in O(n r); :attr:`entries` and ``to_json``
    build the dense table on each call and keep nothing, and
    :meth:`row_blocks` builds it a block of rows at a time.
    Reproducing-kernel constructors guarantee Hermitian symmetry of their
    tables; tables of oblique projections (mixed analysis/synthesis kernels)
    are in general not Hermitian, so symmetry is checked by the builders, not
    here.  ``geometry`` is the family whose synthesis map induces the pairing
    the table reproduces in, or ``None`` for the plain node pairing.

    The factors are kept read-only, and one array passed as both factors is
    kept once.  A read-only, C-contiguous ``complex128`` factor that owns its
    data is adopted as is, so a producer that freezes a fresh factor
    (:func:`~framelab.numerics.freeze`) hands it over without a copy; anything
    else is copied (:func:`~framelab.numerics.adopt`).
    """

    space: DiscretizedSpace
    left: np.ndarray
    right: np.ndarray
    geometry: "VectorFamily | None" = None

    def __post_init__(self) -> None:
        n = self.space.size
        left = numerics.as_matrix(numerics.adopt(self.left))
        right = left if self.left is self.right else numerics.as_matrix(numerics.adopt(self.right))
        if left.shape[0] != n or left.shape != right.shape:
            raise ValidationError(
                f"kernel factors must both be {n}xr, got {left.shape} and {right.shape}"
            )
        # |K[x, y]| <= |left[x]| |right[y]| (Cauchy-Schwarz), so a finite
        # product of the largest row norms keeps every dense entry finite
        if not math.isfinite(_largest_row_norm(left) * _largest_row_norm(right)):
            raise ValidationError("kernel factor row norms overflow the dense entries")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def size(self) -> int:
        return self.space.size

    @property
    def entries(self) -> np.ndarray:
        """The dense ``n x n`` table, computed anew on every access."""
        return self.left @ self.right.conj().T

    @property
    def diagonal(self) -> np.ndarray:
        """Real part of ``K[x, x]``."""
        return _row_inner_real(self.left, self.right)

    def section(self, index: int) -> np.ndarray:
        """The reproducing section attached to node ``index``.

        Pairing any function of the underlying space against this section, in
        the table's own geometry, evaluates the function at the node.  Plain
        tables attach sections along columns (``K[x, j]`` as a function of
        ``x``); induced-geometry tables are built the other way around and
        attach them along rows.
        """
        if not 0 <= index < self.size:
            raise ValidationError(f"node index {index} out of range")
        if self.geometry is None:
            return self.left @ self.right[index].conj()
        return np.conj(self.right @ self.left[index].conj())

    def apply(self, values) -> np.ndarray:
        f = self.space.values(values)
        # right^H (w f), conjugating vectors instead of copying the factor
        return self.left @ np.conj(np.conj(self.space.weights * f) @ self.right)

    def row_blocks(self, entries: int) -> Iterator[tuple[int, int, np.ndarray]]:
        """``(start, stop, K[start:stop])`` over the table, about ``entries`` entries a block.

        The blocks tile the rows in order, and a table with no nodes has none.
        A block holds at least two rows, or the whole table: BLAS may hand a
        one-row product to its matrix-vector kernel (OpenBLAS does), which can
        round differently from the full product.
        """
        n = self.size
        count = max(1, n // max(2, entries // max(n, 1)))
        edges = [n * i // count for i in range(count + 1)] if n else []
        right_h = self.right.conj().T
        for start, stop in zip(edges, edges[1:]):
            yield start, stop, self.left[start:stop] @ right_h

    def is_hermitian(self) -> bool:
        """Whether ``max |K - K^H| <= HERMITIAN_RTOL * max(max |K|, 1)``, in row blocks."""
        scale = gap = 0.0
        left_h = self.left.conj().T
        for start, stop, rows in self.row_blocks(numerics.BLOCK_ENTRIES):
            scale = max(scale, float(np.max(np.abs(rows))))
            rows -= self.right[start:stop] @ left_h
            gap = max(gap, float(np.max(np.abs(rows))))
        return gap <= numerics.HERMITIAN_RTOL * max(scale, 1.0)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "geometry": "induced" if self.geometry is not None else "plain",
            "entries": numerics.complex_pairs(self.entries),
        }


def _row_inner_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re sum_k a[x, k] conj(b[x, k])`` per row, read through real and imaginary views."""
    return np.einsum("ij,ij->i", a.real, b.real) + np.einsum("ij,ij->i", a.imag, b.imag)


def _largest_row_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    largest = float(np.max(_row_inner_real(a, a)))
    if math.isfinite(largest):
        return math.sqrt(largest)
    # the squares overflowed; hypot accumulates the norms without squaring
    return float(np.max(np.hypot.reduce(np.abs(a), axis=1)))


def function_matrix(functions, space: DiscretizedSpace) -> np.ndarray:
    """Column-stack node functions into an ``(n_nodes, n_functions)`` array.

    Accepts a sequence of length-``n`` arrays or a ready-made 2-d array whose
    columns are the functions.
    """
    arr = np.asarray(functions, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    elif arr.ndim == 2 and isinstance(functions, (list, tuple)):
        # a list of 1-d functions stacks as rows; store functions as columns
        arr = arr.T
    if arr.ndim != 2 or arr.shape[0] != space.size:
        raise DimensionMismatchError(
            f"functions must have {space.size} node values each, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("function values must be finite")
    return arr


def orthonormal_factor(
    table, weights, spectrum: numerics.FrameSpectrum, conjugate: bool = False
) -> np.ndarray:
    """``B = table V diag(values)**-1/2``, from the frame ``spectrum`` of ``table^H W table``.

    ``B^H W B = I`` up to a defect of ``eps`` times the Gram's condition, which
    one Newton step ``B -= B (B^H W B - I) / 2`` takes down to rounding; the
    step runs in place, a row block at a time
    (:func:`~framelab.numerics.newton_update`).  With ``conjugate``, ``table``
    holds the conjugate rows and ``B = conj(table) V diag(values)**-1/2`` is
    formed as ``conj(table conj(V diag(values)**-1/2))``, conjugated in place,
    so no conjugate copy of ``table`` is made.
    """
    scale = spectrum.vectors / np.sqrt(spectrum.values)
    if conjugate:
        factor = table @ np.conj(scale, out=scale)
        np.conj(factor, out=factor)
    else:
        factor = table @ scale
    defect = numerics.gram(factor, weights) - np.eye(spectrum.values.size)
    numerics.newton_update(factor, 0.5 * defect)
    return factor


def mu_orthonormal_basis(functions, space: DiscretizedSpace) -> np.ndarray:
    """Factor ``B`` with ``B^H W B = I_r`` spanning functions ``F`` of rank ``r`` in ``sqrt(w) F``.

    With no more functions than nodes and a Gram ``F^H W F`` that is a frame
    operator certifying full rank (:func:`~framelab.numerics.certifies_full_rank`
    reads the Gram of the shorter side), ``B`` is its :func:`orthonormal_factor`;
    otherwise ``B`` holds the left singular vectors of ``sqrt(w) F`` above
    :func:`~framelab.numerics.rank_cutoff`, over ``sqrt(w)``.  Only the
    projector ``B B^H W`` is unique.
    """
    f = function_matrix(functions, space)
    w = space.weights
    if f.shape[0] >= f.shape[1] > 0:
        with np.errstate(all="ignore"):  # an overflowing Gram takes the SVD
            gram = numerics.gram(f, w)
        if np.all(np.isfinite(gram)):
            spectrum = numerics.frame_spectrum(gram)
            if spectrum.is_frame() and numerics.certifies_full_rank(gram, f.shape, spectrum.values):
                return orthonormal_factor(f, w, spectrum)
    basis, _, _ = numerics.weighted_svd(f, w)
    if not basis.shape[1]:
        raise ValidationError("function system spans only the zero space")
    return basis


def kernel_from_onb(basis, space: DiscretizedSpace) -> KernelTable:
    """Kernel of the span of an orthonormal system: ``K = sum_i b_i(x) conj(b_i(y))``.

    Raises ``NotOrthonormalError`` when the pairwise inner products deviate
    from the identity by more than ``ORTHO_TOL``.
    """
    b = function_matrix(basis, space)
    _require_orthonormal(numerics.gram(b, space.weights) - np.eye(b.shape[1]))
    return KernelTable(space=space, left=b, right=b)


def _require_orthonormal(defect: np.ndarray) -> None:
    """Refuse a system whose Gram minus the identity, ``defect``, exceeds ``ORTHO_TOL``."""
    gap = float(np.max(np.abs(defect)))
    if gap > ORTHO_TOL:
        raise NotOrthonormalError(f"orthonormality defect {gap:.3e} exceeds {ORTHO_TOL:.0e}")


def kernel_of_span(functions, space: DiscretizedSpace) -> KernelTable:
    """Kernel of the span of an arbitrary function system."""
    q = numerics.freeze(mu_orthonormal_basis(functions, space))
    return KernelTable(space=space, left=q, right=q)


@dataclass(frozen=True, eq=False)
class PairKernelReport:
    """Diagnostics of a pair-expanded kernel."""

    table: KernelTable
    span_dim: int
    order_disagreement: float
    inverse_residual: float
    condition: float


def kernel_from_pair_report(first, second, space: DiscretizedSpace) -> PairKernelReport:
    """Expand the span kernel through a pair of function systems.

    The table is ``K(x, y) = sum_i (A first_i)(x) conj(second_i(y))`` where A
    is the inverse, on the joint span, of the mixed resolution operator
    ``f -> sum_i <f, second_i> first_i``.  In an orthonormal basis ``q`` of the
    span, with coordinates ``c1`` and ``c2`` of the systems, that operator is
    ``S = c1 c2^H``, the table is ``q (A S) q^H`` and the second order
    ``sum_i (A* second_i)(x) conj(first_i(y))`` is ``q (S A)^H q^H``.  So
    ``order_disagreement = max |A S - (S A)^H|`` and ``inverse_residual =
    max |A S - I|`` measure the rounding of the ``r x r`` inverse, not of the
    dense tables.  The pair is refused as degenerate when the smallest
    singular value of the resolution operator is at most the pair's scale
    divided by ``SPAN_CONDITION_LIMIT``.
    """
    f1 = function_matrix(first, space)
    f2 = function_matrix(second, space)
    if f1.shape[1] != f2.shape[1]:
        raise DimensionMismatchError(
            f"paired systems need equal length, got {f1.shape[1]} and {f2.shape[1]}"
        )
    joint = np.hstack([f1, f2])
    q = mu_orthonormal_basis(joint, space)
    c1, c2 = np.hsplit(numerics.weighted_gram(q, space.weights, joint), 2)
    s_hat = c1 @ c2.conj().T
    dim = q.shape[1]
    # the joint span is never empty, so s_hat, c1 and c2 each have a singular value
    sing = numerics.singular_values(s_hat)
    smallest = float(sing[-1])
    condition = float(sing[0] / smallest) if smallest > 0.0 else float("inf")
    # invertibility is judged against the natural scale of the pair, the
    # product of the coordinate norms, so a uniformly tiny operator (which may
    # look well conditioned relative to itself) still counts as degenerate
    scale = float(numerics.singular_values(c1)[0]) * float(numerics.singular_values(c2)[0])
    if scale == 0.0 or smallest * SPAN_CONDITION_LIMIT <= scale:
        raise PairDegenerateError(
            f"span resolution operator is numerically singular "
            f"(smallest singular value {smallest:.3e} against scale {scale:.3e})"
        )
    a_hat = np.linalg.inv(s_hat)
    product = a_hat @ s_hat
    return PairKernelReport(
        table=KernelTable(space=space, left=q @ (a_hat @ c1), right=f2),
        span_dim=dim,
        order_disagreement=float(np.max(np.abs(product - (s_hat @ a_hat).conj().T))),
        inverse_residual=float(np.max(np.abs(product - np.eye(dim)))),
        condition=condition,
    )


@dataclass(frozen=True, eq=False)
class PointwiseVerdict:
    """Per-node outcome of the pointwise square-sum bound."""

    sums: np.ndarray
    upper_ok: np.ndarray

    @property
    def all_upper_ok(self) -> bool:
        return bool(np.all(self.upper_ok))


def bessel_pointwise_check(functions, kernel: KernelTable, upper_bound: float) -> PointwiseVerdict:
    """Check ``sum_i |f_i(x)|^2 <= upper_bound * K(x, x) + POINTWISE_SLACK`` per node.

    ``upper_bound`` must be a verified upper frame bound of the system in the
    kernel's geometry.
    """
    numerics.check_tolerance(upper_bound, "upper_bound")
    b = function_matrix(functions, kernel.space)
    sums = np.sum(np.abs(b) ** 2, axis=1)
    return PointwiseVerdict(
        sums=sums, upper_ok=sums <= upper_bound * kernel.diagonal + POINTWISE_SLACK
    )


@dataclass(frozen=True, eq=False)
class PointEvalBound:
    """Per-node bound on point evaluation over the unit ball of the span.

    ``constants[x]`` bounds ``|f(x)|`` for every unit-norm ``f`` in the span;
    it is the square root of the pointwise square sum times the upper frame
    bound.  For an orthonormal system the bound collapses to the square root
    of the kernel diagonal and is attained.
    """

    constants: np.ndarray
    pointwise_sums: np.ndarray
    upper_bound: float


def point_evaluation_bounds(functions, space: DiscretizedSpace) -> PointEvalBound:
    """Point-evaluation bounds from a frame of its span.

    The upper frame bound of the system on its span is computed from the
    coordinate frame operator; a system whose lower bound vanishes relative
    to the upper one is refused.
    """
    b = function_matrix(functions, space)
    q = mu_orthonormal_basis(b, space)
    # the system's coordinates c = q^H W b, taken as c^H so that c c^H is its Gram
    coords_h = numerics.weighted_gram(b, space.weights, q)
    upper = numerics.require_frame(numerics.gram(coords_h), vectors=False).upper
    sums = np.sum(np.abs(b) ** 2, axis=1)
    return PointEvalBound(constants=np.sqrt(sums * upper), pointwise_sums=sums, upper_bound=upper)


def blowup_experiment(refinements: Sequence[int]) -> list[tuple[int, float]]:
    """Max kernel diagonal of the step-function basis per refinement.

    Splitting [0, 1] into ``n`` equal-mass cells and building the kernel of
    the normalized indicator basis puts ``n`` on the whole diagonal, so the
    recorded maxima grow linearly in the refinement; the diagonal of a kernel
    over a fixed node set cannot stay bounded under indefinite refinement.
    Each indicator takes the value ``sqrt(n)`` on its own cell and 0 elsewhere,
    so the diagonal and the orthonormality check come from those ``n`` values
    in O(n): disjoint supports make every off-diagonal inner product exactly 0,
    which leaves ``max |w |v|^2 - 1| <= ORTHO_TOL`` to check.
    """
    sizes = list(refinements)
    if any(later <= size for size, later in zip(sizes, sizes[1:])):
        raise ValidationError("refinement counts must be ascending")
    if any(n < 1 for n in sizes):
        raise ValidationError("refinement counts must be positive")
    out: list[tuple[int, float]] = []
    for n in sizes:
        space = unit_segment_space(n)
        values = np.full(n, math.sqrt(n))
        diagonal = values * values
        _require_orthonormal(space.weights * diagonal - 1.0)
        out.append((n, float(np.max(diagonal))))
    return out
