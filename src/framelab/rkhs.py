"""Reproducing kernels over finite node sets.

Kernels are stored densely as tables ``K[x, y]`` over the nodes of a
:class:`~framelab.measure.DiscretizedSpace`.  A table may carry a geometry
tag: ``None`` means the plain weighted node pairing, while a
:class:`~framelab.pairs.CoefficientGeometry` marks tables whose reproducing
identity holds in the inner product induced by a synthesis map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError,
    NotOrthonormalError,
    PairDegenerateError,
    SumsDisagreeError,
    ValidationError,
)
from .measure import DiscretizedSpace, unit_segment_space
from .numerics import FRAME_RTOL

if TYPE_CHECKING:
    from .pairs import CoefficientGeometry

ORTHO_TOL = 1e-10
ORDER_AGREE_TOL = 1e-10
SPAN_CONDITION_LIMIT = 1e10


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Dense kernel ``K[x, y]`` over the nodes of a discretized space.

    ``apply`` realizes the induced integral operator
    ``(K F)(x) = sum_y w_y K[x, y] F(y)``.  Reproducing-kernel constructors
    guarantee Hermitian symmetry of their tables; tables of oblique
    projections (mixed analysis/synthesis kernels) are in general not
    Hermitian, so symmetry is checked by the builders, not here.
    """

    space: DiscretizedSpace
    entries: np.ndarray
    geometry: "CoefficientGeometry | None" = None

    def __post_init__(self) -> None:
        m = numerics.as_matrix(self.entries)
        n = self.space.size
        if m.shape != (n, n):
            raise ValidationError(f"kernel table must be {n}x{n}, got {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def size(self) -> int:
        return self.space.size

    @property
    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.entries)).copy()

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
            return self.entries[:, index].copy()
        return self.entries[index, :].copy()

    def apply(self, values) -> np.ndarray:
        f = self.space.values(values)
        return self.entries @ (self.space.weights * f)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = float(np.max(np.abs(self.entries))) if self.size else 0.0
        gap = float(np.max(np.abs(self.entries - self.entries.conj().T))) if self.size else 0.0
        return gap <= tol * max(scale, 1.0)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "geometry": "induced" if self.geometry is not None else "plain",
            "entries": [[float(z.real), float(z.imag)] for z in self.entries.ravel()],
        }

    def csv_rows(self):
        """Yield ``(x, y, re, im)`` rows for tabular export."""
        points = [node.point for node in self.space.nodes]
        for j in range(self.size):
            for k in range(self.size):
                z = self.entries[j, k]
                yield points[j], points[k], float(z.real), float(z.imag)


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


def mu_orthonormal_basis(functions, space: DiscretizedSpace, drop_tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the span in the weighted node pairing.

    Modified Gram-Schmidt with one reorthogonalization pass; vectors whose
    residual drops below ``drop_tol`` times the largest input norm are
    discarded.  A function system that is already orthonormal is returned
    unchanged up to roundoff.
    """
    b = function_matrix(functions, space)
    w = space.weights
    norms = [space.norm(b[:, i]) for i in range(b.shape[1])]
    scale = max(norms) if norms else 0.0
    columns: list[np.ndarray] = []
    for i in range(b.shape[1]):
        v = b[:, i].copy()
        for _ in range(2):
            for q in columns:
                v -= np.sum(w * v * np.conj(q)) * q
        nv = space.norm(v)
        if nv > drop_tol * scale:
            columns.append(v / nv)
    if not columns:
        raise ValidationError("function system spans only the zero space")
    return np.column_stack(columns)


def kernel_from_onb(basis, space: DiscretizedSpace, ortho_tol: float = ORTHO_TOL) -> KernelTable:
    """Kernel of the span of an orthonormal system: ``K = sum_i b_i(x) conj(b_i(y))``.

    Raises ``NotOrthonormalError`` when the pairwise inner products deviate
    from the identity by more than ``ortho_tol``.
    """
    b = function_matrix(basis, space)
    w = space.weights
    gram = b.conj().T @ (w[:, None] * b)
    gap = float(np.max(np.abs(gram - np.eye(b.shape[1]))))
    if gap > ortho_tol:
        raise NotOrthonormalError(f"orthonormality defect {gap:.3e} exceeds {ortho_tol:.0e}")
    return KernelTable(space=space, entries=b @ b.conj().T)


def kernel_of_span(functions, space: DiscretizedSpace) -> KernelTable:
    """Kernel of the span of an arbitrary function system."""
    q = mu_orthonormal_basis(functions, space)
    return KernelTable(space=space, entries=q @ q.conj().T)


def _span_pair_data(first, second, space: DiscretizedSpace):
    f1 = function_matrix(first, space)
    f2 = function_matrix(second, space)
    if f1.shape[1] != f2.shape[1]:
        raise DimensionMismatchError(
            f"paired systems need equal length, got {f1.shape[1]} and {f2.shape[1]}"
        )
    q = mu_orthonormal_basis(np.hstack([f1, f2]), space)
    w = space.weights
    c1 = q.conj().T @ (w[:, None] * f1)
    c2 = q.conj().T @ (w[:, None] * f2)
    return q, f1, f2, c1, c2, c1 @ c2.conj().T


def span_pair_operator(
    first, second, space: DiscretizedSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Mixed resolution operator of two function systems on their joint span.

    Returns ``(basis, operator)`` where ``basis`` is an orthonormal basis Q of
    the joint span and ``operator`` represents, in Q-coordinates, the map
    ``f -> sum_i <f, second_i> first_i``.  This is the operator whose inverse
    reproduces the span kernel through the two-sided expansion below.
    """
    q, _, _, _, _, s_hat = _span_pair_data(first, second, space)
    return q, s_hat


@dataclass(frozen=True, eq=False)
class PairKernelReport:
    """Diagnostics of a pair-expanded kernel."""

    table: KernelTable
    span_dim: int
    order_disagreement: float
    inverse_residual: float
    condition: float


def kernel_from_pair_report(
    first,
    second,
    space: DiscretizedSpace,
    operator: np.ndarray | None = None,
    condition_limit: float = SPAN_CONDITION_LIMIT,
) -> PairKernelReport:
    """Expand the span kernel through a pair of function systems.

    The table is ``K(x, y) = sum_i (A first_i)(x) conj(second_i(y))`` where A
    acts on the joint span.  When ``operator`` is omitted, A is the inverse of
    the mixed resolution operator returned by :func:`span_pair_operator`; with
    that choice the second expansion order
    ``sum_i (A* second_i)(x) conj(first_i(y))`` produces the same table and
    ``A`` composed with the resolution operator is the identity.  The report
    carries both residuals.  ``operator`` must be given in the coordinates of
    the returned span basis.
    """
    q, f1, f2, c1, c2, s_hat = _span_pair_data(first, second, space)
    dim = q.shape[1]
    condition = numerics.condition_number(s_hat)
    # invertibility is judged against the natural scale of the pair, the
    # product of the coordinate norms, so a uniformly tiny operator (which may
    # look well conditioned relative to itself) still counts as degenerate
    scale = numerics.operator_norm(c1) * numerics.operator_norm(c2)
    smallest = float(numerics.singular_values(s_hat)[-1]) if s_hat.size else 0.0
    if scale == 0.0 or smallest <= scale / condition_limit:
        raise PairDegenerateError(
            f"span resolution operator is numerically singular "
            f"(smallest singular value {smallest:.3e} against scale {scale:.3e})"
        )
    if operator is None:
        a_hat = np.linalg.inv(s_hat)
    else:
        a_hat = numerics.as_matrix(operator)
        if a_hat.shape != (dim, dim):
            raise DimensionMismatchError(
                f"operator must be {dim}x{dim} on the span, got {a_hat.shape}"
            )
    k_first = (q @ (a_hat @ c1)) @ f2.conj().T
    k_second = (q @ (a_hat.conj().T @ c2)) @ f1.conj().T
    disagreement = float(np.max(np.abs(k_first - k_second)))
    residual = float(np.max(np.abs(a_hat @ s_hat - np.eye(dim))))
    table = KernelTable(space=space, entries=k_first)
    return PairKernelReport(
        table=table,
        span_dim=dim,
        order_disagreement=disagreement,
        inverse_residual=residual,
        condition=condition,
    )


def kernel_from_pair(
    first,
    second,
    space: DiscretizedSpace,
    operator: np.ndarray | None = None,
    agree_tol: float = ORDER_AGREE_TOL,
) -> KernelTable:
    """Strict version of :func:`kernel_from_pair_report`.

    Raises ``SumsDisagreeError`` when the two expansion orders differ beyond
    ``agree_tol``, which happens exactly when ``operator`` is inconsistent
    with the pair.
    """
    report = kernel_from_pair_report(first, second, space, operator)
    if report.order_disagreement > agree_tol:
        raise SumsDisagreeError(
            f"expansion orders disagree by {report.order_disagreement:.3e}"
        )
    return report.table


@dataclass(frozen=True, eq=False)
class PointwiseVerdict:
    """Per-node outcome of the pointwise square-sum bound."""

    sums: np.ndarray
    limits: np.ndarray
    upper_ok: np.ndarray
    lower_positive: np.ndarray

    @property
    def all_upper_ok(self) -> bool:
        return bool(np.all(self.upper_ok))

    @property
    def all_lower_positive(self) -> bool:
        return bool(np.all(self.lower_positive))


def bessel_pointwise_check(
    functions,
    kernel: KernelTable,
    upper_bound: float,
    slack: float = 1e-9,
) -> PointwiseVerdict:
    """Check ``sum_i |f_i(x)|^2 <= upper_bound * K(x, x) + slack`` per node.

    ``upper_bound`` must be a verified upper frame bound of the system in the
    kernel's geometry; the verdict also records strict positivity of the sums,
    which holds for frames but can fail for mere upper-bounded systems.
    """
    b = function_matrix(functions, kernel.space)
    sums = np.sum(np.abs(b) ** 2, axis=1)
    limits = upper_bound * kernel.diagonal + slack
    return PointwiseVerdict(
        sums=sums,
        limits=limits,
        upper_ok=sums <= limits,
        lower_positive=sums > 0,
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


def point_evaluation_bounds(
    functions,
    space: DiscretizedSpace,
    upper_bound: float | None = None,
    frame_rtol: float = FRAME_RTOL,
) -> PointEvalBound:
    """Point-evaluation bounds from a frame of its span.

    When ``upper_bound`` is omitted the upper frame bound of the system on its
    span is computed from the coordinate frame operator; a system whose lower
    bound vanishes relative to the upper one is refused.
    """
    b = function_matrix(functions, space)
    q = mu_orthonormal_basis(b, space)
    coords = q.conj().T @ (space.weights[:, None] * b)
    upper = numerics.require_frame(coords @ coords.conj().T, frame_rtol).upper
    if upper_bound is None:
        upper_bound = upper
    sums = np.sum(np.abs(b) ** 2, axis=1)
    return PointEvalBound(
        constants=np.sqrt(sums * upper_bound),
        pointwise_sums=sums,
        upper_bound=float(upper_bound),
    )


def step_basis(cells: int) -> tuple[DiscretizedSpace, np.ndarray]:
    """Equal-mass step functions on [0, 1]: an orthonormal basis per refinement."""
    space = unit_segment_space(cells)
    basis = np.sqrt(cells) * np.eye(cells, dtype=np.complex128)
    return space, basis


def blowup_experiment(refinements: Sequence[int]) -> list[tuple[int, float]]:
    """Max kernel diagonal of the step-function basis per refinement.

    Splitting [0, 1] into ``n`` equal-mass cells and building the kernel of
    the normalized indicator basis puts ``n`` on the whole diagonal, so the
    recorded maxima grow linearly in the refinement; the diagonal of a kernel
    over a fixed node set cannot stay bounded under indefinite refinement.
    """
    sizes = list(refinements)
    if sizes != sorted(sizes):
        raise ValidationError("refinement counts must be ascending")
    out: list[tuple[int, float]] = []
    for n in sizes:
        space, basis = step_basis(n)
        table = kernel_from_onb(basis, space)
        out.append((n, float(np.max(table.diagonal))))
    return out
