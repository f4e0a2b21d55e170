"""Vector families over discretized measure spaces and their operator calculus.

A family is an ``n x d`` table whose j-th row is the member attached to the
j-th node, expressed in a fixed orthonormal basis of the ambient space.  The
inner product convention everywhere is linear in the first slot and
conjugate-linear in the second, so ``analysis(family, f)[j] = <f, row_j>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import numerics
from .errors import DimensionMismatchError, ValidationError
from .measure import DiscretizedSpace
from .numerics import FRAME_RTOL
from .rkhs import KernelTable

ROW_MATCH_TOL = 1e-12
TREND_VANISH_RATIO = 0.5
TREND_GROWTH_RATIO = 2.0


@dataclass(frozen=True, eq=False)
class VectorFamily:
    """A measurable vector map restricted to the nodes of a space."""

    space: DiscretizedSpace
    members: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.members, dtype=np.complex128)
        if m.ndim != 2:
            raise ValidationError(f"members must be a 2-d table, got ndim={m.ndim}")
        if m.shape[0] != self.space.size:
            raise ValidationError(
                f"member rows ({m.shape[0]}) must match node count ({self.space.size})"
            )
        if m.shape[1] < 1:
            raise ValidationError("ambient dimension must be at least 1")
        if not np.all(np.isfinite(m)):
            raise ValidationError("member entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "members", m)

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def dim(self) -> int:
        return self.members.shape[1]

    def scaled(self, factor: complex) -> "VectorFamily":
        return VectorFamily(space=self.space, members=factor * self.members)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "dim": self.dim,
            "members": [[float(z.real), float(z.imag)] for z in self.members.ravel()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "VectorFamily":
        from .measure import DiscretizedSpace as _DS

        space = _DS.from_json(data["space"])
        flat = np.array(
            [complex(re, im) for re, im in data["members"]], dtype=np.complex128
        )
        if "dim" in data:
            dim = int(data["dim"])
        elif space.size and flat.size % space.size == 0:
            dim = flat.size // space.size
        else:
            raise ValidationError("cannot infer the ambient dimension from the payload")
        if space.size * dim != flat.size:
            raise ValidationError(
                f"member count {flat.size} does not factor as {space.size} x {dim}"
            )
        return cls(space=space, members=flat.reshape(space.size, dim))

    def profile_rows(self):
        """Yield ``(point, weight, squared_norm)`` rows for tabular export."""
        norms = np.sum(np.abs(self.members) ** 2, axis=1)
        for node, sq in zip(self.space.nodes, norms):
            yield node.point, node.weight, float(sq)


class Classification(Enum):
    FRAME = "frame"
    BESSEL_ONLY = "bessel-only"
    LOWER_ONLY = "lower-only"
    NEITHER = "neither"


@dataclass(frozen=True)
class FrameReport:
    """Spectral bounds, redundancy and classification of one family.

    ``redundancy`` counts the node excess over the rank of the member table;
    ``index`` is its negative.  ``degenerate_zero_redundancy`` marks the
    configuration where zero redundancy is reached on purely quadrature nodes
    with no repeated rows, which at finite resolution can only happen when the
    refinement is too coarse to separate the family from a discrete one.
    """

    lower: float
    upper: float
    redundancy: int
    index: int
    condition: float
    classification: Classification
    frame_tolerance: float
    degenerate_zero_redundancy: bool = False

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "redundancy": self.redundancy,
            "index": self.index,
            "condition": self.condition if np.isfinite(self.condition) else "infinite",
            "classification": self.classification.value,
            "frame_tolerance": self.frame_tolerance,
            "degenerate_zero_redundancy": self.degenerate_zero_redundancy,
        }


def _check_vector(family: VectorFamily, vector) -> np.ndarray:
    f = np.asarray(vector, dtype=np.complex128)
    if f.shape != (family.dim,):
        raise DimensionMismatchError(
            f"expected a length-{family.dim} vector, got shape {f.shape}"
        )
    return f


def analysis(family: VectorFamily, vector) -> np.ndarray:
    """Coefficient function ``x -> <f, member(x)>`` over the nodes."""
    f = _check_vector(family, vector)
    return family.members.conj() @ f


def synthesis(family: VectorFamily, values) -> np.ndarray:
    """Weighted superposition ``sum_j w_j F_j member(x_j)``.

    This is the adjoint of :func:`analysis` with respect to the weighted node
    pairing on coefficient functions.
    """
    coeffs = family.space.values(values)
    return family.members.T @ (family.space.weights * coeffs)


def analysis_matrix(family: VectorFamily) -> np.ndarray:
    """Matrix of :func:`analysis` acting on ambient vectors."""
    return family.members.conj().copy()


def frame_operator(family: VectorFamily) -> np.ndarray:
    """Weighted sum of rank-one member projectors: synthesis after analysis."""
    w = family.space.weights
    return family.members.T @ (w[:, None] * family.members.conj())


def redundancy(family: VectorFamily, rank_policy: numerics.RankPolicy | None = None) -> int:
    """Node excess over the numerical rank of the member table.

    This is the dimension of the null space of the weighted synthesis map.
    """
    return family.size - numerics.rank(family.members, rank_policy)


def frame_bounds(
    family: VectorFamily,
    rank_policy: numerics.RankPolicy | None = None,
    frame_rtol: float = FRAME_RTOL,
    absolute_lower: float | None = None,
    absolute_upper: float | None = None,
    row_tolerance: float = ROW_MATCH_TOL,
) -> FrameReport:
    """Spectral frame bounds and redundancy accounting.

    The bounds are the extreme eigenvalues of the frame operator.  Without
    absolute thresholds, the family is a frame when the lower bound clears
    ``frame_rtol`` times the upper one, otherwise only the (finite) upper
    inequality stands.  Explicit ``absolute_lower`` / ``absolute_upper``
    thresholds classify by which of the two inequalities fails against them;
    finite truncations of unbounded systems need those, or the trend
    utilities, to surface semi-frame behavior.
    """
    _check_row_tolerance(row_tolerance)
    spectrum = numerics.frame_spectrum(frame_operator(family))
    lower, upper = spectrum.lower, spectrum.upper
    excess = redundancy(family, rank_policy)
    condition = upper / lower if lower > 0 else float("inf")
    if absolute_lower is None and absolute_upper is None:
        tolerance = frame_rtol * upper
        if spectrum.is_frame(frame_rtol):
            classification = Classification.FRAME
        else:
            classification = Classification.BESSEL_ONLY
    else:
        tolerance = absolute_lower if absolute_lower is not None else frame_rtol * upper
        lower_fails = lower < tolerance
        upper_fails = absolute_upper is not None and upper > absolute_upper
        if not lower_fails and not upper_fails:
            classification = Classification.FRAME
        elif lower_fails and not upper_fails:
            classification = Classification.BESSEL_ONLY
        elif not lower_fails and upper_fails:
            classification = Classification.LOWER_ONLY
        else:
            classification = Classification.NEITHER
    degenerate = (
        excess == 0
        and not family.space.is_atom.any()
        and not _equal_row_groups(family, row_tolerance)
    )
    return FrameReport(
        lower=lower,
        upper=upper,
        redundancy=excess,
        index=-excess,
        condition=condition,
        classification=classification,
        frame_tolerance=float(tolerance),
        degenerate_zero_redundancy=degenerate,
    )


def canonical_dual(family: VectorFamily, frame_rtol: float = FRAME_RTOL) -> VectorFamily:
    """Family of inverse-frame-operator images, giving perfect reconstruction.

    Refuses with ``NotAFrameError`` when the lower bound sits below tolerance,
    since inverting the frame operator would amplify noise unboundedly.
    """
    _, _, values, vectors = numerics.require_frame(frame_operator(family), frame_rtol)
    # row j is S^-1 member(j), i.e. members @ S^-T with S^-T = conj(V) diag(1/values) V^T
    dual_members = ((family.members @ vectors.conj()) / values) @ vectors.T
    return VectorFamily(space=family.space, members=dual_members)


def kernel_matrix(family: VectorFamily, frame_rtol: float = FRAME_RTOL) -> KernelTable:
    """Kernel ``K[x, y] = <S^-1 member(y), member(x)>`` of the analysis range.

    The induced integral operator (:meth:`KernelTable.apply`) is the
    orthogonal projection, in the weighted node pairing, onto the space of
    analysis images.  The table is built as ``B B^H`` with
    ``B = conj(members) V diag(values)**-1/2``, so it is Hermitian by
    construction.
    """
    _, _, values, vectors = numerics.require_frame(frame_operator(family), frame_rtol)
    factor = (family.members.conj() @ vectors) / np.sqrt(values)
    return KernelTable(space=family.space, entries=factor @ factor.conj().T)


def _check_row_tolerance(row_tolerance: float) -> None:
    if not np.isfinite(row_tolerance):
        raise ValidationError(f"row_tolerance must be finite, got {row_tolerance}")
    if row_tolerance < 0:
        raise ValidationError("row_tolerance must be nonnegative")


def _equal_row_groups(family: VectorFamily, row_tolerance: float) -> list[list[int]]:
    """Greedy grouping of quadrature nodes with entrywise-equal member rows.

    Seeds are taken in node order; each unused seed collects every later
    unused cell row within ``row_tolerance`` of it in every entry.  Only
    groups of two or more nodes are returned.

    Candidates are filtered by a window on one key column, the real or
    imaginary column of the cell rows with the largest spread.  A row within
    ``row_tolerance`` of the seed in every entry is within it in that column
    too, since ``|Re z|, |Im z| <= |z|`` holds exactly for ``np.abs``; the
    window ``key +- 2 * row_tolerance`` absorbs the rounding of its ends.
    Sorting costs O(n log n); the exact entrywise test then runs only on the
    rows inside each seed's window.
    """
    cells = np.flatnonzero(~family.space.is_atom)
    if cells.size < 2:
        return []
    rows = family.members[cells]
    spreads = np.concatenate([np.ptp(rows.real, axis=0), np.ptp(rows.imag, axis=0)])
    column = int(np.argmax(spreads))
    key = (rows.real if column < family.dim else rows.imag)[:, column % family.dim]
    order = np.argsort(key)
    sorted_key = key[order]
    starts = np.searchsorted(sorted_key, key - 2 * row_tolerance, side="left")
    stops = np.searchsorted(sorted_key, key + 2 * row_tolerance, side="right")
    used = np.zeros(cells.size, dtype=bool)
    groups: list[list[int]] = []
    for seed in np.flatnonzero(stops - starts > 1):
        if used[seed]:
            continue
        window = order[starts[seed] : stops[seed]]
        candidates = np.sort(window[(window > seed) & ~used[window]])
        if candidates.size == 0:
            continue
        gaps = np.max(np.abs(rows[candidates] - rows[seed]), axis=1)
        matches = candidates[gaps <= row_tolerance]
        if matches.size:
            group = np.concatenate(([seed], matches))
            used[group] = True
            groups.append(cells[group].tolist())
    return groups


def split(
    family: VectorFamily, row_tolerance: float = ROW_MATCH_TOL
) -> tuple[list[np.ndarray], VectorFamily]:
    """Separate the discrete content of a family from its continuous rest.

    Every atom node collapses to the single vector ``sqrt(w) * member``; any
    group of quadrature nodes sharing one member row (entrywise within
    ``row_tolerance``) merges into the mass-weighted mean row scaled by the
    square root of the group weight.  Remaining quadrature nodes form the
    strictly continuous part.  The weighted coefficient energy of the input
    splits exactly into the discrete squared pairings plus the energy of the
    continuous part.
    """
    _check_row_tolerance(row_tolerance)
    w = family.space.weights
    atoms = np.flatnonzero(family.space.is_atom).tolist()
    discrete = [np.sqrt(w[j]) * family.members[j] for j in atoms]
    keep = ~family.space.is_atom
    for group in _equal_row_groups(family, row_tolerance):
        total = float(np.sum(w[group]))
        mean = np.zeros(family.dim, dtype=np.complex128)
        for j in group:
            mean += w[j] * family.members[j]
        discrete.append(mean / np.sqrt(total))
        keep[group] = False
    continuous_space = DiscretizedSpace(
        nodes=tuple(family.space.nodes[j] for j in np.flatnonzero(keep))
    )
    continuous = VectorFamily(space=continuous_space, members=family.members[keep])
    return discrete, continuous


def semiframe_trend(
    builder: Callable[[int], VectorFamily], sizes: Sequence[int]
) -> list[tuple[int, float, float]]:
    """Frame bounds across a sequence of truncation sizes.

    Finite truncations always carry positive bounds; semi-frame behavior of
    the underlying unbounded system shows up as the lower bound draining to
    zero or the upper bound growing without limit along the sequence, which
    :func:`classify_trend` turns into a verdict.
    """
    results = []
    for size in sizes:
        report = frame_bounds(builder(size))
        results.append((int(size), report.lower, report.upper))
    return results


def classify_trend(
    trend: Sequence[tuple[int, float, float]],
    vanish_ratio: float = TREND_VANISH_RATIO,
    growth_ratio: float = TREND_GROWTH_RATIO,
) -> Classification:
    """Asymptotic classification from a bound trend.

    The lower bound is considered vanishing when its last value drops below
    ``vanish_ratio`` times its first; the upper bound diverging when its last
    value exceeds ``growth_ratio`` times its first.
    """
    if len(trend) < 2:
        raise ValidationError("a trend needs at least two sizes")
    first_lower, last_lower = trend[0][1], trend[-1][1]
    first_upper, last_upper = trend[0][2], trend[-1][2]
    vanishing = last_lower < vanish_ratio * first_lower
    diverging = last_upper > growth_ratio * first_upper
    if vanishing and diverging:
        return Classification.NEITHER
    if vanishing:
        return Classification.BESSEL_ONLY
    if diverging:
        return Classification.LOWER_ONLY
    return Classification.FRAME
