"""Vector families over discretized measure spaces and their operator calculus.

A family is an ``n x d`` table whose j-th row is the member attached to the
j-th node, expressed in a fixed orthonormal basis of the ambient space.  The
inner product convention everywhere is linear in the first slot and
conjugate-linear in the second, so ``analysis(family, f)[j] = <f, row_j>``.
The verdicts of the frame operator or the rank (:func:`frame_operator`,
:func:`frame_bounds`, :func:`redundancy`, :func:`semiframe_trend`) read
:meth:`VectorFamily.weighted_blocks`, which a family made from its formula
(:class:`framelab.gallery.RootSource`) gives without its table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from . import numerics
from .errors import DimensionMismatchError, NumericalRefusal, ValidationError
from .measure import DiscretizedSpace
from .numerics import FRAME_RTOL
from .rkhs import KernelTable, orthonormal_factor

ROW_MATCH_TOL = 1e-12
TREND_VANISH_RATIO = 0.5
TREND_GROWTH_RATIO = 2.0


@dataclass(frozen=True, eq=False)
class VectorFamily:
    """A measurable vector map restricted to the nodes of a space.

    ``members`` is kept read-only.  A read-only, C-contiguous ``complex128``
    array that owns its data is adopted as is, so a producer that freezes a
    fresh table (:func:`~framelab.numerics.freeze`) hands it over without a
    copy; anything else is copied (:func:`~framelab.numerics.adopt`), so
    writes to the caller's array never reach the family.  A subclass may
    make its rows from a formula (:class:`framelab.gallery.RootSource`):
    ``size``, ``dim`` and ``weighted_blocks()`` (fresh C-contiguous blocks of
    the table's rows, none held once yielded) build no table; ``members`` does.
    """

    space: DiscretizedSpace
    members: np.ndarray

    def __post_init__(self) -> None:
        m = numerics.adopt(self.members)
        if m.ndim != 2:
            raise ValidationError(f"members must be a 2-d table, got ndim={m.ndim}")
        if m.shape[0] != self.space.size:
            raise ValidationError(
                f"member rows ({m.shape[0]}) must match node count ({self.space.size})"
            )
        if m.shape[1] < 1:
            raise ValidationError("ambient dimension must be at least 1")
        # the weighted sum of squared row norms is the trace of the frame
        # operator and bounds its entries; weights are positive, so it is
        # finite only when every entry, squared row norm and weighted one is
        if not math.isfinite(numerics.weighted_energy(m, self.space.weights)):
            if not np.all(np.isfinite(m)):
                raise ValidationError("member entries must be finite")
            raise ValidationError("squared norms of the members overflow")
        object.__setattr__(self, "members", m)

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def dim(self) -> int:
        return self.members.shape[1]

    def weighted_blocks(self) -> Iterator[np.ndarray]:
        """Row blocks of ``sqrt(w) * members``, which every frame operator and rank reads.

        Over a counting measure they are views of ``members`` itself.
        """
        return numerics.weighted_rows(self.members, self.space.weights)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "dim": self.dim,
            "members": numerics.complex_pairs(self.members),
        }

    @classmethod
    def from_json(cls, data) -> "VectorFamily":
        if type(data) is not dict:
            raise ValidationError(f"a family must be an object, got {type(data).__name__}")
        space = DiscretizedSpace.from_json(data.get("space"))
        dim = data.get("dim")
        return cls._from_table(space, dim, _decode_pairs(data.get("members")))

    @classmethod
    def _from_table(cls, space: DiscretizedSpace, dim, table: np.ndarray) -> "VectorFamily":
        """The family of a decoded space, its ``dim`` field and its flat, owning member table.

        ``dim`` and the count are checked first; the table is then shaped in
        place to ``(space.size, dim)`` and adopted, so it is the family's one
        table of its members.
        """
        if type(dim) is not int or dim < 1:
            raise ValidationError(f"dim must be a positive integer, got {dim!r}")
        if dim > numerics.MAX_SIZE:
            raise ValidationError(f"dim {dim} exceeds the largest size {numerics.MAX_SIZE}")
        if space.size * dim != table.size:
            raise ValidationError(
                f"member count {table.size} does not factor as {space.size} x {dim}"
            )
        table.resize((space.size, dim), refcheck=False)
        return cls(space=space, members=numerics.freeze(table))

    def profile_rows(self) -> Iterator[tuple]:
        """The ``(point, weight, squared_norm)`` rows for tabular export, read off the family now.

        The rows hold no reference to the family.
        """
        norms = np.sum(np.abs(self.members) ** 2, axis=1)
        return zip(self.space.points.tolist(), self.space.weight_values(), norms.tolist())


def _decode_pairs(pairs) -> np.ndarray:
    """``[re, im]`` pairs as a flat, owning complex table; a failed decode seeks the entry at fault."""
    if type(pairs) is not list:
        raise ValidationError(f"members must be a list of [re, im] pairs, got {pairs!r}")
    table = np.empty(len(pairs), dtype=np.complex128)
    if not _pair_floats(pairs, table.view(np.float64)):
        k = next(k for k, pair in enumerate(pairs) if not _pair_floats([pair], np.empty(2)))
        raise ValidationError(
            f"members[{k}] must be an [re, im] pair of numbers in the float range, got {pairs[k]!r}"
        )
    return table


def _pair_floats(pairs, out: np.ndarray) -> bool:
    """Write the exact floats of ``[re, im]`` number pairs to ``out``; whether they all were.

    Length and type passes run at C level, a block of ``numerics.BLOCK_ENTRIES``
    values at a time, so no list of every value is formed.
    """
    try:
        if not set(map(len, pairs)) <= {2}:
            return False
        values = itertools.chain.from_iterable(pairs)
        for start in range(0, len(out), numerics.BLOCK_ENTRIES):
            block = list(itertools.islice(values, numerics.BLOCK_ENTRIES))
            if not set(map(type, block)) <= {int, float}:
                return False
            out[start : start + len(block)] = np.fromiter(block, dtype=np.float64, count=len(block))
    except (OverflowError, TypeError):  # an entry without a length; an int past the float range
        return False
    return True


class Classification(Enum):
    FRAME = "frame"
    BESSEL_ONLY = "bessel-only"
    LOWER_ONLY = "lower-only"
    NEITHER = "neither"


@dataclass(frozen=True)
class FrameReport:
    """Spectral bounds, redundancy and classification of one family.

    ``redundancy`` counts the node excess over :func:`analysis_rank`;
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
    return family.members.conj()


def frame_operator(family: VectorFamily) -> np.ndarray:
    """Weighted sum of rank-one member projectors, ``members^T W conj(members)``.

    It is the conjugate of the :func:`~framelab.numerics.block_gram` of the
    family's weighted row blocks, each made, reduced and dropped in turn, so
    a generated family holds one block and no table.
    """
    operator = numerics.block_gram(family.weighted_blocks())
    return np.conj(operator, out=operator)


def analysis_rank(family: VectorFamily, operator=None, values=None) -> int:
    """Numerical rank of ``sqrt(w) * conj(members)``: every rank verdict on a family.

    With at least as many nodes as dimensions, full rank is first certified
    (:func:`~framelab.numerics.certifies_full_rank`) from the frame operator,
    which is that table's Gram exactly as :func:`~framelab.numerics.gram`
    forms it from the table.  A caller holding the operator passes it, with
    its ascending eigenvalues ``values`` when known; otherwise it is formed
    here, and without ``values`` one Cholesky factor decides.  When nothing
    is certified, :func:`~framelab.numerics.block_rank`
    counts the singular values of the family's weighted row blocks, the
    conjugate of that table with the same singular values.  Neither route
    reads ``members``, so a generated family builds no table, and either way
    the verdict is the count of singular values above
    :func:`~framelab.numerics.rank_cutoff`.
    """
    shape = (family.size, family.dim)
    if family.size >= family.dim:
        if operator is None:
            operator = frame_operator(family)
        if numerics.certifies_full_rank(operator, shape, values):
            return family.dim
    return numerics.block_rank(family.weighted_blocks(), shape)


def redundancy(family: VectorFamily) -> int:
    """Node excess over :func:`analysis_rank`.

    This is the dimension of the null space of the weighted synthesis map.
    """
    return family.size - analysis_rank(family)


def frame_bounds(family: VectorFamily) -> FrameReport:
    """Spectral frame bounds and redundancy accounting.

    The bounds are the extreme eigenvalues of the frame operator.  The family
    is a frame when the lower bound clears ``FRAME_RTOL`` times the upper one,
    otherwise only the (finite) upper inequality stands; finite truncations of
    unbounded systems need the trend utilities to surface semi-frame
    behavior.  The zero-redundancy check matches member rows as :func:`split`
    does at ``ROW_MATCH_TOL``; only it reads ``members`` (n = d), once the
    operator is released.
    """
    operator = frame_operator(family)
    spectrum = numerics.frame_spectrum(operator, vectors=False)
    lower, upper = spectrum.lower, spectrum.upper
    excess = family.size - analysis_rank(family, operator, spectrum.values)
    del operator
    condition = upper / lower if lower > 0 else float("inf")
    classification = Classification.FRAME if spectrum.is_frame() else Classification.BESSEL_ONLY
    degenerate = (
        excess == 0
        and not family.space.is_atom.any()
        and not _equal_row_groups(family, ROW_MATCH_TOL)
    )
    return FrameReport(
        lower=lower,
        upper=upper,
        redundancy=excess,
        index=-excess,
        condition=condition,
        classification=classification,
        frame_tolerance=float(FRAME_RTOL * upper),
        degenerate_zero_redundancy=degenerate,
    )


def canonical_dual(family: VectorFamily) -> VectorFamily:
    """Family of inverse-frame-operator images, giving perfect reconstruction.

    Refuses with ``NotAFrameError`` when the lower bound sits below tolerance,
    since inverting the frame operator would amplify noise unboundedly.
    """
    spectrum = numerics.require_frame(frame_operator(family))
    with np.errstate(all="ignore"):  # dual_family refuses a dual past the float range
        return dual_family(family.space, spectrum.inverse_rows(family.members))


def dual_family(space: DiscretizedSpace, members: np.ndarray) -> VectorFamily:
    """Family of fresh dual ``members``, handed over frozen.

    Refused (``NumericalRefusal``) if they left the float range.
    """
    try:
        return VectorFamily(space=space, members=numerics.freeze(members))
    except ValidationError as exc:
        raise NumericalRefusal("the inverse overflows the float range") from exc


def kernel_matrix(family: VectorFamily) -> KernelTable:
    """Kernel ``K[x, y] = <S^-1 member(y), member(x)>`` of the analysis range.

    The induced integral operator (:meth:`KernelTable.apply`) is the
    orthogonal projection, in the weighted node pairing, onto the space of
    analysis images.  The table is stored as ``B B^H`` with ``B`` the
    :func:`~framelab.rkhs.orthonormal_factor` of ``conj(members)``, so it is
    Hermitian by construction and costs O(n d) memory: the factor is the one
    table formed, with no conjugate copy of the members, and the table
    adopts it.  A factor whose dense entries would leave the float range is
    refused (``NumericalRefusal``).
    """
    spectrum = numerics.require_frame(frame_operator(family))
    factor = orthonormal_factor(family.members, family.space.weights, spectrum, conjugate=True)
    try:
        return KernelTable(space=family.space, left=numerics.freeze(factor), right=factor)
    except ValidationError as exc:
        raise NumericalRefusal("the inverse overflows the float range") from exc


def _equal_row_groups(family: VectorFamily, row_tolerance: float) -> list[list[int]]:
    """Greedy grouping of quadrature nodes with entrywise-equal member rows.

    Seeds are taken in node order; each unused seed collects every later
    unused cell row within ``row_tolerance`` times the largest ``|entry|`` of
    the two rows in every entry, so one large row does not make two small
    ones equal.  Only groups of two or more nodes are returned.

    Candidates are filtered by a window on one key column, the real or
    imaginary column of the cell rows with the largest spread.  The window
    is ``key +- 2 * tolerance``, with ``tolerance`` the row tolerance times
    the largest ``|entry|`` of all cell rows, which bounds every pair's.  A
    row within a pair's tolerance of the seed in every entry is within it in
    that column too, since ``|Re z|, |Im z| <= |z|`` holds exactly for
    ``np.abs``; the factor 2 absorbs the rounding of the window's ends.
    Sorting costs O(n log n); the exact entrywise test then runs only on the
    rows inside each seed's window.  When every node is a cell the member
    table is read in place, not copied.
    """
    cells = np.flatnonzero(~family.space.is_atom)
    if cells.size < 2:
        return []
    rows = family.members if cells.size == family.size else family.members[cells]
    limits = row_tolerance * np.max(np.abs(rows), axis=1)  # each row's own tolerance
    tolerance = float(np.max(limits))
    spreads = np.concatenate([np.ptp(rows.real, axis=0), np.ptp(rows.imag, axis=0)])
    column = int(np.argmax(spreads))
    key = (rows.real if column < family.dim else rows.imag)[:, column % family.dim]
    order = np.argsort(key)
    sorted_key = key[order]
    starts = np.searchsorted(sorted_key, key - 2 * tolerance, side="left")
    stops = np.searchsorted(sorted_key, key + 2 * tolerance, side="right")
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
        matches = candidates[gaps <= np.maximum(limits[candidates], limits[seed])]
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
    ``row_tolerance`` times the largest ``|entry|`` of the two rows, so a
    scaled family splits as its scale and a large row elsewhere changes no
    match) merges into the mass-weighted mean row scaled by the square root
    of the group weight.  Remaining
    quadrature nodes form the strictly continuous part.  The weighted
    coefficient energy of the input splits exactly into the discrete squared
    pairings plus the energy of the continuous part.
    """
    numerics.check_tolerance(row_tolerance, "row_tolerance")
    w = family.space.weights
    atoms = family.space.is_atom
    discrete = list(numerics.root_weighted(family.members[atoms], w[atoms]))
    keep = ~atoms
    for group in _equal_row_groups(family, row_tolerance):
        mean = numerics.weighted_gram(np.ones((len(group), 1)), w[group], family.members[group])[0]
        discrete.append(mean / np.sqrt(float(np.sum(w[group]))))
        keep[group] = False
    continuous = family.space.restrict(keep)
    return discrete, VectorFamily(space=continuous, members=numerics.freeze(family.members[keep]))


def semiframe_trend(
    builder: Callable[[int], VectorFamily], sizes: Sequence[int]
) -> list[tuple[int, float, float]]:
    """Frame bounds across a sequence of truncation sizes.

    ``builder`` gives the family of each size, as
    :func:`framelab.gallery.truncation_sequence` does, and only its frame
    operator is formed, so a generated family builds no table.  Finite
    truncations always carry positive bounds; semi-frame behavior of the
    underlying unbounded system shows up as the lower bound draining to zero
    or the upper bound growing without limit along the sequence, which
    :func:`classify_trend` turns into a verdict.
    """
    results = []
    for size in sizes:
        spectrum = numerics.frame_spectrum(frame_operator(builder(size)), vectors=False)
        results.append((int(size), spectrum.lower, spectrum.upper))
    return results


def classify_trend(trend: Sequence[tuple[int, float, float]]) -> Classification:
    """Asymptotic classification from a bound trend.

    The lower bound is considered vanishing when the last size's bounds fail
    :meth:`~framelab.numerics.FrameSpectrum.is_frame` or its last value drops
    below ``TREND_VANISH_RATIO`` times its first; the upper bound diverging
    when its last value exceeds ``TREND_GROWTH_RATIO`` times its first.
    """
    if len(trend) < 2:
        raise ValidationError("a trend needs at least two sizes")
    (_, first_lower, first_upper), (_, last_lower, last_upper) = trend[0], trend[-1]
    last = numerics.FrameSpectrum(last_lower, last_upper, np.array([last_lower, last_upper]), None)
    vanishing = not last.is_frame() or last_lower < TREND_VANISH_RATIO * first_lower
    diverging = last_upper > TREND_GROWTH_RATIO * first_upper
    if vanishing and diverging:
        return Classification.NEITHER
    if vanishing:
        return Classification.BESSEL_ONLY
    if diverging:
        return Classification.LOWER_ONLY
    return Classification.FRAME
