"""Ready-made example families, parameterized for truncation experiments.

Every builder returns a :class:`~framelab.frames.VectorFamily`; a torus or
affine family is a :class:`RootSource`, whose table is made on its first
read and whose weighted row blocks are made without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from . import numerics
from .errors import InvalidSpecError
from .frames import VectorFamily
from .measure import (
    Density,
    DiscretizedSpace,
    MeasureSpace,
    Segment,
    counting_space,
    discretize,
    unit_segment_space,
)

AFFINE_TAIL_FRACTION = 1e-8


class GalleryKind(Enum):
    TORUS = "torus"
    AFFINE = "affine"
    DELTA = "delta"
    DOUBLED_ONB = "doubled-onb"
    AUGMENTED_ONB = "augmented-onb"
    MERCEDES = "mercedes"
    RANDOM = "random"


@dataclass(frozen=True)
class GallerySpec:
    """Parameter bundle for one gallery construction.

    ``dim`` is the truncation size (ambient dimension or cell count depending
    on the kind), ``grid`` the node count of the underlying space, ``rows``
    the member count for random families, ``power`` the exponent parameter of
    the radial weight used by the affine construction.  An unset field is
    ``None``; a set field that the kind does not read is refused.
    """

    kind: GalleryKind
    dim: int | None = None
    grid: int | None = None
    rows: int | None = None
    seed: int | list[int] | None = None
    power: int | None = None


def _check_counts(**counts: int | None) -> None:
    """Refuse any count above ``numerics.MAX_SIZE``; ``None`` stands for a default."""
    for name, count in counts.items():
        if count is not None and count > numerics.MAX_SIZE:
            raise InvalidSpecError(f"{name} {count} exceeds the largest size {numerics.MAX_SIZE}")


def _family(space: DiscretizedSpace, members: np.ndarray) -> VectorFamily:
    """Family handed its freshly built member table, frozen so that it is kept without a copy."""
    return VectorFamily(space=space, members=numerics.freeze(members))


def frequency_enumeration(count: int) -> list[int]:
    """Integer frequencies ordered 0, 1, -1, 2, -2, ... truncated to ``count``."""
    out = [0]
    step = 1
    while len(out) < count:
        out.append(step)
        if len(out) < count:
            out.append(-step)
        step += 1
    return out[:count]


def _unit_roots(order: int) -> np.ndarray:
    """The roots of unity ``exp(2 pi i m / order)``, ``m = 0, ..., order - 1``, for an even ``order``.

    Only the first quarter turn is evaluated, or the first half turn when
    four does not divide ``order``; the rest follows from exact symmetries.
    So ``roots[order - m]`` is ``conj(roots[m])`` exactly, for a multiple of
    four ``roots[order/2 - m]`` is ``-conj(roots[m])`` exactly, and 1, -1 and
    (for a multiple of four) i are exact.
    """
    roots = np.empty(order, dtype=np.complex128)
    half = order // 2
    evaluated = half // 2 if half % 2 == 0 else half
    head = roots[: evaluated + 1]
    head.real = 0.0
    np.multiply(np.arange(evaluated + 1.0), 2.0 * np.pi / order, out=head.imag)
    np.exp(head, out=head)
    roots[half] = -1.0
    if evaluated < half:
        roots[evaluated] = 1j
        mirrored = roots[half - 1 : evaluated : -1]
        np.conj(roots[1:evaluated], out=mirrored)
        np.negative(mirrored, out=mirrored)
    np.conj(roots[1:half], out=roots[order - 1 : half : -1])
    return roots


def _phase_blocks(factors, order: int, start: int, stop: int, step: int):
    """Yield ``(lo, hi, index)`` for the row blocks of ``[start, stop)``, ``step`` rows each.

    ``index[r, c]`` is ``(2 (lo + r) + 1) * factors[c]`` modulo ``order``, as
    an int64 in ``[0, 2 * order)`` (``np.take`` with ``mode="wrap"`` takes it
    modulo ``order``).  The products modulo ``order`` are formed once, for
    the first block's rows; each block adds its rows' offset to them.
    """
    factors = np.remainder(np.asarray(factors, dtype=np.int64), order)
    rows = min(step, stop - start)
    first = np.multiply.outer(np.arange(1, 2 * rows, 2, dtype=np.int64), factors)
    np.remainder(first, order, out=first)
    index = np.empty_like(first)
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        offset = np.remainder(np.int64(2 * lo) * factors, order)
        yield lo, hi, np.add(first[: hi - lo], offset, out=index[: hi - lo])


@dataclass(frozen=True, eq=False)
class RootSource(VectorFamily):
    """A torus or affine family given by its formula, which makes its own rows.

    Member ``j`` holds ``roots[(2j + 1) * factors[c] mod order] * scale[c]``
    in column ``c``, with ``roots`` the :func:`_unit_roots` of ``order``.
    ``members`` is built on its first read and kept; ``size``, ``dim``,
    ``repr`` and :meth:`weighted_blocks` never read it, and each block, one
    :func:`~framelab.numerics.weighted_rows` would cut from the table and its
    weights, is made from the formula on its own.  Both fill rows the same
    way: the roots are gathered a phase block of about
    ``numerics.BLOCK_ENTRIES / 4`` entries at a time with ``np.take``
    straight into the rows, whose float view is then scaled in place, so
    every entry takes the same operations on either route and no full-size
    phase or index table is formed.  No check of
    :class:`~framelab.frames.VectorFamily` runs on the table, which is finite
    by construction (roots of unity times the finite ``scale``).
    """

    def _table(self) -> np.ndarray:
        return numerics.freeze(self._rows(_unit_roots(self.order), 0, self.size))

    members: np.ndarray = field(init=False, repr=False, default=functools.cached_property(_table))
    factors: np.ndarray
    order: int
    scale: np.ndarray

    def __post_init__(self) -> None:
        """Nothing to check: the class docstring says why."""

    @property
    def size(self) -> int:
        return self.space.size

    @property
    def dim(self) -> int:
        return len(self.scale)

    def _rows(self, roots: np.ndarray, lo: int, hi: int, weights=None) -> np.ndarray:
        """Member rows ``lo`` to ``hi`` in a fresh table, gathered from the ``roots`` of ``order``.

        Given the rows' ``weights``, the table is then multiplied in place by
        their roots, as :func:`~framelab.numerics.root_weighted` does.  The
        phase blocks live only while the rows are filled, so a consumer of
        the table never holds them too.
        """
        table = np.empty((hi - lo, self.dim), dtype=np.complex128)
        parts = table.view(np.float64)
        # each component's real and imaginary part takes its column's scale
        scale = np.repeat(self.scale, 2)
        step = max(1, numerics.BLOCK_ENTRIES // (4 * self.dim))
        for start, stop, index in _phase_blocks(self.factors, self.order, lo, hi, step):
            np.take(roots, index, out=table[start - lo : stop - lo], mode="wrap")
            parts[start - lo : stop - lo] *= scale
        if weights is not None:
            numerics.root_weighted(table, weights, out=table)
        return table

    def weighted_blocks(self) -> Iterator[np.ndarray]:
        """The blocks :func:`~framelab.numerics.weighted_rows` cuts from ``sqrt(w) * members``."""
        roots = _unit_roots(self.order)
        weights = self.space.weights
        step = numerics.gram_rows(self.dim)
        for lo in range(0, self.size, step):
            hi = min(lo + step, self.size)
            # yielded unnamed, so the consumer alone holds the block
            yield self._rows(roots, lo, hi, weights[lo:hi])


def build_torus(dim: int, grid: int) -> RootSource:
    """Exponential family on the unit circle with harmonically decaying weights.

    Member component i at node x is ``exp(2 pi I x n_i) / (i + 1)`` with the
    frequencies enumerated 0, 1, -1, 2, -2, ...  On a uniform grid finer than
    twice the largest frequency the grid exponentials stay exactly
    orthonormal, so the frame operator is diagonal with entries
    ``1, 1/4, 1/9, ...``: the upper bound is 1 and the lower bound ``1/dim**2``
    drains to zero under truncation growth.  The grid's nodes are
    ``x_j = (2j + 1) / (2 grid)``, so each exponential is the exact root of
    unity of order ``2 * grid`` at index ``n_i (2j + 1)``, gathered a row
    block at a time from one table of those roots (:class:`RootSource`,
    which also streams the family's weighted row blocks without its table);
    each ``-k`` column is exactly the conjugate of its ``k`` column.
    """
    _check_counts(dim=dim, grid=grid)
    if dim < 1:
        raise InvalidSpecError("torus family needs dim >= 1")
    if grid <= 2 * (dim // 2):
        raise InvalidSpecError(f"grid {grid} too coarse for frequencies up to {dim // 2}")
    factors = np.array(frequency_enumeration(dim), dtype=np.int64)
    coefficients = 1.0 / np.arange(1.0, dim + 1.0)
    return RootSource(unit_segment_space(grid), factors, 2 * grid, coefficients)


@functools.cache
def _exp_tail_cut(power: int) -> float:
    """Radius beyond which the squared-exponential radial mass is below ``AFFINE_TAIL_FRACTION``.

    For integer ``power`` the normalized upper tail of ``r**(power-1) e^{-2r}``
    has the closed form ``e^{-2R} sum_{m<power} (2R)^m / m!``; the cut is found
    by bisection, once per power.  A power whose tail overflows a float on the
    way is refused.
    """
    def tail(radius: float) -> float:
        x = 2.0 * radius
        return math.exp(-x) * sum(x**m / math.factorial(m) for m in range(power))

    try:
        lo, hi = 0.0, 60.0 + 10.0 * power
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if tail(mid) > AFFINE_TAIL_FRACTION:
                lo = mid
            else:
                hi = mid
    except OverflowError as exc:
        raise InvalidSpecError(
            f"affine power {power} is too large for its radial tail cut"
        ) from exc
    return hi


def build_affine(cells: int, grid: int | None = None, power: int = 1) -> RootSource:
    """Modulated-profile family over a frequency grid.

    The ambient space is the radial half line with weight ``r**(power-1)``,
    truncated where the energy tail of the profile ``exp(-r)`` drops below
    ``AFFINE_TAIL_FRACTION`` of the total and embedded into coordinates
    through square-root weights.  Members are pure modulations of the profile
    sampled on a frequency window matched to the radial spacing, so the frame
    operator approaches multiplication by ``r**(power-1) exp(-2r)``; for
    ``power == 1`` the match is exact up to roundoff.  The entry at frequency
    node ``f_a`` and radial node ``r_b`` is
    ``sqrt(w_b) exp(-r_b) exp(-2 pi I f_a r_b)``; on these grids
    ``f_a r_b = (2a + 1)(2b + 1) / (4 grid)``, so its phase factor is the
    exact conjugate root of unity of order ``4 * grid`` there, gathered a row
    block at a time from one table of those roots (:class:`RootSource`,
    which also streams the family's weighted row blocks without its table).
    """
    _check_counts(cells=cells, grid=grid)
    if cells < 1:
        raise InvalidSpecError("affine family needs cells >= 1")
    if power < 1:
        raise InvalidSpecError("affine family needs integer power >= 1")
    if grid is None:
        grid = cells
    if grid < cells:
        raise InvalidSpecError("frequency grid must be at least as fine as the radial grid")
    upper_limit = _exp_tail_cut(power)
    radial_space = affine_radial_space(cells, power, upper_limit)
    spacing = upper_limit / cells
    extent = 1.0 / spacing
    frequency_space = discretize(
        MeasureSpace(segments=(Segment(0.0, extent, Density("const", 1.0)),)), grid
    )
    profile = np.sqrt(radial_space.weights) * np.exp(-radial_space.points)
    # negated factors gather the conjugate roots
    factors = -(2 * np.arange(cells, dtype=np.int64) + 1)
    return RootSource(frequency_space, factors, 4 * grid, profile)


def affine_radial_space(cells: int, power: int, upper_limit: float) -> DiscretizedSpace:
    """Equal-width radial grid carrying the mass of ``r**(power-1)`` per cell.

    Uniform spacing (rather than the equal-mass cells of
    :func:`framelab.measure.discretize`) is what lets a matched frequency
    window resolve the radial nodes independently, turning the frame operator
    into a multiplier; each node still carries the exact mass of its cell.
    """
    edges = np.append(np.arange(cells) * (upper_limit / cells), upper_limit)
    midpoints = (edges[:-1] + edges[1:]) / 2.0
    masses = Density("power", 1.0, float(power)).mass(edges[:-1], edges[1:])
    return DiscretizedSpace.from_columns(masses, np.zeros(cells, dtype=bool), midpoints)


def affine_symbol(cells: int, power: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Radial midpoints and the multiplier symbol ``r**(power-1) exp(-2r)``.

    The frame operator of the matching affine family is approximately (for
    ``power == 1`` exactly) diagonal with this symbol on the diagonal.
    """
    radial_space = affine_radial_space(cells, power, _exp_tail_cut(power))
    radii = np.array(radial_space.points)
    symbol = radii ** (power - 1) * np.exp(-radii) ** 2
    return radii, symbol


def build_delta(count: int) -> VectorFamily:
    """Scaled canonical vectors over a counting space.

    Coordinate k (1-based) carries amplitude ``sqrt(k)`` when k is even and
    ``1/sqrt(k)`` when odd, so the squared column sums alternate between k and
    1/k: every pointwise sum is finite while the spectral bounds run apart
    linearly under truncation growth.
    """
    _check_counts(count=count)
    if count < 1:
        raise InvalidSpecError("delta family needs count >= 1")
    space = counting_space(count)
    members = np.zeros((count, count), dtype=np.complex128)
    for k in range(1, count + 1):
        amplitude = math.sqrt(k) if k % 2 == 0 else 1.0 / math.sqrt(k)
        members[k - 1, k - 1] = amplitude
    return _family(space, members)


def build_doubled_onb(dim: int) -> VectorFamily:
    """Each canonical basis vector listed twice, adjacent duplicates."""
    _check_counts(dim=dim)
    if dim < 1:
        raise InvalidSpecError("doubled basis needs dim >= 1")
    space = counting_space(2 * dim)
    eye = np.eye(dim, dtype=np.complex128)
    members = np.repeat(eye, 2, axis=0)
    return _family(space, members)


def build_augmented_onb(dim: int) -> VectorFamily:
    """Canonical basis with the first vector repeated once."""
    _check_counts(dim=dim)
    if dim < 1:
        raise InvalidSpecError("augmented basis needs dim >= 1")
    space = counting_space(dim + 1)
    eye = np.eye(dim, dtype=np.complex128)
    members = np.vstack([eye[:1], eye])
    return _family(space, members)


def build_mercedes() -> VectorFamily:
    """Three unit vectors in the plane at equal angles: the tightest 3-vector frame."""
    space = counting_space(3)
    members = np.array(
        [
            [1.0, 0.0],
            [-0.5, math.sqrt(3.0) / 2.0],
            [-0.5, -math.sqrt(3.0) / 2.0],
        ],
        dtype=np.complex128,
    )
    return _family(space, members)


def build_random(rows: int, dim: int, seed=None) -> VectorFamily:
    """Standard complex Gaussian members over a counting space; seeded."""
    _check_counts(rows=rows, dim=dim)
    if rows < 1 or dim < 1:
        raise InvalidSpecError("random family needs rows >= 1 and dim >= 1")
    if seed is None:
        raise InvalidSpecError("random family needs an explicit seed")
    try:
        rng = np.random.default_rng(seed)
    except ValueError as exc:
        raise InvalidSpecError(f"random family seed {seed!r} refused: {exc}") from exc
    # the draws land in the table's real and imaginary parts, with the bits of
    # (re + 1j * im) / sqrt(2) and no complex temporaries
    members = np.empty((rows, dim), dtype=np.complex128)
    members.real = rng.standard_normal((rows, dim))
    members.imag = rng.standard_normal((rows, dim))
    members /= math.sqrt(2.0)
    space = counting_space(rows)
    return _family(space, members)


@dataclass(frozen=True)
class _Reads:
    """The spec fields one gallery kind reads, and its builder.

    :func:`build` passes ``builder`` the fields of ``needs`` by position,
    refusing a spec that leaves one unset, and each set field of ``takes`` by
    name.  ``sized`` maps each field a truncation size sets to the multiple
    of the size it takes; it is ``None`` for a kind that is not
    size-parameterized.  A truncation reads the other fields from its spec.
    """

    builder: Callable[..., VectorFamily]
    needs: tuple[str, ...]
    takes: tuple[str, ...] = ()
    sized: dict[str, int] | None = None


_READS = {
    GalleryKind.TORUS: _Reads(build_torus, ("dim", "grid"), sized={"dim": 1, "grid": 4}),
    # a truncation keeps the default grid, one frequency per radial cell
    GalleryKind.AFFINE: _Reads(build_affine, ("dim",), ("grid", "power"), {"dim": 1, "grid": 1}),
    # the random kind draws every real part before any imaginary one, so it
    # has no row-block formula: its blocks are slices of its table
    GalleryKind.DELTA: _Reads(build_delta, ("dim",), sized={"dim": 1}),
    GalleryKind.DOUBLED_ONB: _Reads(build_doubled_onb, ("dim",), sized={"dim": 1}),
    GalleryKind.AUGMENTED_ONB: _Reads(build_augmented_onb, ("dim",), sized={"dim": 1}),
    GalleryKind.MERCEDES: _Reads(build_mercedes, ()),
    GalleryKind.RANDOM: _Reads(build_random, ("rows", "dim"), ("seed",), {"rows": 1}),
}


def _refuse_unread(spec: GallerySpec, reads, what: str) -> None:
    names = [field.name for field in fields(GallerySpec) if field.name != "kind"]
    unread = [name for name in names if name not in reads and getattr(spec, name) is not None]
    if unread:
        raise InvalidSpecError(f"{what} does not read {', '.join(unread)}")


def build(spec: GallerySpec) -> VectorFamily:
    """The family ``spec`` describes, refusing unread fields.

    A torus or affine family comes as its :class:`RootSource`, which makes
    each weighted row block from the formula and its table only when
    ``members`` is read; any other kind is built as its table, and its
    blocks are slices of it.
    """
    reads = _READS[spec.kind]
    _refuse_unread(spec, reads.needs + reads.takes, f"{spec.kind.value} gallery")
    missing = [name for name in reads.needs if getattr(spec, name) is None]
    if missing:
        raise InvalidSpecError(f"{spec.kind.value} spec needs {' and '.join(missing)}")
    taken = {name: getattr(spec, name) for name in reads.takes if getattr(spec, name) is not None}
    return reads.builder(*(getattr(spec, name) for name in reads.needs), **taken)


def truncation_sequence(
    spec: GallerySpec, sizes: Sequence[int]
) -> Callable[[int], VectorFamily]:
    """Size-indexed families for bound-trend and redundancy experiments.

    Each size is the :func:`build` of its spec with the fields its kind's
    truncation size sets, so identical specs and sizes always give identical
    families, and a torus or affine size is a :class:`RootSource`, streamed
    without its table: the torus keeps four nodes per frequency slot, and a
    seeded spec gives each size the child seed ``[seed, size]``.
    """
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise InvalidSpecError("trend sizes must be ascending")
    if any(s < 1 for s in sizes):
        raise InvalidSpecError("trend sizes must be positive")
    reads = _READS[spec.kind]
    if reads.sized is None:
        raise InvalidSpecError(f"gallery kind {spec.kind.value} is not size-parameterized")
    unsized = [name for name in reads.needs + reads.takes if name not in reads.sized]
    _refuse_unread(spec, unsized, f"{spec.kind.value} truncation")

    def sized_family(size: int) -> VectorFamily:
        sized = {name: per_size * size for name, per_size in reads.sized.items()}
        if spec.seed is not None:
            sized["seed"] = [spec.seed, size]
        return build(replace(spec, **sized))

    return sized_family
