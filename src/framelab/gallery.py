"""Ready-made example families, parameterized for truncation experiments."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidSpecError
from .frames import VectorFamily
from .measure import (
    Density,
    DiscretizedSpace,
    MeasureSpace,
    Provenance,
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


def build_torus(dim: int, grid: int) -> VectorFamily:
    """Exponential family on the unit circle with harmonically decaying weights.

    Member component i at node x is ``exp(2 pi I x n_i) / (i + 1)`` with the
    frequencies enumerated 0, 1, -1, 2, -2, ...  On a uniform grid finer than
    twice the largest frequency the grid exponentials stay exactly
    orthonormal, so the frame operator is diagonal with entries
    ``1, 1/4, 1/9, ...``: the upper bound is 1 and the lower bound ``1/dim**2``
    drains to zero under truncation growth.
    """
    if dim < 1:
        raise InvalidSpecError("torus family needs dim >= 1")
    freqs = np.array(frequency_enumeration(dim))
    if grid <= 2 * int(np.max(np.abs(freqs))):
        raise InvalidSpecError(
            f"grid {grid} too coarse for frequencies up to {int(np.max(np.abs(freqs)))}"
        )
    space = unit_segment_space(grid)
    coefficients = 1.0 / (np.arange(dim) + 1.0)
    members = coefficients[None, :] * np.exp(2j * np.pi * np.outer(space.points, freqs))
    return VectorFamily(space=space, members=members)


def _exp_tail_cut(power: int) -> float:
    """Radius beyond which the squared-exponential radial mass is below ``AFFINE_TAIL_FRACTION``.

    For integer ``power`` the normalized upper tail of ``r**(power-1) e^{-2r}``
    has the closed form ``e^{-2R} sum_{m<power} (2R)^m / m!``; the cut is found
    by bisection.  A power whose tail overflows a float on the way is refused.
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


def build_affine(cells: int, grid: int | None = None, power: int = 1) -> VectorFamily:
    """Modulated-profile family over a frequency grid.

    The ambient space is the radial half line with weight ``r**(power-1)``,
    truncated where the energy tail of the profile ``exp(-r)`` drops below
    ``AFFINE_TAIL_FRACTION`` of the total and embedded into coordinates
    through square-root weights.  Members are pure modulations of the profile
    sampled on a frequency window matched to the radial spacing, so the frame
    operator approaches multiplication by ``r**(power-1) exp(-2r)``; for
    ``power == 1`` the match is exact up to roundoff.
    """
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
    radii = np.array(radial_space.points)
    spacing = upper_limit / cells
    extent = 1.0 / spacing
    frequency_space = discretize(
        MeasureSpace(segments=(Segment(0.0, extent, Density("const", 1.0)),)), grid
    )
    members = (
        np.sqrt(radial_space.weights)[None, :]
        * np.exp(-radii)[None, :]
        * np.exp(-2j * np.pi * np.outer(frequency_space.points, radii))
    )
    return VectorFamily(space=frequency_space, members=members)


def affine_radial_space(cells: int, power: int, upper_limit: float) -> DiscretizedSpace:
    """Equal-width radial grid carrying the mass of ``r**(power-1)`` per cell.

    Uniform spacing (rather than the equal-mass cells of
    :func:`framelab.measure.discretize`) is what lets a matched frequency
    window resolve the radial nodes independently, turning the frame operator
    into a multiplier; each node still carries the exact mass of its cell.
    """
    edges = np.append(np.arange(cells) * (upper_limit / cells), upper_limit)
    midpoints = ((edges[:-1] + edges[1:]) / 2.0).tolist()
    masses = Density("power", 1.0, float(power)).mass(edges[:-1], edges[1:]).tolist()
    return DiscretizedSpace(nodes=zip(midpoints, masses, itertools.repeat(Provenance.CELL)))


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
    if count < 1:
        raise InvalidSpecError("delta family needs count >= 1")
    space = counting_space(count)
    members = np.zeros((count, count), dtype=np.complex128)
    for k in range(1, count + 1):
        amplitude = math.sqrt(k) if k % 2 == 0 else 1.0 / math.sqrt(k)
        members[k - 1, k - 1] = amplitude
    return VectorFamily(space=space, members=members)


def build_doubled_onb(dim: int) -> VectorFamily:
    """Each canonical basis vector listed twice, adjacent duplicates."""
    if dim < 1:
        raise InvalidSpecError("doubled basis needs dim >= 1")
    space = counting_space(2 * dim)
    eye = np.eye(dim, dtype=np.complex128)
    members = np.repeat(eye, 2, axis=0)
    return VectorFamily(space=space, members=members)


def build_augmented_onb(dim: int) -> VectorFamily:
    """Canonical basis with the first vector repeated once."""
    if dim < 1:
        raise InvalidSpecError("augmented basis needs dim >= 1")
    space = counting_space(dim + 1)
    eye = np.eye(dim, dtype=np.complex128)
    members = np.vstack([eye[:1], eye])
    return VectorFamily(space=space, members=members)


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
    return VectorFamily(space=space, members=members)


def build_random(rows: int, dim: int, seed=None) -> VectorFamily:
    """Standard complex Gaussian members over a counting space; seeded."""
    if rows < 1 or dim < 1:
        raise InvalidSpecError("random family needs rows >= 1 and dim >= 1")
    if seed is None:
        raise InvalidSpecError("random family needs an explicit seed")
    try:
        rng = np.random.default_rng(seed)
    except ValueError as exc:
        raise InvalidSpecError(f"random family seed {seed!r} refused: {exc}") from exc
    members = (
        rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    ) / math.sqrt(2.0)
    space = counting_space(rows)
    return VectorFamily(space=space, members=members)


@dataclass(frozen=True)
class _Reads:
    """The spec fields one gallery kind reads.

    ``build`` passes ``needs`` by position, refusing a spec that leaves one
    unset, and each set field of ``takes`` by name.  ``sized`` maps each field
    a truncation size sets to the multiple of the size it takes; it is
    ``None`` for a kind that is not size-parameterized.  A truncation reads
    the other fields from its spec.
    """

    builder: Callable[..., VectorFamily]
    needs: tuple[str, ...]
    takes: tuple[str, ...] = ()
    sized: dict[str, int] | None = None


_READS = {
    GalleryKind.TORUS: _Reads(build_torus, ("dim", "grid"), sized={"dim": 1, "grid": 4}),
    # a truncation keeps the default grid, one frequency per radial cell
    GalleryKind.AFFINE: _Reads(build_affine, ("dim",), ("grid", "power"), {"dim": 1, "grid": 1}),
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
    """Construct the family described by ``spec``, refusing fields its kind does not read."""
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
    """Size-indexed builder for bound-trend experiments.

    Each size is built by :func:`build` with the fields its kind's truncation
    size sets, so identical specs and sizes always produce identical
    families: the torus keeps four nodes per frequency slot, and a seeded
    spec gives each size the child seed ``[seed, size]``.
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

    def family(size: int) -> VectorFamily:
        sized = {name: per_size * size for name, per_size in reads.sized.items()}
        if spec.seed is not None:
            sized["seed"] = [spec.seed, size]
        return build(replace(spec, **sized))

    return family
