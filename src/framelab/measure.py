"""Measure spaces built from point atoms and density segments.

A measure is described structurally: a finite list of labelled point atoms
plus a finite list of disjoint real segments, each segment carrying either a
constant density ``c`` or a power density ``c * r**(k-1)``.  Those two density
shapes keep cumulative-mass inversion closed form, which makes equal-mass
subdivision exact.  After :func:`discretize`, every integral against the
measure becomes a weighted sum over nodes, and each node remembers whether it
came from a true atom or from a quadrature cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import OutOfRangeError, ValidationError


def _require_finite(value: float, name: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True)
class Density:
    """Constant density ``c`` or power density ``c * r**(k-1)``.

    Parameters
    ----------
    kind : str
        Either ``"const"`` or ``"power"``.
    c : float
        Positive scale factor.
    k : float
        Exponent parameter for the power law; ignored for constant densities.
    """

    kind: str
    c: float = 1.0
    k: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("const", "power"):
            raise ValidationError(f"unknown density kind {self.kind!r}")
        if not (_require_finite(self.c, "c") > 0):
            raise ValidationError("density scale c must be positive")
        if self.kind == "power" and not (_require_finite(self.k, "k") > 0):
            raise ValidationError("power density exponent k must be positive")

    def mass(self, lo: float, hi: float) -> float:
        """Integrated density over ``[lo, hi]``."""
        if self.kind == "const":
            return self.c * (hi - lo)
        return self.c * (hi**self.k - lo**self.k) / self.k

    def invert_mass(self, lo: float, target: float) -> float:
        """Endpoint ``t >= lo`` with ``mass(lo, t) == target``."""
        if self.kind == "const":
            return lo + target / self.c
        return (lo**self.k + self.k * target / self.c) ** (1.0 / self.k)


@dataclass(frozen=True)
class Segment:
    """A real interval carrying a density."""

    lo: float
    hi: float
    density: Density

    def __post_init__(self) -> None:
        lo = _require_finite(self.lo, "lo")
        hi = _require_finite(self.hi, "hi")
        if not lo < hi:
            raise ValidationError(f"segment needs lo < hi, got [{lo}, {hi}]")
        if self.density.kind == "power" and lo < 0:
            raise ValidationError("power densities require lo >= 0")

    @property
    def measure(self) -> float:
        return self.density.mass(self.lo, self.hi)


@dataclass(frozen=True)
class Atom:
    """A point carrying positive mass."""

    label: str
    weight: float

    def __post_init__(self) -> None:
        if not (_require_finite(self.weight, "weight") > 0):
            raise ValidationError(f"atom weight must be positive, got {self.weight}")


class SpaceKind(Enum):
    ATOMIC = "atomic"
    NON_ATOMIC = "non-atomic"
    AN_ATOMIC = "an-atomic"


@dataclass(frozen=True)
class MeasureSpace:
    """Finite-mass measure: atoms plus pairwise disjoint density segments."""

    atoms: tuple[Atom, ...] = ()
    segments: tuple[Segment, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "segments", tuple(self.segments))
        ordered = sorted(self.segments, key=lambda s: s.lo)
        for left, right in zip(ordered, ordered[1:]):
            if left.hi > right.lo:
                raise ValidationError(
                    f"segments [{left.lo}, {left.hi}] and [{right.lo}, {right.hi}] overlap"
                )

    @property
    def total_measure(self) -> float:
        return sum(a.weight for a in self.atoms) + sum(s.measure for s in self.segments)


class Provenance(Enum):
    ATOM = "atom"
    CELL = "cell"


@dataclass(frozen=True)
class Node:
    """One quadrature node: location, weight and origin flag."""

    point: float | str
    weight: float
    provenance: Provenance

    def __post_init__(self) -> None:
        if not (_require_finite(self.weight, "weight") > 0):
            raise ValidationError(f"node weight must be positive, got {self.weight}")
        # Python ints are exact, and too large ones would overflow math.isfinite
        if not isinstance(self.point, (str, int)) and not math.isfinite(self.point):
            raise ValidationError(f"node point must be finite, got {self.point!r}")

    def to_json(self) -> dict:
        return {"point": self.point, "weight": self.weight, "provenance": self.provenance.value}

    @classmethod
    def from_json(cls, data: dict) -> "Node":
        point, weight = data["point"], data["weight"]
        # JSON numbers decode to int or float; bool, str, list and None are refused
        if type(point) not in (int, float, str):
            raise ValidationError(f"node point must be a number or a string, got {point!r}")
        if type(weight) not in (int, float):
            raise ValidationError(f"node weight must be a number, got {weight!r}")
        return cls(point=point, weight=weight, provenance=Provenance(data["provenance"]))


@dataclass(frozen=True)
class DiscretizedSpace:
    """Finite node list on which integrals become weighted sums.

    The node-level pairing ``inner(F, G) = sum_j w_j F_j conj(G_j)`` is the
    discrete stand-in for the weighted L2 inner product; it is linear in the
    first slot, matching the convention used throughout the package.
    ``weights`` and the ``is_atom`` provenance mask are read-only arrays
    derived once from the nodes.
    """

    nodes: tuple[Node, ...]
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    is_atom: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        weights = np.array([node.weight for node in nodes], dtype=float)
        is_atom = np.array([node.provenance is Provenance.ATOM for node in nodes], dtype=bool)
        weights.setflags(write=False)
        is_atom.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "is_atom", is_atom)

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights)) if self.nodes else 0.0

    def values(self, data) -> np.ndarray:
        """Coerce ``data`` to a complex length-``size`` node function."""
        arr = np.asarray(data, dtype=np.complex128)
        if arr.shape != (self.size,):
            raise ValidationError(
                f"expected a length-{self.size} node function, got shape {arr.shape}"
            )
        return arr

    def inner(self, f, g) -> complex:
        fa, ga = self.values(f), self.values(g)
        return complex(np.sum(self.weights * fa * np.conj(ga)))

    def norm(self, f) -> float:
        fa = self.values(f)
        return float(np.sqrt(np.sum(self.weights * np.abs(fa) ** 2)))

    def to_json(self) -> dict:
        return {"nodes": [node.to_json() for node in self.nodes]}

    @classmethod
    def from_json(cls, data: dict) -> "DiscretizedSpace":
        return cls(nodes=tuple(Node.from_json(n) for n in data.get("nodes", [])))


def classify(space: MeasureSpace) -> SpaceKind:
    """Atomic when there are no segments, non-atomic when there are no atoms,
    an-atomic (not atomic, yet not free of atoms) for the mixed case."""
    if not space.segments:
        return SpaceKind.ATOMIC
    if not space.atoms:
        return SpaceKind.NON_ATOMIC
    return SpaceKind.AN_ATOMIC


def decompose(space: MeasureSpace) -> tuple[MeasureSpace, MeasureSpace]:
    """Split into the purely atomic part and the purely diffuse part.

    The split is a plain partition of the structural description, so masses
    re-add exactly: no weight is recomputed.
    """
    atomic = MeasureSpace(atoms=space.atoms, segments=())
    diffuse = MeasureSpace(atoms=(), segments=space.segments)
    return atomic, diffuse


def sierpinski_subset(space: MeasureSpace, segment_index: int, b: float) -> tuple[float, float]:
    """Subinterval of the indicated segment with mass exactly ``b``.

    The interval is anchored at the segment's lower endpoint and its upper
    endpoint is found by closed-form inversion of the cumulative mass, so the
    achieved mass agrees with ``b`` to roundoff.
    """
    if not 0 <= segment_index < len(space.segments):
        raise OutOfRangeError(f"segment index {segment_index} out of range")
    segment = space.segments[segment_index]
    total = segment.measure
    if b < 0 or b > total:
        raise OutOfRangeError(f"target mass {b} outside [0, {total}]")
    hi = segment.density.invert_mass(segment.lo, b)
    return segment.lo, min(hi, segment.hi)


def discretize(space: MeasureSpace, cells_per_segment: int) -> DiscretizedSpace:
    """Equal-mass midpoint quadrature of ``space``.

    Atoms pass through as single nodes.  Each segment is cut into
    ``cells_per_segment`` cells of equal mass (cell boundaries come from
    cumulative-mass inversion) and contributes the midpoint of each cell as a
    node.  Equal-mass cells make all weights inside a segment identical, and
    midpoints never touch segment endpoints.
    """
    if cells_per_segment < 1:
        raise ValidationError("cells_per_segment must be at least 1")
    nodes: list[Node] = []
    for atom in space.atoms:
        nodes.append(Node(point=atom.label, weight=atom.weight, provenance=Provenance.ATOM))
    for segment in space.segments:
        total = segment.measure
        step = total / cells_per_segment
        bounds = [segment.lo]
        for j in range(1, cells_per_segment):
            bounds.append(segment.density.invert_mass(segment.lo, j * step))
        bounds.append(segment.hi)
        for left, right in zip(bounds, bounds[1:]):
            nodes.append(
                Node(point=(left + right) / 2.0, weight=step, provenance=Provenance.CELL)
            )
    return DiscretizedSpace(nodes=tuple(nodes))


def counting_space(count: int) -> DiscretizedSpace:
    """Unit-weight atomic space with ``count`` points labelled ``p0``, ``p1``, ..."""
    if count < 1:
        raise ValidationError("count must be at least 1")
    atoms = tuple(Atom(label=f"p{i}", weight=1.0) for i in range(count))
    return discretize(MeasureSpace(atoms=atoms), 1)


def unit_segment_space(cells: int) -> DiscretizedSpace:
    """Uniform equal-mass discretization of [0, 1]."""
    space = MeasureSpace(segments=(Segment(0.0, 1.0, Density("const", 1.0)),))
    return discretize(space, cells)
