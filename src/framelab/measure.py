"""Measure spaces built from point atoms and density segments.

A measure is described structurally: a finite list of labelled point atoms
plus a finite list of disjoint real segments, each segment carrying either a
constant density ``c`` or a power density ``c * r**(k-1)``.  Those two density
shapes keep cumulative-mass inversion closed form, which makes equal-mass
subdivision exact.  After :func:`discretize`, every integral against the
measure becomes a weighted sum over nodes, and each node remembers whether it
came from a true atom or from a quadrature cell.

A :class:`DiscretizedSpace` holds its nodes as columns (weights, atom flags,
float coordinates and one tuple of labels) and the node rules, checks them a
column at a time and names a faulty node as ``nodes[j].field``.  The builders
and the JSON decoder compute columns and create no per-node object; the
:class:`Node` rows of a space are a view derived on first use.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import OutOfRangeError, ValidationError

# most cells whose float64 edges fit in one array; np.arange(1, 2**63) is empty
MAX_CELLS = np.iinfo(np.intp).max // 8 - 1


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

    def mass(self, lo, hi):
        """Integrated density over ``[lo, hi]``; ``lo`` and ``hi`` may be arrays of edges."""
        if self.kind == "const":
            return self.c * (hi - lo)
        return self.c * (hi**self.k - lo**self.k) / self.k

    def invert_mass(self, lo: float, target):
        """Endpoint ``t >= lo`` with ``mass(lo, t) == target``; ``target`` may be an array."""
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


class Node(NamedTuple):
    """One quadrature node: location, weight and origin flag, as a row of its space."""

    point: float | str
    weight: float
    provenance: Provenance


# a node's provenance, indexed by its is_atom flag
_KINDS = (Provenance.CELL, Provenance.ATOM)


def _check_nodes(ok, name: str, rule: str, column) -> None:
    """Refuse the first node whose ``ok`` flag is false: the one form of a node fault.

    ``column[j]`` is the value named; an array's entry is named as a Python number.
    """
    if not np.all(ok):
        j = int(np.argmin(ok))
        got = column[j]
        if isinstance(got, np.generic):
            got = got.item()
        raise ValidationError(f"nodes[{j}].{name} must be {rule}, got {got!r}")


def _point_values(coordinates: np.ndarray, labels: tuple) -> list:
    """Each node's point as a Python value: its coordinate, or its label where that is NaN."""
    labelled = np.isnan(coordinates)
    if labelled.all():
        return list(labels)
    values = coordinates.tolist()
    for j, label in zip(np.flatnonzero(labelled).tolist(), labels):
        values[j] = label
    return values


def _given_columns(points, weights, is_atom: np.ndarray) -> tuple:
    """``(weights, is_atom, coordinates, labels, given weights)`` of node values as given.

    A cell point that is a finite Python float becomes a coordinate and every
    other point a label, so each point is written back as it was given.  The
    given weights are kept only when one of them is not a float, such as an
    int read from JSON.
    """
    try:
        column = np.array(weights, dtype=float)
    except OverflowError:  # an int past the float range reads as NaN, which the rule refuses
        column = np.array([w if abs(w) <= sys.float_info.max else math.nan for w in weights])
    floats = map(operator.is_, map(type, points), itertools.repeat(float))
    cell = np.fromiter(floats, bool, len(points)) & ~is_atom
    coordinates = np.full(len(points), math.nan)
    coordinates[cell] = np.fromiter(itertools.compress(points, cell.tolist()), float)
    # a NaN or infinite float stays a label, which the point rule refuses
    cell &= np.isfinite(coordinates)
    coordinates[~cell] = math.nan
    labels = tuple(itertools.compress(points, (~cell).tolist()))
    given = None if set(map(type, weights)) <= {float} else tuple(weights)
    return column, is_atom, coordinates, labels, given


@dataclass(frozen=True, eq=False, init=False)
class DiscretizedSpace:
    """Finite node list on which integrals become weighted sums.

    The node-level pairing ``inner(F, G) = sum_j w_j F_j conj(G_j)`` is the
    discrete stand-in for the weighted L2 inner product; it is linear in the
    first slot, matching the convention used throughout the package.

    A space holds its nodes as columns: the read-only ``weights`` (float64)
    and ``is_atom`` arrays, the read-only float64 ``coordinates``, which hold
    the point of each cell whose point is a float and NaN at every other node,
    and the ``labels`` tuple, the points of those other nodes (every atom's
    label, and a cell point given as an int or a string) in node order.
    ``DiscretizedSpace(nodes)`` takes ``(point, weight, provenance)`` triples
    and :meth:`from_columns` takes columns; both check the node rules a column
    at a time.  ``points`` and the :class:`Node` rows ``nodes`` are views
    derived on first use.  Equality compares the columns.
    """

    weights: np.ndarray
    is_atom: np.ndarray
    coordinates: np.ndarray
    labels: tuple

    def __init__(self, nodes) -> None:
        rows = tuple(itertools.starmap(Node, nodes))
        points, weights, kinds = tuple(zip(*rows)) or ((), (), ())
        is_atom = map(operator.is_, kinds, itertools.repeat(Provenance.ATOM))
        self._assign(*_given_columns(points, weights, np.fromiter(is_atom, bool, len(kinds))))

    @classmethod
    def from_columns(cls, weights, is_atom, coordinates, labels=()) -> "DiscretizedSpace":
        """Space of node columns, each copied into a read-only array.

        ``coordinates`` holds the point of each cell whose point is a float
        and NaN at every other node, atoms included; ``labels`` holds the
        points of those other nodes in node order.
        """
        space = object.__new__(cls)
        space._assign(weights, is_atom, coordinates, labels, None)
        return space

    def _assign(self, weights, is_atom, coordinates, labels, given) -> None:
        """Check the node rules on the columns and keep them, read-only."""
        weights = np.array(weights, dtype=np.float64)
        is_atom = np.array(is_atom, dtype=bool)
        coordinates = np.array(coordinates, dtype=np.float64)
        labels = tuple(labels)
        if weights.ndim != 1 or not weights.shape == is_atom.shape == coordinates.shape:
            raise ValidationError(
                "node columns must be 1-d of one length, got shapes "
                f"{weights.shape}, {is_atom.shape} and {coordinates.shape}"
            )
        named = weights if given is None else given
        _check_nodes((weights > 0) & (weights < math.inf), "weight", "finite and positive", named)
        labelled = np.isnan(coordinates)
        if np.any(is_atom & ~labelled):
            raise ValidationError("an atom's point is a label: coordinates must be NaN at atoms")
        if np.count_nonzero(labelled) != len(labels):
            raise ValidationError(
                f"{len(labels)} labels for {np.count_nonzero(labelled)} nodes without a coordinate"
            )
        finite = ~np.isinf(coordinates)
        if any(issubclass(kind, float) for kind in set(map(type, labels))):
            finite[labelled] = [not isinstance(p, float) or math.isfinite(p) for p in labels]
        if not finite.all():
            _check_nodes(finite, "point", "finite", _point_values(coordinates, labels))
        for column in (weights, is_atom, coordinates):
            column.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "is_atom", is_atom)
        object.__setattr__(self, "coordinates", coordinates)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_given_weights", given)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscretizedSpace):
            return NotImplemented
        return self is other or (
            self.labels == other.labels
            and np.array_equal(self.is_atom, other.is_atom)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.coordinates, other.coordinates, equal_nan=True)
        )

    def __hash__(self) -> int:
        return hash((self.size, self.labels))

    @cached_property
    def points(self) -> tuple:
        """Each node's point as given, in node order."""
        return tuple(_point_values(self.coordinates, self.labels))

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        """The ``(point, weight, provenance)`` rows of the space."""
        kinds = map(_KINDS.__getitem__, self.is_atom.tolist())
        return tuple(map(Node, self.points, self.weight_values(), kinds))

    def weight_values(self):
        """Each node's weight as a Python number, as given: an int read from JSON stays an int."""
        return self._given_weights if self._given_weights is not None else self.weights.tolist()

    def restrict(self, keep) -> "DiscretizedSpace":
        """The space of the nodes where the bool column ``keep`` is true, in node order."""
        keep = np.asarray(keep, dtype=bool)
        labels = itertools.compress(self.labels, keep[np.isnan(self.coordinates)].tolist())
        given = self._given_weights
        if given is not None:
            given = tuple(itertools.compress(given, keep.tolist()))
        space = object.__new__(DiscretizedSpace)
        space._assign(self.weights[keep], self.is_atom[keep], self.coordinates[keep], labels, given)
        return space

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights)) if self.size else 0.0

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
        points = _point_values(self.coordinates, self.labels)
        kinds = (_KINDS[atom].value for atom in self.is_atom.tolist())
        rows = [
            {"point": p, "weight": w, "provenance": k}
            for p, w, k in zip(points, self.weight_values(), kinds)
        ]
        return {"nodes": rows}

    @classmethod
    def from_json(cls, data) -> "DiscretizedSpace":
        """Space of ``{"nodes": [{"point", "weight", "provenance"}, ...]}``, read as columns."""
        if type(data) is not dict:
            raise ValidationError(f"space must be an object with a nodes list, got {data!r}")
        rows = data.get("nodes")
        if type(rows) is not list:
            raise ValidationError(f"nodes must be a list of node objects, got {rows!r}")
        fields = Node._fields
        try:
            points, weights, labels = (list(map(operator.itemgetter(k), rows)) for k in fields)
        except (KeyError, TypeError):
            # a row that is not an object, or lacks a field: name the first such row
            bad = [type(row) is not dict or not set(fields).issubset(row) for row in rows]
            raise ValidationError(
                f"nodes[{bad.index(True)}] must be an object with point, weight and provenance"
            ) from None
        # JSON numbers decode to int or float; bool, list and null are refused
        for name, column, types, rule in (
            ("point", points, {int, float, str}, "a number or a string"),
            ("weight", weights, {int, float}, "a number"),
        ):
            _check_nodes(list(map(types.__contains__, map(type, column))), name, rule, column)
        # str() makes every JSON value a lookup key; only "atom" and "cell" find a flag
        flags = {kind.value: kind is Provenance.ATOM for kind in Provenance}
        is_atom = list(map(flags.get, map(str, labels)))
        _check_nodes([a is not None for a in is_atom], "provenance", "'atom' or 'cell'", labels)
        space = object.__new__(cls)
        space._assign(*_given_columns(points, weights, np.array(is_atom, dtype=bool)))
        return space


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
    if cells_per_segment > MAX_CELLS:
        raise ValidationError(f"cells_per_segment must be at most {MAX_CELLS}")
    atoms = len(space.atoms)
    count = atoms + len(space.segments) * cells_per_segment
    weights = np.empty(count)
    weights[:atoms] = [atom.weight for atom in space.atoms]
    coordinates = np.full(count, math.nan)
    for i, segment in enumerate(space.segments):
        cells = slice(atoms + i * cells_per_segment, atoms + (i + 1) * cells_per_segment)
        weights[cells] = _cell_midpoints(segment, coordinates[cells])
    is_atom = np.zeros(count, dtype=bool)
    is_atom[:atoms] = True
    labels = [atom.label for atom in space.atoms]
    return DiscretizedSpace.from_columns(weights, is_atom, coordinates, labels)


def _cell_midpoints(segment: Segment, out: np.ndarray) -> float:
    """Write the midpoints of equal-mass cells of ``segment`` to ``out``; return their mass."""
    cells = len(out)
    step = segment.measure / cells
    edges = np.empty(cells + 1)
    edges[0], edges[-1] = segment.lo, segment.hi
    edges[1:-1] = segment.density.invert_mass(segment.lo, step * np.arange(1, cells))
    np.add(edges[:-1], edges[1:], out=out)
    out /= 2.0
    return step


def counting_space(count: int) -> DiscretizedSpace:
    """Unit-weight atomic space with ``count`` points labelled ``p0``, ``p1``, ..."""
    if count < 1:
        raise ValidationError("count must be at least 1")
    labels = map("p{}".format, range(count))
    return DiscretizedSpace.from_columns(
        np.ones(count), np.ones(count, dtype=bool), np.full(count, math.nan), labels
    )


def unit_segment_space(cells: int) -> DiscretizedSpace:
    """Uniform equal-mass discretization of [0, 1]."""
    space = MeasureSpace(segments=(Segment(0.0, 1.0, Density("const", 1.0)),))
    return discretize(space, cells)
