"""Measure spaces built from point atoms and density segments.

A measure is described structurally: a finite list of labelled point atoms
plus a finite list of disjoint real segments, each segment carrying either a
constant density ``c`` or a power density ``c * r**(k-1)``.  Those two density
shapes keep cumulative-mass inversion closed form, which makes equal-mass
subdivision exact.  After :func:`discretize`, every integral against the
measure becomes a weighted sum over nodes, and each node remembers whether it
came from a true atom or from a quadrature cell.

A :class:`DiscretizedSpace` holds its nodes as three columns (weights, atom
flags and points, each point as given) and the node rules, checks them a
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


def _point_column(points) -> np.ndarray:
    """The points as one array: float64 when each is a float, else dtype object, each as given."""
    if isinstance(points, np.ndarray) and points.dtype == np.float64:
        return np.array(points)
    points = points.tolist() if isinstance(points, np.ndarray) else list(points)
    if set(map(type, points)) <= {float}:
        return np.array(points, dtype=np.float64)
    return np.fromiter(points, dtype=object, count=len(points))


@dataclass(frozen=True, eq=False, init=False)
class DiscretizedSpace:
    """Finite node list on which integrals become weighted sums.

    The node-level pairing ``inner(F, G) = sum_j w_j F_j conj(G_j)`` is the
    discrete stand-in for the weighted L2 inner product; it is linear in the
    first slot, matching the convention used throughout the package.

    A space holds its nodes as three read-only columns: ``weights``
    (float64), ``is_atom`` and ``points``, which is float64 when every point
    is a Python float, atom or cell, and otherwise a dtype ``object`` array
    of each point as given (an atom label, an int, a string).
    ``DiscretizedSpace(nodes)`` takes ``(point, weight, provenance)`` triples
    and :meth:`from_columns` takes columns; both check the node rules a column
    at a time.  The :class:`Node` rows ``nodes`` are a view derived on first
    use.  Equality compares the values of the columns, so a point ``3``
    equals a point ``3.0``.
    """

    weights: np.ndarray
    is_atom: np.ndarray
    points: np.ndarray

    def __init__(self, nodes) -> None:
        rows = tuple(itertools.starmap(Node, nodes))
        points, weights, kinds = tuple(zip(*rows)) or ((), (), ())
        is_atom = map(operator.is_, kinds, itertools.repeat(Provenance.ATOM))
        self._assign(weights, np.fromiter(is_atom, bool, len(kinds)), points)

    @classmethod
    def from_columns(cls, weights, is_atom, points) -> "DiscretizedSpace":
        """Space of node columns, each copied into a read-only array."""
        space = object.__new__(cls)
        space._assign(weights, is_atom, points)
        return space

    def _assign(self, weights, is_atom, points) -> None:
        """Check the node rules on the columns and keep them, read-only.

        Python weights of which one is not a float, such as an int read from
        JSON, are kept as given too, so each is written back as it was given.
        """
        floats = isinstance(weights, np.ndarray) or set(map(type, weights)) <= {float}
        given = None if floats else tuple(weights)
        try:
            column = np.array(weights, dtype=np.float64)
        except OverflowError:  # an int past the float range reads as NaN, which the rule refuses
            column = np.array([w if abs(w) <= sys.float_info.max else math.nan for w in weights])
        is_atom = np.array(is_atom, dtype=bool)
        points = _point_column(points)
        if column.ndim != 1 or not column.shape == is_atom.shape == points.shape:
            raise ValidationError(
                "node columns must be 1-d of one length, got shapes "
                f"{column.shape}, {is_atom.shape} and {points.shape}"
            )
        named = column if given is None else given
        _check_nodes((column > 0) & (column < math.inf), "weight", "finite and positive", named)
        if points.dtype != object:
            finite = np.isfinite(points)
        elif any(issubclass(kind, float) for kind in set(map(type, points))):
            finite = [not isinstance(p, float) or math.isfinite(p) for p in points]
        else:
            finite = True
        _check_nodes(finite, "point", "finite", points)
        for array in (column, is_atom, points):
            array.setflags(write=False)
        object.__setattr__(self, "weights", column)
        object.__setattr__(self, "is_atom", is_atom)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_given_weights", given)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscretizedSpace):
            return NotImplemented
        return self is other or (
            np.array_equal(self.is_atom, other.is_atom)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.points, other.points)
        )

    def __hash__(self) -> int:
        # the points are left out: equal values of two dtypes, such as 3 and 3.0, compare equal
        return hash((self.size, self.is_atom.tobytes()))

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        """The ``(point, weight, provenance)`` rows of the space."""
        kinds = map(_KINDS.__getitem__, self.is_atom.tolist())
        return tuple(map(Node, self.points.tolist(), self.weight_values(), kinds))

    def weight_values(self):
        """Each node's weight as a Python number, as given: an int read from JSON stays an int."""
        return self._given_weights if self._given_weights is not None else self.weights.tolist()

    def restrict(self, keep) -> "DiscretizedSpace":
        """The space of the nodes where the bool column ``keep`` is true, in node order."""
        keep = np.asarray(keep, dtype=bool)
        weights = self.weights[keep]
        if self._given_weights is not None:
            weights = tuple(itertools.compress(self._given_weights, keep.tolist()))
        return DiscretizedSpace.from_columns(weights, self.is_atom[keep], self.points[keep])

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
        points = self.points.tolist()
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
        return cls.from_columns(weights, is_atom, points)


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
    points = np.empty(count)
    for i, segment in enumerate(space.segments):
        cells = slice(atoms + i * cells_per_segment, atoms + (i + 1) * cells_per_segment)
        weights[cells] = _cell_midpoints(segment, points[cells])
    is_atom = np.zeros(count, dtype=bool)
    is_atom[:atoms] = True
    if atoms:  # the atom labels and the cells' float points share one column
        points = [atom.label for atom in space.atoms] + points[atoms:].tolist()
    return DiscretizedSpace.from_columns(weights, is_atom, points)


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
    return DiscretizedSpace.from_columns(np.ones(count), np.ones(count, dtype=bool), labels)


def unit_segment_space(cells: int) -> DiscretizedSpace:
    """Uniform equal-mass discretization of [0, 1]."""
    space = MeasureSpace(segments=(Segment(0.0, 1.0, Density("const", 1.0)),))
    return discretize(space, cells)
