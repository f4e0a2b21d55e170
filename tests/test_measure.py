import argparse
import csv
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab import cli, codec, frames, gallery, measure, rkhs
from framelab.errors import OutOfRangeError, ValidationError
from framelab.measure import (
    Atom,
    Density,
    DiscretizedSpace,
    MeasureSpace,
    Node,
    Provenance,
    Segment,
    SpaceKind,
    classify,
    decompose,
    discretize,
    sierpinski_subset,
)

from conftest import traced_peak

UNIT = Segment(0.0, 1.0, Density("const", 1.0))


def linear_density_segment():
    # density r on [0, 2], total mass 2
    return Segment(0.0, 2.0, Density("power", 1.0, 2.0))


class TestDensity:
    def test_const_mass(self):
        d = Density("const", 2.0)
        assert d.mass(0.0, 1.5) == 3.0
        assert d.invert_mass(0.0, 3.0) == 1.5

    def test_power_mass(self):
        d = Density("power", 1.0, 2.0)
        assert d.mass(0.0, 2.0) == 2.0
        np.testing.assert_allclose(d.invert_mass(0.0, 1.0), np.sqrt(2.0), rtol=1e-15)

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            Density("gaussian", 1.0)

    def test_nonpositive_scale(self):
        with pytest.raises(ValidationError):
            Density("const", 0.0)

    def test_nonpositive_power_exponent(self):
        with pytest.raises(ValidationError, match="^power density exponent k must be positive$"):
            Density("power", 1.0, 0.0)


def test_atom_weight_must_be_positive():
    with pytest.raises(ValidationError, match="^atom weight must be positive, got 0$"):
        Atom("a", 0)


class TestSegmentValidation:
    def test_inverted_endpoints(self):
        with pytest.raises(ValidationError):
            Segment(1.0, 0.0, Density("const", 1.0))

    def test_power_needs_nonnegative_lo(self):
        with pytest.raises(ValidationError):
            Segment(-1.0, 1.0, Density("power", 1.0, 2.0))

    @pytest.mark.parametrize("hi", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_endpoint_refused(self, hi):
        with pytest.raises(ValidationError, match=f"^hi must be finite, got {hi}$"):
            Segment(0.0, hi, Density("const", 1.0))

    def test_overlapping_segments_rejected(self):
        with pytest.raises(ValidationError):
            MeasureSpace(segments=(UNIT, Segment(0.5, 2.0, Density("const", 1.0))))

    def test_touching_segments_allowed(self):
        MeasureSpace(segments=(UNIT, Segment(1.0, 2.0, Density("const", 1.0))))


class TestClassify:
    def test_atomic(self):
        space = MeasureSpace(atoms=(Atom("p", 0.5),))
        assert classify(space) is SpaceKind.ATOMIC

    def test_non_atomic(self):
        assert classify(MeasureSpace(segments=(UNIT,))) is SpaceKind.NON_ATOMIC

    def test_mixed(self):
        space = MeasureSpace(atoms=(Atom("p", 0.5),), segments=(UNIT,))
        assert classify(space) is SpaceKind.AN_ATOMIC


class TestDecompose:
    def test_direct_partition(self):
        space = MeasureSpace(atoms=(Atom("p", 0.5),), segments=(UNIT,))
        atomic, diffuse = decompose(space)
        assert atomic.atoms == space.atoms and not atomic.segments
        assert diffuse.segments == space.segments and not diffuse.atoms

    def test_purely_atomic(self):
        space = MeasureSpace(atoms=(Atom("a", 1.0), Atom("b", 2.0)))
        atomic, diffuse = decompose(space)
        assert atomic == space
        assert diffuse.total_measure == 0.0

    def test_mass_additivity_exact_on_dyadic_weights(self):
        space = MeasureSpace(
            atoms=(Atom("a", 0.5), Atom("b", 0.25), Atom("c", 1.75)),
            segments=(UNIT, Segment(2.0, 2.5, Density("const", 2.0))),
        )
        atomic, diffuse = decompose(space)
        assert atomic.total_measure + diffuse.total_measure == space.total_measure

    def test_mass_additivity_generic(self, rng):
        atoms = tuple(Atom(f"a{i}", w) for i, w in enumerate(rng.uniform(0.1, 2.0, 3)))
        segs = (Segment(0.0, 1.3, Density("const", 0.7)), Segment(2.0, 3.1, Density("power", 1.2, 3.0)))
        space = MeasureSpace(atoms=atoms, segments=segs)
        atomic, diffuse = decompose(space)
        total = atomic.total_measure + diffuse.total_measure
        assert abs(total - space.total_measure) <= 1e-12 * space.total_measure


class TestSierpinski:
    def test_uniform_cdf_inversion(self):
        space = MeasureSpace(segments=(UNIT,))
        assert sierpinski_subset(space, 0, 0.3) == (0.0, 0.3)

    def test_zero_mass(self):
        space = MeasureSpace(segments=(UNIT,))
        lo, hi = sierpinski_subset(space, 0, 0.0)
        assert lo == hi == 0.0

    def test_linear_density(self):
        space = MeasureSpace(segments=(linear_density_segment(),))
        lo, hi = sierpinski_subset(space, 0, 1.0)
        assert lo == 0.0
        np.testing.assert_allclose(hi, np.sqrt(2.0), rtol=1e-15)

    def test_out_of_range(self):
        space = MeasureSpace(segments=(UNIT,))
        with pytest.raises(OutOfRangeError):
            sierpinski_subset(space, 0, -0.1)
        with pytest.raises(OutOfRangeError):
            sierpinski_subset(space, 0, 1.1)
        with pytest.raises(OutOfRangeError):
            sierpinski_subset(space, 3, 0.1)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        lo=st.floats(0.0, 5.0),
        width=st.floats(0.1, 4.0),
        c=st.floats(0.1, 3.0),
        k=st.sampled_from([1.0, 2.0, 3.0, 4.5]),
        kind=st.sampled_from(["const", "power"]),
        fraction=st.floats(0.0, 1.0),
    )
    def test_achieved_mass(self, lo, width, c, k, kind, fraction):
        segment = Segment(lo, lo + width, Density(kind, c, k))
        space = MeasureSpace(segments=(segment,))
        b = fraction * segment.measure
        lo2, hi2 = sierpinski_subset(space, 0, b)
        achieved = segment.density.mass(lo2, hi2)
        assert abs(achieved - b) <= 1e-12 * max(segment.measure, 1.0)


class TestDiscretize:
    def test_uniform_four_cells(self):
        space = MeasureSpace(segments=(UNIT,))
        grid = discretize(space, 4)
        points = [node.point for node in grid.nodes]
        np.testing.assert_allclose(points, [0.125, 0.375, 0.625, 0.875])
        np.testing.assert_allclose(grid.weights, 0.25)
        assert all(node.provenance is Provenance.CELL for node in grid.nodes)

    def test_atoms_pass_through(self):
        space = MeasureSpace(atoms=(Atom("a", 1.0), Atom("b", 2.0)))
        grid = discretize(space, 3)
        assert [node.point for node in grid.nodes] == ["a", "b"]
        assert all(node.provenance is Provenance.ATOM for node in grid.nodes)

    def test_mixed_weights(self):
        space = MeasureSpace(atoms=(Atom("p", 2.0),), segments=(UNIT,))
        grid = discretize(space, 2)
        np.testing.assert_allclose(grid.weights, [2.0, 0.5, 0.5])

    def test_equal_mass_cells_on_power_density(self):
        space = MeasureSpace(segments=(linear_density_segment(),))
        grid = discretize(space, 8)
        np.testing.assert_allclose(grid.weights, 0.25)
        assert abs(grid.total_weight - 2.0) <= 1e-12 * 2.0

    def test_bad_cell_count(self):
        with pytest.raises(ValidationError):
            discretize(MeasureSpace(segments=(UNIT,)), 0)

    @pytest.mark.parametrize("cells", [measure.MAX_CELLS + 1, 2**63 - 1, 2**63])
    def test_cell_count_beyond_any_array_refused(self, cells):
        # np.arange(1, cells) is silently empty from about 2**63 on, which
        # used to give one node of weight 1 / cells
        message = f"^cells_per_segment must be at most {measure.MAX_CELLS}$"
        with pytest.raises(ValidationError, match=message):
            discretize(MeasureSpace(segments=(UNIT,)), cells)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        cells=st.integers(1, 40),
        c=st.floats(0.1, 3.0),
        k=st.sampled_from([1.0, 2.0, 3.0]),
        kind=st.sampled_from(["const", "power"]),
    )
    def test_mass_preserved_and_positive(self, cells, c, k, kind):
        segment = Segment(0.5, 2.5, Density(kind, c, k))
        space = MeasureSpace(segments=(segment,))
        grid = discretize(space, cells)
        assert np.all(grid.weights > 0)
        assert abs(grid.total_weight - space.total_measure) <= 1e-12 * space.total_measure


class TestSpacePairing:
    def test_inner_is_weighted_and_first_linear(self):
        grid = discretize(MeasureSpace(segments=(UNIT,)), 2)
        f = np.array([1.0 + 1j, 2.0])
        g = np.array([1j, 1.0])
        expected = 0.5 * (f[0] * np.conj(g[0]) + f[1] * np.conj(g[1]))
        assert grid.inner(f, g) == pytest.approx(expected)

    def test_length_checked(self):
        grid = discretize(MeasureSpace(segments=(UNIT,)), 2)
        with pytest.raises(ValidationError):
            grid.inner(np.ones(3), np.ones(3))


class TestJsonRoundTrip:
    def test_discretized_space(self):
        grid = discretize(
            MeasureSpace(atoms=(Atom("p", 2.0),), segments=(UNIT,)), 3
        )
        data = json.loads(json.dumps(grid.to_json()))
        assert DiscretizedSpace.from_json(data) == grid

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.text(max_size=4),
                    st.integers(-(10**30), 10**30),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 1e-300]),
                ),
                st.one_of(st.floats(1e-300, 1e300), st.integers(1, 10**30)),
                st.sampled_from(list(Provenance)),
            ),
            max_size=8,
        )
    )
    def test_space_of_triples(self, triples):
        space = DiscretizedSpace(nodes=iter(triples))
        text = json.dumps(space.to_json())
        again = DiscretizedSpace.from_json(json.loads(text))
        assert again == space
        # points and weights keep their Python type, so a report prints them as given
        assert json.dumps(again.to_json()) == text
        assert space.nodes == tuple(Node(*triple) for triple in triples)
        assert all(type(node) is Node for node in space.nodes)
        assert space.points.tolist() == [point for point, _, _ in triples]
        np.testing.assert_array_equal(space.weights, [float(w) for _, w, _ in triples])
        assert space.weights.dtype == np.float64 and not space.weights.flags.writeable
        assert space.is_atom.tolist() == [kind is Provenance.ATOM for _, _, kind in triples]
        assert not space.is_atom.flags.writeable


def test_counting_space_needs_a_point():
    with pytest.raises(ValidationError, match="^count must be at least 1$"):
        measure.counting_space(0)


def test_counting_space_weights():
    grid = measure.counting_space(4)
    np.testing.assert_allclose(grid.weights, 1.0)
    assert all(node.provenance is Provenance.ATOM for node in grid.nodes)


# node values as a JSON family file may give them: every point and weight
# type, atoms and cells mixed
_POINTS = st.one_of(
    st.text(max_size=4),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
)
_WEIGHTS = st.one_of(st.floats(1e-300, 1e300), st.integers(1, 10**30))
_TRIPLES = st.lists(st.tuples(_POINTS, _WEIGHTS, st.sampled_from(list(Provenance))), max_size=8)


def _members(count: int) -> np.ndarray:
    return np.arange(1.0, 2 * count + 1).reshape(count, 2) + 0.5j


def _inspect_bytes(space: DiscretizedSpace, fmt: str) -> bytes:
    members = _members(space.size)
    family = frames.VectorFamily(space=space, members=members)
    with mock.patch.object(cli, "_load_family", return_value=family):
        write = cli._cmd_inspect(argparse.Namespace(format=fmt))
    handle = io.BytesIO()
    write(handle)
    return handle.getvalue()


def _profile_csv(triples) -> bytes:
    """The inspect CSV of ``triples`` under ``_inspect_bytes``' members, by ``csv.writer``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("point", "weight", "squared_norm"))
    norms = np.sum(np.abs(_members(len(triples))) ** 2, axis=1)
    for (point, weight, _), norm in zip(triples, norms):
        writer.writerow((point, weight, float(norm)))
    return buffer.getvalue().encode("utf-8")


def _columns_of(triples) -> tuple:
    """``from_columns`` arguments of ``triples``: the points as given, of atoms and cells alike."""
    weights = [float(w) for _, w, _ in triples]
    is_atom = [kind is Provenance.ATOM for _, _, kind in triples]
    return weights, is_atom, [p for p, _, _ in triples]


class TestColumns:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_TRIPLES)
    # atoms at float points beside cells, and a cell point 3 beside 3.0
    @example([(0.1, 1.0, Provenance.ATOM), (0.4, 2, Provenance.ATOM), (0.5, 0.5, Provenance.CELL)])
    @example([("a", 1.0, Provenance.ATOM), (3, 1.0, Provenance.CELL), (3.0, 1.0, Provenance.CELL)])
    def test_rows_and_columns_agree(self, triples):
        rows = DiscretizedSpace(nodes=triples)
        text = json.dumps(rows.to_json())
        decoded = DiscretizedSpace.from_json(json.loads(text))
        built = DiscretizedSpace.from_columns(*_columns_of(triples))
        assert rows == decoded == built and built == rows
        # one column of points: float64 when each is a float, whether atom or cell
        floats = all(type(p) is float for p, _, _ in triples)
        for space in (rows, decoded, built):
            assert space.points.dtype == (np.float64 if floats else object)
        # points and weights are written as given, so an int stays an int
        given = [{"point": p, "weight": w, "provenance": k.value} for p, w, k in triples]
        assert text == json.dumps({"nodes": given}) == json.dumps(decoded.to_json())
        assert rows.nodes == decoded.nodes == tuple(Node(*triple) for triple in triples)
        for fmt in ("csv", "json"):
            assert _inspect_bytes(rows, fmt) == _inspect_bytes(decoded, fmt)
        assert _inspect_bytes(decoded, "csv") == _profile_csv(triples)
        if all(type(w) is float for _, w, _ in triples):
            assert json.dumps(built.to_json()) == text

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        _TRIPLES.filter(bool),
        st.data(),
        st.sampled_from([0, -1, 0.0, -2.5, math.nan, math.inf, -math.inf, 10**400]),
    )
    def test_weight_faults_name_the_value_as_given(self, triples, data, bad):
        j = data.draw(st.integers(0, len(triples) - 1))
        point, _, kind = triples[j]
        triples[j] = (point, bad, kind)
        message = f"^{re.escape(f'nodes[{j}].weight must be finite and positive, got {bad!r}')}$"
        with pytest.raises(ValidationError, match=message):
            DiscretizedSpace(nodes=triples)
        rows = [{"point": p, "weight": w, "provenance": k.value} for p, w, k in triples]
        with pytest.raises(ValidationError, match=message):
            DiscretizedSpace.from_json(json.loads(json.dumps({"nodes": rows})))

    def test_columns_are_read_only_copies(self):
        weights, is_atom, points = np.ones(3), np.zeros(3, bool), np.array([0.1, 0.2, 0.3])
        space = DiscretizedSpace.from_columns(weights, is_atom, points)
        weights[0] = points[0] = 7.0
        assert space.weights.tolist() == [1.0] * 3 and space.points.tolist() == [0.1, 0.2, 0.3]
        for column in (space.weights, space.is_atom, space.points):
            assert column.dtype != object and not column.flags.writeable

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([1.0, 2.0], [False], [0.5, 0.6]), "node columns must be 1-d of one length"),
            # an object column of points: its length, and its float points only are checked
            (([1.0], [True], ["a", "b"]), "node columns must be 1-d of one length"),
            (([1.0] * 2, [True] * 2, ["a", -math.inf]),
             r"nodes\[1\]\.point must be finite, got -inf"),
            (([1.0] * 2, [False] * 2, [3, math.nan]), r"nodes\[1\]\.point must be finite, got nan"),
            (([1.0, -1.0], [False] * 2, [0.5, 0.6]),
             r"nodes\[1\]\.weight must be finite and positive, got -1\.0"),
            (([1.0, 1.0], [False] * 2, [0.5, math.inf]), r"nodes\[1\]\.point must be finite, got inf"),
            (([1.0], [True], [math.nan]), r"nodes\[0\]\.point must be finite, got nan"),
        ],
    )
    def test_column_faults(self, columns, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            DiscretizedSpace.from_columns(*columns)

    def test_restrict_keeps_labels_and_given_weights(self):
        triples = [("a", 2, Provenance.ATOM), (0.5, 1.5, Provenance.CELL), (3, 1, Provenance.CELL)]
        space = DiscretizedSpace(nodes=triples)
        kept = space.restrict([False, True, True])
        assert kept == DiscretizedSpace(nodes=triples[1:])
        assert kept.to_json() == DiscretizedSpace(nodes=triples[1:]).to_json()
        assert space.restrict([True, False, False]).nodes == (Node(*triples[0]),)
        assert space.restrict([False] * 3).size == 0

    def test_equality_and_hash(self):
        space = measure.counting_space(3)
        assert space == measure.counting_space(3) and hash(space) == hash(measure.counting_space(3))
        assert space != measure.counting_space(4)
        assert space != DiscretizedSpace(nodes=[(f"p{j}", 1.0, Provenance.CELL) for j in range(3)])
        assert space != DiscretizedSpace(nodes=[(f"p{j}", 2.0, Provenance.ATOM) for j in range(3)])
        assert space.__eq__(space.nodes) is NotImplemented
        # points compare by value, as rows do: 3 == 3.0 in an object or a float64 column
        for rest in ([], [("a", 1.0, Provenance.ATOM)]):
            ints = DiscretizedSpace(nodes=[(3, 1.0, Provenance.CELL)] + rest)
            floats = DiscretizedSpace(nodes=[(3.0, 1.0, Provenance.CELL)] + rest)
            assert ints == floats and hash(ints) == hash(floats)

    def test_unit_segment_space_peak_per_node(self):
        # the columns keep 17 bytes a node; the cell edges come and go
        n = 2**20
        space, peak = traced_peak(lambda: measure.unit_segment_space(n))
        assert space.size == n
        assert peak <= 64 * n


@pytest.fixture
def node_rows(monkeypatch):
    """The :class:`Node` rows constructed while the fixture is active."""
    made = []
    original = Node.__new__

    def counted(cls, *args, **kwargs):
        row = original(cls, *args, **kwargs)
        made.append(row)
        return row

    monkeypatch.setattr(Node, "__new__", counted)
    return made


def test_columns_paths_construct_no_node(node_rows, tmp_path):
    spaces = [
        discretize(MeasureSpace(atoms=(Atom("p", 2.0),), segments=(UNIT,)), 5),
        measure.counting_space(4),
        measure.unit_segment_space(6),
        gallery.affine_radial_space(5, 2, 3.0),
    ]
    families = [
        gallery.build(gallery.GallerySpec(kind=kind, **spec))
        for kind, spec in (
            (gallery.GalleryKind.TORUS, {"dim": 3, "grid": 8}),
            (gallery.GalleryKind.AFFINE, {"dim": 4, "power": 2}),
            (gallery.GalleryKind.DELTA, {"dim": 3}),
            (gallery.GalleryKind.DOUBLED_ONB, {"dim": 2}),
            (gallery.GalleryKind.AUGMENTED_ONB, {"dim": 2}),
            (gallery.GalleryKind.MERCEDES, {}),
            (gallery.GalleryKind.RANDOM, {"rows": 4, "dim": 2, "seed": 3}),
        )
    ]
    space = discretize(MeasureSpace(atoms=(Atom("a", 1.0),), segments=(UNIT,)), 4)
    members = np.array([[1, 0], [0, 1], [0, 1], [1, 1], [2, 0]], dtype=complex)
    mixed = frames.VectorFamily(space=space, members=members)
    data = json.loads(json.dumps({**mixed.to_json(), "members": mixed.to_json()["members"].tolist()}))
    decoded = frames.VectorFamily.from_json(data)
    discrete, continuous = frames.split(decoded)
    assert len(discrete) == 2 and continuous.size == 2
    for family in families + [decoded, continuous]:
        family.space.to_json()
        list(family.profile_rows())
    DiscretizedSpace.from_json(spaces[0].to_json())
    codec.kernel_csv_bytes(frames.kernel_matrix(families[0]))
    rkhs.blowup_experiment([2, 8])
    assert node_rows == []
    # the counter sees the rows where they are still made
    assert len(spaces[0].nodes) == 6 and len(node_rows) == 6
    DiscretizedSpace(nodes=[(0.5, 1.0, Provenance.CELL)])
    assert len(node_rows) == 7
