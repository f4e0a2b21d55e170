import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import measure
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
        assert space.points == tuple(point for point, _, _ in triples)
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
