import math

import numpy as np
import pytest

from framelab import gallery, numerics
from framelab.errors import InvalidSpecError, ValidationError
from framelab.frames import (
    Classification,
    analysis,
    classify_trend,
    frame_bounds,
    frame_operator,
    semiframe_trend,
)
from framelab.gallery import (
    GalleryKind,
    GallerySpec,
    affine_symbol,
    build,
    build_affine,
    build_augmented_onb,
    build_delta,
    build_doubled_onb,
    build_mercedes,
    build_random,
    build_torus,
    frequency_enumeration,
    truncation_sequence,
)
from framelab.numerics import MAX_SIZE

from conftest import random_unit_vector, traced_peak

PI_SQ_SIXTH = math.pi**2 / 6.0
TORUS_CASES = [(1, 2), (2, 3), (5, 16), (8, 17), (33, 97), (128, 512)]
AFFINE_CASES = [(1, 1), (3, 4), (6, 8), (30, 30), (128, 512)]


def _grid_roots(order, rows, factors):
    """``roots[(2j + 1) * f mod order]`` for rows ``j`` and factors ``f``, indexed with Python ints."""
    factors = list(factors)
    index = [[(2 * j + 1) * f % order for f in factors] for j in range(rows)]
    return gallery._unit_roots(order)[np.array(index, dtype=np.int64).reshape(rows, len(factors))]


def _affine_profile(cells, power):
    radial = gallery.affine_radial_space(cells, power, gallery._exp_tail_cut(power))
    return radial.points, np.sqrt(radial.weights) * np.exp(-radial.points)


def test_frequency_enumeration_order():
    assert frequency_enumeration(6) == [0, 1, -1, 2, -2, 3]


class TestTorus:
    def test_grid_exponentials_exactly_orthonormal(self):
        family = build_torus(5, 32)
        # strip the harmonic coefficients, leaving the raw exponentials
        coefficients = 1.0 / (np.arange(5) + 1.0)
        exponentials = family.members / coefficients[None, :]
        w = family.space.weights
        gram = exponentials.conj().T @ (w[:, None] * exponentials)
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)

    def test_amplitude_cap_is_one(self):
        family = build_torus(6, 32)
        coefficients = 1.0 / (np.arange(6) + 1.0)
        assert np.max(np.abs(family.members / coefficients[None, :])) == pytest.approx(1.0)

    def test_bounds(self):
        for dim, grid in ((4, 16), (8, 64)):
            report = frame_bounds(build_torus(dim, grid))
            assert report.upper == pytest.approx(1.0, abs=1e-12)
            assert report.lower == pytest.approx(1.0 / dim**2, abs=1e-12)
            assert report.upper <= PI_SQ_SIXTH + 1e-12

    def test_pointwise_amplitude_bound(self, rng):
        family = build_torus(8, 32)
        cap = math.pi / math.sqrt(6.0)
        for _ in range(100):
            f = random_unit_vector(rng, 8)
            assert np.max(np.abs(analysis(family, f))) <= cap

    def test_grid_too_coarse(self):
        with pytest.raises(InvalidSpecError):
            build_torus(9, 8)

    def test_grid_beyond_any_array_refused(self):
        with pytest.raises(InvalidSpecError, match=f"^grid {2**63} exceeds the largest size"):
            build_torus(2, 2**63)

    @pytest.mark.parametrize("dim, grid", TORUS_CASES)
    def test_members_gather_the_grid_roots_of_unity(self, dim, grid):
        # component i at node j is the root of order 2 grid at n_i (2j + 1),
        # over i + 1; np.array_equal is exact (only a zero's sign may differ)
        expected = _grid_roots(2 * grid, grid, frequency_enumeration(dim)) / (np.arange(dim) + 1.0)
        assert np.array_equal(build_torus(dim, grid).members, expected)

    @pytest.mark.parametrize("dim, grid", TORUS_CASES)
    def test_negative_frequency_columns_are_conjugates(self, dim, grid):
        # the -k columns 2, 4, ... are the conjugated +k roots over 3, 5, ...
        positive = _grid_roots(2 * grid, grid, range(1, (dim - 1) // 2 + 1))
        expected = np.conj(positive) / np.arange(3.0, dim + 1.0, 2.0)
        assert np.array_equal(build_torus(dim, grid).members[:, 2::2], expected)

    @pytest.mark.parametrize("dim, grid", TORUS_CASES)
    def test_members_agree_with_the_float_phase_exponentials(self, dim, grid):
        family = build_torus(dim, grid)
        phases = 2j * np.pi * np.outer(family.space.points, frequency_enumeration(dim))
        expected = np.exp(phases) / (np.arange(dim) + 1.0)
        assert np.max(np.abs(family.members - expected)) <= 1e-14


class TestAffine:
    def test_multiplier_identity_default_power(self):
        family = build_affine(30)
        operator = frame_operator(family)
        radii, symbol = affine_symbol(30)
        np.testing.assert_allclose(np.diag(operator).real, symbol, atol=1e-12)
        off_diagonal = operator - np.diag(np.diag(operator))
        assert np.max(np.abs(off_diagonal)) <= 1e-12
        np.testing.assert_allclose(symbol, np.exp(-2.0 * radii), atol=1e-12)

    def test_multiplier_identity_power_two(self):
        family = build_affine(24, power=2)
        operator = frame_operator(family)
        _, symbol = affine_symbol(24, power=2)
        eigenvalues = np.linalg.eigvalsh((operator + operator.conj().T) / 2)
        np.testing.assert_allclose(eigenvalues, np.sort(symbol), atol=1e-10)

    def test_quadrature_error_shrinks_with_cells(self):
        errors = []
        for cells in (8, 32):
            family = build_affine(cells, power=3)
            operator = frame_operator(family)
            _, symbol = affine_symbol(cells, power=3)
            eigenvalues = np.linalg.eigvalsh((operator + operator.conj().T) / 2)
            errors.append(np.max(np.abs(eigenvalues - np.sort(symbol))))
        assert errors[1] < errors[0]

    def test_upper_semiframe_signature(self):
        # bounded above, lower bound pinned at the profile tail: tiny
        report = frame_bounds(build_affine(40))
        assert report.upper <= 1.0 + 1e-12
        assert report.lower <= 1e-7

    def test_power_past_the_float_range_refused(self):
        # power 102 is the largest whose tail-cut bisection stays within a float
        assert build_affine(4, power=102).members.shape == (4, 4)
        with pytest.raises(InvalidSpecError, match="affine power 103 is too large"):
            build_affine(4, power=103)
        with pytest.raises(InvalidSpecError, match="affine power 103 is too large"):
            affine_symbol(4, power=103)

    @pytest.mark.parametrize("power", [1, 3])
    @pytest.mark.parametrize("cells, grid", AFFINE_CASES)
    def test_members_gather_the_conjugate_grid_roots(self, cells, grid, power):
        # frequency node a and radial node b meet at the root of order 4 grid
        # at (2a + 1)(2b + 1); the member is its conjugate times the profile
        _, profile = _affine_profile(cells, power)
        expected = np.conj(_grid_roots(4 * grid, grid, range(1, 2 * cells, 2))) * profile
        assert np.array_equal(build_affine(cells, grid, power).members, expected)

    @pytest.mark.parametrize("power", [1, 3])
    @pytest.mark.parametrize("cells, grid", AFFINE_CASES)
    def test_mirrored_frequency_rows_are_negated_conjugates(self, cells, grid, power):
        # frequency nodes a and grid - 1 - a meet each radial node half a turn
        # apart, mirrored: the roots' symmetries are exact
        members = build_affine(cells, grid, power).members
        assert np.array_equal(members[::-1], -np.conj(members))

    @pytest.mark.parametrize("power", [1, 3])
    @pytest.mark.parametrize("cells, grid", AFFINE_CASES)
    def test_members_agree_with_the_float_phase_exponentials(self, cells, grid, power):
        # a float phase is rounded in proportion to its size
        family = build_affine(cells, grid, power)
        radii, profile = _affine_profile(cells, power)
        phases = 2 * np.pi * np.outer(family.space.points, radii)
        expected = profile * np.exp(-1j * phases)
        bound = 8 * np.finfo(float).eps * (1 + phases) * profile
        assert np.all(np.abs(family.members - expected) <= bound)


    def test_tail_cut_is_bisected_once_per_power(self):
        # a trend over many sizes, or a symbol beside its family, reuses the
        # cut of its power; a refused power is not kept
        gallery._exp_tail_cut.cache_clear()
        family = truncation_sequence(GallerySpec(kind=GalleryKind.AFFINE, power=2), [4, 8, 16])
        for size in (4, 8, 16):
            family(size)
        affine_symbol(16, power=2)
        with pytest.raises(InvalidSpecError):
            build_affine(4, power=103)
        info = gallery._exp_tail_cut.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 2, 1)
        # the kept cut is the one a fresh bisection gives
        assert gallery._exp_tail_cut(2) == gallery._exp_tail_cut.__wrapped__(2)


class TestDelta:
    def test_column_sums_follow_pattern(self):
        family = build_delta(6)
        sums = np.sum(np.abs(family.members) ** 2, axis=0)
        expected = [1.0, 2.0, 1.0 / 3.0, 4.0, 1.0 / 5.0, 6.0]
        np.testing.assert_allclose(sums, expected, rtol=4e-16)

    def test_bound_growth(self):
        for size in (4, 8, 16):
            report = frame_bounds(build_delta(size))
            assert report.upper >= size / 2.0
            assert report.lower <= 2.0 / size

    def test_trend_is_neither(self):
        spec = GallerySpec(kind=GalleryKind.DELTA)
        builder = truncation_sequence(spec, [8, 16, 32])
        trend = semiframe_trend(builder, [8, 16, 32])
        assert classify_trend(trend) is Classification.NEITHER


class TestBasisVariants:
    def test_doubled_onb_redundancy_matches_size(self):
        spec = GallerySpec(kind=GalleryKind.DOUBLED_ONB)
        builder = truncation_sequence(spec, [2, 4, 8])
        for size in (2, 4, 8):
            family = builder(size)
            assert frame_bounds(family).redundancy == size

    def test_doubled_rows_adjacent(self):
        family = build_doubled_onb(3)
        np.testing.assert_allclose(family.members[0], family.members[1])
        assert family.size == 6

    def test_augmented_onb(self):
        family = build_augmented_onb(4)
        assert family.size == 5
        assert frame_bounds(family).redundancy == 1

    def test_mercedes(self):
        family = build_mercedes()
        np.testing.assert_allclose(frame_operator(family), 1.5 * np.eye(2), atol=1e-14)
        norms = np.linalg.norm(family.members, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-14)


class TestRandom:
    def test_seeded_determinism(self):
        a = build_random(7, 3, seed=11)
        b = build_random(7, 3, seed=11)
        assert np.array_equal(a.members, b.members)

    def test_different_seeds_differ(self):
        a = build_random(7, 3, seed=11)
        b = build_random(7, 3, seed=12)
        assert not np.array_equal(a.members, b.members)

    def test_seed_required(self):
        with pytest.raises(InvalidSpecError):
            build_random(7, 3, seed=None)

    def test_negative_seed_refused(self):
        with pytest.raises(InvalidSpecError, match="random family seed -1 refused"):
            build_random(7, 3, seed=-1)
        builder = truncation_sequence(GallerySpec(kind=GalleryKind.RANDOM, dim=3, seed=-5), [2])
        with pytest.raises(InvalidSpecError, match=r"random family seed \[-5, 2\] refused"):
            builder(2)

    @pytest.mark.parametrize("rows, dim, seed", [(7, 3, 5), (300, 17, 9)])
    def test_members_are_the_complex_gaussian_draws(self, rows, dim, seed):
        # the draws written into the table's parts keep the bits of the complex formula
        rng = np.random.default_rng(seed)
        expected = (
            rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
        ) / math.sqrt(2.0)
        members = build_random(rows, dim, seed).members
        assert np.array_equal(members.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("seed", [0, 5, [9, 128]])
    @pytest.mark.parametrize(
        "rows, dim", [(1, 1), (3, 5), (1000, 3), (128, 64), (2048, 128), (70000, 1)]
    )
    def test_members_are_two_whole_draws(self, rows, dim, seed):
        # the members drawn a buffer at a time keep the bits of two whole
        # draws divided in place, also where the rows do not fill the last buffer
        rng = np.random.default_rng(seed)
        expected = np.empty((rows, dim), dtype=np.complex128)
        expected.real = rng.standard_normal((rows, dim))
        expected.imag = rng.standard_normal((rows, dim))
        expected /= math.sqrt(2.0)
        members = build_random(rows, dim, seed).members
        assert np.array_equal(members.view(np.uint64), expected.view(np.uint64))

    def test_draws_hold_no_second_table(self):
        build_random(8, 2, seed=1)  # the first Generator imports about 1 MiB
        family, peak = traced_peak(lambda: build_random(2048, 128, seed=7))
        assert peak <= family.members.nbytes + 0.5 * 2**20

    def test_trend_builder_deterministic(self):
        spec = GallerySpec(kind=GalleryKind.RANDOM, dim=3, seed=5)
        builder = truncation_sequence(spec, [4, 8])
        assert np.array_equal(builder(8).members, builder(8).members)


class TestTorusTrend:
    def test_lower_bound_tracks_truncation(self):
        spec = GallerySpec(kind=GalleryKind.TORUS)
        builder = truncation_sequence(spec, [4, 16])
        trend = semiframe_trend(builder, [4, 16])
        for size, lower, upper in trend:
            assert lower == pytest.approx(1.0 / size**2, abs=1e-12)
            assert upper <= PI_SQ_SIXTH + 1e-12
        assert classify_trend(trend) is Classification.BESSEL_ONLY


@pytest.mark.parametrize("order", [2, 4, 6, 34, 388, 4096])
def test_unit_roots_have_exact_symmetries(order):
    roots = gallery._unit_roots(order)
    m = np.arange(order)
    assert np.max(np.abs(roots - np.exp(2j * np.pi * m / order))) <= 2e-15
    assert roots[0] == 1 and roots[order // 2] == -1
    assert np.array_equal(roots[-m % order], np.conj(roots))
    if order % 4 == 0:
        assert roots[order // 4] == 1j
        assert np.array_equal(roots[(order // 2 - m) % order], -np.conj(roots))


@pytest.mark.parametrize(
    "make", [lambda: build_torus(128, 2048), lambda: build_affine(128, 512)], ids=["torus", "affine"]
)
def test_builder_peaks_within_a_block_of_its_table(make):
    # the roots are gathered into the table a row block at a time: no
    # full-size phase, index or gather-buffer temporary
    family, peak = traced_peak(make)
    assert peak <= family.members.nbytes + 0.75 * 2**20


@pytest.mark.parametrize(
    "factor, order",
    [(MAX_SIZE // 2 - 1, 2 * MAX_SIZE), (-(2 * MAX_SIZE - 1), 4 * MAX_SIZE)],
    ids=["torus", "affine"],
)
def test_phase_index_of_the_last_row_at_the_largest_size(factor, order):
    # the largest frequency at the last row: (2j + 1) * factor passes 2**40
    # (torus) and 2**42 (affine), which a 32-bit integer would wrap
    last = MAX_SIZE - 1
    [(lo, hi, index)] = gallery._phase_blocks([factor], order, last, MAX_SIZE, 1)
    assert (lo, hi, index.shape, index.dtype) == (last, MAX_SIZE, (1, 1), np.int64)
    assert int(index[0, 0]) % order == (2 * last + 1) * factor % order


def _random(rows, dim):
    return build_random(rows, dim, seed=1)


@pytest.mark.parametrize(
    "builder, counts, refused",
    [
        (build_torus, (MAX_SIZE + 1, 16), "dim"),
        (build_torus, (2, MAX_SIZE + 1), "grid"),
        (build_affine, (MAX_SIZE + 1,), "cells"),
        (build_affine, (2, MAX_SIZE + 1), "grid"),
        (build_delta, (10**9,), "count"),
        (build_doubled_onb, (MAX_SIZE + 1,), "dim"),
        (build_augmented_onb, (MAX_SIZE + 1,), "dim"),
        (_random, (2**63, 2), "rows"),
        (_random, (2, MAX_SIZE + 1), "dim"),
    ],
    ids=["torus-dim", "torus-grid", "affine-cells", "affine-grid", "delta-count",
         "doubled-dim", "augmented-dim", "random-rows", "random-dim"],
)
def test_count_past_the_largest_refused(builder, counts, refused):
    # refused before any array is built: random rows of 2**63 raised numpy's
    # ValueError and a delta family of 10**9 nodes filled memory
    count = max(counts[:2])
    with pytest.raises(InvalidSpecError, match=f"^{refused} {count} exceeds the largest size"):
        builder(*counts)


class TestSpec:
    def test_build_dispatch(self):
        family = build(GallerySpec(kind=GalleryKind.TORUS, dim=4, grid=16))
        assert family.size == 16 and family.dim == 4

    def test_missing_parameters(self):
        with pytest.raises(InvalidSpecError):
            build(GallerySpec(kind=GalleryKind.TORUS, dim=4))
        with pytest.raises(InvalidSpecError):
            build(GallerySpec(kind=GalleryKind.RANDOM, rows=5))

    def test_trend_sizes_validated(self):
        spec = GallerySpec(kind=GalleryKind.DELTA)
        with pytest.raises(InvalidSpecError):
            truncation_sequence(spec, [8, 4])
        for repeated in ([4, 4], [2, 4, 4]):
            with pytest.raises(InvalidSpecError, match="^trend sizes must be ascending$"):
                truncation_sequence(spec, repeated)
        with pytest.raises(InvalidSpecError):
            truncation_sequence(GallerySpec(kind=GalleryKind.MERCEDES), [2, 3])

    def test_random_trend_needs_seed_and_dim(self):
        for spec in (GallerySpec(kind=GalleryKind.RANDOM, dim=3),
                     GallerySpec(kind=GalleryKind.RANDOM, seed=5)):
            with pytest.raises(InvalidSpecError):
                truncation_sequence(spec, [2, 4])(2)


# the fields each kind's build reads, with values it accepts
FIELD_VALUES = {"dim": 3, "grid": 8, "rows": 5, "seed": 1, "power": 2}
BUILD_READS = {
    GalleryKind.TORUS: ("dim", "grid"),
    GalleryKind.AFFINE: ("dim", "grid", "power"),
    GalleryKind.DELTA: ("dim",),
    GalleryKind.DOUBLED_ONB: ("dim",),
    GalleryKind.AUGMENTED_ONB: ("dim",),
    GalleryKind.MERCEDES: (),
    GalleryKind.RANDOM: ("rows", "dim", "seed"),
}
# the fields a truncation reads from its spec; its size sets the rest
TRUNCATION_READS = {
    GalleryKind.TORUS: (),
    GalleryKind.AFFINE: ("power",),
    GalleryKind.DELTA: (),
    GalleryKind.DOUBLED_ONB: (),
    GalleryKind.AUGMENTED_ONB: (),
    GalleryKind.RANDOM: ("dim", "seed"),
}


def _spec(kind, names):
    return GallerySpec(kind=kind, **{name: FIELD_VALUES[name] for name in names})


class TestUnreadFields:
    @pytest.mark.parametrize(
        "kind, field",
        [(kind, f) for kind, reads in BUILD_READS.items() for f in FIELD_VALUES if f not in reads],
    )
    def test_build_refuses(self, kind, field):
        with pytest.raises(InvalidSpecError, match=f"^{kind.value} gallery does not read {field}$"):
            build(_spec(kind, (*BUILD_READS[kind], field)))

    @pytest.mark.parametrize("kind", list(BUILD_READS))
    def test_build_reads(self, kind):
        build(_spec(kind, BUILD_READS[kind]))

    @pytest.mark.parametrize(
        "kind, field",
        [
            (kind, f)
            for kind, reads in TRUNCATION_READS.items()
            for f in FIELD_VALUES
            if f not in reads
        ],
    )
    def test_truncation_refuses(self, kind, field):
        message = f"^{kind.value} truncation does not read {field}$"
        with pytest.raises(InvalidSpecError, match=message):
            truncation_sequence(_spec(kind, (*TRUNCATION_READS[kind], field)), [2, 4])

    def test_unread_fields_named_together(self):
        spec = GallerySpec(kind=GalleryKind.MERCEDES, dim=9, power=4)
        with pytest.raises(InvalidSpecError, match="^mercedes gallery does not read dim, power$"):
            build(spec)

    def test_truncations_match_direct_builds(self):
        cases = [
            (GallerySpec(kind=GalleryKind.TORUS), lambda n: build_torus(n, 4 * n)),
            (GallerySpec(kind=GalleryKind.AFFINE, power=2), lambda n: build_affine(n, power=2)),
            (GallerySpec(kind=GalleryKind.DELTA), build_delta),
            (GallerySpec(kind=GalleryKind.DOUBLED_ONB), build_doubled_onb),
            (GallerySpec(kind=GalleryKind.AUGMENTED_ONB), build_augmented_onb),
            (GallerySpec(kind=GalleryKind.RANDOM, dim=3, seed=5),
             lambda n: build_random(n, 3, [5, n])),
        ]
        for spec, direct in cases:
            builder = truncation_sequence(spec, [2, 5])
            for size in (2, 5):
                family, expected = builder(size), direct(size)
                assert np.array_equal(family.members, expected.members)
                assert family.space == expected.space


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_torus(5, 24),
        lambda: build_affine(4, 6),
        lambda: build_delta(4),
        lambda: build_doubled_onb(3),
        lambda: build_augmented_onb(3),
        build_mercedes,
        lambda: build_random(6, 2, seed=3),
    ],
    ids=["torus", "affine", "delta", "doubled-onb", "augmented-onb", "mercedes", "random"],
)
def test_builders_hand_over_their_tables(make):
    # each builder freezes the table it built, so its family keeps that one
    # array: C-contiguous, owning its data, and adopted again as is
    members = make().members
    assert members.flags.owndata and members.flags.c_contiguous
    assert not members.flags.writeable
    assert numerics.adopt(members) is members
