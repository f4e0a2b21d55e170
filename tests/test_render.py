"""The codec's report renderers against the stdlib writers they replace.

``codec.json_bytes`` must give ``json.dumps(payload, indent=2, sort_keys=True)``
plus a newline, and the kernel CSV what ``csv.writer`` gives row by row.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import codec, frames, gallery, numerics
from framelab.frames import VectorFamily
from framelab.measure import DiscretizedSpace, Node, Provenance
from framelab.rkhs import KernelTable

from conftest import complex_rng_matrix, random_family, traced_peak

REPORTS = Path(__file__).parent / "golden" / "reports"


def oracle_json(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def oracle_csv(table: KernelTable) -> bytes:
    points = [node.point for node in table.space.nodes]
    entries = table.left @ table.right.conj().T
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("x", "y", "re", "im"))
    for j, x in enumerate(points):
        for k, y in enumerate(points):
            writer.writerow((x, y, float(entries[j, k].real), float(entries[j, k].imag)))
    return buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("path", sorted(REPORTS.glob("*.json")), ids=lambda p: p.stem)
def test_golden_reports_rerender_byte_for_byte(path):
    frozen = path.read_bytes()
    assert codec.json_bytes(json.loads(frozen)) == frozen


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308]),
)
NUMBERS = st.one_of(FLOATS, st.integers(), FLOATS.map(np.float64))
# strings that need escapes: quotes, backslashes, control and non-ASCII characters
TEXT = st.one_of(
    st.text(max_size=8), st.sampled_from(['"', "\\", "\n\t\x00", "é", " ", "\ud800", "😀"])
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
PAIR_LISTS = st.one_of(
    st.lists(st.lists(FINITE, min_size=2, max_size=2), max_size=6),
    st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1, max_size=6),
    st.lists(st.lists(NUMBERS, min_size=1, max_size=3), min_size=1, max_size=4),
    st.lists(st.tuples(FLOATS, FLOATS), min_size=1, max_size=4),
)
LEAVES = st.one_of(st.none(), st.booleans(), NUMBERS, TEXT, PAIR_LISTS)
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(FINITE, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(PAYLOADS)
def test_json_matches_the_stdlib(payload):
    assert codec.json_bytes(payload) == oracle_json(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"pairs": [[1.0, -0.0], [1e300, -1e300], [1e-320, 2.5]]},
        {"entries": [[1.7976931348623157e308, 1.7976931348623157e308]] * 2},
        {"z": {}, "a": (), "m": [], "e": [[]]},
        {True: 1, False: [[0.5, 1.0]]},
        {None: 0.5},
        {1.5: [[1, 2.0]], 2.5: [[np.float64(0.1), 0.2]], 3.5: [[math.nan, 0.0]]},
        [[0.5, 0.25]],
        [[[0.5, 0.25]]],
        "top-level string",
        -0.0,
    ],
)
def test_json_edge_cases_match_the_stdlib(payload):
    assert codec.json_bytes(payload) == oracle_json(payload)


def test_json_refuses_what_the_stdlib_refuses():
    for payload in ({(1, 2): 0}, {"a": np.int64(3)}, {"a": 1, 2: "b"}, [np.zeros(2)]):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            codec.json_bytes(payload)


def plain(payload):
    """``payload`` with every ndarray replaced by its ``.tolist()``."""
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, dict):
        return {key: plain(item) for key, item in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [plain(item) for item in payload]
    return payload


TABLE_ROWS = [0, 1, codec.RENDER_BLOCK - 1, codec.RENDER_BLOCK, codec.RENDER_BLOCK + 1]
SPECIAL_FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.nan, math.inf, -math.inf]),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300),
    st.floats(),
)
LAYOUTS = {
    # each builds a rows x cols complex source from a generator
    "c-order": lambda rng, r, c: complex_rng_matrix(rng, r, c),
    "fortran-order": lambda rng, r, c: np.asfortranarray(complex_rng_matrix(rng, r, c)),
    "sliced": lambda rng, r, c: complex_rng_matrix(rng, 2 * r, c + 1)[::2, 1:],
    "transposed": lambda rng, r, c: complex_rng_matrix(rng, c, r).T,
}


# entries a table repeats: 0.0 beside -0.0, and NaN and the infinities
REPEATED_ENTRIES = st.sampled_from(
    [complex(0.0, -0.0), complex(-0.0, 0.0), complex(math.nan, math.inf), complex(-math.inf, 0.0)]
)


@st.composite
def pair_tables(draw):
    """The ``complex_pairs`` view of a complex source with special and repeated values planted.

    Row ``j`` of the view is entry ``j`` of the source in C order, so a planted
    copy lands in the block of its first entry, the next one or a later one.
    """
    count = draw(st.sampled_from(TABLE_ROWS))
    cols = draw(st.sampled_from([c for c in (1, 2, 3, 5, 11, 31) if count % c == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(sorted(LAYOUTS)))
    a = LAYOUTS[source](rng, count // cols, cols)
    # spread the magnitudes over most of the float range
    a *= np.exp2(rng.integers(-1000, 1000, size=a.shape))
    positions = st.integers(0, count - 1).map(lambda j: np.unravel_index(j, a.shape))
    for _ in range(draw(st.integers(0, 4)) if count else 0):
        a[draw(positions)] = complex(draw(SPECIAL_FLOATS), draw(SPECIAL_FLOATS))
    for _ in range(draw(st.integers(0, 8)) if count else 0):
        entry = draw(st.one_of(REPEATED_ENTRIES, positions.map(lambda j: a[j])))
        for _ in range(draw(st.integers(1, 3))):
            a[draw(positions)] = entry
    return numerics.complex_pairs(a)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pair_tables(), pair_tables())
def test_pair_tables_match_the_stdlib(table, other):
    payload = {"entries": table, "nested": [{"x": other}, table[:1], 0.5], "rows": len(table)}
    assert codec.json_bytes(payload) == oracle_json(plain(payload))


@pytest.mark.parametrize(
    "array",
    [np.zeros(4), np.zeros((2, 3)), np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=int)],
    ids=["one-dimensional", "three-columns", "complex", "integer"],
)
def test_json_refuses_arrays_other_than_pair_tables(array):
    with pytest.raises(TypeError):
        json.dumps({"a": array}, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        codec.json_bytes({"a": array})


def zeros_across_blocks():
    """A block of ``[-0.0, 1.5]`` rows, then two rows of ``[0.0, 1.5]``."""
    table = np.tile([-0.0, 1.5], (codec.RENDER_BLOCK + 2, 1))
    table[codec.RENDER_BLOCK :, 0] = 0.0
    return table


@pytest.mark.parametrize(
    "table",
    [
        np.tile([[0.0, -0.0], [-0.0, 0.0]], (3, 1)),
        zeros_across_blocks(),
        np.tile([[math.nan, math.inf], [-math.inf, math.nan], [0.5, -0.0]], (codec.RENDER_BLOCK, 1)),
        np.array([[math.nan, -math.nan], [math.nan, 0.0]]),
    ],
    ids=["signed-zeros", "signed-zeros-across-blocks", "non-finite-repeats", "nan-payloads"],
)
def test_repeated_patterns_keep_their_own_texts(table):
    assert codec.json_bytes({"t": table}) == oracle_json({"t": table.tolist()})


def test_each_pattern_formatted_once_per_block(monkeypatch):
    # blocks of 4 distinct patterns; the last block adds 0.0 to those of the one before it
    table = np.tile([[math.nan, 1.0], [0.5, -0.0]], (codec.RENDER_BLOCK + 2, 1))[:-1]
    table[-1] = [0.0, math.nan]
    calls = []
    real = codec._float_text
    monkeypatch.setattr(codec, "_float_text", lambda value: calls.append(value) or real(value))
    assert codec.json_bytes({"t": table}) == oracle_json({"t": table.tolist()})
    assert len(calls) == 5


def repeat_heavy_family(rng, rows, cols):
    """A family whose entries are drawn from 64 values, so every block repeats them."""
    family = random_family(rng, rows, cols)
    values = complex_rng_matrix(rng, 1, 64).ravel()
    return VectorFamily(space=family.space, members=rng.choice(values, size=(rows, cols)))


def test_pair_table_render_peak_stays_near_the_output(rng):
    # 2048 x 128 family reports, about 18 MiB of text each: one of random entries, and
    # one whose blocks all repeat the same few, so the texts kept between blocks count
    for make in (random_family, repeat_heavy_family):
        payload = make(rng, 2048, 128).to_json()
        text, peak = traced_peak(lambda: codec.json_bytes(payload))
        assert peak < 1.5 * len(text)


def table_over(points, rng, rank=2, provenance=Provenance.CELL) -> KernelTable:
    nodes = tuple(Node(point=p, weight=1.0, provenance=provenance) for p in points)
    space = DiscretizedSpace(nodes=nodes)
    n = len(points)
    return KernelTable(
        space=space, left=complex_rng_matrix(rng, n, rank), right=complex_rng_matrix(rng, n, rank)
    )


@pytest.mark.parametrize(
    "points, provenance",
    [
        (["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "plain", "é"], Provenance.ATOM),
        ([0, 1, -7, 10**30], Provenance.CELL),
        ([0.1, -0.0, 1e-300, 2.5e10], Provenance.CELL),
        (["atom"], Provenance.ATOM),
        ([3.0], Provenance.CELL),
    ],
)
def test_kernel_csv_matches_csv_writer(points, provenance, rng):
    table = table_over(points, rng, provenance=provenance)
    assert codec.kernel_csv_bytes(table) == oracle_csv(table)


def test_kernel_csv_of_a_shift_invariant_kernel():
    # K(x, y) = k(x - y): 5,020 distinct patterns among the 32,768 floats
    table = frames.kernel_matrix(gallery.build_torus(16, 128))
    assert codec.kernel_csv_bytes(table) == oracle_csv(table)


@pytest.mark.parametrize("block_entries", [1, 14, 21, 1 << 10])
def test_kernel_csv_row_blocks(block_entries, rng, monkeypatch):
    # the two-row floor, blocks of two and three rows, of three and four, and one block,
    # over seven nodes, for random factors and for a shift-invariant kernel
    monkeypatch.setattr(codec, "RENDER_BLOCK", block_entries)
    tables = [
        table_over([0.5 * j for j in range(7)], rng, rank=3),
        frames.kernel_matrix(gallery.build_torus(3, 7)),
    ]
    for table in tables:
        assert codec.kernel_csv_bytes(table) == oracle_csv(table)
