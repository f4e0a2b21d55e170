"""The CLI's report renderers against the stdlib writers they replace.

``cli._json_bytes`` must give ``json.dumps(payload, indent=2, sort_keys=True)``
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

from framelab import cli
from framelab.measure import DiscretizedSpace, Node, Provenance
from framelab.rkhs import KernelTable

from conftest import complex_rng_matrix

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
    assert cli._json_bytes(json.loads(frozen)) == frozen


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
    assert cli._json_bytes(payload) == oracle_json(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"pairs": [[1.0, -0.0], [1e300, -1e300], [1e-320, 2.5]]},
        {"entries": [[1.7976931348623157e308, 1.7976931348623157e308]] * 2},  # sum overflows
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
    assert cli._json_bytes(payload) == oracle_json(payload)


def test_json_refuses_what_the_stdlib_refuses():
    for payload in ({(1, 2): 0}, {"a": np.int64(3)}, {"a": 1, 2: "b"}, [np.zeros(2)]):
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._json_bytes(payload)


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
    assert cli._kernel_csv_bytes(table) == oracle_csv(table)


@pytest.mark.parametrize("block_entries", [1, 14, 21, 1 << 10])
def test_kernel_csv_row_blocks(block_entries, rng, monkeypatch):
    # the two-row floor, blocks of two and three rows, of three and four, and one block
    monkeypatch.setattr(cli, "CSV_BLOCK_ENTRIES", block_entries)
    table = table_over([0.5 * j for j in range(7)], rng, rank=3)
    assert cli._kernel_csv_bytes(table) == oracle_csv(table)
