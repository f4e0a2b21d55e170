"""File formats: family files in, JSON and CSV reports out.

JSON reports are byte for byte ``json.dumps(report, indent=2, sort_keys=True)``
plus a newline, but rendered here: CPython 3.11's ``json`` takes its C encoder
only without ``indent``.  The ``[re, im]`` tables, the bulk of every report,
are rendered a block of rows at a time: each distinct float of a block is
formatted once, or taken from the previous block's texts, and each block is
joined once; the rest follows the stdlib rules value by value.  The kernel
CSV is byte for byte what ``csv.writer`` gives row by row: the writer renders
the header and each node point once, and the table is formed and rendered a
block of rows at a time, its floats as in a report.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import math
import re
import types
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import numerics, rkhs
from .errors import ValidationError
from .frames import VectorFamily, _pair_floats
from .measure import DiscretizedSpace

# complex values per rendered block of a report ([re, im] rows of a JSON table,
# kernel entries of a CSV): each block's transient lists stay a fraction of the text
RENDER_BLOCK = 1 << 10


def read_family(path: Path) -> VectorFamily:
    """The family a file holds, decoded from its bytes a block at a time.

    A pipe or ``/dev/stdin`` is read into memory first, so every input takes
    one route and is read again, as text, only for a fault.
    """
    with open(path, "rb") as handle:
        try:
            return _decode_family(handle if handle.seekable() else io.BytesIO(handle.read()))
        # ValueError: malformed text, bytes that are not UTF-8, an int past the digit limit
        except (RecursionError, ValueError) as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc


def _decode_family(handle) -> VectorFamily:
    """``VectorFamily.from_json(json.loads(text))`` of the text of a seekable binary file.

    The file's blocks are decoded as they come (:func:`_family_fields`), with
    no Python float per member value and no text of the whole: the decoder
    holds the unread text of a block or two, and the ``members`` array in the
    one table the family adopts, grown in place as its pieces come.
    Any other text (not an object, no or two ``members`` arrays, a member
    that is not a pair of numbers in the float range, malformed JSON or
    UTF-8) is read again whole (:func:`_text`) and takes
    ``from_json(json.loads(text))`` itself, so every fault keeps its
    exception and message.
    """
    try:
        fields, table = _family_fields(_Window(_text_blocks(handle)))
    except (RecursionError, ValueError):
        fields = None
    if fields is None:
        return VectorFamily.from_json(json.loads(_text(handle)))
    space = fields.pop("space", None)
    if type(space) is not DiscretizedSpace:
        space = DiscretizedSpace.from_json(space)
    return VectorFamily._from_table(space, fields.get("dim"), table)


def _text_blocks(handle) -> Iterator[str]:
    """The UTF-8 text of a binary file, ``numerics.BLOCK_ENTRIES`` bytes at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    while block := handle.read(numerics.BLOCK_ENTRIES):
        yield decoder.decode(block)
    yield decoder.decode(b"", final=True)


def _text(handle) -> str:
    """The text of a seekable binary file from its first byte, as a text-mode read gives it."""
    handle.seek(0)
    with io.TextIOWrapper(handle, encoding="utf-8") as text:
        return text.read()


# characters that may continue a number literal that a window's edge cut short
_NUMBER_TAIL = "+-.0123456789Ee"
_PAIR_CLOSE = re.compile(r"\][ \t\n\r]*\]")
_PAIR_CUT = re.compile(r"\][ \t\n\r]*,")


class _Window:
    """The unread text ``text[at:]`` of a stream of text blocks.

    A read drops the text before ``at`` and appends about as much text as is
    unread, at least ``numerics.BLOCK_ENTRIES`` characters: the window holds
    a block or two, and doubles only while one value spans its edge.
    """

    def __init__(self, blocks: Iterable[str]) -> None:
        self.blocks = iter(blocks)
        self.text, self.at, self.ended = "", 0, False

    def grow(self) -> bool:
        """Read more text; whether there was any."""
        if self.ended:
            return False
        parts, size = [self.text[self.at :]], 0
        wanted = max(len(parts[0]), numerics.BLOCK_ENTRIES)
        for block in self.blocks:
            parts.append(block)
            size += len(block)
            if size >= wanted:
                break
        else:
            self.ended = True
        self.text, self.at = "".join(parts), 0
        return size > 0

    def peek(self) -> str:
        """The next character past whitespace, moving ``at`` to it; "" at the end of the text."""
        while True:
            self.at = json.decoder.WHITESPACE.match(self.text, self.at).end()
            if self.at < len(self.text) or not self.grow():
                return self.text[self.at : self.at + 1]

    def take(self, decode: Callable):
        """The value ``decode(text, at)`` reads past whitespace, once the window holds all of it.

        A value cut short by the edge fails to decode, or ends at the edge or
        before a character that may continue a number; the window then grows.
        """
        self.peek()
        while True:
            try:
                value, end = decode(self.text, self.at)
            except ValueError:
                if self.grow():
                    continue
                raise
            if self.ended or self.text[end : end + 1] not in _NUMBER_TAIL:
                self.at = end
                return value
            self.grow()


def _family_fields(window: _Window) -> tuple[dict, np.ndarray]:
    """The top-level fields of a JSON object text, and its ``members`` array as a flat table.

    Keys and values go through the stdlib's scanner as in ``json.loads``,
    repeated keys included, except the ``members`` array, which
    :func:`_member_values` reads.  Raises ``ValueError`` (or
    ``RecursionError``, as ``json.loads`` does) for any text that is not one
    object with exactly one ``members`` array of number pairs.
    """
    value_at = json.JSONDecoder().raw_decode
    fields, table = {}, None
    if window.peek() != "{":
        raise ValueError("not an object")
    window.at += 1
    delimiter = ","
    while delimiter == ",":
        if window.peek() != '"':
            raise ValueError("no key")
        key = window.take(lambda text, at: json.decoder.scanstring(text, at + 1))
        if window.peek() != ":":
            raise ValueError("no colon")
        window.at += 1
        if key == "space":
            fields[key] = _early_space(window.take(value_at))
        elif key != "members":
            fields[key] = window.take(value_at)
        elif table is None and window.peek() == "[":
            table = _member_values(window)
        else:
            raise ValueError("members twice or not an array")
        delimiter = window.peek()
        if delimiter not in ("}", ","):
            raise ValueError("no delimiter")
        window.at += 1
    if table is None or window.peek():
        raise ValueError("no members, or text past the object")
    return fields, table


def _early_space(value):
    """The space a ``space`` value decodes to, or the value itself when it does not decode.

    A space is decoded as soon as it is read, so its JSON objects are gone
    before the member table grows.  A value that fails is decoded again once
    the whole text is read, where ``from_json(json.loads(text))`` meets it.
    """
    try:
        return DiscretizedSpace.from_json(value)
    except ValidationError:
        return value


def _member_values(window: _Window) -> np.ndarray:
    """The ``[re, im]`` pairs of the array at ``window.at`` as a flat complex table.

    ``json.loads`` decodes the array in pieces of about
    ``numerics.BLOCK_ENTRIES / 4`` characters, each cut just after a ``],``
    (the Python objects of a piece take about four times its text), and
    :func:`_pair_floats` writes each piece's values straight into the table,
    so no Python object of the whole array is formed.  The table is grown in
    place by an eighth as pieces fill it and cut to its count at the end, so
    it is the only array of the members.  The array stops at its first
    ``]``-whitespace-``]``, its end when it holds number pairs and nothing
    else.  Raises ``ValueError`` when a piece holds anything else.
    """
    window.at += 1
    table, count, step = None, 0, max(1, numerics.BLOCK_ENTRIES // 4)
    while True:
        while len(window.text) - window.at < 2 * step and window.grow():
            pass
        text, at = window.text, window.at
        cut = _PAIR_CUT.search(text, at + step)
        close = _PAIR_CLOSE.search(text, at, cut.end() if cut else len(text))
        stop = close or cut
        if stop is None:
            if window.grow():
                continue
            raise ValueError("members not closed")
        pairs = json.loads("[" + text[at : stop.start() + 1] + "]")
        if table is None:
            table = np.empty(len(pairs), dtype=np.complex128)
        elif count + len(pairs) > len(table):
            table.resize(max(count + len(pairs), len(table) + len(table) // 8), refcheck=False)
        if not _pair_floats(pairs, table[count : count + len(pairs)].view(np.float64)):
            raise ValueError("a member is not a pair of numbers")
        count += len(pairs)
        window.at = stop.end()
        if close:
            table.resize(count, refcheck=False)
            return table


def json_bytes(payload) -> bytearray:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` as UTF-8 bytes.

    An ndarray renders as ``json.dumps`` renders its ``.tolist()`` when it is
    a 2-D float64 table of two columns, the ``[re, im]`` view that
    :func:`framelab.numerics.complex_pairs` gives; any other ndarray raises
    ``TypeError``, as the stdlib does for every ndarray.  Such a table goes
    into the one output buffer ``RENDER_BLOCK`` rows at a time, and the rest
    of the report goes in as text between the tables.
    """
    buffer = bytearray()
    out: list[str] = []
    _render_json(payload, "\n", out, buffer, {})
    out.append("\n")
    buffer += "".join(out).encode("utf-8")
    return buffer


def _render_json(
    value, newline: str, out: list[str], buffer: bytearray, strings: dict[str, str]
) -> None:
    """Append the ``indent=2`` text of ``value``; ``newline`` carries its indent.

    Exact ``str``, finite ``float`` and ``int`` values render as the stdlib
    renders them (``strings`` keeps each string's text for the rest of the
    report) and ndarrays through :func:`_render_pairs`, which moves the text
    in ``out`` to ``buffer``; empty containers, ``None``, booleans,
    non-finite floats, number subclasses and unsupported types go to
    ``json.dumps`` one value at a time.
    """
    kind = type(value)
    if kind is str:
        out.append(_json_string(value, strings))
    elif kind is float and math.isfinite(value):
        out.append(float.__repr__(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif isinstance(value, np.ndarray):
        _render_pairs(value, newline, out, buffer)
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _render_json(item, inner, out, buffer, strings)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            out.append(separator)
            out.append(_json_string(key, strings))
            out.append(": ")
            _render_json(item, inner, out, buffer, strings)
            separator = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value))


def _json_string(value, strings: dict[str, str]) -> str:
    """A string, or an object key, as the stdlib writes it; ``strings`` keeps each text.

    A key that is not a string is written as the string of its own JSON text.
    """
    if not isinstance(value, str):
        if value is not None and not isinstance(value, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(value).__name__}"
            )
        value = json.dumps(value)
    text = strings.get(value)
    if text is None:
        text = strings[value] = json.dumps(value)
    return text


def _float_text(value: float) -> str:
    """A float as the stdlib writes it, ``NaN`` and ``Infinity`` included."""
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# the ``kept`` of a writer's first block: no patterns and no texts
_NOTHING_KEPT = (np.empty(0, np.int64), [])


def _block_texts(values: np.ndarray, text, kept: tuple) -> tuple[list[str], tuple]:
    """``list(map(text, values.tolist()))``, calling ``text`` once per distinct bit pattern.

    ``values`` is 1-D float64; patterns are compared as int64 bits, so ``0.0``
    and ``-0.0``, or two NaNs, are told apart as ``text`` tells them apart.  A
    pattern that ``kept``, the previous block's return, also held takes that
    block's text.  A block with no repeated pattern and none from the previous
    block is formatted in place.  Returns the texts and what the next block
    keeps: the block's distinct patterns and the text of each.
    """
    bits = values.view(np.int64)
    known, known_texts = kept
    # known holds each pattern once, so equal neighbours are a repeat or a known pattern
    merged = np.sort(np.concatenate((known, bits)))
    if not np.any(merged[1:] == merged[:-1]):
        texts = list(map(text, values.tolist()))
        return texts, (bits, texts)
    patterns, inverse = np.unique(bits, return_inverse=True)
    seen = np.zeros(len(patterns), dtype=bool)
    distinct = np.empty(len(patterns), dtype=object)
    if len(known):
        by_pattern = np.argsort(known)
        at = by_pattern.take(np.searchsorted(known, patterns, sorter=by_pattern), mode="clip")
        seen = known[at] == patterns
        distinct[seen] = np.asarray(known_texts, dtype=object)[at[seen]]
    distinct[~seen] = list(map(text, patterns[~seen].view(np.float64).tolist()))
    return distinct[inverse].tolist(), (patterns, distinct)


def _render_pairs(table: np.ndarray, newline: str, out: list[str], buffer: bytearray) -> None:
    """Render an ``(m, 2)`` float64 ``table`` as the stdlib renders ``table.tolist()``.

    The text in ``out`` moves to ``buffer`` first.  Each block of
    ``RENDER_BLOCK`` rows then becomes one list: the texts of its floats, from
    :func:`_block_texts` by ``float.__repr__`` (or :func:`_float_text` in a
    block with a non-finite value), fill every other slot and the separators
    go in by slice assignment; the block is joined and encoded onto ``buffer``.
    """
    if table.ndim != 2 or table.shape[1] != 2 or table.dtype != np.float64:
        raise TypeError(
            f"only (m, 2) float64 arrays are JSON serializable, not {table.dtype} {table.shape}"
        )
    count = len(table)
    if not count:
        out.append("[]")
        return
    inner = newline + "  "
    innermost = inner + "  "
    out.append("[" + inner + "[" + innermost)
    buffer += "".join(out).encode("utf-8")
    out.clear()
    between = inner + "]," + inner + "[" + innermost
    kept = _NOTHING_KEPT
    for start in range(0, count, RENDER_BLOCK):
        block = table[start : start + RENDER_BLOCK]
        rows = len(block)
        text = float.__repr__ if np.isfinite(block).all() else _float_text
        parts = [between] * (4 * rows)
        parts[0::2], kept = _block_texts(block.ravel(), text, kept)
        parts[1::4] = ["," + innermost] * rows
        if start + rows == count:
            parts[-1] = inner + "]" + newline + "]"
        buffer += "".join(parts).encode("utf-8")


def table_bytes(fmt: str, key: str, header, rows, **summary) -> bytes:
    """CSV rows under ``header``, or JSON with one object per row under ``key``.

    Each object is keyed by ``header``; the ``summary`` fields sit beside ``key``.
    """
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue().encode("utf-8")
    return json_bytes({key: [dict(zip(header, row)) for row in rows], **summary})


def kernel_csv_bytes(table: rkhs.KernelTable) -> bytearray:
    """``x,y,re,im`` rows of ``table``: the bytes ``csv.writer`` gives row by row.

    The writer renders the header and each node point once; a ``(point, "")``
    row comes out as ``<cell>,\\n``, so every cell is quoted as the writer
    quotes it.  Entries are formed from the factors in blocks of about
    ``RENDER_BLOCK`` (:meth:`~framelab.rkhs.KernelTable.row_blocks`) and
    written as ``float.__repr__``, as the writer writes floats, through
    :func:`_block_texts`.
    """
    lines: list[str] = []
    writer = csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(("x", "y", "re", "im"))
    writer.writerows(zip(table.space.points.tolist(), itertools.repeat("")))
    header, cells = lines[0], [line[:-1] for line in lines[1:]]
    text = bytearray(header[:-1].encode("utf-8"))
    kept = _NOTHING_KEPT
    for start, stop, block in table.row_blocks(RENDER_BLOCK):
        # each entry opens with the line break and "x,y," of its own row
        heads: list[str] = []
        for cell in cells[start:stop]:
            heads += map(("\n" + cell).__add__, cells)
        parts = [","] * (4 * len(heads))
        parts[0::4] = heads
        parts[1::2], kept = _block_texts(block.view(np.float64).ravel(), float.__repr__, kept)
        text += "".join(parts).encode("utf-8")
    text += b"\n"
    return text
