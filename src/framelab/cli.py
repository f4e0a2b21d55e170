"""Command-line front end: load families, run analyses, emit JSON/CSV reports.

Exit codes: 0 success, 1 validation error, 2 numerical refusal (for example a
requested inversion on a family whose lower bound sits below tolerance, or a
computation that runs out of memory), 3 I/O error.  Reports are fully
serialized in memory, then written to a temporary file beside the target and
renamed over it, so a failing command never leaves a partial output file behind.

JSON reports are byte for byte ``json.dumps(report, indent=2, sort_keys=True)``
plus a newline, but rendered here: CPython 3.11's ``json`` takes its C encoder
only without ``indent``.  Lists of finite ``[float, float]`` pairs, the bulk of every
report, cost one ``float.__repr__`` per float and one join; the rest follows
the stdlib rules value by value.  The kernel CSV is byte for byte what
``csv.writer`` gives row by row: the writer renders the header and each node
point once, and the table is formed and rendered a block of rows at a time.
The argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import secrets
import sys
import types
from pathlib import Path

import numpy as np

from . import frames, gallery, numerics, pairs, rkhs
from .errors import NumericalRefusal, ValidationError
from .frames import VectorFamily

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_REFUSED = 2
EXIT_IO = 3

# kernel entries per row block of the CSV export: each block's transient lists
# stay a fraction of the output text
CSV_BLOCK_ENTRIES = 1 << 10
# rows of an [re, im] table per block of a JSON report, likewise
PAIR_BLOCK = 1 << 10


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise ValidationError(message)


def _parse_sizes(raw: str) -> list[int]:
    try:
        sizes = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad size list {raw!r}") from exc
    if not sizes:
        raise ValidationError("size list is empty")
    return sizes


# gallery flags besides --gallery itself, named as the GallerySpec fields; each
# defaults to None, as the fields do, and a kind refuses a set one it does not read
_SPEC_FLAGS = ("dim", "grid", "rows", "seed", "power")


def _add_gallery_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gallery", type=str, help="gallery kind")
    parser.add_argument("--dim", type=int, help="gallery truncation size")
    parser.add_argument("--grid", type=int, help="gallery node count")
    parser.add_argument("--rows", type=int, help="gallery member count (random kind)")
    parser.add_argument("--seed", type=int, help="gallery seed (required for random)")
    parser.add_argument("--power", type=int, help="radial weight exponent (default 1)")


def _gallery_spec(args: argparse.Namespace) -> gallery.GallerySpec:
    try:
        kind = gallery.GalleryKind(args.gallery)
    except ValueError as exc:
        raise ValidationError(f"unknown gallery kind {args.gallery!r}") from exc
    return gallery.GallerySpec(kind=kind, **{name: getattr(args, name) for name in _SPEC_FLAGS})


def _load_family(args: argparse.Namespace) -> VectorFamily:
    sources = [args.in_path is not None, args.gallery is not None]
    if sum(sources) != 1:
        raise ValidationError("exactly one of --in or --gallery is required")
    if args.in_path is not None:
        return _family_from_file(args.in_path)
    return gallery.build(_gallery_spec(args))


def _family_from_file(path: Path) -> VectorFamily:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        # ValueError: malformed text, bytes that are not UTF-8, an int past the digit limit
        except (RecursionError, ValueError) as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return VectorFamily.from_json(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _json_bytes(payload) -> bytearray:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` as UTF-8 bytes.

    An ndarray renders as ``json.dumps`` renders its ``.tolist()`` when it is
    a 2-D float64 table of two columns, the ``[re, im]`` view that
    :func:`framelab.numerics.complex_pairs` gives; any other ndarray raises
    ``TypeError``, as the stdlib does for every ndarray.  Such a table goes
    into the one output buffer ``PAIR_BLOCK`` rows at a time, and the rest of
    the report goes in as text between the tables.
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


def _render_pairs(table: np.ndarray, newline: str, out: list[str], buffer: bytearray) -> None:
    """Render an ``(m, 2)`` float64 ``table`` as the stdlib renders ``table.tolist()``.

    The text in ``out`` moves to ``buffer`` first.  Each block of
    ``PAIR_BLOCK`` rows then becomes one list: its floats as
    ``float.__repr__`` (or :func:`_float_text` in a block with a non-finite
    value) fill every other slot and the separators go in by slice
    assignment; the block is joined and encoded onto ``buffer``.
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
    for start in range(0, count, PAIR_BLOCK):
        block = table[start : start + PAIR_BLOCK]
        rows = len(block)
        text = float.__repr__ if np.isfinite(block).all() else _float_text
        parts = [between] * (4 * rows)
        parts[0::2] = map(text, block.ravel().tolist())
        parts[1::4] = ["," + innermost] * rows
        if start + rows == count:
            parts[-1] = inner + "]" + newline + "]"
        buffer += "".join(parts).encode("utf-8")


def _csv_bytes(rows, header) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue().encode("utf-8")


def _table_bytes(args: argparse.Namespace, key: str, header, rows, **summary) -> bytes:
    """CSV rows under ``header``, or JSON with one object per row under ``key``.

    Each object is keyed by ``header``; the ``summary`` fields sit beside ``key``.
    """
    if args.format == "csv":
        return _csv_bytes(rows, header)
    return _json_bytes({key: [dict(zip(header, row)) for row in rows], **summary})


def _kernel_csv_bytes(table: rkhs.KernelTable) -> bytearray:
    """``x,y,re,im`` rows of ``table``: the bytes ``csv.writer`` gives row by row.

    The writer renders the header and each node point once; a ``(point, "")``
    row comes out as ``<cell>,\\n``, so every cell is quoted as the writer
    quotes it.  Entries are formed from the factors in blocks of about
    ``CSV_BLOCK_ENTRIES`` and written as ``float.__repr__``, as the writer
    writes floats.  A block holds at least two rows, or the whole table: BLAS
    may hand a one-row product to its matrix-vector kernel (OpenBLAS does),
    which can round differently from the full product.
    """
    lines: list[str] = []
    writer = csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(("x", "y", "re", "im"))
    writer.writerows(zip(table.space.points, itertools.repeat("")))
    header, cells = lines[0], [line[:-1] for line in lines[1:]]
    text = bytearray(header[:-1].encode("utf-8"))
    n = table.size
    count = max(1, n // max(2, CSV_BLOCK_ENTRIES // max(n, 1)))
    edges = [n * i // count for i in range(count + 1)]
    right_h = table.right.conj().T
    for start, stop in zip(edges, edges[1:]):
        block = table.left[start:stop] @ right_h
        # each entry opens with the line break and "x,y," of its own row
        heads: list[str] = []
        for cell in cells[start:stop]:
            heads += map(("\n" + cell).__add__, cells)
        parts = [","] * (4 * len(heads))
        parts[0::4] = heads
        parts[1::2] = map(float.__repr__, block.view(np.float64).ravel().tolist())
        text += "".join(parts).encode("utf-8")
    text += b"\n"
    return text


def _write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data``, atomically where the target is a file.

    For a missing or regular target the bytes go to a fresh file in the
    directory of the file itself (a symlink is followed and kept), which is
    then renamed over it, so a failed write leaves any earlier report untouched
    and no temporary file behind. Any other target, such as ``/dev/stdout``,
    ``/dev/null`` or a FIFO, is written in place.
    """
    if path.exists() and not path.is_file():
        with open(path, "wb") as handle:
            handle.write(data)
        return
    target = Path(os.path.realpath(path))
    temporary = target.with_name(f".{target.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(temporary, "xb") as handle:
            handle.write(data)
        os.replace(temporary, target)
    except OSError as exc:
        # name the target, not the temporary file, as a direct write would
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        temporary.unlink(missing_ok=True)


def _cmd_inspect(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    atoms = int(np.count_nonzero(family.space.is_atom))
    return _table_bytes(
        args,
        "profile",
        ("point", "weight", "squared_norm"),
        family.profile_rows(),
        nodes=family.size,
        dim=family.dim,
        total_measure=family.space.total_weight,
        atom_nodes=atoms,
        cell_nodes=family.size - atoms,
    )


def _cmd_bounds(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    report = frames.frame_bounds(family)
    return _json_bytes(report.to_json())


def _cmd_dual(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    dual = frames.canonical_dual(family)
    return _json_bytes(dual.to_json())


def _cmd_kernel(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    table = frames.kernel_matrix(family)
    if args.format == "csv":
        return _kernel_csv_bytes(table)
    return _json_bytes(table.to_json())


def _cmd_redundancy(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    excess = frames.redundancy(family)
    payload = {"rows": family.size, "dim": family.dim, "redundancy": excess, "index": -excess}
    return _json_bytes(payload)


def _cmd_split(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    discrete, continuous = frames.split(family, row_tolerance=args.row_tol)
    payload = {
        "discrete": [numerics.complex_pairs(vector) for vector in discrete],
        "continuous": continuous.to_json(),
    }
    return _json_bytes(payload)


def _cmd_pair_check(args: argparse.Namespace) -> bytes:
    psi = _family_from_file(args.psi)
    phi = _family_from_file(args.phi)
    return _json_bytes(pairs.pair_verdict(psi, phi))


def _cmd_partner(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    partner = pairs.reproducing_partner(family)
    residual = pairs.mixed_operator(partner, family) - np.eye(family.dim)
    payload = {
        "partner": partner.to_json(),
        "pointwise_sums": [float(v) for v in pairs.partner_pointwise_sums(partner)],
        "identity_residual": float(np.max(np.abs(residual))),
    }
    return _json_bytes(payload)


def _cmd_experiment(args: argparse.Namespace) -> bytes:
    sizes = _parse_sizes(args.sizes)
    if args.experiment == "blowup":
        flags = ("gallery", *_SPEC_FLAGS)
        given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
        if given:
            raise ValidationError(f"experiment blowup reads no gallery flags: {' '.join(given)}")
        points = rkhs.blowup_experiment(sizes)
        return _table_bytes(args, "points", ("cells", "max_diagonal"), points)
    if args.gallery is None:
        raise ValidationError(f"experiment {args.experiment} needs --gallery")
    spec = _gallery_spec(args)
    builder = gallery.truncation_sequence(spec, sizes)
    if args.experiment == "trend":
        trend = frames.semiframe_trend(builder, sizes)
        verdict = frames.classify_trend(trend)
        return _table_bytes(
            args, "trend", ("size", "lower", "upper"), trend, classification=verdict.value
        )
    rows = []
    for size in sizes:
        family = builder(size)
        rows.append((size, family.size, family.dim, frames.redundancy(family)))
    return _table_bytes(args, "redundancy", ("size", "rows", "dim", "redundancy"), rows)


@functools.cache
def build_parser() -> _Parser:
    """The ``framelab`` parser, built once per process; parsing leaves it unchanged."""
    # the exit codes and the atomic write; the renderer notes stay in the module docstring
    parser = _Parser(prog="framelab", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "inspect": (_cmd_inspect, "summarize a family and its space"),
        "bounds": (_cmd_bounds, "frame bounds, redundancy and classification"),
        "dual": (_cmd_dual, "canonical dual family"),
        "kernel": (_cmd_kernel, "kernel table of the analysis range"),
        "redundancy": (_cmd_redundancy, "node excess over the weighted analysis rank"),
        "split": (_cmd_split, "discrete versus strictly continuous parts"),
        "pair-check": (_cmd_pair_check, "reproducing-pair verdict for two families"),
        "partner": (_cmd_partner, "reproducing partner of a family"),
        "experiment": (_cmd_experiment, "trend and refinement experiments"),
    }
    for name, (handler, helptext) in commands.items():
        cmd = sub.add_parser(name, help=helptext)
        cmd.set_defaults(handler=handler)
        if handler is _cmd_pair_check:
            cmd.add_argument("--psi", type=Path, required=True)
            cmd.add_argument("--phi", type=Path, required=True)
        elif handler is _cmd_experiment:
            cmd.add_argument("experiment", choices=("blowup", "trend", "redundancy"))
            cmd.add_argument("--sizes", type=str, required=True, help="comma-separated sizes")
            _add_gallery_flags(cmd)
        else:
            cmd.add_argument("--in", dest="in_path", type=Path, help="family JSON file")
            _add_gallery_flags(cmd)
        if handler is _cmd_split:
            cmd.add_argument("--row-tol", type=float, default=frames.ROW_MATCH_TOL)
        cmd.add_argument("--out", type=Path, required=True, help="output file path")
        # --format only where the handler can write CSV
        if handler in (_cmd_inspect, _cmd_kernel, _cmd_experiment):
            cmd.add_argument(
                "--format", choices=("json", "csv"), default="json", help="output format"
            )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.handler(args)
        _write(args.out, payload)
    except ValidationError as exc:
        print(f"framelab: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalRefusal as exc:
        print(f"framelab: refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except MemoryError as exc:
        print(f"framelab: refused: out of memory: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OSError as exc:
        print(f"framelab: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
