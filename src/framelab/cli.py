"""Command-line front end: load families, run analyses, emit JSON/CSV reports.

Exit codes: 0 success, 1 validation error, 2 numerical refusal (for example a
requested inversion on a family whose lower bound sits below tolerance, or a
computation that runs out of memory), 3 I/O error.  Reports are fully
serialized in memory, then written to a temporary file beside the target and
renamed over it, so a failing command never leaves a partial output file behind.

Files are read and written by :mod:`framelab.codec`; the parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from . import codec, frames, gallery, numerics, pairs, rkhs
from .errors import NumericalRefusal, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_REFUSED = 2
EXIT_IO = 3


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
    if max(sizes) > numerics.MAX_SIZE:
        raise ValidationError(f"size {max(sizes)} exceeds the largest size {numerics.MAX_SIZE}")
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
    for name in ("dim", "grid", "rows"):
        if (size := getattr(args, name) or 0) > numerics.MAX_SIZE:
            raise ValidationError(f"--{name} {size} exceeds the largest size {numerics.MAX_SIZE}")
    return gallery.GallerySpec(kind=kind, **{name: getattr(args, name) for name in _SPEC_FLAGS})


def _load_family(args: argparse.Namespace) -> frames.VectorFamily:
    """The family of ``--in`` or of ``--gallery``."""
    sources = [args.in_path is not None, args.gallery is not None]
    if sum(sources) != 1:
        raise ValidationError("exactly one of --in or --gallery is required")
    if args.in_path is not None:
        return codec.read_family(args.in_path)
    return gallery.build(_gallery_spec(args))


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
    return codec.table_bytes(
        args.format,
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
    report = frames.frame_bounds(_load_family(args))
    return codec.json_bytes(report.to_json())


def _cmd_dual(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    dual = frames.canonical_dual(family)
    return codec.json_bytes(dual.to_json())


def _cmd_kernel(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    table = frames.kernel_matrix(family)
    if args.format == "csv":
        return codec.kernel_csv_bytes(table)
    return codec.json_bytes(table.to_json())


def _cmd_redundancy(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    excess = frames.redundancy(family)
    payload = {"rows": family.size, "dim": family.dim, "redundancy": excess, "index": -excess}
    return codec.json_bytes(payload)


def _cmd_split(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    discrete, continuous = frames.split(family, row_tolerance=args.row_tol)
    payload = {
        "discrete": [numerics.complex_pairs(vector) for vector in discrete],
        "continuous": continuous.to_json(),
    }
    return codec.json_bytes(payload)


def _cmd_pair_check(args: argparse.Namespace) -> bytes:
    psi = codec.read_family(args.psi)
    phi = codec.read_family(args.phi)
    return codec.json_bytes(pairs.pair_verdict(psi, phi))


def _cmd_partner(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    partner = pairs.reproducing_partner(family)
    residual = pairs.mixed_operator(partner, family) - np.eye(family.dim)
    payload = {
        "partner": partner.to_json(),
        "pointwise_sums": [float(v) for v in pairs.partner_pointwise_sums(partner)],
        "identity_residual": float(np.max(np.abs(residual))),
    }
    return codec.json_bytes(payload)


def _cmd_experiment(args: argparse.Namespace) -> bytes:
    sizes = _parse_sizes(args.sizes)
    if args.experiment == "blowup":
        flags = ("gallery", *_SPEC_FLAGS)
        given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
        if given:
            raise ValidationError(f"experiment blowup reads no gallery flags: {' '.join(given)}")
        points = rkhs.blowup_experiment(sizes)
        return codec.table_bytes(args.format, "points", ("cells", "max_diagonal"), points)
    if args.gallery is None:
        raise ValidationError(f"experiment {args.experiment} needs --gallery")
    spec = _gallery_spec(args)
    builder = gallery.truncation_sequence(spec, sizes)
    if args.experiment == "trend":
        trend = frames.semiframe_trend(builder, sizes)
        verdict = frames.classify_trend(trend)
        return codec.table_bytes(
            args.format, "trend", ("size", "lower", "upper"), trend, classification=verdict.value
        )
    rows = []
    for size in sizes:
        family = builder(size)
        rows.append((size, family.size, family.dim, frames.redundancy(family)))
    return codec.table_bytes(args.format, "redundancy", ("size", "rows", "dim", "redundancy"), rows)


@functools.cache
def build_parser() -> _Parser:
    """The ``framelab`` parser, built once per process; parsing leaves it unchanged."""
    # the exit codes and the atomic write: the first two paragraphs of the module docstring
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
