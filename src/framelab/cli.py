"""Command-line front end: load families, run analyses, emit JSON/CSV reports.

Exit codes: 0 success, 1 validation error, 2 numerical refusal (for example a
requested inversion on a family whose lower bound sits below tolerance),
3 I/O error.  Reports are fully serialized in memory, then written to a
temporary file beside the target and renamed over it, so a failing command
never leaves a partial output file behind.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from . import frames, gallery, pairs, rkhs
from .errors import NumericalRefusal, ValidationError
from .frames import VectorFamily
from .numerics import RankPolicy

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_REFUSED = 2
EXIT_IO = 3


class _CliArgumentError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _CliArgumentError(message)


def _parse_sizes(raw: str) -> list[int]:
    try:
        sizes = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise _CliArgumentError(f"bad size list {raw!r}") from exc
    if not sizes:
        raise _CliArgumentError("size list is empty")
    return sizes


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="in_path", type=Path, help="family JSON file")
    parser.add_argument("--gallery", type=str, help="gallery kind")
    parser.add_argument("--dim", type=int, help="gallery truncation size")
    parser.add_argument("--grid", type=int, help="gallery node count")
    parser.add_argument("--rows", type=int, help="gallery member count (random kind)")
    parser.add_argument("--seed", type=int, help="gallery seed (required for random)")
    parser.add_argument("--power", type=int, default=1, help="radial weight exponent")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, required=True, help="output file path")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )


def _gallery_spec(args: argparse.Namespace) -> gallery.GallerySpec:
    try:
        kind = gallery.GalleryKind(args.gallery)
    except ValueError as exc:
        raise _CliArgumentError(f"unknown gallery kind {args.gallery!r}") from exc
    return gallery.GallerySpec(
        kind=kind,
        dim=args.dim,
        grid=args.grid,
        rows=args.rows,
        seed=args.seed,
        power=args.power,
    )


def _load_family(args: argparse.Namespace) -> VectorFamily:
    sources = [args.in_path is not None, args.gallery is not None]
    if sum(sources) != 1:
        raise _CliArgumentError("exactly one of --in or --gallery is required")
    if args.in_path is not None:
        return _family_from_file(args.in_path)
    return gallery.build(_gallery_spec(args))


def _family_from_file(path: Path) -> VectorFamily:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return VectorFamily.from_json(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"{path}: malformed family ({type(exc).__name__}: {exc})"
        ) from exc


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _csv_bytes(rows, header) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue().encode("utf-8")


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


def _rank_policy() -> RankPolicy:
    return RankPolicy.from_environment()


def _cmd_inspect(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    if args.format == "csv":
        return _csv_bytes(family.profile_rows(), header=("point", "weight", "squared_norm"))
    atoms = int(np.count_nonzero(family.space.is_atom))
    payload = {
        "nodes": family.size,
        "dim": family.dim,
        "total_measure": family.space.total_weight,
        "atom_nodes": atoms,
        "cell_nodes": family.size - atoms,
        "profile": [
            {"point": point, "weight": weight, "squared_norm": sq}
            for point, weight, sq in family.profile_rows()
        ],
    }
    return _json_bytes(payload)


def _cmd_bounds(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    report = frames.frame_bounds(family, rank_policy=_rank_policy())
    return _json_bytes(report.to_json())


def _cmd_dual(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    dual = frames.canonical_dual(family)
    return _json_bytes(dual.to_json())


def _cmd_kernel(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    table = frames.kernel_matrix(family)
    if args.format == "csv":
        return _csv_bytes(table.csv_rows(), header=("x", "y", "re", "im"))
    return _json_bytes(table.to_json())


def _cmd_redundancy(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    report = frames.frame_bounds(family, rank_policy=_rank_policy())
    payload = {
        "rows": family.size,
        "dim": family.dim,
        "redundancy": report.redundancy,
        "index": report.index,
    }
    return _json_bytes(payload)


def _cmd_split(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    discrete, continuous = frames.split(family, row_tolerance=args.row_tol)
    payload = {
        "discrete": [
            [[float(z.real), float(z.imag)] for z in vector] for vector in discrete
        ],
        "continuous": continuous.to_json(),
    }
    return _json_bytes(payload)


def _cmd_pair_check(args: argparse.Namespace) -> bytes:
    psi = _family_from_file(args.psi)
    phi = _family_from_file(args.phi)
    return _json_bytes(pairs.pair_verdict(psi, phi))


def _cmd_partner(args: argparse.Namespace) -> bytes:
    family = _load_family(args)
    partner = pairs.reproducing_partner(family, rank_policy=_rank_policy())
    residual = pairs.resolution_operator(partner, family).operator - np.eye(family.dim)
    payload = {
        "partner": partner.to_json(),
        "pointwise_sums": [float(v) for v in pairs.partner_pointwise_sums(partner)],
        "identity_residual": float(np.max(np.abs(residual))),
    }
    return _json_bytes(payload)


def _cmd_experiment(args: argparse.Namespace) -> bytes:
    sizes = _parse_sizes(args.sizes)
    if args.experiment == "blowup":
        points = rkhs.blowup_experiment(sizes)
        if args.format == "csv":
            return _csv_bytes(points, header=("cells", "max_diagonal"))
        return _json_bytes(
            {"points": [{"cells": n, "max_diagonal": d} for n, d in points]}
        )
    if args.gallery is None:
        raise _CliArgumentError(f"experiment {args.experiment} needs --gallery")
    spec = _gallery_spec(args)
    builder = gallery.truncation_sequence(spec, sizes)
    if args.experiment == "trend":
        trend = frames.semiframe_trend(builder, sizes)
        verdict = frames.classify_trend(trend)
        if args.format == "csv":
            return _csv_bytes(trend, header=("size", "lower", "upper"))
        return _json_bytes(
            {
                "trend": [
                    {"size": s, "lower": lo, "upper": up} for s, lo, up in trend
                ],
                "classification": verdict.value,
            }
        )
    if args.experiment == "redundancy":
        policy = _rank_policy()
        rows = []
        for size in sizes:
            family = builder(size)
            rows.append(
                (size, family.size, family.dim, frames.redundancy(family, policy))
            )
        if args.format == "csv":
            return _csv_bytes(rows, header=("size", "rows", "dim", "redundancy"))
        return _json_bytes(
            {
                "redundancy": [
                    {"size": s, "rows": n, "dim": d, "redundancy": r}
                    for s, n, d, r in rows
                ]
            }
        )
    raise _CliArgumentError(f"unknown experiment {args.experiment!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="framelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("inspect", "summarize a family and its space"),
        ("bounds", "frame bounds, redundancy and classification"),
        ("dual", "canonical dual family"),
        ("kernel", "kernel table of the analysis range"),
        ("redundancy", "node excess over the member rank"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        _add_input_flags(cmd)
        _add_output_flags(cmd)

    split_cmd = sub.add_parser("split", help="discrete versus strictly continuous parts")
    _add_input_flags(split_cmd)
    _add_output_flags(split_cmd)
    split_cmd.add_argument("--row-tol", type=float, default=frames.ROW_MATCH_TOL)

    pair_cmd = sub.add_parser("pair-check", help="reproducing-pair verdict for two families")
    pair_cmd.add_argument("--psi", type=Path, required=True)
    pair_cmd.add_argument("--phi", type=Path, required=True)
    _add_output_flags(pair_cmd)

    partner_cmd = sub.add_parser("partner", help="reproducing partner of a family")
    _add_input_flags(partner_cmd)
    _add_output_flags(partner_cmd)

    exp_cmd = sub.add_parser("experiment", help="trend and refinement experiments")
    exp_cmd.add_argument("experiment", choices=("blowup", "trend", "redundancy"))
    exp_cmd.add_argument("--sizes", type=str, required=True, help="comma-separated sizes")
    _add_input_flags(exp_cmd)
    _add_output_flags(exp_cmd)

    return parser


_HANDLERS = {
    "inspect": _cmd_inspect,
    "bounds": _cmd_bounds,
    "dual": _cmd_dual,
    "kernel": _cmd_kernel,
    "redundancy": _cmd_redundancy,
    "split": _cmd_split,
    "pair-check": _cmd_pair_check,
    "partner": _cmd_partner,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = _HANDLERS[args.command](args)
        _write(args.out, payload)
    except ValidationError as exc:
        print(f"framelab: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalRefusal as exc:
        print(f"framelab: refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OSError as exc:
        print(f"framelab: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
