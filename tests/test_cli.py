import builtins
import csv
import errno
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab import cli, codec, gallery, numerics
from framelab.cli import EXIT_IO, EXIT_OK, EXIT_REFUSED, EXIT_VALIDATION, main
from framelab.errors import ValidationError
from framelab.frames import VectorFamily

from conftest import complex_rng_matrix, traced_peak, unit_weight_space


def run(*argv):
    return main(list(argv))


def write_family(path, members):
    family = VectorFamily(space=unit_weight_space(members.shape[0]), members=members)
    path.write_bytes(codec.json_bytes(family.to_json()))
    return family


def test_bounds_on_torus_gallery(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        "bounds", "--gallery", "torus", "--dim", "16", "--grid", "64",
        "--out", str(out),
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["lower"] == pytest.approx(1.0 / 256.0, abs=1e-12)
    assert payload["upper"] <= math.pi**2 / 6.0 + 1e-12
    assert payload["classification"] == "frame"


def test_reports_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["bounds", "--gallery", "random", "--rows", "9", "--dim", "4", "--seed", "3"]
    assert run(*argv, "--out", str(first)) == EXIT_OK
    assert run(*argv, "--out", str(second)) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_redundancy_from_file(tmp_path, rng):
    family_path = tmp_path / "family.json"
    write_family(family_path, complex_rng_matrix(rng, 12, 5))
    out = tmp_path / "red.json"
    assert run("redundancy", "--in", str(family_path), "--out", str(out)) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["redundancy"] == 7
    assert payload["rows"] == 12 and payload["dim"] == 5


def test_rank_tolerance_environment_override(tmp_path, rng, monkeypatch):
    family_path = tmp_path / "family.json"
    write_family(family_path, complex_rng_matrix(rng, 12, 5))
    out = tmp_path / "red.json"
    monkeypatch.setenv("FRAMELAB_RANK_TOL", "1.0")
    assert run("redundancy", "--in", str(family_path), "--out", str(out)) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["redundancy"] == 12  # everything below the absurd cutoff


def test_blowup_experiment_csv(tmp_path):
    out = tmp_path / "blowup.csv"
    code = run("experiment", "blowup", "--sizes", "2,8,64", "--out", str(out), "--format", "csv")
    assert code == EXIT_OK
    with open(out) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["cells", "max_diagonal"]
    for row, size in zip(rows[1:], (2, 8, 64)):
        assert int(row[0]) == size
        assert float(row[1]) == pytest.approx(size, abs=1e-9)


def test_trend_experiment_json(tmp_path):
    out = tmp_path / "trend.json"
    code = run(
        "experiment", "trend", "--gallery", "delta", "--sizes", "8,16,32",
        "--out", str(out),
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["classification"] == "neither"
    assert [point["size"] for point in payload["trend"]] == [8, 16, 32]


def test_redundancy_experiment(tmp_path):
    out = tmp_path / "probe.csv"
    code = run(
        "experiment", "redundancy", "--gallery", "doubled-onb", "--sizes", "2,4,8",
        "--out", str(out), "--format", "csv",
    )
    assert code == EXIT_OK
    with open(out) as handle:
        rows = list(csv.reader(handle))
    assert [int(r[3]) for r in rows[1:]] == [2, 4, 8]


def test_dual_refusal_leaves_no_file(tmp_path):
    family_path = tmp_path / "family.json"
    members = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], dtype=complex)
    write_family(family_path, members)
    out = tmp_path / "dual.json"
    assert run("dual", "--in", str(family_path), "--out", str(out)) == EXIT_REFUSED
    assert not out.exists()


def test_dual_round_trip(tmp_path, rng):
    family_path = tmp_path / "family.json"
    family = write_family(family_path, complex_rng_matrix(rng, 6, 3))
    out = tmp_path / "dual.json"
    assert run("dual", "--in", str(family_path), "--out", str(out)) == EXIT_OK
    dual = VectorFamily.from_json(json.loads(out.read_text()))
    # duality: mixed resolution of family against its dual is the identity
    from framelab.pairs import resolution_operator

    report = resolution_operator(dual, family)
    np.testing.assert_allclose(report.operator, np.eye(3), atol=1e-9)


def test_kernel_csv(tmp_path, rng):
    family_path = tmp_path / "family.json"
    write_family(family_path, complex_rng_matrix(rng, 4, 2))
    out = tmp_path / "kernel.csv"
    assert run("kernel", "--in", str(family_path), "--out", str(out), "--format", "csv") == EXIT_OK
    with open(out) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x", "y", "re", "im"]
    assert len(rows) == 17


def test_split_command(tmp_path):
    family_path = tmp_path / "family.json"
    members = np.vstack([np.eye(2), np.eye(2)]).astype(complex)
    write_family(family_path, members)
    out = tmp_path / "split.json"
    assert run("split", "--in", str(family_path), "--out", str(out)) == EXIT_OK
    payload = json.loads(out.read_text())
    # atom-provenance nodes all collapse to the discrete side
    assert len(payload["discrete"]) == 4
    assert payload["continuous"]["space"]["nodes"] == []


def test_pair_check(tmp_path, rng):
    psi_path = tmp_path / "psi.json"
    phi_path = tmp_path / "phi.json"
    write_family(psi_path, complex_rng_matrix(rng, 8, 3))
    write_family(phi_path, complex_rng_matrix(rng, 8, 3))
    out = tmp_path / "verdict.json"
    code = run("pair-check", "--psi", str(psi_path), "--phi", str(phi_path), "--out", str(out))
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["reproducing_pair"] is True
    assert payload["redundancy_phi"] == 5


def test_partner_command(tmp_path):
    family_path = tmp_path / "family.json"
    members = np.repeat(np.eye(2), 2, axis=0).astype(complex)
    write_family(family_path, members)
    out = tmp_path / "partner.json"
    assert run("partner", "--in", str(family_path), "--out", str(out)) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["identity_residual"] <= 1e-10
    np.testing.assert_allclose(payload["pointwise_sums"], 0.25)


def test_partner_refusal(tmp_path, rng):
    family_path = tmp_path / "family.json"
    members = complex_rng_matrix(rng, 6, 3)
    members[:, 2] = members[:, 0]
    write_family(family_path, members)
    out = tmp_path / "partner.json"
    assert run("partner", "--in", str(family_path), "--out", str(out)) == EXIT_REFUSED
    assert not out.exists()


def test_inspect_json_and_csv(tmp_path, rng):
    family_path = tmp_path / "family.json"
    write_family(family_path, complex_rng_matrix(rng, 5, 2))
    out_json = tmp_path / "inspect.json"
    assert run("inspect", "--in", str(family_path), "--out", str(out_json)) == EXIT_OK
    payload = json.loads(out_json.read_text())
    assert payload["nodes"] == 5 and payload["dim"] == 2
    out_csv = tmp_path / "inspect.csv"
    assert run("inspect", "--in", str(family_path), "--out", str(out_csv), "--format", "csv") == EXIT_OK
    with open(out_csv) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["point", "weight", "squared_norm"]
    assert len(rows) == 6


def test_validation_errors(tmp_path):
    out = tmp_path / "x.json"
    assert run("bounds", "--gallery", "nonsense", "--out", str(out)) == EXIT_VALIDATION
    assert not out.exists()
    # two sources at once
    some = tmp_path / "some.json"
    some.write_text("{}")
    assert (
        run("bounds", "--in", str(some), "--gallery", "torus", "--out", str(out))
        == EXIT_VALIDATION
    )
    # no source at all
    assert run("bounds", "--out", str(out)) == EXIT_VALIDATION
    # malformed json
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("bounds", "--in", str(bad), "--out", str(out)) == EXIT_VALIDATION
    # random gallery without a seed
    assert (
        run("bounds", "--gallery", "random", "--rows", "5", "--dim", "2", "--out", str(out))
        == EXIT_VALIDATION
    )
    # unknown flag
    assert run("bounds", "--bogus", "1", "--out", str(out)) == EXIT_VALIDATION
    assert not out.exists()


def test_missing_input_file_is_io_error(tmp_path):
    out = tmp_path / "x.json"
    assert run("bounds", "--in", str(tmp_path / "nope.json"), "--out", str(out)) == EXIT_IO
    assert not out.exists()


def test_infinite_rank_tolerance_refused(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    monkeypatch.setenv("FRAMELAB_RANK_TOL", "inf")
    assert run("bounds", "--gallery", "mercedes", "--out", str(out)) == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("framelab: invalid input: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        *(
            ((command, "--gallery", "mercedes", "--format", "csv"), "--format")
            for command in ("bounds", "dual", "redundancy", "split", "partner")
        ),
        (("pair-check", "--psi", "{family}", "--phi", "{family}", "--format", "csv"), "--format"),
        (("experiment", "trend", "--in", "{family}", "--gallery", "torus", "--sizes", "2,4"),
         "--in"),
    ],
)
def test_flag_the_command_does_not_read_is_refused(tmp_path, capsys, argv, flag):
    family_path = tmp_path / "family.json"
    write_family(family_path, np.eye(3, dtype=complex))
    out = tmp_path / "report.csv"
    argv = [a.replace("{family}", str(family_path)) for a in argv]
    assert run(*argv, "--out", str(out)) == EXIT_VALIDATION
    value = argv[argv.index(flag) + 1]
    assert capsys.readouterr().err.splitlines() == [
        f"framelab: invalid input: unrecognized arguments: {flag} {value}"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [("--power", "1"), ("--seed", "3"), ("--gallery", "torus", "--grid", "8")]
)
def test_blowup_refuses_gallery_flags(tmp_path, capsys, flags):
    out = tmp_path / "blowup.json"
    assert run("experiment", "blowup", "--sizes", "2,4", *flags, "--out", str(out)) == (
        EXIT_VALIDATION
    )
    named = " ".join(flag for flag in flags if flag.startswith("--"))
    assert capsys.readouterr().err.splitlines() == [
        f"framelab: invalid input: experiment blowup reads no gallery flags: {named}"
    ]
    assert not out.exists()


# the gallery flags each kind reads, with values it accepts: as the input of a
# single-family command and as the spec of a truncation (experiment trend/redundancy)
GALLERY_FLAG_VALUES = {"--dim": "3", "--grid": "8", "--rows": "5", "--seed": "1", "--power": "2"}
SINGLE_FAMILY_READS = {
    "torus": ("--dim", "--grid"),
    "affine": ("--dim", "--grid", "--power"),
    "delta": ("--dim",),
    "doubled-onb": ("--dim",),
    "augmented-onb": ("--dim",),
    "mercedes": (),
    "random": ("--rows", "--dim", "--seed"),
}
TRUNCATION_READS = {
    "torus": (),
    "affine": ("--power",),
    "delta": (),
    "doubled-onb": (),
    "augmented-onb": (),
    "random": ("--dim", "--seed"),
}
# command -> (argv before the gallery flags, reads per kind, what the refusal names)
GALLERY_COMMANDS = {
    "bounds": (("bounds",), SINGLE_FAMILY_READS, "gallery"),
    "trend": (("experiment", "trend", "--sizes", "2,4"), TRUNCATION_READS, "truncation"),
}


def _gallery_argv(command, kind, flags):
    prefix = GALLERY_COMMANDS[command][0]
    values = [item for flag in flags for item in (flag, GALLERY_FLAG_VALUES[flag])]
    return [*prefix, "--gallery", kind, *values]


@pytest.mark.parametrize(
    "command, kind, flag",
    [
        (command, kind, flag)
        for command, (_, reads, _) in GALLERY_COMMANDS.items()
        for kind, read in reads.items()
        for flag in GALLERY_FLAG_VALUES
        if flag not in read
    ],
)
def test_gallery_flag_the_kind_does_not_read_is_refused(tmp_path, capsys, command, kind, flag):
    _, reads, noun = GALLERY_COMMANDS[command]
    out = tmp_path / "report.json"
    argv = _gallery_argv(command, kind, (*reads[kind], flag))
    assert run(*argv, "--out", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        f"framelab: invalid input: {kind} {noun} does not read {flag[2:]}"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, kind",
    [(command, kind) for command, (_, reads, _) in GALLERY_COMMANDS.items() for kind in reads],
)
def test_every_gallery_flag_the_kind_reads_is_accepted(tmp_path, capsys, command, kind):
    out = tmp_path / "report.json"
    argv = _gallery_argv(command, kind, GALLERY_COMMANDS[command][1][kind])
    assert run(*argv, "--out", str(out)) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert out.exists()


def test_cached_parser_matches_a_fresh_one(tmp_path, capsys):
    runs = [
        ("bounds", "--gallery", "mercedes", "--format", "csv"),
        ("bounds", "--gallery", "mercedes"),
        ("kernel", "--gallery", "torus", "--dim", "3", "--grid", "6", "--format", "csv"),
        ("kernel", "--gallery", "torus", "--dim", "x"),
    ]

    def outcomes(fresh):
        results = []
        for index, argv in enumerate(runs):
            if fresh:
                cli.build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{index}"
            code = run(*argv, "--out", str(out))
            report = out.read_bytes() if out.exists() else None
            results.append((code, capsys.readouterr().err, report))
        return results

    cached = outcomes(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert cached == outcomes(fresh=True)
    assert [code for code, _, _ in cached] == [EXIT_VALIDATION, EXIT_OK, EXIT_OK, EXIT_VALIDATION]
    assert [err.count("\n") for _, err, _ in cached] == [1, 0, 0, 1]


@pytest.mark.parametrize("tolerance", ["inf", "nan"])
def test_non_finite_row_tolerance_refused(tmp_path, capsys, tolerance):
    out = tmp_path / "split.json"
    code = run(
        "split", "--gallery", "torus", "--dim", "4", "--grid", "8",
        "--row-tol", tolerance, "--out", str(out),
    )
    assert code == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("framelab: invalid input: ")
    assert not out.exists()


class _HalfWriter:
    """File handle that writes half of its data, then fails like a full disk."""

    def __init__(self, path, mode):
        self.handle = builtins.open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _failing_replace(source, target):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "name, fake", [("open", _HalfWriter), ("os.replace", _failing_replace)], ids=["write", "replace"]
)
def test_failed_write_keeps_existing_report(tmp_path, monkeypatch, capsys, name, fake):
    out = tmp_path / "report.json"
    out.write_bytes(b"earlier report\n")
    monkeypatch.setattr(f"framelab.cli.{name}", fake, raising=False)
    assert run("bounds", "--gallery", "mercedes", "--out", str(out)) == EXIT_IO
    lines = capsys.readouterr().err.splitlines()
    reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert lines == [f"framelab: i/o error: {reason}: {str(out)!r}"]
    assert out.read_bytes() == b"earlier report\n"
    assert sorted(tmp_path.iterdir()) == [out]


def test_write_replaces_existing_report(tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b"earlier report\n")
    assert run("bounds", "--gallery", "mercedes", "--out", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["classification"] == "frame"
    assert sorted(tmp_path.iterdir()) == [out]


def test_write_follows_symlink(tmp_path):
    real = tmp_path / "real.json"
    real.write_bytes(b"earlier report\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert run("bounds", "--gallery", "mercedes", "--out", str(link)) == EXIT_OK
    assert link.is_symlink()
    assert json.loads(real.read_text())["classification"] == "frame"
    assert sorted(tmp_path.iterdir()) == [link, real]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_write_into_fifo_in_place(tmp_path):
    expected = tmp_path / "expected.json"
    assert run("bounds", "--gallery", "mercedes", "--out", str(expected)) == EXIT_OK
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run("bounds", "--gallery", "mercedes", "--out", str(fifo)) == EXIT_OK
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [expected.read_bytes()]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(tmp_path.iterdir()) == [expected, fifo]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_from_fifo(tmp_path, capsys):
    # a pipe is read into memory and decoded in blocks, as a file is: only the
    # malformed input is read again as one text
    source = Path(__file__).parent / "golden" / "inputs" / "psi.json"
    malformed = tmp_path / "malformed.json"
    malformed.write_bytes(source.read_bytes().replace(b"]", b"", 1))
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    for path in (source, malformed):
        expected = tmp_path / f"{path.stem}-expected.json"
        code = run("bounds", "--in", str(path), "--out", str(expected))
        message = capsys.readouterr().err
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        out = tmp_path / f"{path.stem}-report.json"
        with mock.patch.object(codec, "_text", wraps=codec._text) as whole:
            assert run("bounds", "--in", str(fifo), "--out", str(out)) == code
        assert whole.called == (code != EXIT_OK)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert capsys.readouterr().err == message.replace(str(path), str(fifo))
        if code == EXIT_OK:
            assert out.read_bytes() == expected.read_bytes()
        else:
            assert message.count("\n") == 1 and not out.exists()
    assert code == EXIT_VALIDATION


def test_out_of_memory_reading_a_family_is_a_refusal(tmp_path, monkeypatch, capsys):
    # stands in for a member table too large for memory
    def exhausted(pairs, out):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(codec, "_pair_floats", exhausted)
    source = Path(__file__).parent / "golden" / "inputs" / "psi.json"
    out = tmp_path / "report.json"
    assert run("bounds", "--in", str(source), "--out", str(out)) == EXIT_REFUSED
    assert capsys.readouterr().err == (
        "framelab: refused: out of memory: Unable to allocate 14.6 TiB for an array\n"
    )
    assert not out.exists()


_NODE = {"point": 0.0, "weight": 1.0, "provenance": "atom"}


def _third_node(**fields) -> dict:
    """A three-node family whose node 2 carries ``fields``."""
    nodes = [_NODE, _NODE, {**_NODE, **fields}]
    return {"space": {"nodes": nodes}, "dim": 1, "members": [[1.0, 0.0]] * 3}


_PAIR_FAULT = "must be an [re, im] pair of numbers in the float range, got"


def _one_node(**fields) -> dict:
    """A one-node family with ``fields`` replacing or, when None, dropping its keys."""
    payload = {"space": {"nodes": [_NODE]}, "dim": 1, "members": [[1.0, 0.0]], **fields}
    return {key: value for key, value in payload.items() if value is not None}


@pytest.mark.parametrize(
    "payload, fault",
    [
        ([], "a family must be an object, got list"),
        (
            {"space": {"nodes": [{"point": 0.0, "provenance": "atom"}]}, "dim": 1,
             "members": [[1.0, 0.0]]},
            "nodes[0] must be an object with point, weight and provenance",
        ),
        (
            {"space": {"nodes": [_NODE, [0.5, 1.0, "cell"], _NODE]}, "dim": 1,
             "members": [[1.0, 0.0]] * 3},
            "nodes[1] must be an object with point, weight and provenance",
        ),
        (_one_node(members=[[1]]), f"members[0] {_PAIR_FAULT} [1]"),
        (
            _one_node(dim=2.5, members=[[1.0, 0.0], [0.0, 1.0]]),
            "dim must be a positive integer, got 2.5",
        ),
        (
            _one_node(dim="2", members=[[1.0, 0.0], [0.0, 1.0]]),
            "dim must be a positive integer, got '2'",
        ),
        (_third_node(weight="1"), "nodes[2].weight must be a number, got '1'"),
        (_third_node(weight=True), "nodes[2].weight must be a number, got True"),
        (_third_node(point=[1, 2]), "nodes[2].point must be a number or a string, got [1, 2]"),
        (_third_node(point=None), "nodes[2].point must be a number or a string, got None"),
        (_third_node(point=float("nan")), "nodes[2].point must be finite, got nan"),
        (_third_node(point=float("inf")), "nodes[2].point must be finite, got inf"),
        (_one_node(members=[[True, False]]), f"members[0] {_PAIR_FAULT} [True, False]"),
        (_one_node(members=[[10**400, 0]]), f"members[0] {_PAIR_FAULT} [{10**400}, 0]"),
        (_one_node(members=[[1e200, 0.0]]), "squared norms of the members overflow"),
        (_one_node(members=[[1e308, 0.0]]), "squared norms of the members overflow"),
        (_third_node(weight=None), "nodes[2].weight must be a number, got None"),
        (_third_node(weight=0), "nodes[2].weight must be finite and positive, got 0"),
        (_third_node(weight=-1), "nodes[2].weight must be finite and positive, got -1"),
        (_third_node(weight=float("nan")), "nodes[2].weight must be finite and positive, got nan"),
        (_third_node(provenance="dust"),
         "nodes[2].provenance must be 'atom' or 'cell', got 'dust'"),
        (_third_node(provenance=None), "nodes[2].provenance must be 'atom' or 'cell', got None"),
        (_one_node(dim=None), "dim must be a positive integer, got None"),
        (_one_node(members=None), "members must be a list of [re, im] pairs, got None"),
        (
            {"space": {"nodes": [_NODE, _NODE]}, "dim": 2, "members": [[1.0, 0.0]] * 3},
            "member count 3 does not factor as 2 x 2",
        ),
        (_one_node(space=None), "space must be an object with a nodes list, got None"),
        (_one_node(space={}), "nodes must be a list of node objects, got None"),
        (_one_node(members=5), "members must be a list of [re, im] pairs, got 5"),
        (
            _one_node(members=[[1.0, 0.0], [1, "x"]], dim=2),
            f"members[1] {_PAIR_FAULT} [1, 'x']",
        ),
        (
            _third_node(weight=10**400),
            f"nodes[2].weight must be finite and positive, got {10**400}",
        ),
        (
            {"space": {"nodes": []}, "dim": 10**30, "members": []},
            f"dim {10**30} exceeds the largest size {numerics.MAX_SIZE}",
        ),
        (
            {"space": {"nodes": []}, "dim": 2**40, "members": []},
            f"dim {2**40} exceeds the largest size {numerics.MAX_SIZE}",
        ),
    ],
    ids=[
        "top-level-list", "node-without-weight", "node-not-an-object", "short-member-entry",
        "fractional-dim", "string-dim", "string-weight", "boolean-weight", "list-point", "null-point",
        "nan-point", "infinite-point", "boolean-member-entry", "overflowing-member-entry",
        "member-square-overflows", "member-square-far-past-the-float-range",
        "null-weight", "zero-weight", "negative-weight", "nan-weight", "unknown-provenance",
        "null-provenance", "missing-dim", "missing-members", "member-count-does-not-factor",
        "missing-space", "space-without-nodes", "members-not-a-list", "second-member-entry",
        "overflowing-node-weight", "nodeless-dim-past-numpy",
        "nodeless-dim-past-max-size",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_family_json(tmp_path, capsys, payload, fault):
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(payload))
    out = tmp_path / "report.json"
    assert run("bounds", "--in", str(family_path), "--out", str(out)) == EXIT_VALIDATION
    # a fault names the field at fault: space, dim, members[k] or nodes[j].field
    assert capsys.readouterr().err == f"framelab: invalid input: {family_path}: {fault}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("weight, entry", [(1.0, 1e200), (1e-300, 1e200), (1e300, 1e10)])
def test_inspect_refuses_overflowing_squared_norms(tmp_path, capsys, weight, entry):
    payload = {"space": {"nodes": [{**_NODE, "weight": weight}]}, "dim": 1, "members": [[entry, 0.0]]}
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(payload))
    out = tmp_path / "inspect.json"
    assert run("inspect", "--in", str(family_path), "--out", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"framelab: invalid input: {family_path}: squared norms of the members overflow\n"
    )
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command, weight",
    [(command, weight) for command in ("dual", "partner") for weight in (1e-320, 1e-300)]
    + [("kernel", 1e-320), ("kernel", 1e-310)],
)
def test_dual_past_the_float_range_is_refused(tmp_path, capsys, command, weight):
    # one finite node whose inverse (or its square root, for the kernel factor)
    # overflows: a refusal, not invalid input
    node = {**_NODE, "weight": weight}
    payload = {"space": {"nodes": [node]}, "dim": 1, "members": [[1, 0]]}
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(payload))
    out = tmp_path / "report.json"
    assert run(command, "--in", str(family_path), "--out", str(out)) == EXIT_REFUSED
    assert capsys.readouterr().err == "framelab: refused: the inverse overflows the float range\n"
    assert not out.exists()


def test_integer_family_values_accepted(tmp_path):
    payload = {
        "space": {"nodes": [{"point": 3, "weight": 2, "provenance": "cell"}]},
        "dim": 2,
        "members": [[1, 0], [0.5, -2]],
    }
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(payload))
    out = tmp_path / "inspect.json"
    assert run("inspect", "--in", str(family_path), "--out", str(out)) == EXIT_OK
    profile = json.loads(out.read_text())["profile"]
    assert profile == [{"point": 3, "weight": 2, "squared_norm": 5.25}]


@pytest.mark.parametrize(
    "raw",
    [
        b"\xff{}",
        b"[" * 100_000,
        pytest.param(
            b'{"space": {"nodes": [{"point": ' + b"7" * 5000
            + b', "weight": 1, "provenance": "cell"}]}, "dim": 1, "members": [[1, 0]]}',
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
            ),
        ),
    ],
    ids=["not-utf-8", "nested-past-the-recursion-limit", "integer-past-the-digit-limit"],
)
@pytest.mark.parametrize("flag", ["--in", "--psi", "--phi"])
def test_family_file_that_is_not_json_text(tmp_path, capsys, raw, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    good = tmp_path / "good.json"
    write_family(good, np.eye(2, dtype=complex))
    out = tmp_path / "report.json"
    if flag == "--in":
        argv = ["bounds", "--in", str(bad)]
    else:
        argv = ["pair-check", "--psi", str(good), "--phi", str(good), flag, str(bad)]
    assert run(*argv, "--out", str(out)) == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"framelab: invalid input: {bad}: not valid JSON (")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("bounds", "--gallery", "random", "--rows", "3", "--dim", "2", "--seed", "-1"),
            "random family seed -1 refused",
        ),
        (
            ("experiment", "trend", "--gallery", "random", "--dim", "2", "--seed", "-5",
             "--sizes", "2,3"),
            "random family seed [-5, 2] refused",
        ),
        (
            ("experiment", "redundancy", "--gallery", "random", "--dim", "2", "--seed", "-5",
             "--sizes", "2,3"),
            "random family seed [-5, 2] refused",
        ),
        (
            ("bounds", "--gallery", "affine", "--dim", "4", "--power", "103"),
            "affine power 103 is too large for its radial tail cut",
        ),
        (
            ("experiment", "trend", "--gallery", "affine", "--power", "103", "--sizes", "2,3"),
            "affine power 103 is too large for its radial tail cut",
        ),
    ],
    ids=["seed-single", "seed-trend", "seed-redundancy", "power-single", "power-trend"],
)
def test_gallery_value_outside_the_builder_range(tmp_path, capsys, argv, message):
    out = tmp_path / "report.json"
    assert run(*argv, "--out", str(out)) == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"framelab: invalid input: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (("inspect", "--gallery", "torus", "--dim", "3", "--grid", "8"), "profile"),
        (("experiment", "blowup", "--sizes", "2,8"), "points"),
        (("experiment", "trend", "--gallery", "delta", "--sizes", "4,8"), "trend"),
        (("experiment", "redundancy", "--gallery", "doubled-onb", "--sizes", "2,4"), "redundancy"),
    ],
    ids=["inspect", "blowup", "trend", "redundancy"],
)
def test_tabular_json_holds_the_csv_rows(tmp_path, argv, key):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    assert run(*argv, "--out", str(out_json)) == EXIT_OK
    assert run(*argv, "--out", str(out_csv), "--format", "csv") == EXIT_OK
    with open(out_csv, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    objects = json.loads(out_json.read_text())[key]
    assert rows and [sorted(obj) for obj in objects] == [sorted(header)] * len(rows)
    # csv.writer and the JSON renderer both write a float as its repr
    assert [[str(obj[field]) for field in header] for obj in objects] == rows


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_one_size_trend_refused_in_either_format(tmp_path, capsys, fmt):
    out = tmp_path / "trend.out"
    argv = ("experiment", "trend", "--gallery", "delta", "--sizes", "8", "--format", fmt)
    assert run(*argv, "--out", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == "framelab: invalid input: a trend needs at least two sizes\n"
    assert not out.exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "report.json"
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "framelab.cli", "bounds", "--gallery", "mercedes",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (EXIT_OK, "", "")
    in_process = tmp_path / "in_process.json"
    assert run("bounds", "--gallery", "mercedes", "--out", str(in_process)) == EXIT_OK
    assert out.read_bytes() == in_process.read_bytes()
    assert json.loads(out.read_text())["classification"] == "frame"


def test_out_of_memory_is_a_refusal(tmp_path, monkeypatch, capsys):
    # stands in for a real allocation failure, such as `bounds --gallery delta --dim 1000000`
    def exhausted(family):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(cli.frames, "frame_bounds", exhausted)
    out = tmp_path / "report.json"
    assert run("bounds", "--gallery", "delta", "--dim", "4", "--out", str(out)) == EXIT_REFUSED
    assert capsys.readouterr().err == (
        "framelab: refused: out of memory: Unable to allocate 14.6 TiB for an array\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "weight, entry, excess, partner_code",
    [(1e-10, 1e-6, 1, EXIT_REFUSED), (1e10, 1e-11, 0, EXIT_OK)],
    ids=["light-node-drops-out", "heavy-node-counts"],
)
def test_rank_verdicts_agree_across_commands(tmp_path, capsys, weight, entry, excess, partner_code):
    # the rank is that of sqrt(w) * conj(members): diag(1, sqrt(weight) * entry)
    nodes = [_NODE, {**_NODE, "point": 1.0, "weight": weight}]
    payload = {"space": {"nodes": nodes}, "dim": 2, "members": [[1, 0], [0, 0], [0, 0], [entry, 0]]}
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(payload))
    reports = {}
    for command in ("redundancy", "bounds", "partner"):
        out = tmp_path / f"{command}.json"
        code = run(command, "--in", str(family_path), "--out", str(out))
        reports[command] = (code, json.loads(out.read_text()) if code == EXIT_OK else None)
    counts = {"rows": 2, "dim": 2, "redundancy": excess, "index": -excess}
    assert reports["redundancy"] == (EXIT_OK, counts)
    assert reports["bounds"][0] == EXIT_OK and reports["bounds"][1]["redundancy"] == excess
    assert reports["partner"][0] == partner_code
    if partner_code == EXIT_OK:
        assert reports["partner"][1]["identity_residual"] <= 1e-12
    else:
        assert capsys.readouterr().err == (
            "framelab: refused: synthesis map does not reach the ambient space\n"
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bounds", "--gallery", "affine", "--dim", "4", "--grid", "2"),
         "frequency grid must be at least as fine as the radial grid"),
        (("bounds", "--gallery", "affine", "--dim", "0"), "affine family needs cells >= 1"),
        (("bounds", "--gallery", "torus", "--dim", "0", "--grid", "8"),
         "torus family needs dim >= 1"),
        (("bounds", "--gallery", "delta", "--dim", "0"), "delta family needs count >= 1"),
        (("bounds", "--gallery", "doubled-onb", "--dim", "0"), "doubled basis needs dim >= 1"),
        (("bounds", "--gallery", "augmented-onb", "--dim", "0"), "augmented basis needs dim >= 1"),
        (("bounds", "--gallery", "random", "--rows", "0", "--dim", "2", "--seed", "1"),
         "random family needs rows >= 1 and dim >= 1"),
        (("experiment", "blowup", "--sizes", ","), "size list is empty"),
        (("experiment", "trend", "--gallery", "torus", "--sizes", "0,2"),
         "trend sizes must be positive"),
        # sizes must be strictly ascending: a repeated size would write its row twice
        (("experiment", "blowup", "--sizes", "4,4"), "refinement counts must be ascending"),
        (("experiment", "blowup", "--sizes", "2,8,8"), "refinement counts must be ascending"),
        (("experiment", "trend", "--gallery", "torus", "--sizes", "4,4"),
         "trend sizes must be ascending"),
        (("experiment", "redundancy", "--gallery", "random", "--dim", "2", "--seed", "3",
          "--sizes", "3,5,5"), "trend sizes must be ascending"),
    ],
    ids=["affine-grid", "affine-cells", "torus-dim", "delta-count", "doubled-dim",
         "augmented-dim", "random-rows", "empty-sizes", "trend-size-zero", "blowup-repeated",
         "blowup-repeated-last", "trend-repeated", "redundancy-repeated-last"],
)
def test_out_of_range_sizes_refused(tmp_path, capsys, argv, message):
    out = tmp_path / "report.json"
    assert run(*argv, "--out", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"framelab: invalid input: {message}\n"
    assert not out.exists()


def test_pair_check_refuses_mixed_dimensions(tmp_path, capsys):
    psi_path, phi_path = tmp_path / "psi.json", tmp_path / "phi.json"
    write_family(psi_path, np.ones((2, 1), dtype=complex))
    write_family(phi_path, np.eye(2, dtype=complex))
    out = tmp_path / "verdict.json"
    argv = ("pair-check", "--psi", str(psi_path), "--phi", str(phi_path), "--out", str(out))
    assert run(*argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "framelab: invalid input: families have different ambient dimensions 1 and 2\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (("bounds", "--gallery", "random", "--rows", str(2**63), "--dim", "2", "--seed", "1"),
         f"--rows {2**63}"),
        (("inspect", "--gallery", "torus", "--dim", "2", "--grid", str(2**63)), f"--grid {2**63}"),
        (("experiment", "blowup", "--sizes", str(2**63)), f"size {2**63}"),
        (("experiment", "trend", "--gallery", "random", "--dim", "2", "--seed", "1",
          "--sizes", f"1,{numerics.MAX_SIZE + 1}"), f"size {numerics.MAX_SIZE + 1}"),
    ],
    ids=[
        "random-rows-past-int64-raised-a-traceback",
        "torus-grid-past-int64-built-one-node",
        "blowup-size-past-int64-raised-a-traceback",
        "trend-size-past-the-largest",
    ],
)
def test_size_past_the_largest_refused(tmp_path, capsys, argv, name):
    out = tmp_path / "report.json"
    assert run(*argv, "--out", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"framelab: invalid input: {name} exceeds the largest size {numerics.MAX_SIZE}\n"
    )
    assert not out.exists()


def test_bounds_of_a_frame_operator_near_the_float_limit(tmp_path, capsys):
    # a fuzzed doubled-onb file with node weight 1e308: symmetrizing its frame
    # operator overflowed, and bounds wrote NaN bounds after two numpy warnings
    payload = {
        "space": {"nodes": [
            {"point": "p0", "weight": 1e308, "provenance": "atom"},
            {"point": "p1", "weight": 1.0, "provenance": "atom"},
        ]},
        "dim": 2,
        "members": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [math.sqrt(2.0), 0.0]],
    }
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(payload))
    out = tmp_path / "report.json"
    assert run("bounds", "--in", str(family_path), "--out", str(out)) == EXIT_OK
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["upper"] == 1e308
    assert report["lower"] == pytest.approx(2.0, rel=1e-12)
    assert report["classification"] == "bessel-only"


# CLI fuzzing: mutated family files and gallery flags go through main in process

_FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.floats(),
    st.sampled_from([10**400, 2**63, 1e308, -1e308, 5e-324, "atom", "cell", "", [], {}]),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3),
)
# past MAX_SIZE by one, not by far: were the refusal lost, a size such as 2**63
# would make a space build node rows until memory ran out
_GALLERY_VALUES = st.one_of(
    st.integers(-2, 12), st.sampled_from([102, 103, numerics.MAX_SIZE + 1, "x", "1.5", ""])
)
_FAMILY_COMMANDS = (
    ("inspect",), ("inspect", "--format", "csv"), ("bounds",), ("dual",), ("kernel",),
    ("kernel", "--format", "csv"), ("redundancy",), ("split",), ("partner",),
)


# family file texts of small gallery families, which the mutations start from
_FUZZ_BASES = [
    codec.json_bytes(family.to_json()).decode()
    for family in (
        gallery.build_random(4, 2, seed=1),
        gallery.build_delta(2),
        gallery.build_doubled_onb(2),
        gallery.build_torus(2, 4),
    )
]


def _json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _json_paths(item, (*path, key))


_FUZZ_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-3, 8))


@st.composite
def mutated_family_text(draw) -> str:
    """A gallery family file with a few values replaced or removed, then maybe cut short."""
    data = json.loads(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_json_paths(data))))
        action = draw(st.sampled_from(["number", "value", "delete"]))
        value = draw(_FUZZ_NUMBERS if action == "number" else _FUZZ_VALUES)
        if not path:
            data = value
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    text = json.dumps(data)
    if draw(st.integers(0, 7)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _mostly(common, rare, ratio=3):
    """``common`` drawn ``ratio`` times as often as ``rare``; shrinks toward ``common``."""
    return st.sampled_from([True] * ratio + [False]).flatmap(lambda c: common if c else rare)


@st.composite
def mutated_gallery_argv(draw) -> list[str]:
    """A command on a gallery kind with mostly the flags it reads, in or out of range."""
    kind = draw(st.sampled_from(list(gallery.GalleryKind)))
    reads = gallery._READS[kind]
    read = reads.needs + reads.takes
    gallery_flag = st.just(["--gallery", kind.value])
    no_or_bad_kind = st.sampled_from([[], ["--gallery", "bogus"]])
    experiment = st.sampled_from(["blowup", "trend", "redundancy"])
    argv = draw(_mostly(st.sampled_from(_FAMILY_COMMANDS).map(list), experiment.map(
        lambda name: ["experiment", name]
    )))
    if argv[0] == "experiment":
        sizes = draw(_mostly(
            st.sets(st.integers(1, 6), min_size=2, max_size=3).map(sorted),
            st.lists(st.integers(-1, 8), max_size=3),
        ))
        argv += ["--sizes", ",".join(map(str, sizes))]
        # a truncation size sets the sized fields, and blowup reads no gallery flag
        read = () if argv[1] == "blowup" else [f for f in read if f not in (reads.sized or ())]
    if argv[1:2] == ["blowup"]:
        argv += draw(_mostly(st.just([]), gallery_flag))
    else:
        argv += draw(_mostly(gallery_flag, no_or_bad_kind))
    for flag in cli._SPEC_FLAGS:
        if draw(_mostly(st.just(flag in read), st.just(flag not in read), ratio=5)):
            value = draw(_mostly(st.integers(1, 6), _GALLERY_VALUES))
            argv += [f"--{flag}", str(value)]
    return argv


def _run_fuzzed(directory: Path, argv) -> None:
    """Run ``main`` on ``argv`` plus an ``--out`` in ``directory``; check what a run may leave.

    Success writes the report and nothing on stderr; a failure writes one
    ``framelab:`` line and leaves neither the report nor a temporary file.
    """
    out = directory / "report.out"
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    assert [str(warning.message) for warning in caught] == []
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_REFUSED, EXIT_IO)
    message = stderr.getvalue()
    if code == EXIT_OK:
        assert message == "" and out.is_file()
    else:
        assert message.startswith("framelab: ") and message.count("\n") == 1
        assert message.endswith("\n") and "Traceback" not in message
        assert not out.exists()
    assert [name for name in os.listdir(directory) if name.endswith(".tmp")] == []
    out.unlink(missing_ok=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from([*_FAMILY_COMMANDS, ("pair-check",)]),
    text=mutated_family_text(),
    partner=st.sampled_from(_FUZZ_BASES),
)
def test_fuzzed_family_file(command, text, partner):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        (directory / "family.json").write_text(text, encoding="utf-8")
        (directory / "partner.json").write_text(partner, encoding="utf-8")
        if command == ("pair-check",):
            argv = [*command, "--psi", str(directory / "family.json"),
                    "--phi", str(directory / "partner.json")]
        else:
            argv = [*command, "--in", str(directory / "family.json")]
        _run_fuzzed(directory, argv)


# number literals json.dumps never writes, set in place of member values
_MEMBER_LITERALS = [
    "-0", "0", "7", "-0.0", "NaN", "-Infinity", "1e400", "-2e999", "9" * 400, "2e-400",
]
# layouts of other writers: no indent, indents 0 to 2, a space before each comma
_LAYOUTS = [{}, {"indent": 0}, {"indent": 1}, {"indent": 2}, {"separators": (" , ", " : ")}]


@st.composite
def family_text_layouts(draw) -> str:
    """A :func:`mutated_family_text` as other writers might lay it out, then maybe cut short.

    Besides the layout: any key order, so ``members`` comes before or after
    ``space``; member values written as other number literals; a node point
    that reads ``"members": [[``; a second top-level ``members`` key; text
    past the object; and one character dropped.
    """
    text = draw(mutated_family_text())
    try:
        data = json.loads(text)
    except ValueError:
        return text
    literals = {}
    if type(data) is dict:
        members = data.get("members")
        listed = members if type(members) is list else []
        pairs = [pair for pair in listed if type(pair) is list and pair]
        for k in range(draw(st.integers(0, 2)) if pairs else 0):
            pair = draw(st.sampled_from(pairs))
            sentinel = f"@literal{k}@"
            pair[draw(st.integers(0, len(pair) - 1))] = sentinel
            literals[json.dumps(sentinel)] = draw(st.sampled_from(_MEMBER_LITERALS))
        space = data.get("space")
        nodes = space.get("nodes") if type(space) is dict else None
        if type(nodes) is list and nodes and type(nodes[0]) is dict and draw(st.booleans()):
            nodes[0]["point"] = '"members": [[1, 2], '
        data = dict(draw(st.permutations(list(data.items()))))
    text = json.dumps(data, **draw(st.sampled_from(_LAYOUTS)))
    for sentinel, literal in literals.items():
        text = text.replace(sentinel, literal)
    if text.startswith("{") and draw(st.integers(0, 3)) == 0:
        repeated = draw(st.sampled_from(["[[1, 2]]", "[]", "5", "[[1, -]]"]))
        text = "{" + f'"members": {repeated}, ' + text[1:]
    text += draw(st.sampled_from(["", "", "", "\n", " }", " 1", "[]"]))
    if text and draw(st.integers(0, 7)) == 0:
        dropped = draw(st.integers(0, len(text) - 1))
        text = text[:dropped] + text[dropped + 1 :]
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _decoded(decode, text):
    """The member bits, space and dim of ``decode(text)``, or the type and message of its fault."""
    try:
        family = decode(text)
    except Exception as exc:  # every fault must match, whatever its type
        return type(exc), str(exc)
    return family.members.tobytes(), family.members.shape, repr(family.space.to_json())


def _decode_text(text: str):
    """The codec's decode of a file that holds ``text`` as UTF-8."""
    return codec._decode_family(io.BytesIO(text.encode("utf-8")))


def _assert_decodes_as_its_json(text: str, block: int) -> None:
    # pieces of a few characters, so every member table spans many of them
    with mock.patch.object(numerics, "BLOCK_ENTRIES", block):
        want = _decoded(lambda t: VectorFamily.from_json(json.loads(t)), text)
        assert _decoded(_decode_text, text) == want


def _golden_input(name: str) -> str:
    path = Path(__file__).parent / "golden" / "inputs" / f"{name}.json"
    return path.read_text(encoding="utf-8")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=family_text_layouts(), block=st.integers(1, 24))
@example(text=_golden_input("affine"), block=7)
@example(text=_golden_input("mixed"), block=7)
@example(text=_golden_input("phi"), block=7)
@example(text=_golden_input("phi_singular"), block=7)
@example(text=_golden_input("psi"), block=7)
def test_family_text_decodes_as_its_json(text, block):
    _assert_decodes_as_its_json(text, block)


# a point label of two-, three- and four-byte UTF-8 characters
_WIDE_LABEL = "é€\U0001f600"
_POINT_VALUE = re.compile(r'("point"\s*:\s*)(-?[0-9][-+.0-9Ee]*|"(?:[^"\\]|\\.)*")')


@st.composite
def family_file_bytes(draw) -> bytes:
    r"""A :func:`family_text_layouts` text as a file on disk may hold it.

    Maybe with a point spelled in multi-byte UTF-8, ``\r\n`` or lone ``\r``
    line ends, a UTF-8 byte-order mark, an invalid byte in the last quarter,
    or the bytes cut short, perhaps inside a character.
    """
    text = draw(family_text_layouts())
    if draw(st.booleans()):
        text = _POINT_VALUE.sub(lambda m: f'{m[1]}"{_WIDE_LABEL}"', text, count=1)
    text = text.replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"])))
    data = text.encode("utf-8")
    if draw(st.integers(0, 7)) == 0:
        data = b"\xef\xbb\xbf" + data
    if data and draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(3 * len(data) // 4, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    if draw(st.integers(0, 7)) == 0:
        data = data[: draw(st.integers(0, len(data)))]
    return data


def _golden_bytes(name: str, newline: str = "\n") -> bytes:
    return _golden_input(name).replace("\n", newline).encode("utf-8")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=family_file_bytes(), block=st.integers(1, 24))
@example(data=_golden_bytes("psi", "\r\n"), block=5)
@example(data=_golden_bytes("mixed", "\r"), block=5)
@example(data=b"\xef\xbb\xbf" + _golden_bytes("phi"), block=5)
@example(data=_golden_bytes("affine")[:-40] + b"\xff" + _golden_bytes("affine")[-40:], block=5)
@example(data=_golden_bytes("phi_singular").replace(b'"point": 0.0', '"point": "€"'.encode()),
         block=2)
@example(data=_golden_bytes("psi") + "€".encode()[:2], block=3)
def test_family_file_decodes_as_its_text(data, block):
    # blocks of a few bytes, so keys, spaces, numbers and characters straddle their edges
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch.object(numerics, "BLOCK_ENTRIES", block):
        path = Path(scratch) / "family.json"
        path.write_bytes(data)
        try:
            want = VectorFamily.from_json(json.loads(path.read_text(encoding="utf-8")))
        except ValidationError as exc:
            fault = f"{path}: {exc}"
        except (RecursionError, ValueError) as exc:
            fault = f"{path}: not valid JSON ({exc})"
        else:
            family = codec.read_family(path)
            assert family.members.tobytes() == want.members.tobytes()
            assert family.members.shape == want.members.shape
            assert repr(family.space.to_json()) == repr(want.space.to_json())
            return
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            code = run("redundancy", "--in", str(path), "--out", str(Path(scratch) / "out.json"))
        assert (code, stderr.getvalue()) == (EXIT_VALIDATION, f"framelab: invalid input: {fault}\n")


_SMALL_FAMILY = (
    '{"dim": 1, "members": [[1, 2], [3.5, -0]], "space": {"nodes": ['
    '{"point": 0, "weight": 1, "provenance": "atom"}, '
    '{"point": 1, "weight": 2, "provenance": "atom"}]}}'
)


@pytest.mark.parametrize(
    "old, new",
    [
        ("", ""),
        ('{"dim"', '{"members": [[1, -]], "dim"'),
        ('{"dim"', '{"members": [[1, 2]], "dim"'),
        ('"dim":', '"dim";'),
        ('"dim": 1,', '"dim": 1;'),
        ('"dim"', "dim"),
        ("]}}", "]},}"),
        ("]}}", "]}} 1"),
        ("{", "\ufeff{"),
        ("[[1, 2], [3.5, -0]]", "[[[1, 2]], [3.5, -0]]"),
        ("[[1, 2], [3.5, -0]]", '[["]]", 2], [3.5, -0]]'),
        ("[[1, 2], [3.5, -0]]", "[[1, 2], [3.5, -0]"),
        ("[[1, 2], [3.5, -0]]", "[[1, 2] , [3.5, -0] ]"),
        ('"point": 0', '"point": "\\"members\\": [[1, 2]]"'),
        ('"members": [[1, 2], [3.5, -0]], ', ""),
        ('{"dim"', '{"space": {"nodes": 5}, "dim"'),
        ('"dim": 1,', '"space": 7, "dim": 1;'),
        ("]}}", ']}, "space": 1}'),
    ],
    ids=[
        "as-written", "members-twice-first-malformed", "members-twice", "no-colon", "no-comma",
        "bare-key", "trailing-comma", "text-past-the-object", "byte-order-mark", "nested-deeper",
        "string-holding-the-close", "members-not-closed", "space-before-comma",
        "point-holding-a-members-key", "no-members", "refused-space-then-a-good-one",
        "refused-space-then-malformed-text", "good-space-then-a-refused-one",
    ],
)
def test_hand_laid_family_text_decodes_as_its_json(old, new):
    text = _SMALL_FAMILY.replace(old, new, 1)
    assert text != _SMALL_FAMILY or not old
    _assert_decodes_as_its_json(text, 3)


@pytest.mark.parametrize("name", ["affine", "mixed", "phi", "phi_singular", "psi"])
def test_family_text_is_decoded_in_pieces(name):
    # a well-formed file never takes the whole-text route
    text = _golden_input(name)
    texts = []
    loads = json.loads

    def recorded(piece, *args, **kwargs):
        texts.append(piece)
        return loads(piece, *args, **kwargs)

    with mock.patch.object(numerics, "BLOCK_ENTRIES", 64), mock.patch("json.loads", recorded):
        family = _decode_text(text)
    assert family.members.flags.owndata and family.members.base is None
    assert len(texts) > 1 and max(map(len, texts)) < 200


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("order", [("dim", "members", "space"), ("space", "dim", "members")],
                         ids=["members-first", "members-last"])
def test_family_file_is_decoded_in_blocks(tmp_path, order, newline):
    # a well-formed file is never read as one text, whatever its line ends and
    # wherever a block edge cuts its keys, its dim, its space, a wide label or
    # a float in a field the family does not read
    data = json.loads(codec.json_bytes(gallery.build_random(8, 12, seed=1).to_json()))
    data["space"]["nodes"][0]["point"] = _WIDE_LABEL
    data["tolerance"] = 1.25e-12
    order = ("tolerance", *order)
    text = json.dumps({key: data[key] for key in order}, indent=1, ensure_ascii=False)
    path = tmp_path / "family.json"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    want = VectorFamily.from_json(json.loads(path.read_text(encoding="utf-8")))
    for block in range(1, 17):
        with mock.patch.object(numerics, "BLOCK_ENTRIES", block), \
                mock.patch.object(codec, "_text", side_effect=AssertionError("read whole")):
            family = codec.read_family(path)
        assert family.members.tobytes() == want.members.tobytes()
        assert repr(family.space.to_json()) == repr(want.space.to_json())


@pytest.mark.parametrize("rows", [1024, 4096])
def test_family_file_load_peaks_below_its_size(tmp_path, rng, rows):
    # the text is read a block or two at a time, the space's nodes are
    # decoded as soon as they are read, and the members never become Python
    # floats: each piece is written into the one table, grown in place, so
    # the peak follows the table (16 bytes an entry), not the text
    dim = 64
    family = VectorFamily(space=unit_weight_space(rows), members=complex_rng_matrix(rng, rows, dim))
    data = family.to_json()
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**data, "members": data["members"].tolist()}), encoding="utf-8")
    decoded, peak = traced_peak(lambda: codec.read_family(path))
    assert decoded.members.tobytes() == family.members.tobytes()
    assert peak < 1.0 * path.stat().st_size
    assert peak < 1.5 * family.members.nbytes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=mutated_gallery_argv())
def test_fuzzed_gallery_flags(argv):
    with tempfile.TemporaryDirectory() as scratch:
        _run_fuzzed(Path(scratch), argv)
