import builtins
import csv
import errno
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from framelab import cli
from framelab.cli import EXIT_IO, EXIT_OK, EXIT_REFUSED, EXIT_VALIDATION, main
from framelab.frames import VectorFamily

from conftest import complex_rng_matrix, unit_weight_space


def run(*argv):
    return main(list(argv))


def write_family(path, members):
    family = VectorFamily(space=unit_weight_space(members.shape[0]), members=members)
    path.write_bytes(cli._json_bytes(family.to_json()))
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
    ],
    ids=[
        "top-level-list", "node-without-weight", "node-not-an-object", "short-member-entry",
        "fractional-dim", "string-dim", "string-weight", "boolean-weight", "list-point", "null-point",
        "nan-point", "infinite-point", "boolean-member-entry", "overflowing-member-entry",
        "member-square-overflows", "member-square-far-past-the-float-range",
        "null-weight", "zero-weight", "negative-weight", "nan-weight", "unknown-provenance",
        "null-provenance", "missing-dim", "missing-members", "member-count-does-not-factor",
        "missing-space", "space-without-nodes", "members-not-a-list", "second-member-entry",
        "overflowing-node-weight",
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
    ],
    ids=["affine-grid", "affine-cells", "torus-dim", "delta-count", "doubled-dim",
         "augmented-dim", "random-rows", "empty-sizes", "trend-size-zero"],
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
