import builtins
import csv
import errno
import json
import math
import os
import stat
import threading

import numpy as np
import pytest

from framelab.cli import EXIT_IO, EXIT_OK, EXIT_REFUSED, EXIT_VALIDATION, main
from framelab.frames import VectorFamily

from conftest import complex_rng_matrix, unit_weight_space


def run(*argv):
    return main(list(argv))


def write_family(path, members):
    family = VectorFamily(space=unit_weight_space(members.shape[0]), members=members)
    path.write_text(json.dumps(family.to_json()))
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


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"space": {"nodes": [{"point": 0.0, "provenance": "atom"}]}, "dim": 1, "members": [[1.0, 0.0]]},
        {"space": {"nodes": [_NODE]}, "dim": 1, "members": [[1]]},
    ],
    ids=["top-level-list", "node-without-weight", "short-member-entry"],
)
def test_malformed_family_json(tmp_path, capsys, payload):
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(payload))
    out = tmp_path / "report.json"
    assert run("bounds", "--in", str(family_path), "--out", str(out)) == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"framelab: invalid input: {family_path}: ")
    assert not out.exists()
