"""Golden corpus: every CLI command on small inputs against frozen reports.

Each case runs ``framelab.cli.main`` in process and compares the exit code,
the stderr line and the report file with ``tests/golden``.  Integers,
strings, booleans, nulls and exit codes must match exactly; floats may differ
by ``GOLDEN_RTOL * max(1, largest |float| in the frozen report)``, so
refactors that reorder floating-point work stay comparable while any change
of verdict, shape or count fails.

Regenerate the corpus (inputs, reports and manifest) with::

    PYTHONPATH=src python tests/test_golden.py

or only the reports and manifest entries of some cases with::

    PYTHONPATH=src python tests/test_golden.py NAME...

and review the diff: a regenerated corpus is a behaviour change.  Regenerate
only named cases (``python tests/test_golden.py NAME...``): on a BLAS build
other than the one that froze the corpus, a whole-corpus run rewrites the
floats of the reports built from Gram spectra or eigenpairs (``bounds_*``,
``dual_*``, ``experiment_trend_*``, ``kernel_*`` and ``partner_*``).

A change that moves floats but no verdict (a new formula for the same
numbers) leaves the committed corpus as it is.  To check such a change
against a revision ``REV`` (its parent, say), run::

    PYTHONPATH=src python tests/test_golden.py --against REV

It unpacks ``git archive REV`` and a copy of the working tree into a
temporary directory, regenerates the whole corpus in each with that side's
own ``tests/test_golden.py``, on one machine, and writes
``python -m framelab.cli [COMMAND] -h`` for the top level and every
subcommand.  It lists each report, manifest entry (``manifest NAME``) or
help text that differs, with the largest float deviation of a report
relative to its largest ``|float|`` (at least 1, the scale ``GOLDEN_RTOL``
bounds), and exits 1 when anything differs, else 0.  The committed corpus
is not written.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from framelab.cli import main
from framelab.frames import VectorFamily
from framelab.gallery import build_affine
from framelab.measure import DiscretizedSpace, Node, Provenance
from framelab.numerics import RANK_TOL_ENV

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
REPORTS = GOLDEN / "reports"
MANIFEST = GOLDEN / "manifest.json"
GOLDEN_RTOL = 1e-9
TMP = "<tmp>"

TORUS = ("--gallery", "torus", "--dim", "4", "--grid", "16")
AFFINE = ("--gallery", "affine", "--dim", "8")  # condition ~1e7, degenerate flag set
AFFINE_POWER = ("--gallery", "affine", "--dim", "6", "--grid", "8", "--power", "2")
DELTA = ("--gallery", "delta", "--dim", "5")
DOUBLED = ("--gallery", "doubled-onb", "--dim", "3")
AUGMENTED = ("--gallery", "augmented-onb", "--dim", "3")
MERCEDES = ("--gallery", "mercedes")
RANDOM = ("--gallery", "random", "--rows", "7", "--dim", "3", "--seed", "5")
RANK_DEFICIENT = ("--gallery", "random", "--rows", "2", "--dim", "3", "--seed", "1")

# name -> (argv, environment); "{in}/<file>" names a file from tests/golden/inputs
CASES: dict[str, tuple[tuple[str, ...], dict[str, str]]] = {}


def _case(name: str, *argv: str, **env: str) -> None:
    CASES[name] = (argv, env)


for _kind, _flags in (
    ("torus", TORUS), ("affine", AFFINE), ("affine_power", AFFINE_POWER),
    ("delta", DELTA), ("doubled", DOUBLED), ("augmented", AUGMENTED),
    ("mercedes", MERCEDES), ("random", RANDOM),
):
    _case(f"bounds_{_kind}", "bounds", *_flags)
    _case(f"redundancy_{_kind}", "redundancy", *_flags)
    _case(f"split_{_kind}", "split", *_flags)
for _kind, _flags in (
    ("torus", TORUS), ("affine", AFFINE), ("affine_power", AFFINE_POWER),
    ("mercedes", MERCEDES), ("random", RANDOM),
):
    _case(f"dual_{_kind}", "dual", *_flags)
    _case(f"kernel_{_kind}", "kernel", *_flags)
    _case(f"kernel_{_kind}_csv", "kernel", *_flags, "--format", "csv")
    _case(f"partner_{_kind}", "partner", *_flags)
for _name in ("mixed", "affine", "psi"):
    _path = f"{{in}}/{_name}.json"
    _case(f"inspect_{_name}_file", "inspect", "--in", _path)
    _case(f"inspect_{_name}_file_csv", "inspect", "--in", _path, "--format", "csv")
    _case(f"bounds_{_name}_file", "bounds", "--in", _path)
    _case(f"redundancy_{_name}_file", "redundancy", "--in", _path)
    _case(f"split_{_name}_file", "split", "--in", _path)
    _case(f"dual_{_name}_file", "dual", "--in", _path)
    _case(f"kernel_{_name}_file", "kernel", "--in", _path)
    _case(f"partner_{_name}_file", "partner", "--in", _path)
_case("inspect_torus", "inspect", *TORUS)
_case("inspect_mercedes_csv", "inspect", *MERCEDES, "--format", "csv")
_case("split_mixed_file_loose", "split", "--in", "{in}/mixed.json", "--row-tol", "0.5")
_case("bounds_mercedes_rank_tol", "bounds", *MERCEDES, FRAMELAB_RANK_TOL="1.0")
_case("dual_rank_deficient", "dual", *RANK_DEFICIENT)
_case("kernel_rank_deficient", "kernel", *RANK_DEFICIENT)
_case("partner_rank_deficient", "partner", *RANK_DEFICIENT)
_case("pair_check_psi_phi", "pair-check", "--psi", "{in}/psi.json", "--phi", "{in}/phi.json")
_case("pair_check_phi_psi", "pair-check", "--psi", "{in}/phi.json", "--phi", "{in}/psi.json")
_case("pair_check_self", "pair-check", "--psi", "{in}/psi.json", "--phi", "{in}/psi.json")
_case(
    "pair_check_singular", "pair-check", "--psi", "{in}/psi.json", "--phi", "{in}/phi_singular.json"
)
_case("pair_check_mismatch", "pair-check", "--psi", "{in}/psi.json", "--phi", "{in}/mixed.json")
_case(
    "pair_check_rank_tol", "pair-check", "--psi", "{in}/psi.json", "--phi", "{in}/phi.json",
    FRAMELAB_RANK_TOL="0.5",
)
_case("experiment_blowup", "experiment", "blowup", "--sizes", "2,8,32")
_case("experiment_blowup_csv", "experiment", "blowup", "--sizes", "1,4,16", "--format", "csv")
_case("experiment_trend_torus", "experiment", "trend", "--gallery", "torus", "--sizes", "2,4,8")
_case(
    "experiment_trend_torus_csv", "experiment", "trend", "--gallery", "torus",
    "--sizes", "2,4,8", "--format", "csv",
)
_case("experiment_trend_delta", "experiment", "trend", "--gallery", "delta", "--sizes", "4,8,16")
_case("experiment_trend_affine", "experiment", "trend", "--gallery", "affine", "--sizes", "4,8,12")
_case(
    "experiment_trend_random", "experiment", "trend", "--gallery", "random", "--dim", "3",
    "--seed", "9", "--sizes", "3,6,12",
)
# fewer rows than dim 8 at the last size, so no lower frame bound there
_SINGULAR = ("experiment", "trend", "--gallery", "random", "--dim", "8", "--seed", "1")
_case("experiment_trend_random_singular", *_SINGULAR, "--sizes", "2,3")
_case("experiment_trend_random_singular_growing", *_SINGULAR, "--sizes", "3,6")
_case(
    "experiment_redundancy_doubled", "experiment", "redundancy", "--gallery", "doubled-onb",
    "--sizes", "2,4,8",
)
_case(
    "experiment_redundancy_random_csv", "experiment", "redundancy", "--gallery", "random",
    "--dim", "3", "--seed", "4", "--sizes", "2,3,6", "--format", "csv",
)
_case(
    "experiment_redundancy_augmented_rank_tol", "experiment", "redundancy", "--gallery",
    "augmented-onb", "--sizes", "2,3", FRAMELAB_RANK_TOL="1e-3",
)
_case("error_unknown_gallery", "bounds", "--gallery", "nonsense")
_case("error_no_source", "bounds")
_case("error_two_sources", "bounds", "--in", "{in}/psi.json", *MERCEDES)
_case("error_bad_sizes", "experiment", "blowup", "--sizes", "2,x")
_case("error_descending_sizes", "experiment", "blowup", "--sizes", "8,2")
_case("error_repeated_sizes", "experiment", "blowup", "--sizes", "4,4")
_case(
    "error_trend_repeated_sizes", "experiment", "trend", "--gallery", "torus", "--sizes", "2,4,4"
)
_case(
    "error_blowup_gallery_flags", "experiment", "blowup", "--sizes", "2,4", "--gallery", "torus",
    "--dim", "3",
)
_case("error_trend_needs_gallery", "experiment", "trend", "--sizes", "2,4")
_case("error_blowup_zero_size", "experiment", "blowup", "--sizes", "0")
_case("error_mercedes_unread_flags", "bounds", *MERCEDES, "--dim", "9", "--power", "4")
_case(
    "error_trend_torus_unread_flags", "experiment", "trend", "--gallery", "torus", "--dim", "5",
    "--grid", "9", "--sizes", "2,4",
)
_case("error_random_without_seed", "bounds", "--gallery", "random", "--rows", "4", "--dim", "2")
_case("error_negative_row_tol", "split", *MERCEDES, "--row-tol", "-1")
_case("error_rank_tol_text", "bounds", *MERCEDES, FRAMELAB_RANK_TOL="tiny")
_case("error_rank_tol_negative", "bounds", *MERCEDES, FRAMELAB_RANK_TOL="-1")
_case(
    "error_pair_check_rank_tol", "pair-check", "--psi", "{in}/psi.json", "--phi", "{in}/phi.json",
    FRAMELAB_RANK_TOL="tiny",
)
_case("error_missing_file", "bounds", "--in", "{in}/missing.json")
_case("error_format_not_offered", "bounds", *MERCEDES, "--format", "csv")
_case(
    "error_experiment_in", "experiment", "trend", "--in", "{in}/psi.json", "--gallery", "torus",
    "--sizes", "2,4",
)


def _write_family(path: Path, family: VectorFamily) -> None:
    data = family.to_json()
    data["members"] = data["members"].tolist()
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _input_families() -> dict[str, VectorFamily]:
    """Saved families: mixed provenance with repeated rows, a pair, an ill-conditioned affine."""
    rng = np.random.default_rng(20261017)
    weights = [0.7, 0.3, 0.5, 0.4, 0.6, 0.25, 0.45]
    kinds = [Provenance.ATOM] + [Provenance.CELL] * 6
    points = ["a"] + [0.1 * i for i in range(1, 7)]
    mixed_space = DiscretizedSpace(
        nodes=tuple(Node(point=p, weight=w, provenance=k) for p, w, k in zip(points, weights, kinds))
    )
    rows = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    mixed = rows[[0, 1, 2, 1, 3, 2, 2]] + np.array([0, 0, 0, 0, 0, 0, 0.1])[:, None]
    pair_space = DiscretizedSpace(
        nodes=tuple(
            Node(point=float(i), weight=float(w), provenance=Provenance.CELL)
            for i, w in enumerate(rng.uniform(0.25, 2.5, size=7))
        )
    )
    psi = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    phi = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    singular = phi.copy()
    singular[:, 2] = 0.0
    return {
        "mixed": VectorFamily(space=mixed_space, members=mixed),
        "psi": VectorFamily(space=pair_space, members=psi),
        "phi": VectorFamily(space=pair_space, members=phi),
        "phi_singular": VectorFamily(space=pair_space, members=singular),
        "affine": build_affine(12, 14, 1),
    }


def _run(name: str, workdir: Path) -> tuple[int, str, Path]:
    """Run one case with only its own rank tolerance set; return exit, stderr, report path."""
    argv, env = CASES[name]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    out = workdir / f"{name}.{fmt}"
    args = [a.replace("{in}", str(INPUTS)) for a in argv] + ["--out", str(out)]
    environ = {k: v for k, v in os.environ.items() if k != RANK_TOL_ENV} | env
    stderr = io.StringIO()
    with mock.patch.dict(os.environ, environ, clear=True), redirect_stderr(stderr):
        code = main(args)
    text = stderr.getvalue().replace(str(INPUTS), "{in}").replace(str(workdir), TMP)
    return code, text, out


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)


def _assert_json_close(actual, expected, tol: float, where: str = "$") -> None:
    if isinstance(expected, float):
        assert isinstance(actual, float), f"{where}: expected a float, got {actual!r}"
        assert abs(actual - expected) <= tol, f"{where}: {actual!r} vs {expected!r} (tol {tol:.1e})"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key in expected:
            _assert_json_close(actual[key], expected[key], tol, f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_json_close(a, e, tol, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} vs {expected!r}"
        )


def _csv_float(cell: str) -> float | None:
    """A cell written from a Python float; integers and labels compare as text."""
    try:
        int(cell)
        return None
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def _assert_csv_close(actual: str, expected: str) -> None:
    got = list(csv.reader(io.StringIO(actual)))
    want = list(csv.reader(io.StringIO(expected)))
    assert len(got) == len(want) and [len(r) for r in got] == [len(r) for r in want]
    floats = [abs(v) for row in want for v in map(_csv_float, row) if v is not None]
    tol = GOLDEN_RTOL * max([1.0, *floats])
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            expected_float = _csv_float(w)
            if expected_float is None:
                assert g == w, f"row {i} col {j}: {g!r} vs {w!r}"
            else:
                actual_float = _csv_float(g)
                assert actual_float is not None, f"row {i} col {j}: {g!r} is not a float"
                assert abs(actual_float - expected_float) <= tol, f"row {i} col {j}: {g} vs {w}"


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def test_manifest_covers_every_case(manifest):
    assert sorted(manifest) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, manifest, tmp_path):
    expected = manifest[name]
    code, stderr, out = _run(name, tmp_path)
    assert code == expected["exit"]
    assert stderr == expected["stderr"]
    if expected["report"] is None:
        assert not out.exists()
        return
    actual = out.read_text(encoding="utf-8")
    frozen = (REPORTS / expected["report"]).read_text(encoding="utf-8")
    if out.suffix == ".csv":
        _assert_csv_close(actual, frozen)
    else:
        want = json.loads(frozen)
        tol = GOLDEN_RTOL * max([1.0, *(abs(v) for v in _floats(want))])
        _assert_json_close(json.loads(actual), want, tol)


def test_differences_name_every_changed_file():
    old = {
        "same.json": b'{"a": 1.0}',
        "moved.json": b'{"a": 2.0, "b": [1.0]}',
        "moved.csv": b"x,y\n1,0.5\n",
        "grown.json": b"[1.0]",
        "framelab -h": b"exit 0\nusage: a\n",
        "gone.json": b"{}",
    }
    new = {
        **old,
        "moved.json": b'{"a": 2.0, "b": [1.5]}',
        "moved.csv": b"x,y\n1,0.25\n",
        "grown.json": b"[1.0, 2.0]",
        "framelab -h": b"exit 0\nusage: b\n",
        "new -h": b"",
    }
    del new["gone.json"]
    assert differences(old, new) == [
        "framelab -h: differs",
        "gone.json: only before",
        "grown.json: differs, 1 floats before, 2 after",
        "moved.csv: differs, largest relative float deviation 0.25",
        "moved.json: differs, largest relative float deviation 0.25",
        "new -h: only after",
    ]
    assert differences(old, old) == []


def regenerate(names: list[str]) -> None:
    """Rewrite the reports and manifest entries of ``names`` from the current code.

    With no names, the inputs, every report and the whole manifest are rewritten.
    """
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        raise SystemExit(f"unknown golden cases: {', '.join(unknown)}")
    if names:
        manifest = json.loads(MANIFEST.read_text())
    else:
        for path in (INPUTS, REPORTS):
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)
        for name, family in _input_families().items():
            _write_family(INPUTS / f"{name}.json", family)
        manifest = {}
        names = sorted(CASES)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            stale = manifest.get(name, {}).get("report")
            if stale is not None:
                (REPORTS / stale).unlink(missing_ok=True)
            code, stderr, out = _run(name, Path(tmp))
            report = None
            if out.exists():
                report = out.name
                shutil.copyfile(out, REPORTS / report)
            manifest[name] = {"exit": code, "stderr": stderr, "report": report}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def _help_text(side: Path, env: dict[str, str], command: list[str]) -> bytes:
    """``python -m framelab.cli [COMMAND] -h`` in ``side``: its exit code, stdout and stderr."""
    done = subprocess.run(
        [sys.executable, "-m", "framelab.cli", *command, "-h"],
        cwd=side, env=env, capture_output=True,
    )
    return b"exit %d\n" % done.returncode + done.stdout + done.stderr


def _outputs(side: Path) -> dict[str, bytes]:
    """Every file of the whole corpus regenerated in ``side``, and every ``-h`` text, by name.

    The manifest comes as one entry per case, ``manifest NAME``, so a new,
    dropped or changed case is named on its own.
    """
    env = {**os.environ, "PYTHONPATH": str(side / "src")}
    subprocess.run([sys.executable, "tests/test_golden.py"], cwd=side, env=env, check=True)
    outputs = {
        path.relative_to(side).as_posix(): path.read_bytes()
        for path in sorted((side / "tests" / "golden").rglob("*"))
        if path.is_file()
    }
    cases = json.loads(outputs.pop("tests/golden/manifest.json"))
    for name, entry in cases.items():
        outputs[f"manifest {name}"] = json.dumps(entry, sort_keys=True).encode()
    top = _help_text(side, env, [])
    outputs["framelab -h"] = top
    # the subcommands are the choices of the top-level usage line
    for command in re.search(rb"\{(.*?)\}", top).group(1).decode().split(","):
        outputs[f"framelab {command} -h"] = _help_text(side, env, [command])
    return outputs


def _report_floats(name: str, data: bytes) -> list[float] | None:
    """The floats of a JSON or CSV report in order; ``None`` for any other file."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        return list(_floats(json.loads(text)))
    if name.endswith(".csv"):
        rows = csv.reader(io.StringIO(text))
        return [value for row in rows for value in map(_csv_float, row) if value is not None]
    return None


def differences(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One line per name whose bytes differ between ``old`` and ``new``, or that one lacks."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            lines.append(f"{name}: only {'after' if name in new else 'before'}")
            continue
        if old[name] == new[name]:
            continue
        before, after = _report_floats(name, old[name]), _report_floats(name, new[name])
        if before is None or after is None:
            lines.append(f"{name}: differs")
        elif len(before) != len(after):
            lines.append(f"{name}: differs, {len(before)} floats before, {len(after)} after")
        else:
            scale = max([1.0, *(abs(v) for v in before)])
            gap = max((abs(a - b) for a, b in zip(before, after)), default=0.0)
            lines.append(f"{name}: differs, largest relative float deviation {gap / scale:.3g}")
    return lines


def against(rev: str) -> int:
    """Compare the regenerated corpus and ``-h`` texts of ``rev`` and of the working tree."""
    with tempfile.TemporaryDirectory() as tmp:
        before, after = Path(tmp, "rev"), Path(tmp, "tree")
        before.mkdir()
        archive = subprocess.run(
            ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(before)], input=archive, check=True)
        # the working tree: every tracked file that exists, and every file git does not ignore
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout.decode()
        for name in filter(None, listed.split("\0")):
            if (ROOT / name).is_file():
                (after / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, after / name)
        old, new = _outputs(before), _outputs(after)
    lines = differences(old, new)
    for line in lines:
        print(line)
    total = len(old.keys() | new.keys())
    print(f"{len(lines)} of {total} reports, manifest entries and help texts differ from {rev}")
    return 1 if lines else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--against"] and len(sys.argv) == 3:
        sys.exit(against(sys.argv[2]))
    regenerate(sys.argv[1:])
