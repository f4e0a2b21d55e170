"""The benchmark's own tests, on the reduced sizes of ``--quick``.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_emitted(workload, trace, tmp_path):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace",
                     str(trace), "--quick", "--results", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["environment"]["seed"] == 3
    assert record["environment"]["thread_pinning"]["OPENBLAS_NUM_THREADS"] == "1"


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: why for name, (_, why) in workloads.WORKLOADS.items()
    }
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert set(workloads.LAYER_TARGETS) == layer_names


def perturb_json(path: Path, change) -> None:
    report = json.loads(path.read_text())
    change(report)
    path.write_text(json.dumps(report))


def scale_first_member(report):
    report["members"][0][0] *= 1.001


# (workload, operation, perturbation of its decoded report)
PERTURBATIONS = [
    ("spectral", "bounds-torus", lambda r: r.update(upper=r["upper"] * 1.001)),
    ("spectral", "redundancy-random", lambda r: r.update(redundancy=r["redundancy"] + 1)),
    ("spectral", "trend-torus", lambda r: r.update(classification="frame")),
    ("ingest", "pair-check-cells", lambda r: r.update(inverse_residual=1e-3)),
    ("ingest", "bounds-atoms", lambda r: r.update(lower=r["lower"] * 1.01)),
    ("refinement", "kernel-json", lambda r: r["entries"][1].__setitem__(0, r["entries"][1][0] * 1.001)),
    ("refinement", "split-torus-64", lambda r: scale_first_member(r["continuous"])),
    ("refinement", "blowup", lambda r: r["points"][-1].update(max_diagonal=1.0)),
]


@pytest.mark.parametrize("workload,name,change", PERTURBATIONS,
                         ids=[f"{w}-{n}" for w, n, _ in PERTURBATIONS])
def test_output_check_fails_on_perturbed_report(workload, name, change, tmp_path):
    build, _ = workloads.WORKLOADS[workload]
    op = next(op for op in build(5, True, tmp_path) if op.name == name)
    code = op.run()
    op.check(code)  # the genuine report passes
    perturb_json(op.out, change)
    with pytest.raises(checks.CheckFailed):
        op.check(code)


def test_library_check_fails_on_perturbed_result(tmp_path):
    build, _ = workloads.WORKLOADS["spectral"]
    op = next(op for op in build(5, True, tmp_path) if op.name == "canonical-dual")
    dual = op.run()
    op.check(dual)
    broken = workloads.VectorFamily(space=dual.space, members=dual.members * 1.001)
    with pytest.raises(checks.CheckFailed):
        op.check(broken)


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "spectral", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_compare_prints_each_workload_with_ratio(tmp_path):
    for side in ("base", "new"):
        done = run_bench("--workload", "refinement", "--seed", "2", "--seconds", "0",
                         "--quick", "--results", str(tmp_path / side))
        assert done.returncode == 0, done.stderr
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(tmp_path / "base"), str(tmp_path / "new")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "ratio = new median / base median"
    assert sum(line.startswith("refinement | ") for line in lines) == len(SPEC["end_to_end"])
