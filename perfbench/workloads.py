"""The benchmark workloads: inputs, operations and the check of each.

A workload is a fixed, ordered mix of operations.  ``build(seed, quick, work)``
generates its inputs from the workload seed (writing any input files under
``work``) and returns the operations; running them in order is one cycle.
CLI operations call ``framelab.cli.main`` in process; library operations call
the public functions directly.  Every operation is checked against an identity
of the paper (see :mod:`checks`) outside its timed region.

Each mix has an odd number of operations, so the median latency of whole
cycles falls inside one operation's samples rather than between two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from framelab import cli, frames, gallery, pairs, rkhs
from framelab.frames import VectorFamily
from framelab.measure import DiscretizedSpace


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` validates its result afterwards."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    out: Path | None = None


def cli_op(name: str, argv: list[str], work: Path, check_report, fmt: str = "json") -> Op:
    out = work / f"{name}.{fmt}"
    full = [*argv, "--out", str(out)] + (["--format", "csv"] if fmt == "csv" else [])

    def check(code) -> None:
        checks.require(code == 0, f"exit code {code}")
        check_report(checks.load_csv(out) if fmt == "csv" else checks.load_json(out))

    # look cli.main up at call time, so the traced run's wrapper is the one called
    return Op(name, lambda: cli.main(full), check, out)


def complex_normal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def space_json(points, weights, provenance: str) -> dict:
    return {
        "nodes": [
            {"point": p, "weight": float(w), "provenance": provenance}
            for p, w in zip(points, weights)
        ]
    }


def cell_space(rng: np.random.Generator, n: int) -> dict:
    """Weighted cell space: sorted distinct points, weights spread over a decade."""
    points = np.sort(rng.uniform(0.0, 1.0, size=n))
    return space_json([float(p) for p in points], rng.uniform(0.25, 2.5, size=n), "cell")


def atom_space(rng: np.random.Generator, n: int) -> dict:
    return space_json([f"a{j}" for j in range(n)], rng.uniform(0.25, 2.5, size=n), "atom")


def family_json(space: dict, members: np.ndarray) -> dict:
    pairs_ = np.stack([members.real, members.imag], axis=-1).reshape(-1, 2)
    return {"space": space, "dim": int(members.shape[1]), "members": pairs_.tolist()}


def weights_of(space: dict) -> np.ndarray:
    return np.array([node["weight"] for node in space["nodes"]], dtype=float)


def seeds(seed: int, count: int) -> list[int]:
    """Independent child seeds, one per random input of a workload."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# -- spectral ----------------------------------------------------------------


def spectral(seed: int, quick: bool, work: Path) -> list[Op]:
    n, d = (128, 16) if quick else (2048, 128)
    affine_dim, affine_grid = (16, 64) if quick else (128, 512)
    torus_sizes = [4, 8] if quick else [16, 32, 64, 128]
    rand_dim, rand_sizes = (8, [16, 32]) if quick else (64, [128, 256, 512])
    s_bounds, s_trend, s_probe, s_pair = seeds(seed, 4)
    rng = np.random.default_rng(s_pair)

    random_ref = gallery.build_random(n, d, s_bounds)
    affine_ref = gallery.build_affine(affine_dim, affine_grid)
    space = DiscretizedSpace.from_json(cell_space(rng, n))
    psi = VectorFamily(space=space, members=complex_normal(rng, n, d))
    phi = VectorFamily(space=space, members=complex_normal(rng, n, d))
    frame_vectors = complex_normal(rng, 2 * d, d)
    w = space.weights

    torus = ["--gallery", "torus", "--dim", str(d), "--grid", str(n)]
    rand = ["--gallery", "random", "--rows", str(n), "--dim", str(d), "--seed", str(s_bounds)]
    affine = ["--gallery", "affine", "--dim", str(affine_dim), "--grid", str(affine_grid)]
    rand_trend = ["--gallery", "random", "--dim", str(rand_dim)]

    def sizes(values):
        return ["--sizes", ",".join(map(str, values))]

    def bounds_of(ref):
        return lambda r: checks.bounds_report(r, ref.space.weights, ref.members)

    return [
        cli_op("bounds-torus", ["bounds", *torus], work, lambda r: checks.torus_bounds(r, d, n)),
        cli_op("redundancy-torus", ["redundancy", *torus], work,
               lambda r: checks.redundancy_report(r, n, d)),
        cli_op("bounds-random", ["bounds", *rand], work, bounds_of(random_ref)),
        cli_op("redundancy-random", ["redundancy", *rand], work,
               lambda r: checks.redundancy_report(r, n, d)),
        cli_op("bounds-affine", ["bounds", *affine], work, bounds_of(affine_ref)),
        cli_op("redundancy-affine", ["redundancy", *affine], work,
               lambda r: checks.redundancy_report(r, affine_grid, affine_dim)),
        cli_op("trend-torus", ["experiment", "trend", "--gallery", "torus", *sizes(torus_sizes)],
               work, lambda r: checks.torus_trend(r, torus_sizes)),
        cli_op("trend-random",
               ["experiment", "trend", *rand_trend, "--seed", str(s_trend), *sizes(rand_sizes)],
               work, lambda r: checks.ordered_trend(r, rand_sizes)),
        cli_op("probe-torus",
               ["experiment", "redundancy", "--gallery", "torus", *sizes(torus_sizes)], work,
               lambda r: checks.redundancy_probe(r, [(s, 4 * s, s, 3 * s) for s in torus_sizes])),
        cli_op("probe-random",
               ["experiment", "redundancy", *rand_trend, "--seed", str(s_probe),
                *sizes(rand_sizes)],
               work, lambda r: checks.redundancy_probe(
                   r, [(s, s, rand_dim, s - rand_dim) for s in rand_sizes])),
        Op("pair-verdict", lambda: pairs.pair_verdict(psi, phi),
           lambda r: checks.pair_check_report(r, n, d)),
        Op("reproducing-partner", lambda: pairs.reproducing_partner(phi),
           lambda p: checks.identity_gap(
               checks.mixed_operator(w, p.members, phi.members), "partner resolution")),
        Op("lower-semiframe-dual", lambda: pairs.lower_semiframe_dual(psi),
           lambda dual: checks.identity_gap(
               checks.mixed_operator(w, psi.members, dual.members), "dual resolution")),
        Op("frame-transfer", lambda: pairs.frame_transfer(psi, phi, frame_vectors),
           checks.transfer_report),
        Op("canonical-dual", lambda: frames.canonical_dual(psi),
           lambda dual: checks.reconstruction(dual.members, w, psi.members)),
    ]


# -- ingest ------------------------------------------------------------------


def ingest(seed: int, quick: bool, work: Path) -> list[Op]:
    n, d = (96, 8) if quick else (1024, 64)
    rng = np.random.default_rng(seeds(seed, 1)[0])
    members = {}
    paths = {}
    for kind, make_space in (("cells", cell_space), ("atoms", atom_space)):
        space = make_space(rng, n)
        for role in ("psi", "phi"):
            m = complex_normal(rng, n, d)
            path = work / f"{kind}-{role}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(family_json(space, m), handle)
            members[kind, role] = (weights_of(space), m)
            paths[kind, role] = str(path)

    def bounds_check(kind):
        return lambda r: checks.bounds_report(r, *members[kind, "psi"])

    def profile_check(kind):
        return lambda rows: checks.profile_csv(rows, *members[kind, "psi"])

    def redundancy_check(report):
        checks.redundancy_report(report, n, d)

    def pair_check(report):
        checks.pair_check_report(report, n, d)

    ops = []
    for kind in ("cells", "atoms"):
        source = ["--in", paths[kind, "psi"]]
        ops += [
            cli_op(f"inspect-{kind}", ["inspect", *source], work, profile_check(kind), "csv"),
            cli_op(f"bounds-{kind}", ["bounds", *source], work, bounds_check(kind)),
            cli_op(f"redundancy-{kind}", ["redundancy", *source], work, redundancy_check),
            cli_op(f"pair-check-{kind}",
                   ["pair-check", "--psi", paths[kind, "psi"], "--phi", paths[kind, "phi"]],
                   work, pair_check),
        ]
    ops.append(
        cli_op("pair-check-cells-swapped",
               ["pair-check", "--psi", paths["cells", "phi"], "--phi", paths["cells", "psi"]],
               work, pair_check)
    )
    return ops


# -- refinement ----------------------------------------------------------------


def refinement(seed: int, quick: bool, work: Path) -> list[Op]:
    affine_sizes = (16, 32) if quick else (128, 256)
    split_dim, split_grids = (8, (32, 64)) if quick else (32, (192, 384))
    blowup_sizes = [8, 16, 32] if quick else [64, 128, 256, 512]
    block_rows, block_dim, block = (64, 8, 4) if quick else (512, 32, 4)
    kernel_dim, kernel_grid = (8, 64) if quick else (64, 1024)
    export_dim, export_grids = (4, (24, 32)) if quick else (16, (96, 128))
    s_block, s_phi, s_check = seeds(seed, 3)

    rng = np.random.default_rng(s_block)
    block_space = DiscretizedSpace.from_json(cell_space(rng, block_rows))
    block_members = np.repeat(complex_normal(rng, block_rows // block, block_dim), block, axis=0)
    blocks = VectorFamily(space=block_space, members=block_members)
    psi = gallery.build_torus(kernel_dim, kernel_grid)
    perturbation = complex_normal(np.random.default_rng(s_phi), kernel_grid, kernel_dim)
    phi = VectorFamily(space=psi.space, members=psi.members + 0.1 * perturbation)
    check_rng = np.random.default_rng(s_check)
    split_refs = {grid: gallery.build_torus(split_dim, grid) for grid in split_grids}
    csv_weights = gallery.build_torus(export_dim, export_grids[1]).space.weights

    def split_check(grid):
        ref = split_refs[grid]
        return lambda r: checks.split_report(r, ref.space.weights, ref.members, discrete_count=0)

    def block_split_check(result):
        discrete, continuous = result
        checks.require(len(discrete) == block_rows // block, "block split missed groups")
        checks.split_energy(
            np.array(discrete), continuous.space.weights, continuous.members,
            blocks.space.weights, blocks.members,
        )

    def table_check(idempotent, hermitian, rank=None):
        return lambda table: checks.kernel_table(
            table, check_rng, idempotent=idempotent, hermitian=hermitian, rank=rank
        )

    def point_eval_check(bound):
        checks.require(bound.upper_bound > 0, "upper bound must be positive")
        checks.require(
            np.allclose(bound.constants**2, bound.pointwise_sums * bound.upper_bound, rtol=1e-9),
            "point-evaluation constants differ from sqrt(sums * upper)",
        )

    ops = [
        cli_op(f"bounds-affine-{size}",
               ["bounds", "--gallery", "affine", "--dim", str(size), "--grid", str(size)],
               work, checks.zero_redundancy)
        for size in affine_sizes
    ]
    ops += [
        cli_op(f"split-torus-{grid}",
               ["split", "--gallery", "torus", "--dim", str(split_dim), "--grid", str(grid)],
               work, split_check(grid))
        for grid in split_grids
    ]
    export = ["kernel", "--gallery", "torus", "--dim", str(export_dim), "--grid"]
    ops += [
        cli_op("kernel-json", [*export, str(export_grids[0])], work,
               lambda r: checks.kernel_json_report(r, export_dim)),
        cli_op("kernel-csv", [*export, str(export_grids[1])], work,
               lambda rows: checks.kernel_csv_report(rows, csv_weights, export_dim), "csv"),
        cli_op("blowup", ["experiment", "blowup", "--sizes", ",".join(map(str, blowup_sizes))],
               work, lambda r: checks.blowup_report(r, blowup_sizes)),
        Op("split-blocks", lambda: frames.split(blocks), block_split_check),
        Op("kernel-matrix", lambda: frames.kernel_matrix(psi),
           table_check(True, True, kernel_dim)),
        Op("range-kernel", lambda: pairs.range_kernel(psi, phi),
           table_check(True, False, kernel_dim)),
        Op("induced-kernel", lambda: pairs.induced_kernel(psi, phi), table_check(False, True)),
        Op("kernel-of-span", lambda: rkhs.kernel_of_span(psi.members, psi.space),
           table_check(True, True, kernel_dim)),
        Op("point-evaluation", lambda: rkhs.point_evaluation_bounds(psi.members, psi.space),
           point_eval_check),
    ]
    return ops


# Why each workload exists; BENCHMARK.json carries the same reasons.
WORKLOADS = {
    "spectral": (
        spectral,
        "gallery families and seeded pairs with small reports: numerics and gallery do the "
        "work; no JSON I/O, row grouping or n x n kernels",
    ),
    "ingest": (
        ingest,
        "family JSON files in, small reports out: json.load and the family/space decoders "
        "dominate (read side of the codec)",
    ),
    "refinement": (
        refinement,
        "node count grows at fixed rank: O(n^2) row grouping and dense n x n kernel tables "
        "dominate; small kernel exports keep the write side of the codec in view",
    ),
}

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_TARGETS = {
    "gallery.build_s": "ops_per_s on spectral, refinement",
    "gallery.calls": "ops_per_s on spectral, refinement",
    "measure.discretize_s": "ops_per_s on spectral, refinement",
    "measure.weights_s": "ops_per_s on refinement",
    "measure.weights_calls": "ops_per_s on refinement",
    "measure.codec_s": "ops_per_s, op_p50_s on ingest",
    "numerics.eig_s": "ops_per_s on spectral",
    "numerics.eig_calls": "ops_per_s on spectral",
    "numerics.svd_s": "ops_per_s on spectral",
    "numerics.svd_calls": "ops_per_s on spectral",
    "numerics.pinv_s": "ops_per_s on spectral",
    "numerics.pinv_calls": "ops_per_s on spectral",
    "numerics.bytes_in": "ops_per_s on spectral",
    "frames.operator_s": "ops_per_s on spectral",
    "frames.bounds_s": "op_tail_s, ops_per_s on refinement (near zero on spectral)",
    "frames.split_s": "op_tail_s, ops_per_s on refinement (near zero on spectral)",
    "frames.dual_kernel_s": "ops_per_s on spectral, refinement",
    "frames.codec_s": "ops_per_s on ingest, refinement",
    "pairs.resolution_s": "ops_per_s on spectral",
    "pairs.resolution_calls": "ops_per_s on spectral",
    "pairs.verdict_s": "ops_per_s on spectral",
    "pairs.partner_s": "ops_per_s on spectral",
    "pairs.kernel_s": "peak_alloc_mib, ops_per_s on refinement",
    "rkhs.table_s": "peak_alloc_mib, ops_per_s on refinement",
    "rkhs.tables": "peak_alloc_mib, ops_per_s on refinement",
    "rkhs.table_bytes": "peak_alloc_mib, ops_per_s on refinement",
    "rkhs.blowup_s": "peak_alloc_mib, ops_per_s on refinement",
    "rkhs.span_s": "ops_per_s on refinement",
    "rkhs.export_s": "ops_per_s on refinement",
    "frames.linalg_calls": "count for a single spectral core",
    "pairs.linalg_calls": "count for a single spectral core",
    "rkhs.linalg_calls": "count for a single spectral core",
    "cli.decode_s": "ops_per_s, op_p50_s on ingest",
    "cli.bytes_in": "ops_per_s on ingest",
    "cli.encode_s": "ops_per_s on refinement",
    "cli.bytes_out": "ops_per_s on refinement",
    "cli.main_s": "op_p50_s on every workload",
    "cold_start_s": "startup of a scripted CLI run: interpreter, numpy and framelab imports",
    "trace.overhead_s": "none: cost of tracing itself",
    "error_rate": "every end-to-end metric: a failed operation counts as missing them",
}
