"""Output checks: the paper's identities, tested on decoded reports.

Every check decodes what the program produced and tests a mathematical
identity at a stated tolerance, never a byte digest, so a change that only
reorders floating-point work still passes.  A failed identity raises
:class:`CheckFailed`.  The decoders here use numpy alone, not framelab's own
codec, so a codec defect cannot hide itself.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Identities hold to roundoff; these leave room for condition numbers up to
# about 1e4 at n = 4096 in double precision.
IDENTITY_ATOL = 1e-8
BOUND_RTOL = 1e-9


class CheckFailed(AssertionError):
    """A report broke one of the identities it must satisfy."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(actual: float, expected: float, what: str, rtol: float = BOUND_RTOL, atol: float = 0.0):
    require(
        abs(actual - expected) <= atol + rtol * abs(expected),
        f"{what}: got {actual!r}, expected {expected!r}",
    )


def identity_gap(matrix: np.ndarray, what: str, atol: float = IDENTITY_ATOL) -> None:
    gap = float(np.max(np.abs(matrix - np.eye(matrix.shape[0]))))
    require(gap <= atol, f"{what}: identity gap {gap:.3e} exceeds {atol:.0e}")


# -- decoders --------------------------------------------------------------


def load_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_csv(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def complex_entries(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.size == 0:
        return np.zeros(0, dtype=np.complex128)
    require(arr.ndim == 2 and arr.shape[1] == 2, "complex entries must be [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def decode_family(data: dict) -> tuple[np.ndarray, np.ndarray]:
    """``(weights, members)`` of a family report, members as an ``n x d`` array."""
    weights = np.array([node["weight"] for node in data["space"]["nodes"]], dtype=float)
    flat = complex_entries(data["members"])
    require(flat.size == weights.size * data["dim"], "member count does not match n x d")
    return weights, flat.reshape(weights.size, data["dim"])


def frame_operator(weights: np.ndarray, members: np.ndarray) -> np.ndarray:
    return members.T @ (weights[:, None] * members.conj())


def mixed_operator(weights: np.ndarray, analysis: np.ndarray, synthesis: np.ndarray):
    """``sum_j w_j synthesis_j analysis_j^H``: analysis against one, synthesis onto the other."""
    return synthesis.T @ (weights[:, None] * analysis.conj())


# -- bounds, redundancy, trends ----------------------------------------------


def bounds_report(report: dict, weights: np.ndarray, members: np.ndarray) -> None:
    """Bounds are the extreme frame-operator eigenvalues; full rank gives n - d."""
    values = np.linalg.eigvalsh(frame_operator(weights, members))
    close(report["upper"], float(values[-1]), "upper bound", rtol=1e-8)
    close(report["lower"], float(max(values[0], 0.0)), "lower bound", rtol=1e-6, atol=1e-12)
    n, d = members.shape
    require(report["redundancy"] == n - d, f"redundancy {report['redundancy']} != {n - d}")
    require(report["index"] == -report["redundancy"], "index must be minus the redundancy")
    require(report["classification"] == "frame", "a full-rank family must classify as frame")


def torus_bounds(report: dict, dim: int, grid: int) -> None:
    """Torus family: upper bound 1, lower bound 1/d^2, redundancy n - d."""
    close(report["upper"], 1.0, "torus upper bound")
    close(report["lower"], 1.0 / dim**2, "torus lower bound", rtol=1e-8)
    require(report["redundancy"] == grid - dim, f"torus redundancy != {grid - dim}")
    require(report["index"] == dim - grid, "torus index must be d - n")


def redundancy_report(report: dict, rows: int, dim: int) -> None:
    require(
        (report["rows"], report["dim"], report["redundancy"], report["index"])
        == (rows, dim, rows - dim, dim - rows),
        f"redundancy report {report} does not show full rank {dim} on {rows} rows",
    )


def zero_redundancy(report: dict) -> None:
    """Square cell families: zero redundancy, flagged as degenerate."""
    require(report["redundancy"] == 0 and report["index"] == 0, "expected zero redundancy")
    require(report["degenerate_zero_redundancy"] is True, "expected the degenerate flag")
    require(0.0 < report["lower"] <= report["upper"], "bounds out of order")


def torus_trend(report: dict, sizes: list[int]) -> None:
    """Torus truncations: upper bound stays 1, lower is 1/size^2, verdict bessel-only."""
    require([row["size"] for row in report["trend"]] == sizes, "trend sizes differ")
    for row in report["trend"]:
        close(row["upper"], 1.0, f"trend upper at {row['size']}")
        close(row["lower"], 1.0 / row["size"] ** 2, f"trend lower at {row['size']}", rtol=1e-8)
    require(report["classification"] == "bessel-only", "torus trend must be bessel-only")


def ordered_trend(report: dict, sizes: list[int]) -> None:
    require([row["size"] for row in report["trend"]] == sizes, "trend sizes differ")
    for row in report["trend"]:
        require(0.0 < row["lower"] <= row["upper"], f"trend bounds out of order at {row['size']}")
    require(
        report["classification"] in ("frame", "bessel-only", "lower-only", "neither"),
        "unknown trend classification",
    )


def redundancy_probe(report: dict, expected: list[tuple[int, int, int, int]]) -> None:
    got = [(r["size"], r["rows"], r["dim"], r["redundancy"]) for r in report["redundancy"]]
    require(got == expected, f"redundancy probe {got} != {expected}")


# -- duals, partners, pairs ------------------------------------------------


def reconstruction(dual: np.ndarray, weights: np.ndarray, members: np.ndarray) -> None:
    """Canonical dual: sum_j w_j dual_j member_j^H = I."""
    identity_gap(mixed_operator(weights, members, dual), "dual reconstruction")


def pair_check_report(report: dict, rows: int, dim: int) -> None:
    """Reproducing pair: inverse and adjoint gaps at roundoff, full-rank redundancies."""
    require(report["reproducing_pair"] is True, "pair must be reproducing")
    require(report["inverse_residual"] <= IDENTITY_ATOL, "inverse residual too large")
    scale = float(np.max(np.abs(complex_entries(report["resolution"]["operator"]))))
    require(
        report["adjoint_identity_gap"] <= 1e-12 * max(scale, 1.0) * rows,
        f"adjoint identity gap {report['adjoint_identity_gap']:.3e} too large",
    )
    require(
        report["redundancy_psi"] == rows - dim and report["redundancy_phi"] == rows - dim,
        "pair redundancies must be n - d",
    )


def transfer_report(report) -> None:
    """Frame transfer bounds land inside the predicted interval."""
    slack = 1e-9
    require(report.predicted_lower * (1 - slack) <= report.lower, "transfer lower below prediction")
    require(report.upper <= report.predicted_upper * (1 + slack), "transfer upper above prediction")
    require(report.lower <= report.upper, "transfer bounds out of order")


# -- kernels, splits, refinement -----------------------------------------------


def projection_kernel(entries: np.ndarray, weights: np.ndarray, rank: int) -> None:
    """Hermitian, idempotent in the weighted pairing, trace equal to the rank."""
    scale = float(np.max(np.abs(entries)))
    asym = float(np.max(np.abs(entries - entries.conj().T)))
    require(asym <= 1e-10 * scale, f"kernel asymmetry {asym:.3e}")
    square = entries @ (weights[:, None] * entries)
    gap = float(np.max(np.abs(square - entries)))
    require(gap <= 1e-8 * scale, f"kernel idempotence gap {gap:.3e}")
    close(float(np.real(np.sum(weights * np.diag(entries)))), float(rank), "kernel trace", rtol=1e-8)


def kernel_json_report(report: dict, rank: int) -> None:
    weights = np.array([node["weight"] for node in report["space"]["nodes"]], dtype=float)
    n = weights.size
    entries = complex_entries(report["entries"]).reshape(n, n)
    require(report["geometry"] == "plain", "frame kernel must use the plain geometry")
    projection_kernel(entries, weights, rank)


def kernel_csv_report(rows: list[list[str]], weights: np.ndarray, rank: int) -> None:
    n = weights.size
    require(rows[0] == ["x", "y", "re", "im"], "kernel CSV header differs")
    require(len(rows) == n * n + 1, f"kernel CSV has {len(rows) - 1} rows, expected {n * n}")
    values = np.array([(float(r[2]), float(r[3])) for r in rows[1:]])
    projection_kernel((values[:, 0] + 1j * values[:, 1]).reshape(n, n), weights, rank)


def kernel_table(table, rng: np.random.Generator, *, idempotent: bool, hermitian: bool,
                 rank: int | None = None) -> None:
    """Check a kernel through its public interface: apply, diagonal, section.

    ``rank`` checks the weighted trace, which equals the rank of any idempotent
    kernel operator, orthogonal or oblique.
    """
    n = table.size
    diagonal = np.asarray(table.diagonal)
    require(diagonal.shape == (n,) and np.all(np.isfinite(diagonal)), "bad kernel diagonal")
    section = table.section(n // 2)
    require(section.shape == (n,) and np.all(np.isfinite(section)), "bad kernel section")
    if idempotent:
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        once = table.apply(f)
        gap = float(np.max(np.abs(table.apply(once) - once)))
        require(gap <= 1e-8 * max(float(np.max(np.abs(once))), 1.0),
                f"kernel operator not idempotent: gap {gap:.3e}")
    if hermitian:
        require(table.is_hermitian(), "kernel table must be Hermitian")
        require(np.all(diagonal > 0), "reproducing kernel diagonal must be positive")
    if rank is not None:
        trace = float(np.sum(table.space.weights * diagonal))
        close(trace, float(rank), "kernel weighted trace", rtol=1e-8)


def split_energy(
    discrete: np.ndarray,
    cont_weights: np.ndarray,
    continuous: np.ndarray,
    weights: np.ndarray,
    members: np.ndarray,
) -> None:
    """The weighted energy splits into discrete pairings plus the continuous rest."""
    total = frame_operator(weights, members)
    parts = frame_operator(np.ones(len(discrete)), discrete) if len(discrete) else 0.0
    parts = parts + (frame_operator(cont_weights, continuous) if continuous.size else 0.0)
    scale = float(np.max(np.abs(total)))
    gap = float(np.max(np.abs(total - parts)))
    require(gap <= 1e-10 * scale, f"split energy identity gap {gap:.3e}")


def split_report(report: dict, weights: np.ndarray, members: np.ndarray, discrete_count: int):
    d = members.shape[1]
    discrete = np.array(
        [[complex(re, im) for re, im in vector] for vector in report["discrete"]],
        dtype=np.complex128,
    ).reshape(len(report["discrete"]), d)
    require(len(discrete) == discrete_count, f"split found {len(discrete)} discrete vectors")
    cont_weights, continuous = decode_family(report["continuous"])
    require(
        len(discrete) + cont_weights.size <= weights.size, "split produced more rows than nodes"
    )
    split_energy(discrete, cont_weights, continuous, weights, members)


def blowup_report(report: dict, sizes: list[int]) -> None:
    """Step-basis kernels put the cell count on the diagonal."""
    points = report["points"]
    require([p["cells"] for p in points] == sizes, "blowup sizes differ")
    for p in points:
        close(p["max_diagonal"], float(p["cells"]), f"blowup diagonal at {p['cells']}")


def profile_csv(rows: list[list[str]], weights: np.ndarray, members: np.ndarray) -> None:
    require(rows[0] == ["point", "weight", "squared_norm"], "profile CSV header differs")
    require(len(rows) == weights.size + 1, "profile CSV row count differs")
    got_w = np.array([float(r[1]) for r in rows[1:]])
    got_sq = np.array([float(r[2]) for r in rows[1:]])
    require(np.array_equal(got_w, weights), "profile weights differ")
    require(np.allclose(got_sq, np.sum(np.abs(members) ** 2, axis=1), rtol=1e-12, atol=0.0),
            "profile squared norms differ")
