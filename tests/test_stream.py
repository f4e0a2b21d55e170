"""The streamed route of torus and affine families against their member tables.

A torus or affine family is a :class:`~framelab.gallery.RootSource`, whose
weighted row blocks are made from the formula and dropped one at a time;
``bounds``, ``redundancy`` and ``experiment trend|redundancy`` read it
through them, and the other commands through its table.  Every report must
be the one the member table gives as a plain family, byte for byte.
"""

import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab import cli, codec, frames, gallery, numerics
from framelab.gallery import GalleryKind, GallerySpec

from conftest import svd_count, traced_peak

MIB = 2**20


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _cli_report(argv: list[str]) -> bytes:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "report.json"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
        return out.read_bytes()


# a torus and an affine family of more nodes than dimensions
_ROOT_SPECS = pytest.mark.parametrize(
    "spec",
    [
        GallerySpec(kind=GalleryKind.TORUS, dim=16, grid=4096),
        GallerySpec(kind=GalleryKind.AFFINE, dim=8, grid=4096, power=2),
    ],
    ids=["torus", "affine"],
)


def _refused(self):
    raise AssertionError("member table built")


def _table(family: frames.VectorFamily) -> frames.VectorFamily:
    """The family as a plain member table, whose blocks are slices of it."""
    return frames.VectorFamily(space=family.space, members=family.members)


def _flags(spec: GallerySpec) -> list[str]:
    flags = ["--gallery", spec.kind.value]
    for name in ("dim", "grid", "power"):
        if getattr(spec, name) is not None:
            flags += [f"--{name}", str(getattr(spec, name))]
    return flags


def _table_reports(spec: GallerySpec, sizes: list[int]) -> dict[str, bytes]:
    """Each command's report as the member table gives it."""
    family = _table(gallery.build(spec))
    excess = frames.redundancy(family)
    builder = gallery.truncation_sequence(GallerySpec(kind=spec.kind, power=spec.power), sizes)
    trend = frames.semiframe_trend(lambda size: _table(builder(size)), sizes)
    rows = []
    for size in sizes:
        sized = _table(builder(size))
        rows.append((size, sized.size, sized.dim, frames.redundancy(sized)))
    return {
        "bounds": codec.json_bytes(frames.frame_bounds(family).to_json()),
        "redundancy": codec.json_bytes(
            {"rows": family.size, "dim": family.dim, "redundancy": excess, "index": -excess}
        ),
        "trend": codec.table_bytes(
            "json", "trend", ("size", "lower", "upper"), trend,
            classification=frames.classify_trend(trend).value,
        ),
        "probe": codec.table_bytes(
            "json", "redundancy", ("size", "rows", "dim", "redundancy"), rows
        ),
    }


def _streamed_reports(spec: GallerySpec, sizes: list[int]) -> dict[str, bytes]:
    """Each command's report from the command line, which streams the family."""
    truncation = ["--gallery", spec.kind.value, "--sizes", ",".join(map(str, sizes))]
    if spec.power is not None:
        truncation += ["--power", str(spec.power)]
    return {
        "bounds": _cli_report(["bounds", *_flags(spec)]),
        "redundancy": _cli_report(["redundancy", *_flags(spec)]),
        "trend": _cli_report(["experiment", "trend", *truncation]),
        "probe": _cli_report(["experiment", "redundancy", *truncation]),
    }


@st.composite
def root_specs(draw) -> GallerySpec:
    """A torus or affine spec, often square: an odd torus ``dim`` on ``grid = dim``."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 24))
        coarsest = 2 * (dim // 2) + 1
        grid = draw(st.sampled_from([coarsest, coarsest + 1, 4 * dim + 3, 40 * dim]))
        return GallerySpec(kind=GalleryKind.TORUS, dim=dim, grid=grid)
    cells = draw(st.integers(1, 24))
    grid = draw(st.sampled_from([cells, cells + 1, 3 * cells, 40 * cells]))
    power = draw(st.sampled_from([None, 1, 3]))
    return GallerySpec(kind=GalleryKind.AFFINE, dim=cells, grid=grid, power=power)


@pytest.mark.parametrize("rank_tol", [None, "0.5"], ids=["default-tol", "tol-0.5"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    spec=root_specs(),
    sizes=st.lists(st.integers(1, 12), min_size=2, max_size=3, unique=True).map(sorted),
    block=st.sampled_from([16, 64, 256, numerics.BLOCK_ENTRIES]),
)
@example(spec=GallerySpec(kind=GalleryKind.TORUS, dim=7, grid=7), sizes=[3, 5], block=16)
@example(spec=GallerySpec(kind=GalleryKind.AFFINE, dim=9, grid=9), sizes=[2, 9], block=16)
@example(spec=GallerySpec(kind=GalleryKind.TORUS, dim=5, grid=900), sizes=[1, 2], block=64)
def test_streamed_reports_are_the_table_reports(rank_tol, spec, sizes, block):
    # small blocks cut a family into many Gram blocks and many phase blocks;
    # at a rank tolerance of 0.5 no torus certificate decides, so the
    # redundancy counts fold the streamed blocks
    environ = {} if rank_tol is None else {numerics.RANK_TOL_ENV: rank_tol}
    with mock.patch.dict(os.environ, environ), \
            mock.patch.object(numerics, "BLOCK_ENTRIES", block):
        family = gallery.build(spec)
        table = _table(family)
        for made, cut in zip(family.weighted_blocks(), table.weighted_blocks(), strict=True):
            assert _bits(made) == _bits(cut)
        assert _bits(frames.frame_operator(family)) == _bits(frames.frame_operator(table))
        assert _streamed_reports(spec, sizes) == _table_reports(spec, sizes)


@_ROOT_SPECS
def test_only_a_read_of_members_builds_the_table(spec, monkeypatch):
    # the dataclass repr of a family reads its fields: a generated family's
    # leaves out the table, which at 64 x 2**18 would take 256 MiB
    family = gallery.build(spec)
    with monkeypatch.context() as patch:
        patch.setattr(gallery.RootSource, "members", property(_refused))
        assert (family.size, family.dim) == (spec.grid, spec.dim)
        assert family.space.size == spec.grid
        assert sum(len(block) for block in family.weighted_blocks()) == spec.grid
        assert "members" not in repr(family)
    members = family.members
    assert family.members is members and not members.flags.writeable
    assert members.shape == (spec.grid, spec.dim)


@_ROOT_SPECS
def test_a_certified_family_is_never_built(spec, monkeypatch):
    # with more nodes than dimensions and a certificate that decides, the
    # verdicts read the operator alone
    monkeypatch.setattr(gallery.RootSource, "members", property(_refused))
    family = gallery.build(spec)
    assert frames.frame_bounds(family).redundancy == spec.grid - spec.dim
    assert frames.redundancy(family) == spec.grid - spec.dim
    builder = gallery.truncation_sequence(GallerySpec(kind=spec.kind), [64, 128])
    assert len(frames.semiframe_trend(builder, [64, 128])) == 2
    _cli_report(["experiment", "trend", "--gallery", spec.kind.value, "--sizes", "16,32"])
    _cli_report(["bounds", *_flags(spec)])


@_ROOT_SPECS
@pytest.mark.parametrize("rank_tol", ["0.5", "1e-4"])
def test_an_uncertified_count_builds_no_family(spec, rank_tol, monkeypatch):
    # at these rank tolerances no certificate decides the family's rank (0 at
    # 0.5, 2 at 1e-4), so its counts fold the streamed blocks; each count is
    # the SVD count of the member table
    monkeypatch.setenv(numerics.RANK_TOL_ENV, rank_tol)
    sizes = [8, 24]
    builder = gallery.truncation_sequence(GallerySpec(kind=spec.kind), sizes)

    def table_count(family: frames.VectorFamily) -> int:
        table = np.sqrt(family.space.weights)[:, None] * family.members
        return family.size - svd_count(table, float(rank_tol))

    expected = table_count(gallery.build(spec))
    assert expected > spec.grid - spec.dim
    expected_rows = []
    for size in sizes:
        sized = builder(size)
        expected_rows.append(
            {"size": size, "rows": sized.size, "dim": sized.dim, "redundancy": table_count(sized)}
        )
    monkeypatch.setattr(gallery.RootSource, "members", property(_refused))
    assert frames.redundancy(gallery.build(spec)) == expected
    report = json.loads(_cli_report(["redundancy", *_flags(spec)]))
    assert report["redundancy"] == expected
    probe = ["experiment", "redundancy", "--gallery", spec.kind.value, "--sizes", "8,24"]
    assert json.loads(_cli_report(probe))["redundancy"] == expected_rows


@pytest.mark.parametrize(
    "argv, bound",
    [
        # the table alone would be 256 MiB; the 2 * grid roots take 8 MiB
        (["--gallery", "torus", "--dim", "64", "--grid", str(2**18)], 16 * MIB),
        # one 1 MiB block and its 2 MiB real product; the table is built for
        # the zero-redundancy row check only once the operator is released
        (["--gallery", "affine", "--dim", "256", "--grid", "256"], 3.5 * MIB),
    ],
    ids=["torus-64x2^18", "affine-256"],
)
def test_streamed_bounds_peak_below_the_table_route(argv, bound):
    report, peak = traced_peak(lambda: _cli_report(["bounds", *argv]))
    assert b'"classification"' in report
    assert peak <= bound


def _cli_outcome(argv: list[str], workdir: Path) -> tuple[int, bytes | None]:
    """The exit code and the report, if one was written."""
    out = workdir / "report"
    out.unlink(missing_ok=True)
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize(
    "spec",
    [
        GallerySpec(kind=GalleryKind.TORUS, dim=4, grid=16),
        GallerySpec(kind=GalleryKind.TORUS, dim=5, grid=24),
        GallerySpec(kind=GalleryKind.AFFINE, dim=8),
        GallerySpec(kind=GalleryKind.AFFINE, dim=6, grid=8, power=2),
    ],
    ids=["torus-4x16", "torus-5x24", "affine-8", "affine-6-8-power-2"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["inspect"], ["inspect", "--format", "csv"], ["dual"], ["kernel"],
        ["kernel", "--format", "csv"], ["split"], ["partner"],
    ],
    ids=["inspect", "inspect-csv", "dual", "kernel", "kernel-csv", "split", "partner"],
)
def test_whole_table_commands_take_a_generated_family_unchanged(spec, command, tmp_path):
    # these commands read the members of a generated family; each report must
    # be the one a file of its plain member table gives
    path = tmp_path / "family.json"
    path.write_bytes(codec.json_bytes(_table(gallery.build(spec)).to_json()))
    generated = _cli_outcome([*command, *_flags(spec)], tmp_path)
    from_file = _cli_outcome([*command, "--in", str(path)], tmp_path)
    assert generated == from_file
