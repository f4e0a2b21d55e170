"""Checks on the source of ``src/framelab`` itself, read through ``ast``."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "framelab"


def _module_constants(tree: ast.Module) -> list[str]:
    """Names bound by the module-level assignments of ``tree`` that are spelled UPPER_CASE."""
    names = []
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Store)
                    and node.id.lstrip("_").isupper()
                ):
                    names.append(node.id)
    return names


def test_every_module_constant_is_read_by_code():
    # a rule deleted from the code must not leave its constant behind; a
    # docstring mention is not a read, only a loaded name or an attribute is
    defined = []
    read = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined += [f"{path.stem}.{name}" for name in _module_constants(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined, "no module constants found"
    assert [name for name in defined if name.split(".")[1] not in read] == []


def _weights_by_hand(node: ast.AST) -> bool:
    """Whether ``node`` is ``np.linalg.svd``, ``.qr`` or ``.pinv`` called, or a weight column.

    A QR of weighted row blocks is the fold of
    :func:`~framelab.numerics.block_rank`, so it has one home, as the
    weighted SVD has.  A weight column is ``[:, None]`` applied to any
    expression that reads a ``w`` or ``weights`` name or a ``.weights``
    attribute, such as ``w[group][:, None]`` or
    ``np.sqrt(space.weights)[:, None]``.
    """
    if isinstance(node, ast.Call):
        return ast.unparse(node.func) in ("np.linalg.svd", "np.linalg.qr", "np.linalg.pinv")
    if not (isinstance(node, ast.Subscript) and ast.unparse(node).endswith("[:, None]")):
        return False
    return any(
        (isinstance(inner, ast.Name) and inner.id in ("w", "weights"))
        or (isinstance(inner, ast.Attribute) and inner.attr == "weights")
        for inner in ast.walk(node.value)
    )


def test_node_weights_meet_tables_only_in_numerics():
    # every X^H W Y is numerics.weighted_gram, every weighted SVD is
    # numerics.weighted_svd and every rank fold numerics.block_rank, so no
    # other module weights or factors a table by hand
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "numerics.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _weights_by_hand(node)
        ]
    assert found == []


def test_only_rkhs_reads_kernel_factors():
    # KernelTable.row_blocks is the one place that forms dense kernel rows, so
    # no other module reads a table's .left or .right factor
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "rkhs.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("left", "right")
        ]
    assert found == []


def _conjugated(node: ast.AST) -> tuple[str, bool]:
    """``node`` with transposes and conjugations stripped, and whether it was conjugated.

    ``x.T``, ``x.conj()``, ``x.conjugate()``, ``np.conj(x)`` and
    ``np.conjugate(x)`` all strip to ``x``; an odd number of conjugations
    marks it conjugated.
    """
    conjugated = False
    while True:
        if isinstance(node, ast.Attribute) and node.attr in ("T", "mT"):
            node = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("conj", "conjugate")
        ):
            if ast.unparse(node.func.value) == "np":
                if len(node.args) != 1:
                    break
                node = node.args[0]
            else:
                node = node.func.value
            conjugated = not conjugated
        else:
            break
    return ast.unparse(node), conjugated


def _hermitian_by_hand(node: ast.AST) -> bool:
    """Whether ``node`` calls ``np.linalg.eigh``/``eigvalsh`` or multiplies a name by its conjugate."""
    if isinstance(node, ast.Call):
        return ast.unparse(node.func) in ("np.linalg.eigh", "np.linalg.eigvalsh")
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.MatMult, ast.Mult))):
        return False
    (left, left_conj), (right, right_conj) = _conjugated(node.left), _conjugated(node.right)
    return left == right and left_conj != right_conj


def test_hermitian_products_and_spectra_only_in_numerics():
    # every Hermitian Gram is numerics.gram and every spectrum goes through
    # numerics.hermitian_eig, so no other module forms x^H x or calls eigh
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "numerics.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _hermitian_by_hand(node)
        ]
    assert found == []


def test_hermitian_products_are_recognized():
    # the pattern catches the forms the modules used to write
    for source in (
        "g.T @ g.conj()", "t @ t.conj().T", "c @ np.conj(c).T", "m.conj().T @ m",
        "np.conj(x) * x", "np.linalg.eigh(s)", "np.linalg.eigvalsh(s)",
    ):
        assert any(_hermitian_by_hand(node) for node in ast.walk(ast.parse(source))), source
    for source in ("a @ b.conj().T", "g.T @ g", "x.conj() @ x.conj()", "np.linalg.svd(a)"):
        assert not any(_hermitian_by_hand(node) for node in ast.walk(ast.parse(source))), source


def _makes_node_rows(node: ast.AST) -> bool:
    """Whether ``node`` names or imports ``Node``, or calls ``DiscretizedSpace`` itself.

    The constructor's only argument is a sequence of node rows; columns go
    through ``DiscretizedSpace.from_columns``, ``from_json`` or ``restrict``.
    """
    if isinstance(node, ast.Name) and node.id == "Node":
        return True
    if isinstance(node, ast.Attribute) and node.attr == "Node":
        return True
    if isinstance(node, ast.alias) and node.name == "Node":
        return True
    if not isinstance(node, ast.Call):
        return False
    return ast.unparse(node.func).rsplit(".", 1)[-1] == "DiscretizedSpace"


def test_node_rows_are_made_only_in_measure():
    # spaces are columns: builders, decoders and split hand over arrays, so no
    # module but measure constructs a Node or passes nodes to DiscretizedSpace
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "measure.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _makes_node_rows(node)
        ]
    assert found == []


def test_node_rows_are_recognized():
    # the pattern catches the forms the modules used to write
    for source in (
        "DiscretizedSpace(nodes=zip(p, w, k))", "measure.DiscretizedSpace(nodes=rows)",
        "DiscretizedSpace(rows)", "Node(0.5, 1.0, kind)", "measure.Node(p, w, k)",
        "tuple(map(Node, p, w, k))", "from .measure import Node",
    ):
        assert any(_makes_node_rows(node) for node in ast.walk(ast.parse(source))), source
    for source in (
        "DiscretizedSpace.from_columns(w, a, c)", "DiscretizedSpace.from_json(data)",
        "space.restrict(keep)", "space.nodes", "Nodes(x)",
    ):
        assert not any(_makes_node_rows(node) for node in ast.walk(ast.parse(source))), source


def _decodes_json(node: ast.AST) -> bool:
    """Whether ``node`` reads ``json.load``, ``json.loads`` or a ``raw_decode``, or imports one."""
    if isinstance(node, ast.Attribute):
        return node.attr == "raw_decode" or ast.unparse(node) in ("json.load", "json.loads")
    if isinstance(node, ast.ImportFrom) and node.module in ("json", "json.decoder"):
        return any(alias.name in ("load", "loads", "JSONDecoder") for alias in node.names)
    return False


_FORMAT_MODULES = ("json", "csv", "codecs")


def _imports_a_format(node: ast.AST) -> bool:
    """Whether ``node`` imports the stdlib's ``json``, ``csv`` or ``codecs``, or a name from one."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in _FORMAT_MODULES for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return node.module.split(".")[0] in _FORMAT_MODULES
    return False


def test_formats_are_read_and_written_only_in_codec():
    # the family file is the one input and the reports the outputs, so codec
    # is the one home of their formats: of json.load, json.loads and the
    # scanner's raw_decode, and of any import of json, csv or codecs
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "codec.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _decodes_json(node) or _imports_a_format(node)
        ]
    assert found == []


def test_format_imports_are_recognized():
    # the pattern catches every import form of the three modules, and no relative import
    for source in (
        "import json", "import csv", "import codecs", "import json.decoder",
        "import csv as table", "import os, json", "from json import dumps",
        "from json.decoder import scanstring", "from csv import writer",
        "from codecs import getincrementaldecoder",
    ):
        assert any(_imports_a_format(node) for node in ast.walk(ast.parse(source))), source
    for source in (
        "import jsonschema", "import numpy as np", "from . import codec",
        "from .codec import json_bytes", "from .json import loads", "json.dumps(value)",
    ):
        assert not any(_imports_a_format(node) for node in ast.walk(ast.parse(source))), source


def _imports_codec(node: ast.AST) -> bool:
    """Whether ``node``, in a ``framelab`` module, imports ``framelab.codec`` or a name from it."""
    if isinstance(node, ast.Import):
        return any(alias.name == "framelab.codec" for alias in node.names)
    if not isinstance(node, ast.ImportFrom) or node.level > 1:
        return False
    module = ".".join(filter(None, ("framelab" if node.level else "", node.module)))
    names = {alias.name for alias in node.names}
    return module == "framelab.codec" or (module == "framelab" and "codec" in names)


def test_only_cli_imports_codec():
    # the library computes on arrays and never reads or writes a file: only
    # the command line hands files to codec
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name in ("cli.py", "codec.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _imports_codec(node)]
    assert found == []


def test_codec_imports_are_recognized():
    for source in (
        "from . import codec", "from . import frames, codec", "from .codec import read_family",
        "from framelab import codec", "from framelab.codec import json_bytes",
        "import framelab.codec",
    ):
        assert any(_imports_codec(node) for node in ast.walk(ast.parse(source))), source
    for source in (
        "from . import frames", "from .frames import VectorFamily", "import codecs",
        "from codecs import getincrementaldecoder", "from .. import codec", "codec.json_bytes(x)",
    ):
        assert not any(_imports_codec(node) for node in ast.walk(ast.parse(source))), source


def test_json_decoding_is_recognized():
    # the pattern catches the forms a decoder would write
    for source in (
        "json.load(handle)", "json.loads(text)", "json.JSONDecoder().raw_decode(text, 0)",
        "scan = decoder.raw_decode", "from json import loads", "from json import load as read",
        "from json.decoder import JSONDecoder",
    ):
        assert any(_decodes_json(node) for node in ast.walk(ast.parse(source))), source
    for source in ("json.dumps(value)", "json.dump(value, handle)", "from json import dumps"):
        assert not any(_decodes_json(node) for node in ast.walk(ast.parse(source))), source


def _foreign_families(trees: list[ast.Module]) -> list[str]:
    """Classes that define ``weighted_blocks`` but are not ``VectorFamily`` or derived from it.

    A base is known by the last part of its name (``frames.VectorFamily`` is
    ``VectorFamily``), and derivation is followed through every class of
    ``trees``.
    """
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    bases = {node.name: {ast.unparse(base).split(".")[-1] for base in node.bases} for node in classes}
    families = {"VectorFamily"}
    while grown := {name for name, names in bases.items() if names & families} - families:
        families |= grown
    return [
        node.name
        for node in classes
        if node.name not in families
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "weighted_blocks"
            for item in node.body
        )
    ]


def test_one_family_type():
    # a family made from a formula is a VectorFamily that supplies its own
    # rows, so every consumer takes it as it takes a table: no second family
    # type gives weighted row blocks
    trees = [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SOURCE.glob("*.py"))
    ]
    assert _foreign_families(trees) == []


def test_foreign_families_are_recognized():
    source = """
class VectorFamily:
    def weighted_blocks(self): ...
class RootSource(VectorFamily):
    def weighted_blocks(self): ...
class Deeper(gallery.RootSource):
    def weighted_blocks(self): ...
class FamilySource(Protocol):
    def weighted_blocks(self): ...
class Loose:
    def weighted_blocks(self): ...
class Helper:
    def blocks(self): ...
"""
    assert _foreign_families([ast.parse(source)]) == ["FamilySource", "Loose"]
