"""Every name a library module imports is used there or re-exported in __all__,
and every name in __all__ is defined in its module.  The package's lazy
namespace gives each exported name its submodule's object."""

import ast
import importlib
from pathlib import Path

import pytest

import skelcube as sk

from helpers import run_in_fresh_interpreters

SRC = Path(__file__).resolve().parent.parent / "src" / "skelcube"


def unused_imports(tree: ast.Module) -> list[str]:
    imported: set[str] = set()
    used: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def undefined_exports(tree: ast.Module) -> list[str]:
    defined: set[str] = set()
    exported: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return sorted(set(exported) - defined)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_all_names_are_defined(path):
    if path.name == "__init__.py":
        # the package's __all__ is its lazy table, each name exported by its submodule
        assert sk.__all__ == list(sk._EXPORTS)
        for name, module in sk._EXPORTS.items():
            assert name in importlib.import_module(f"skelcube.{module}").__all__, name
        return
    assert undefined_exports(ast.parse(path.read_text(), filename=str(path))) == []


def test_every_exported_name_is_its_submodules_object():
    assert len(sk._EXPORTS) == 54  # the whole public API: no name dropped from the table
    for name, module in sk._EXPORTS.items():
        assert getattr(sk, name) is getattr(importlib.import_module(f"skelcube.{module}"), name), name
        assert name in dir(sk)
    for module in ("complex", "homology", "words"):
        assert getattr(sk, module) is importlib.import_module(f"skelcube.{module}")
    with pytest.raises(AttributeError, match="no_such_name"):
        sk.no_such_name
    assert not hasattr(sk, "no_such_name")


def test_names_no_command_reaches_are_gone():
    # the open star, direct orientability and the subcomplex test are read
    # through tests/helpers.py and is_homology_manifold; local profiles are GF(2)
    for name in ("star", "is_orientable"):
        assert name not in sk._EXPORTS
        assert not hasattr(sk.complex, name) and not hasattr(importlib.import_module("skelcube.manifold"), name)
    assert not hasattr(sk.CubicalComplex, "is_subcomplex_of")
    with pytest.raises(TypeError):
        sk.local_profile(sk.cube_boundary(2), "00", sk.GF2)
    # deletion finds the open star through its matrices' view: the vertex
    # index, its carry and the table's switch to words went with it
    assert not hasattr(sk.CubicalComplex, "faces_by_vertex") and not hasattr(sk.complex, "_vertex_index_plus")
    with pytest.raises(TypeError):
        sk.words.vertex_table(["0*"], masks=True)
    # a map is read by `homology._read` alone, its kernel table only behind
    # it, and the cleared pass keeps its pivot rows as selectors
    assert not {"gf2_rank", "gf2_reduced_kernel"} & vars(sk.BoundaryMatrices).keys()
    assert not hasattr(sk.homology, "_mask") and not hasattr(sk.homology, "_DIGITS")
    # a deletion's faces are its view's levels: the pick of the faces it leaves out went
    homology = importlib.import_module("skelcube.homology")
    assert not hasattr(homology._Without, "left_out")
    # one reader of a map: the shared pass keeps one cache over both rings,
    # and a view answers counts and reads through its masks alone
    mats = sk.cube_boundary(3).chains
    for ring in (sk.GF2, sk.INTEGER):
        homology._profile(mats, 3, ring)
    assert not any(hasattr(mats, name) for name in ("_ranks", "_integer", "_pivots"))
    assert not {"num_faces", "gf2_rank"} & homology._Without.__dict__.keys()


def test_reconstruct_is_the_function_whatever_loads_its_module_first(tmp_path):
    skel = tmp_path / "skel.cplx"
    skel.write_text(sk.serialize_complex(sk.skeleton(sk.cube_boundary(4), 2)))
    first_loads = (
        "import skelcube.reconstruct",
        f"import skelcube.cli; assert skelcube.cli.main(['reconstruct', {str(skel)!r}, '-k', '2', '-d', '3', '-o', {str(tmp_path / 'out')!r}]) == 0",
        "import skelcube; skelcube.reconstruct_steps",
    )
    check = "import sys, skelcube; print(skelcube.reconstruct is sys.modules['skelcube.reconstruct'].reconstruct)"
    printed = run_in_fresh_interpreters([f"{load}; {check}" for load in first_loads])
    assert [lines[-1] for lines in printed] == ["True"] * len(first_loads)


def test_star_import_binds_exactly_the_exported_names():
    # the submodule `complex` must not hide the builtin of that name
    check = (
        "import builtins, sys; before = set(dir()); from skelcube import *; "
        "bound = set(dir()) - before - {'before'}; "
        "print(bound == sys.modules['skelcube']._EXPORTS.keys(), complex is builtins.complex)"
    )
    assert run_in_fresh_interpreters([check]) == [["True True"]]
