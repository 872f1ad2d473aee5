"""Rules on the source of src/dcqe, read with the stdlib ``ast`` module.

No module may import another dcqe module's private (underscored) name, and
a module other than ``__init__.py`` may not import a name it never loads,
nor define a top-level private function or class that nothing in src/ or
tests/ refers to. Each module that has a public API names it once, in its
own ``__all__``, and the package republishes exactly those names. Paths are
resolved from the repository root, so the rules hold from any directory.
"""

import ast
import collections
import importlib
from pathlib import Path

import pytest

import dcqe

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dcqe"

#: The modules whose ``__all__`` the package republishes.
EXPORTING = ("architectures", "audit", "errors", "events", "feasibility", "joint")

TREES = {
    path: ast.parse(path.read_text(encoding="utf-8"), str(path))
    for root in ("src", "tests")
    for path in sorted((ROOT / root).rglob("*.py"))
}


def references(tree):
    """Names a module loads, attributes it reads, names it imports and
    strings it holds (monkeypatch.setattr names a private by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_imports_are_used_and_public_and_private_definitions_referenced():
    referenced = collections.Counter(
        name for tree in TREES.values() for name in references(tree)
    )
    faults = []
    for path, tree in TREES.items():
        if path.parent != PACKAGE:
            continue
        where = path.relative_to(ROOT)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("dcqe")
            ):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        faults.append(f"{where}:{node.lineno}: imports {alias.name}, private to another module")
        if path.name == "__init__.py":
            continue
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in loaded:
                        faults.append(f"{where}:{node.lineno}: imports {bound} and never uses it")
        for node in tree.body:
            private = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            if private and not referenced[node.name]:
                faults.append(f"{where}:{node.lineno}: defines {node.name}, used nowhere in src/ or tests/")
    assert not faults, "\n".join(faults)


def top_level_names(tree) -> set[str]:
    """Names a module binds at its top level by ``def``, ``class`` or
    assignment; imported names are not among them."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def exports(name: str) -> list[str]:
    return importlib.import_module(f"dcqe.{name}").__all__


def test_only_the_exporting_modules_declare_all():
    declaring = {
        path.stem
        for path, tree in TREES.items()
        if path.parent == PACKAGE and "__all__" in top_level_names(tree)
    }
    assert declaring == {*EXPORTING, "__init__"}


@pytest.mark.parametrize("name", EXPORTING)
def test_exports_are_public_top_level_definitions(name):
    defined = top_level_names(TREES[PACKAGE / f"{name}.py"])
    for export in exports(name):
        assert not export.startswith("_") and export in defined, export


def test_no_name_is_exported_by_two_modules():
    owners = collections.Counter(export for name in EXPORTING for export in exports(name))
    assert [export for export, count in owners.items() if count > 1] == []


def test_package_all_is_the_sorted_union_of_the_module_lists():
    assert dcqe.__all__ == sorted(set(dcqe.__all__))
    assert set(dcqe.__all__) == {export for name in EXPORTING for export in exports(name)}


def test_package_names_are_the_defining_modules_objects():
    for name in EXPORTING:
        module = importlib.import_module(f"dcqe.{name}")
        for export in module.__all__:
            assert getattr(dcqe, export) is getattr(module, export), export


def test_package_imports_names_only_by_wildcard():
    for node in TREES[PACKAGE / "__init__.py"].body:
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            assert [alias.name for alias in node.names] == ["*"], node.module
