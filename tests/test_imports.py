import ast
import json
import types
from pathlib import Path

import pytest

import moranspec

PACKAGE = Path(__file__).parent.parent / "src" / "moranspec"
SOURCES = sorted(p for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that no other node of the module reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from itertools import accumulate, count\nimport os.path\ncount(1)\n")
    assert unused_imports(tree) == ["line 1: accumulate", "line 2: os"]


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level modules that a module's ``import`` and absolute ``from`` statements name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses_or_typing(path):
    # every command would pay their import at start-up: dataclasses loads inspect and ast,
    # and collections.abc holds the abstract types the annotations name
    assert imported_modules(ast.parse(path.read_text())) & {"dataclasses", "typing"} == set()


def test_imported_modules_are_found():
    tree = ast.parse("import os.path, re\nfrom typing import Any\nfrom . import core\n")
    assert imported_modules(tree) == {"os", "re", "typing"}


#: moranspec's public names, sorted: an API addition or removal shows in this list's diff
PUBLIC_NAMES = [
    "Certificate", "Histogram", "IntervalUnion", "Level", "LevelClass", "MoranError",
    "MoranStructureError", "MoranSyntaxError", "MoranSystem", "OrthogonalityReport",
    "SpectrumLevel", "Verdict", "ZeroWitness", "certify", "check_orthogonal", "classify_level",
    "construct_L", "density_histogram", "density_verdict", "digit_star", "epsilon_next_level",
    "f_eval", "f_min_points", "fourier_tail", "is_hadamard", "lambda_norm_check",
    "level_spectrum", "make_system", "mask_eval", "normalize_level", "parse_system",
    "q_sum_finite", "support_cover", "tail_constant", "tiling_defects", "uniformity_check",
    "zero_set_contains",
]


def test_public_names_pinned():
    # submodules are left out: which of them are attributes depends on what was imported
    names = sorted(name for name, value in vars(moranspec).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def check_kinds(tree: ast.Module) -> set[str]:
    """The literals that ``run_check`` compares ``kind`` with: the corpus check kinds."""
    run_check = next(node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name == "run_check")
    return {node.comparators[0].value for node in ast.walk(run_check)
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
            and node.left.id == "kind" and isinstance(node.comparators[0], ast.Constant)}


def test_every_corpus_check_kind_is_used():
    # a kind that no sidecar names is dead code; a named kind without a branch fails at run time
    used = {check["check"] for path in (PACKAGE / "data").glob("*.expect.json")
            for check in json.loads(path.read_text())["checks"]}
    assert check_kinds(ast.parse((PACKAGE / "corpus.py").read_text())) == used
