"""The package's names: the top-level names ``fairdim`` re-exports, and
that every name a module lists in ``__all__`` serves another module."""

import ast
import importlib
from pathlib import Path

import fairdim

PACKAGE = Path(fairdim.__file__).resolve().parent

# each top-level name and the module that defines it (README's Library section)
TOP_LEVEL = {
    "DataError": "dataset",
    "RawTable": "dataset",
    "balance": "dataset",
    "load_grouped": "dataset",
    "load_table": "dataset",
    "LinalgError": "linalg",
    "FairFitResult": "fairpca",
    "GroupMetrics": "fairpca",
    "Moments": "fairpca",
    "Prepared": "fairpca",
    "Search": "fairpca",
    "moment_metrics": "fairpca",
    "prepare": "fairpca",
    "search": "fairpca",
    "weighted_covariance": "fairpca",
}


def test_top_level_names_are_their_modules_objects():
    for name, module in TOP_LEVEL.items():
        defined = getattr(importlib.import_module(f"fairdim.{module}"), name)
        assert getattr(fairdim, name, None) is defined, name


def test_every_export_is_imported_by_another_module():
    # a name in a module's __all__ that no other module of the package
    # imports by name is an export used only by tests, which earns nothing
    exported, imported = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= {(path.stem, name) for name in ast.literal_eval(node.value)}
        for node in ast.walk(tree):
            # the package imports its own modules relatively: from .x import y
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != path.stem:
                imported |= {(node.module, alias.name) for alias in node.names}
    assert {"dataset", "fairpca", "linalg", "report"} <= {module for module, _ in exported}
    assert sorted(exported - imported) == []
