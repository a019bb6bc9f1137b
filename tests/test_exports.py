"""The package's names: the top-level names ``fairdim`` re-exports, that
every name a module lists in ``__all__`` serves another module, and the
version that ``pyproject.toml`` reads from the package."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_version_is_read_from_the_package():
    # pyproject.toml states no version of its own: setuptools reads the
    # package attribute it names, so the version is written in one place
    import tomllib

    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    module, _, name = config["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    version = getattr(importlib.import_module(module), name)
    assert isinstance(version, str) and version
