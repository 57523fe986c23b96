"""Every name a weakgal module lists in ``__all__`` resolves, so a deletion
that leaves its entry behind fails here, not at ``from weakgal.<m> import *``;
and no module reads another module's private names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import weakgal

# the library modules; ``__main__`` is the command line's entry point, with no API
MODULES = sorted(m.name for m in pkgutil.iter_modules(weakgal.__path__) if m.name != "__main__")


def test_every_module_is_listed():
    assert {"cli", "expr", "loss", "network", "oracle", "pde", "theory", "train"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"weakgal.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"weakgal.{name}.__all__ names what the module lacks: {missing}"


def _private_reads(path: Path) -> list[str]:
    """``module._name`` reads of another weakgal module in the file at ``path``:
    attributes of a name bound by ``from . import module [as alias]``, and
    ``from .module import _name``.  Dunder names are not private."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> weakgal module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if _private(node.attr) and modules[node.value.id] != path.stem:
                found.append(f"{modules[node.value.id]}.{node.attr} (line {node.lineno})")
    return found


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reads_another_modules_private_names(name):
    """A module uses another's public names only, so each private name has
    one owner that may change it freely.  Tests may still read private names."""
    found = _private_reads(Path(weakgal.__file__).parent / f"{name}.py")
    assert not found, f"weakgal.{name} reads private names: {found}"


def test_private_read_scan_sees_both_forms(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("from . import theory as lab, pde\nfrom .network import _forward\nx = lab._BIG + pde._y + pde.ok\n")
    assert _private_reads(path) == ["network._forward", "theory._BIG (line 3)", "pde._y (line 3)"]


def test_exit_codes_come_from_two_exception_families():
    """``cli.run`` exits 2 on a ``ConfigError`` and 3 on any ``ArithmeticError``,
    so every numerical failure class must be one, and a config error none."""
    from weakgal import cli, expr, loss, oracle, theory, train

    failures = (expr.EvalError, loss.NonFiniteLossError, oracle.SolveError, theory.BoundNotApplicableError,
                train.TrainingAborted)
    assert all(issubclass(cls, ArithmeticError) for cls in failures)
    assert not issubclass(cli.ConfigError, (ValueError, ArithmeticError))


# each module's layer: a module imports only modules of lower layers, so
# ``expr`` and ``network`` stay leaves that no bound or training code enters
LAYERS = {"expr": 0, "network": 0, "pde": 1, "loss": 2, "oracle": 2, "theory": 3, "train": 3, "cli": 4}


def _package_imports(path: Path) -> set[str]:
    """The weakgal modules the file at ``path`` imports, relatively or by the
    package's name, anywhere in the file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("weakgal."))
        elif isinstance(node, ast.ImportFrom):
            module = f"weakgal.{node.module}" if node.level == 1 and node.module else node.module
            if node.level == 1 and node.module is None or module == "weakgal":
                found.update(alias.name for alias in node.names)
            elif module and module.startswith("weakgal."):
                found.add(module.split(".")[1])
    return found & set(LAYERS)


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYERS)


@pytest.mark.parametrize("name", MODULES)
def test_imports_go_down_the_layers(name):
    found = {m for m in _package_imports(Path(weakgal.__file__).parent / f"{name}.py") if LAYERS[m] >= LAYERS[name]}
    assert not found, f"weakgal.{name} (layer {LAYERS[name]}) imports modules of its layer or above: {sorted(found)}"


def test_package_import_scan_sees_every_form(tmp_path):
    path = tmp_path / "network.py"
    path.write_text(
        "from . import __version__, expr as e\nfrom .pde import Domain\nimport weakgal.loss\n"
        "from weakgal import oracle\nfrom weakgal.theory import network_bounds\n"
        "def f():\n    from .train import TrainConfig\n"
    )
    assert _package_imports(path) == {"expr", "pde", "loss", "oracle", "theory", "train"}
