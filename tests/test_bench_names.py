"""The benchmark under bench/ looks weakgal names up at run time.

``bench/tracing.py`` wraps every ``TARGETS`` entry on every benchmark run, and
``bench/checks.py`` calls the package directly; a deleted or renamed name makes
every benchmark run fail.  The Tier-1 suite does not collect ``bench/``, so
these tests pin the names here.  The bench files are read, never edited.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from weakgal import loss

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checks_names() -> set[tuple[str, str]]:
    """(module, name) pairs that bench/checks.py reads off ``weakgal.<module>``.

    Recognised forms: ``weakgal.m.name``, ``self.wg.m.name``, and ``alias.name``
    after ``alias = weakgal.m`` (also in tuple assignments).
    """
    tree = ast.parse((BENCH / "checks.py").read_text(encoding="utf-8"))

    def package_module(node):
        # "m" for weakgal.m or self.wg.m, else None
        if not isinstance(node, ast.Attribute):
            return None
        base = node.value
        if isinstance(base, ast.Name) and base.id == "weakgal":
            return node.attr
        if isinstance(base, ast.Attribute) and base.attr == "wg":
            return node.attr
        return None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (
                    zip(target.elts, node.value.elts)
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    else [(target, node.value)]
                )
                for name, value in pairs:
                    if isinstance(name, ast.Name) and package_module(value):
                        aliases[name.id] = package_module(value)
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        module = package_module(node.value)
        if module is None and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
        if module is not None:
            found.add((module, node.attr))
    return found


@pytest.mark.parametrize("span, module, attr", _load_tracing().TARGETS)
def test_every_traced_target_resolves(span, module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # tracing reads the class __dict__, so an inherited method would not do
        assert meth in vars(getattr(owner, cls_name)), f"{span}: {module}.{attr}"
    else:
        assert callable(getattr(owner, attr, None)), f"{span}: {module}.{attr}"


def test_names_checks_reads_resolve():
    names = _checks_names()
    # the scan must see the calls it exists for
    assert {("cli", "run"), ("network", "params_to_flat"), ("loss", "loss_gradients")} <= names
    for module, attr in sorted(names):
        assert hasattr(importlib.import_module(f"weakgal.{module}"), attr), f"weakgal.{module}.{attr}"


def test_results_checks_reads_keep_their_shape():
    # checks.py reads .h1 of an H1 estimate and .total of a loss value, and
    # passes loss_gradients and empirical_loss their arguments by position
    assert "h1" in loss.H1Estimate.__dataclass_fields__
    assert "total" in loss.LossValue.__dataclass_fields__
    for fn in (loss.loss_gradients, loss.empirical_loss):
        params = list(inspect.signature(fn).parameters)
        assert params[:5] == ["u", "v", "problem", "batch", "boundary_alpha_half"], fn.__name__
