"""The benchmark under bench/ looks weakgal names up at run time.

``bench/tracing.py`` wraps every ``TARGETS`` entry on every benchmark run, and
``bench/checks.py`` calls the package directly; a deleted or renamed name makes
every benchmark run fail.  The Tier-1 suite also runs ``bench/test_smoke.py``,
which then fails with the whole smoke run's output; these tests pin the names
and say which one went.  The bench files are read, never edited.

Three names stay in ``weakgal.network`` only because the benchmark reads them.
No other test and no package module may name them, so they can go with the
benchmark's retarget; their own checks live here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import weakgal
from weakgal import loss, network as net

BENCH = Path(__file__).resolve().parents[1] / "bench"
TESTS = Path(__file__).resolve().parent
SRC = Path(weakgal.__file__).resolve().parent
# names kept in network.py only for the benchmark, in one block at its end
SHIMS = ("forward_dual", "backprop_params_batch", "params_to_flat")


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


def _shim_mentions(path: Path) -> list[str]:
    """Where the file at ``path`` names a shim or ``DualEval``: as a name, an
    attribute, an imported name or a string.  network.py's shim block, the
    definitions that end the module, is left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    if path == SRC / "network.py":
        block = tree.body[-len(SHIMS):]
        assert sorted(getattr(node, "name", None) for node in block) == sorted(SHIMS), "the shims must end network.py"
        inside = {id(node) for top in block for node in ast.walk(top)}
        nodes = [node for node in nodes if id(node) not in inside]
    found = []
    for node in nodes:
        for name in (getattr(node, attr, None) for attr in ("id", "attr", "name", "value")):
            if name in SHIMS + ("DualEval",):
                found.append(f"{name} (line {getattr(node, 'lineno', '?')})")
    return found


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(p for p in TESTS.glob("*.py") if p.name != Path(__file__).name),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_nothing_but_bench_names_the_shims(path):
    """The shims go when the benchmark stops naming them, so the package and
    the other tests use the real API: ``p.flat``, ``forward_dual_batch`` and
    ``backprop_tape(forward_tape(...))``."""
    found = _shim_mentions(path)
    assert not found, f"{path.name} names bench-only shims: {found}"


def test_shim_scan_sees_every_form(tmp_path):
    path = tmp_path / "some_test.py"
    path.write_text(
        "from weakgal.network import params_to_flat\n"
        "x = net.forward_dual(p, [0.5])\n"
        "getattr(net, 'backprop_params_batch')\n"
        "def f(e: DualEval): pass\n"
    )
    assert _shim_mentions(path) == [
        "params_to_flat (line 1)", "forward_dual (line 2)", "backprop_params_batch (line 3)", "DualEval (line 4)",
    ]


def test_the_shims_compute_what_the_real_api_does():
    arch = net.NetworkArch(widths=(2, 4, 3, 1), activation=net.TANH, b_theta=3.0)
    p = net.init(arch, 5)
    rng = np.random.default_rng(0)
    X, w, s = rng.uniform(size=(6, 2)), rng.normal(size=6), rng.normal(size=(6, 2))
    assert net.params_to_flat(p) is p.flat
    value, grad = net.forward_dual(p, [0.3, 0.7])
    vals, grads = net.forward_dual_batch(p, np.array([[0.3, 0.7]]))
    assert value == vals[0]
    np.testing.assert_array_equal(grad, grads[0])
    np.testing.assert_array_equal(
        net.backprop_params_batch(p, X, w, s), net.backprop_tape(net.forward_tape(p, X), w, s)
    )
    np.testing.assert_array_equal(
        net.backprop_params_batch(p, X, w, None), net.backprop_tape(net.forward_tape(p, X, grads=False), w)
    )
