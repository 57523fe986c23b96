"""weakgal: adversarial weak-form neural solver for second-order elliptic PDEs.

The package has two halves that share one set of primitives:

* a solver - dense networks for trial and test functions, trained on the
  sampled weak-form residual of a divergence-form elliptic problem with
  Robin/Neumann/penalized-Dirichlet boundary data;
* a verification lab - finite-difference reference solvers, exact Rademacher
  enumeration, and the quantitative class-capacity bounds the solver's error
  analysis rests on, each paired with an empirical probe.

A script that calls the solver directly, not through ``cli.run``, should call
``apply_process_policy()`` once first: it pins the heap policy and BLAS
thread count that the command line runs with.
"""

__version__ = "0.1.0"

from . import expr, network, pde, loss, oracle, theory, train, cli  # noqa: F401
from .cli import apply_process_policy  # noqa: F401
