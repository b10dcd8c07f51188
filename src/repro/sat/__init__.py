"""Conflict-driven clause learning (CDCL) SAT solver substrate.

The paper's tool chain relies on MiniSAT2 and on the SAT engine inside the
MSUnCORE MaxSAT solver.  Neither is available here, so this package provides
a self-contained CDCL solver with the features the rest of the reproduction
needs:

* incremental solving under *assumptions* (used to implement selector
  variables / clause groups),
* extraction of an unsatisfiable core over the assumptions (used by the
  core-guided MaxSAT algorithms).

The solver's hot loops optionally run in a small C library compiled on
first use (see :mod:`repro.sat._ccore` and ``search.c``): two-watched-literal
unit propagation and the full CDCL search kernel — propagation plus
first-UIP conflict analysis with clause learning and minimization,
backjumping, VSIDS activities, the order heap, phase saving, assumption
decisions and restarts.  ``REPRO_BACKEND=auto|python|c`` selects the
backend for the whole process and ``Solver(backend=...)`` for one solver;
a solver runs either both layers compiled or both interpreted.

Both backends implement the identical algorithms and produce identical
models, conflicts, cores and statistics; the pure-Python loops remain the
always-tested fallback.

The public entry points are :class:`Solver` and the literal helpers in
:mod:`repro.sat.literals`.
"""

from repro.sat.literals import neg, lit_to_var, var_to_lit
from repro.sat.solver import Solver, SolverStats


def propagation_backend() -> str:
    """Which propagation core new :class:`Solver` instances use by default.

    ``"c"`` when the compiled solver library loaded, ``"python"``
    otherwise (``REPRO_BACKEND=python``, or no compiler under ``auto``).
    """
    from repro.sat import _ccore

    return _ccore.backend()


def search_backend() -> str:
    """Which search kernel new :class:`Solver` instances use by default.

    Propagation and search live in the same compiled library and switch
    together, so this always agrees with :func:`propagation_backend`.
    """
    from repro.sat import _ccore

    return _ccore.backend()


def propagation_core_unavailable_reason():
    """Why the C library is unavailable (``None`` when it loaded fine)."""
    from repro.sat import _ccore

    return _ccore.unavailable_reason()


__all__ = [
    "Solver",
    "SolverStats",
    "neg",
    "lit_to_var",
    "var_to_lit",
    "propagation_backend",
    "search_backend",
    "propagation_core_unavailable_reason",
]
