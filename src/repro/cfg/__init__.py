"""Program-dependence utilities: CFGs, def/use sets, call graph, slicing.

The paper models a program as a transition system (X, L, l0, T); for trace
reduction it relies on program slicing.  This package provides the static
dependence information the slicer in :mod:`repro.reduction` and the
abstract interpreter in :mod:`repro.analysis` need: a statement-level
control-flow graph per function, per-statement defined/used variable sets,
the call graph, and a flow-insensitive backward slice at line granularity.
"""

from repro.cfg.defuse import (
    statement_defs,
    statement_uses,
    called_functions,
    call_graph,
    backward_slice_lines,
)
from repro.cfg.graph import (
    Edge,
    FunctionGraph,
    Node,
    build_function_graph,
)

__all__ = [
    "statement_defs",
    "statement_uses",
    "called_functions",
    "call_graph",
    "backward_slice_lines",
    "Edge",
    "FunctionGraph",
    "Node",
    "build_function_graph",
]
