"""Bit-precise CNF encoding of mini-C statements.

The paper encodes the executed trace as a Boolean formula in CNF where
"integers and integer operations are encoded in a bit-precise way"
(Section 2) and clauses arising from one program statement are grouped
behind a shared *selector variable* (Section 3.4, Equation 2).  This package
provides exactly that machinery:

* :class:`ArenaEncodingContext` — variable allocation, clause routing into
  either the hard clause set or the current statement group, and the
  emission journal, all in the flat buffers of a
  :class:`~repro.encoding.arena.GateArena` (the one representation of an
  encoding, from the encoder to artifacts, the splice and the SAT kernel).
* :class:`CircuitBuilder` — gate-level circuits (Tseitin encoding) for the
  fixed-width arithmetic, comparison and multiplexer operations the language
  needs.
* :class:`SymbolicState` / :func:`encode_expression` — symbolic program
  states mapping variables to bit-vectors and the expression-to-circuit
  translation shared by the concolic tracer and the bounded model checker.
* :class:`TraceFormula` — the extended trace formula as a flat clause store
  with its group table, convertible to a :class:`repro.maxsat.WCNF` partial
  MaxSAT instance.

Gate hashing and clause emission run in a compiled core (``encode.c``, see
:mod:`repro.sat._ccore`) when the process-wide ``REPRO_BACKEND`` switch
allows it and in pure Python otherwise; both produce bit-identical
artifacts (:func:`encode_backend` reports which one runs).
"""

from repro.encoding.context import ArenaEncodingContext, StatementGroup
from repro.encoding.circuits import Bits, CircuitBuilder
from repro.encoding.symbolic import SymbolicState, ExpressionEncoder
from repro.encoding.trace import TraceFormula, TraceStep


def encode_backend() -> str:
    """Which CNF-emission backend new compiles use (``"c"`` or ``"python"``).

    Follows the process-wide ``REPRO_BACKEND`` switch (``auto``/``python``/
    ``c``) like the solver cores.  Both backends produce bit-identical
    artifacts — this probe only reports which implementation will run.
    """
    from repro.sat import _ccore

    return _ccore.encode_backend()


__all__ = [
    "ArenaEncodingContext",
    "StatementGroup",
    "Bits",
    "CircuitBuilder",
    "SymbolicState",
    "ExpressionEncoder",
    "TraceFormula",
    "TraceStep",
    "encode_backend",
]
