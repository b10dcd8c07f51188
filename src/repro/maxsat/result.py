"""Result record shared by the MaxSAT engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Optional


@dataclass
class MaxSatResult:
    """Outcome of a partial MaxSAT solve.

    Attributes
    ----------
    satisfiable:
        ``False`` when the *hard* clauses alone are unsatisfiable (no
        correction set exists); every other field is then meaningless.
    cost:
        Total weight of falsified soft clauses in the optimal assignment.
    falsified:
        Indices (into ``wcnf.soft``) of the soft clauses falsified by
        ``model`` — the CoMSS / minimum correction set.
    falsified_labels:
        Labels of those soft clauses (with unlabelled clauses omitted).
    sat_calls:
        Number of calls made to the underlying SAT solver.
    model_source:
        Builds :attr:`model` on first read (``None``: no model).
    """

    satisfiable: bool
    cost: int = 0
    falsified: list[int] = field(default_factory=list)
    falsified_labels: list[Hashable] = field(default_factory=list)
    sat_calls: int = 0
    model_source: Optional[Callable[[], dict[int, bool]]] = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def model(self) -> Optional[dict[int, bool]]:
        """A ``{var: bool}`` assignment achieving ``cost``.

        Built on first read from the solve's assignment snapshot plus the
        don't-care completions, so later solves on the same solver leave
        it unchanged and a CoMSS loop that never reads it never builds it.
        """
        return None if self.model_source is None else self.model_source()

    @property
    def comss(self) -> list[int]:
        """Alias matching the paper's terminology (CoMSS)."""
        return self.falsified
