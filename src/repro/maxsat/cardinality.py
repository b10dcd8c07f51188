"""The totalizer cardinality-constraint encoding.

Unsatisfiability-based MaxSAT solvers relax clauses in each unsatisfiable
sub-formula and then "use cardinality constraints to constrain the number of
relaxed clauses" (paper Section 3.3).  The totalizer produces auxiliary
output variables; constraining the outputs yields at-most-k constraints over
the input literals.
"""

from __future__ import annotations

from typing import Callable, Sequence


class TotalizerEncoding:
    """Totalizer encoding of ``sum(inputs) compared-to k``.

    After construction, ``outputs[j]`` (0-based) is an auxiliary literal that
    is forced true whenever at least ``j + 1`` of the input literals are
    true.  Asserting ``-outputs[k]`` therefore enforces *at most k* true
    inputs; asserting ``outputs[k - 1]`` enforces *at least k*.

    Clauses are emitted through the ``add_clause`` callback so the encoding
    can target either a :class:`repro.sat.Solver` or a :class:`WCNF`.

    The encoding is *incremental*: :meth:`extend` grows an existing network
    with additional input literals by building a subtree for the new inputs
    and merging it once with the current root, instead of re-encoding the
    whole cardinality network.  An empty initial input list is allowed, so
    core-guided engines can start from nothing and grow per discovered core.
    """

    def __init__(
        self,
        inputs: Sequence[int],
        new_var: Callable[[], int],
        add_clause: Callable[[list[int]], object],
        both_directions: bool = True,
    ) -> None:
        self._new_var = new_var
        self._add_clause = add_clause
        self._both = both_directions
        self.inputs = list(inputs)
        self.outputs = self._build(self.inputs)

    def extend(self, new_inputs: Sequence[int]) -> None:
        """Grow the totalizer with more input literals.

        Builds a subtree over ``new_inputs`` and merges it with the current
        root: one merge of size ``len(outputs) + len(new_inputs)`` instead of
        re-encoding the whole network each core iteration.  Previously
        emitted clauses and output variables stay valid; ``outputs`` is
        replaced by the merged root's outputs.
        """
        added = list(new_inputs)
        if not added:
            return
        subtree = self._build(added)
        if not self.inputs:
            self.outputs = subtree
        else:
            self.outputs = self._merge(self.outputs, subtree)
        self.inputs.extend(added)

    def _build(self, lits: list[int]) -> list[int]:
        if len(lits) <= 1:
            return list(lits)
        mid = len(lits) // 2
        left = self._build(lits[:mid])
        right = self._build(lits[mid:])
        return self._merge(left, right)

    def _merge(self, left: list[int], right: list[int]) -> list[int]:
        total = len(left) + len(right)
        outputs = [self._new_var() for _ in range(total)]
        # sum(left) >= i and sum(right) >= j  implies  sum >= i + j
        for i in range(len(left) + 1):
            for j in range(len(right) + 1):
                if i + j == 0:
                    continue
                clause: list[int] = []
                if i > 0:
                    clause.append(-left[i - 1])
                if j > 0:
                    clause.append(-right[j - 1])
                clause.append(outputs[i + j - 1])
                self._add_clause(clause)
        if self._both:
            # sum(left) <= i and sum(right) <= j  implies  sum <= i + j
            for i in range(len(left) + 1):
                for j in range(len(right) + 1):
                    if i + j == total:
                        continue
                    clause = []
                    if i < len(left):
                        clause.append(left[i])
                    if j < len(right):
                        clause.append(right[j])
                    clause.append(-outputs[i + j])
                    self._add_clause(clause)
        return outputs

    def at_most(self, bound: int) -> list[int]:
        """Assumption literals enforcing ``sum(inputs) <= bound``."""
        if bound >= len(self.outputs):
            return []
        return [-self.outputs[bound]]

