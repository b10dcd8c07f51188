"""A statement-level control-flow graph over the structured mini-C AST.

mini-C has no ``goto``/``break``/``continue``, so the CFG of a function is
fully determined by the statement structure: straight-line edges between
consecutive statements, a diamond for ``if``/``else`` and a back edge for
``while``.  The graph is what the worklist dataflow framework in
``repro.analysis`` iterates over; edges out of a branch or loop guard carry
the guard expression and the direction taken so interval analysis can
refine states along them (``while (i < n)`` implies ``i < n`` on the body
edge and ``i >= n`` on the exit edge).

Nodes are numbered densely per function; node 0 is the synthetic entry.
A single synthetic exit node collects every ``return`` and the fall-through
end of the body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.lang import ast


@dataclass(frozen=True)
class Edge:
    """One CFG edge; ``cond``/``taken`` describe the branch it encodes."""

    source: int
    target: int
    cond: Optional[ast.Expr] = None
    taken: bool = True


@dataclass
class Node:
    """One CFG node: a statement, or a synthetic entry/exit marker."""

    index: int
    stmt: Optional[ast.Stmt] = None
    kind: str = "stmt"  # "entry" | "exit" | "stmt" | "branch" | "loop"
    #: True for loop-guard nodes: widening points of the dataflow iteration.
    is_loop_head: bool = False

    @property
    def line(self) -> int:
        return self.stmt.line if self.stmt is not None else 0


@dataclass
class FunctionGraph:
    """The CFG of one function."""

    function: ast.Function
    nodes: list[Node] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)

    @property
    def entry(self) -> int:
        return 0

    @property
    def exit(self) -> int:
        return 1

    def successors(self, index: int) -> list[Edge]:
        return self._out[index]

    def predecessors(self, index: int) -> list[Edge]:
        return self._in[index]

    def finalize(self) -> None:
        self._out: list[list[Edge]] = [[] for _ in self.nodes]
        self._in: list[list[Edge]] = [[] for _ in self.nodes]
        for edge in self.edges:
            self._out[edge.source].append(edge)
            self._in[edge.target].append(edge)

    def reverse_postorder(self) -> list[int]:
        """Node indices in reverse postorder from the entry (loop heads
        before their bodies), the classic iteration order that makes the
        worklist converge in few passes."""
        seen = [False] * len(self.nodes)
        order: list[int] = []

        def visit(index: int) -> None:
            stack = [(index, 0)]
            seen[index] = True
            while stack:
                node, position = stack.pop()
                succs = self._out[node]
                if position < len(succs):
                    stack.append((node, position + 1))
                    target = succs[position].target
                    if not seen[target]:
                        seen[target] = True
                        stack.append((target, 0))
                else:
                    order.append(node)

        visit(self.entry)
        return list(reversed(order))

    def reversed_view(self) -> "ReversedFunctionGraph":
        """A view with every edge flipped and the exit as entry.

        Running the forward dataflow solver over the view is a backward
        analysis of the function (liveness, very-busy expressions): the
        solver's "input state of a node" becomes the state *after* the
        node in execution order.
        """
        return ReversedFunctionGraph(self)


class ReversedFunctionGraph:
    """Edge-flipped adapter satisfying the solver's graph interface."""

    def __init__(self, graph: FunctionGraph) -> None:
        self.graph = graph
        self.nodes = graph.nodes
        self._out: list[list[Edge]] = [[] for _ in graph.nodes]
        self._in: list[list[Edge]] = [[] for _ in graph.nodes]
        for edge in graph.edges:
            flipped = Edge(
                source=edge.target, target=edge.source, cond=edge.cond, taken=edge.taken
            )
            self._out[flipped.source].append(flipped)
            self._in[flipped.target].append(flipped)

    @property
    def entry(self) -> int:
        return self.graph.exit

    @property
    def exit(self) -> int:
        return self.graph.entry

    def successors(self, index: int) -> list[Edge]:
        return self._out[index]

    def predecessors(self, index: int) -> list[Edge]:
        return self._in[index]

    def reverse_postorder(self) -> list[int]:
        seen = [False] * len(self.nodes)
        order: list[int] = []

        def visit(index: int) -> None:
            stack = [(index, 0)]
            seen[index] = True
            while stack:
                node, position = stack.pop()
                succs = self._out[node]
                if position < len(succs):
                    stack.append((node, position + 1))
                    target = succs[position].target
                    if not seen[target]:
                        seen[target] = True
                        stack.append((target, 0))
                else:
                    order.append(node)

        visit(self.entry)
        return list(reversed(order))


def build_function_graph(function: ast.Function) -> FunctionGraph:
    """Build the statement-level CFG of one function."""
    graph = FunctionGraph(function=function)
    graph.nodes.append(Node(index=0, kind="entry"))
    graph.nodes.append(Node(index=1, kind="exit"))
    exits = _build_block(graph, function.body, [(graph.entry, None, True)])
    for source, cond, taken in exits:
        _link(graph, source, graph.exit, cond, taken)
    graph.finalize()
    return graph


def _new_node(
    graph: FunctionGraph, stmt: ast.Stmt, kind: str, loop_head: bool = False
) -> int:
    node = Node(index=len(graph.nodes), stmt=stmt, kind=kind, is_loop_head=loop_head)
    graph.nodes.append(node)
    return node.index


def _link(
    graph: FunctionGraph,
    source: int,
    target: int,
    cond: Optional[ast.Expr] = None,
    taken: bool = True,
) -> None:
    graph.edges.append(Edge(source=source, target=target, cond=cond, taken=taken))


_Dangling = list[tuple[int, Optional[ast.Expr], bool]]


def _build_block(
    graph: FunctionGraph, statements: tuple[ast.Stmt, ...], preds: _Dangling
) -> _Dangling:
    """Wire a statement sequence; ``preds`` are dangling (source, cond,
    taken) triples waiting to be connected to the next node.  Returns the
    dangling exits of the block."""
    current = preds
    for stmt in statements:
        if isinstance(stmt, ast.If):
            index = _new_node(graph, stmt, "branch")
            for source, cond, taken in current:
                _link(graph, source, index, cond, taken)
            then_exits = _build_block(graph, stmt.then_body, [(index, stmt.cond, True)])
            else_exits = _build_block(
                graph, stmt.else_body, [(index, stmt.cond, False)]
            )
            current = then_exits + else_exits
        elif isinstance(stmt, ast.While):
            index = _new_node(graph, stmt, "loop", loop_head=True)
            for source, cond, taken in current:
                _link(graph, source, index, cond, taken)
            body_exits = _build_block(graph, stmt.body, [(index, stmt.cond, True)])
            for source, cond, taken in body_exits:  # the back edge
                _link(graph, source, index, cond, taken)
            current = [(index, stmt.cond, False)]
        elif isinstance(stmt, ast.Return):
            index = _new_node(graph, stmt, "stmt")
            for source, cond, taken in current:
                _link(graph, source, index, cond, taken)
            _link(graph, index, graph.exit)
            current = []  # anything after a return in this block is dead
        else:
            index = _new_node(graph, stmt, "stmt")
            for source, cond, taken in current:
                _link(graph, source, index, cond, taken)
            current = [(index, None, True)]
    return current


def build_program_graphs(program: ast.Program) -> dict[str, FunctionGraph]:
    """CFGs for every function of the program."""
    return {name: build_function_graph(fn) for name, fn in program.functions.items()}
