"""Edge vocabulary of the ParaGraph representation.

The paper (§III-A.2) augments the Clang AST with seven new edge types on top
of the plain parent-child (``Child``) edges:

========== =====================================================================
Edge type  Meaning
========== =====================================================================
Child      AST parent → child edge (the only weighted edge type)
NextToken  left-to-right order between consecutive syntax tokens
NextSib    order between consecutive children of the same parent
Ref        use of a variable (``DeclRefExpr``) → its declaration
ForExec    loop init → loop condition, and loop condition → loop body
ForNext    loop body → loop increment, and loop increment → loop condition
ConTrue    if condition → then-branch
ConFalse   if condition → else-branch
========== =====================================================================
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple, Tuple


class EdgeType(IntEnum):
    """Integer edge-type labels (the ``T`` component of ParaGraph)."""

    CHILD = 0
    NEXT_TOKEN = 1
    NEXT_SIB = 2
    REF = 3
    FOR_EXEC = 4
    FOR_NEXT = 5
    CON_TRUE = 6
    CON_FALSE = 7

    @property
    def display_name(self) -> str:
        """The camel-case name used in the paper's figures."""
        return _DISPLAY_NAMES[self]


_DISPLAY_NAMES = {
    EdgeType.CHILD: "Child",
    EdgeType.NEXT_TOKEN: "NextToken",
    EdgeType.NEXT_SIB: "NextSib",
    EdgeType.REF: "Ref",
    EdgeType.FOR_EXEC: "ForExec",
    EdgeType.FOR_NEXT: "ForNext",
    EdgeType.CON_TRUE: "ConTrue",
    EdgeType.CON_FALSE: "ConFalse",
}

#: Number of distinct edge types (the Augmented AST of the ablation study
#: "contains 8 different types of edges").
NUM_EDGE_TYPES = len(EdgeType)

#: Edge types added by the augmentation step (everything except Child).
AUGMENTATION_EDGE_TYPES = tuple(t for t in EdgeType if t is not EdgeType.CHILD)


class Edge(NamedTuple):
    """A single directed, typed, weighted edge of a ParaGraph.

    ``weight`` is non-zero only for :data:`EdgeType.CHILD` edges, matching the
    paper's definition ``W ∈ Z+ … zero for any edge type other than Child``.
    """

    src: int
    dst: int
    edge_type: EdgeType
    weight: float = 0.0

    def as_tuple(self) -> Tuple[int, int, int, float]:
        return (self.src, self.dst, int(self.edge_type), self.weight)
