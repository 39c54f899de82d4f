"""Dominator computation (Cooper–Harvey–Kennedy iterative algorithm).

Used by natural-loop detection and available to clients that want to
reason about control dependence.  CFGs here are small (tens of blocks),
so the simple iterative algorithm is the right tool.
"""

from __future__ import annotations

from repro.cfg.block import ControlFlowGraph


def reverse_postorder(graph: ControlFlowGraph) -> list[int]:
    """Block ids in reverse postorder from the entry."""
    visited: set[int] = set()
    order: list[int] = []

    def visit(block_id: int) -> None:
        # Iterative DFS; recursion depth could exceed limits on long
        # chains of blocks.
        stack: list[tuple[int, int]] = [(block_id, 0)]
        while stack:
            current, child_index = stack.pop()
            if child_index == 0:
                if current in visited:
                    continue
                visited.add(current)
            successors = graph.successors(current)
            if child_index < len(successors):
                stack.append((current, child_index + 1))
                successor = successors[child_index]
                if successor not in visited:
                    stack.append((successor, 0))
            else:
                order.append(current)

    visit(graph.entry_id)
    order.reverse()
    return order


def immediate_dominators(graph: ControlFlowGraph) -> dict[int, int]:
    """Map each reachable block to its immediate dominator.

    The entry block maps to itself.
    """
    order = reverse_postorder(graph)
    position = {block_id: index for index, block_id in enumerate(order)}
    predecessors = graph.predecessor_map()
    idom: dict[int, int] = {graph.entry_id: graph.entry_id}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while position[a] > position[b]:
                a = idom[a]
            while position[b] > position[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for block_id in order:
            if block_id == graph.entry_id:
                continue
            candidates = [
                pred
                for pred in predecessors[block_id]
                if pred in idom and pred in position
            ]
            if not candidates:
                continue
            new_idom = candidates[0]
            for pred in candidates[1:]:
                new_idom = intersect(new_idom, pred)
            if idom.get(block_id) != new_idom:
                idom[block_id] = new_idom
                changed = True
    return idom


def dominates(
    idom: dict[int, int], dominator: int, block_id: int
) -> bool:
    """True when ``dominator`` dominates ``block_id`` under ``idom``."""
    current = block_id
    while True:
        if current == dominator:
            return True
        parent = idom.get(current)
        if parent is None or parent == current:
            return current == dominator
        current = parent
