"""Call-graph construction from CFGs.

Walks every block's statements and terminator expressions to find
:class:`~repro.frontend.ast_nodes.Call` nodes, classifying each as a
direct call to a defined function, a builtin call, or an indirect call
through a pointer.  Also counts static address-of operations on function
names (explicit ``&f`` and implicit uses of ``f`` as a value), which
weight the pointer node's outgoing arcs.
"""

from __future__ import annotations

from typing import Iterator

from repro.callgraph.graph import CallGraph, CallSite
from repro.cfg.block import (
    BasicBlock,
    CondBranch,
    ControlFlowGraph,
    ReturnTerm,
    SwitchBranch,
)
from repro.frontend import ast_nodes as ast


def block_expressions(block: BasicBlock) -> Iterator[ast.Expression]:
    """Every top-level expression evaluated when ``block`` executes,
    including the terminator's condition or return value."""
    for statement in block.statements:
        if isinstance(statement, ast.ExpressionStatement):
            if statement.expression is not None:
                yield statement.expression
        elif isinstance(statement, ast.Declaration):
            if statement.initializer is not None:
                yield from _initializer_expressions(statement.initializer)
    terminator = block.terminator
    if isinstance(terminator, (CondBranch, SwitchBranch)):
        yield terminator.condition
    elif isinstance(terminator, ReturnTerm) and terminator.value is not None:
        yield terminator.value


def _initializer_expressions(
    initializer: ast.Initializer,
) -> Iterator[ast.Expression]:
    if initializer.expression is not None:
        yield initializer.expression
    if initializer.elements is not None:
        for element in initializer.elements:
            yield from _initializer_expressions(element)


def calls_in_block(block: BasicBlock) -> list[ast.Call]:
    """All Call nodes evaluated by ``block``, in AST order."""
    calls: list[ast.Call] = []
    for expression in block_expressions(block):
        for node in expression.walk():
            if isinstance(node, ast.Call):
                calls.append(node)
    return calls


def build_call_graph(
    unit: ast.TranslationUnit, cfgs: dict[str, ControlFlowGraph]
) -> CallGraph:
    """Build the call graph for a whole program."""
    defined = set(unit.function_names())
    graph = CallGraph(functions=list(unit.function_names()))

    for function in unit.functions:
        cfg = cfgs[function.name]
        sites: list[CallSite] = []
        for block in sorted(cfg, key=lambda b: b.block_id):
            for call in calls_in_block(block):
                sites.append(
                    _classify_call(function.name, call, block.block_id, defined)
                )
        graph.sites_by_caller[function.name] = sites

    graph.address_taken = _count_address_taken(unit, defined)
    return graph


def _classify_call(
    caller: str, call: ast.Call, block_id: int, defined: set[str]
) -> CallSite:
    callee = call.direct_name
    if callee is not None and callee in defined:
        return CallSite(caller, call, block_id, callee)
    if callee is not None:
        # Direct call to an undefined name: a builtin (or an external
        # the runtime will reject); either way it is not a call-graph
        # arc between user functions.
        return CallSite(caller, call, block_id, callee, is_builtin=True)
    # The callee expression may still be a function identifier behind
    # parentheses or a dereference: (*fp)(x) and (f)(x) are common.
    target = _peel_callee(call.callee)
    if isinstance(target, ast.Identifier) and target.binding == "function":
        if target.name in defined:
            return CallSite(caller, call, block_id, target.name)
        return CallSite(caller, call, block_id, target.name, is_builtin=True)
    return CallSite(caller, call, block_id, None)


def _peel_callee(expression: ast.Expression) -> ast.Expression:
    """Strip semantically transparent wrappers: ``(*fp)`` -> ``fp`` only
    when fp is literally a function designator; ``(f)`` -> ``f``."""
    while isinstance(expression, ast.Dereference):
        inner = expression.operand
        if (
            isinstance(inner, ast.Identifier)
            and inner.binding == "function"
        ):
            return inner
        break
    return expression


def _count_address_taken(
    unit: ast.TranslationUnit, defined: set[str]
) -> dict[str, int]:
    """Static address-of counts per defined function.

    A function name used anywhere other than as the callee of a direct
    call counts as one address-of (C implicitly decays the designator to
    a pointer); explicit ``&f`` counts once, not twice.
    """
    counts: dict[str, int] = {}
    # Pre-order visits each call before its callee, so one pass sees
    # every callee id before the identifier itself.
    callee_ids: set[int] = set()
    for node in unit.walk():
        if isinstance(node, ast.Call):
            target = _peel_callee(node.callee)
            if isinstance(target, ast.Identifier):
                callee_ids.add(target.node_id)
        elif (
            isinstance(node, ast.Identifier)
            and node.binding == "function"
            and node.name in defined
            and node.node_id not in callee_ids
        ):
            counts[node.name] = counts.get(node.name, 0) + 1
    return counts
