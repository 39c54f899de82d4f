"""Call-graph data structures.

The call graph's nodes are function names plus one synthetic
:data:`POINTER_NODE` that stands for "whatever a call through a function
pointer reaches" (paper §5.2.1).  Every call through a pointer becomes
an arc into the pointer node; the pointer node has an arc out to every
address-taken function, weighted by how many *static* address-of
operations the program applies to that function's name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.frontend import ast_nodes as ast

#: Name of the synthetic node that models indirect calls.
POINTER_NODE = "<pointer>"


@dataclass(frozen=True)
class CallSite:
    """One syntactic call site inside a function body.

    ``callee`` is the target function's name for direct calls, ``None``
    for calls through pointers.  ``block_id`` locates the call in the
    caller's CFG so its frequency can be estimated or profiled.
    """

    caller: str
    call: ast.Call
    block_id: int
    callee: Optional[str]
    is_builtin: bool = False

    @property
    def is_indirect(self) -> bool:
        return self.callee is None and not self.is_builtin

    @property
    def site_id(self) -> int:
        """Stable identifier: the Call node's id."""
        return self.call.node_id


@dataclass
class CallGraph:
    """Functions, call sites, and address-taken bookkeeping."""

    #: All defined function names, in definition order.
    functions: list[str] = field(default_factory=list)
    #: Call sites grouped by caller (builtin calls included).
    sites_by_caller: dict[str, list[CallSite]] = field(default_factory=dict)
    #: function name -> number of static address-of operations on it.
    address_taken: dict[str, int] = field(default_factory=dict)

    def call_sites(self, include_builtins: bool = False) -> list[CallSite]:
        """All call sites, in caller-definition order."""
        result: list[CallSite] = []
        for function in self.functions:
            for site in self.sites_by_caller.get(function, []):
                if site.is_builtin and not include_builtins:
                    continue
                result.append(site)
        return result

    def direct_callees(self, caller: str) -> list[str]:
        """Defined functions directly called from ``caller``."""
        return [
            site.callee
            for site in self.sites_by_caller.get(caller, [])
            if site.callee is not None and not site.is_builtin
        ]

    def successors(self, node: str) -> list[str]:
        """Call-graph successors; the pointer node fans out to every
        address-taken function."""
        if node == POINTER_NODE:
            return sorted(self.address_taken)
        result: list[str] = []
        for site in self.sites_by_caller.get(node, []):
            if site.is_builtin:
                continue
            result.append(site.callee if site.callee else POINTER_NODE)
        return result

    def nodes(self) -> list[str]:
        """All nodes: functions plus the pointer node when used."""
        names = list(self.functions)
        if self.uses_pointer_node():
            names.append(POINTER_NODE)
        return names

    def uses_pointer_node(self) -> bool:
        return bool(self.address_taken) and any(
            site.is_indirect for sites in self.sites_by_caller.values()
            for site in sites
        )
