"""The central :class:`Program` object: one compiled C program.

Bundles the translation unit, per-function CFGs, and the call graph, and
is what estimators, the profiler, and the experiment harness all
consume.  Construct one with :func:`Program.from_source`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.callgraph import CallGraph, CallSite, build_call_graph
from repro.cfg import ControlFlowGraph, build_all_cfgs
from repro.frontend import compile_source
from repro.frontend.ast_nodes import FunctionDef, TranslationUnit
from repro.obs import span


@dataclass(eq=False)
class Program:
    """A compiled program plus its derived analysis artifacts."""

    unit: TranslationUnit
    cfgs: dict[str, ControlFlowGraph]
    call_graph: CallGraph
    name: str = "<program>"
    source: str = field(default="", repr=False)

    @classmethod
    def from_source(
        cls,
        source: str,
        name: str = "<program>",
        include_dirs: Optional[list[str]] = None,
        virtual_headers: Optional[dict[str, str]] = None,
        predefined: Optional[dict[str, str]] = None,
    ) -> "Program":
        """Preprocess, parse, and analyze C source text."""
        unit = compile_source(
            source,
            name,
            include_dirs=include_dirs,
            virtual_headers=virtual_headers,
            predefined=predefined,
        )
        with span("cfg.build"):
            cfgs = build_all_cfgs(unit)
        with span("callgraph.build"):
            call_graph = build_call_graph(unit, cfgs)
        return cls(
            unit=unit,
            cfgs=cfgs,
            call_graph=call_graph,
            name=name,
            source=source,
        )

    # ------------------------------------------------------------------
    # Convenience accessors.

    @property
    def function_names(self) -> list[str]:
        return self.unit.function_names()

    def function(self, name: str) -> FunctionDef:
        return self.unit.function(name)

    def cfg(self, name: str) -> ControlFlowGraph:
        return self.cfgs[name]

    def call_sites(self, include_builtins: bool = False) -> list[CallSite]:
        return self.call_graph.call_sites(include_builtins)

    def block_count(self) -> int:
        """Total basic blocks across all functions."""
        return sum(len(cfg) for cfg in self.cfgs.values())

    def has_function(self, name: str) -> bool:
        return any(f.name == name for f in self.unit.functions)
