"""Profile data: the event counts one program execution produces.

A :class:`Profile` is the ground truth every estimator is scored
against.  The interpreter records:

* basic-block execution counts, per function;
* arc (CFG edge) traversal counts;
* conditional-branch outcomes (taken/not-taken per branch block);
* function entry counts;
* call-site execution counts, including which function an indirect call
  actually reached.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass
class BranchOutcome:
    """Dynamic outcomes of one conditional branch."""

    taken: int = 0
    not_taken: int = 0

    @property
    def total(self) -> int:
        return self.taken + self.not_taken

    @property
    def majority_taken(self) -> bool:
        """The direction a perfect static predictor would pick."""
        return self.taken >= self.not_taken

    def misses_if_predicted(self, predict_taken: bool) -> int:
        return self.not_taken if predict_taken else self.taken


class Profile:
    """Event counts from one run (or an aggregate of runs)."""

    def __init__(self, program_name: str = "", input_name: str = ""):
        self.program_name = program_name
        self.input_name = input_name
        #: function -> block id -> executions.
        self.block_counts: dict[str, dict[int, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: function -> (source block, target block) -> traversals.
        self.arc_counts: dict[str, dict[tuple[int, int], float]] = (
            defaultdict(lambda: defaultdict(float))
        )
        #: function -> branch block id -> outcomes.
        self.branch_outcomes: dict[str, dict[int, BranchOutcome]] = (
            defaultdict(dict)
        )
        #: function -> entry count.
        self.function_entries: dict[str, float] = defaultdict(float)
        #: call site id (Call node id) -> executions.
        self.call_site_counts: dict[int, float] = defaultdict(float)
        #: (call site id, resolved callee) -> executions.
        self.call_target_counts: dict[tuple[int, str], float] = defaultdict(
            float
        )
        #: total block executions (all functions).
        self.total_block_executions: float = 0.0
        #: exit status of the run, if it ran to completion.
        self.exit_status: int | None = None

    # ------------------------------------------------------------------
    # Recording interface (used by the interpreter).

    def record_block(self, function: str, block_id: int) -> None:
        self.block_counts[function][block_id] += 1
        self.total_block_executions += 1

    def record_arc(self, function: str, source: int, target: int) -> None:
        self.arc_counts[function][(source, target)] += 1

    def record_branch(
        self, function: str, block_id: int, taken: bool
    ) -> None:
        outcome = self.branch_outcomes[function].get(block_id)
        if outcome is None:
            outcome = BranchOutcome()
            self.branch_outcomes[function][block_id] = outcome
        if taken:
            outcome.taken += 1
        else:
            outcome.not_taken += 1

    def record_call(self, site_id: int, callee: str) -> None:
        self.call_site_counts[site_id] += 1
        self.call_target_counts[(site_id, callee)] += 1

    # ------------------------------------------------------------------
    # Queries.

    def blocks_for(self, function: str) -> dict[int, float]:
        return dict(self.block_counts.get(function, {}))

    def entry_count(self, function: str) -> float:
        return self.function_entries.get(function, 0.0)

    def call_site_count(self, site_id: int) -> float:
        return self.call_site_counts.get(site_id, 0.0)

    def copy(self) -> "Profile":
        duplicate = Profile(self.program_name, self.input_name)
        for function, counts in self.block_counts.items():
            duplicate.block_counts[function] = defaultdict(
                float, counts
            )
        for function, arcs in self.arc_counts.items():
            duplicate.arc_counts[function] = defaultdict(float, arcs)
        for function, branches in self.branch_outcomes.items():
            duplicate.branch_outcomes[function] = {
                block_id: BranchOutcome(b.taken, b.not_taken)
                for block_id, b in branches.items()
            }
        duplicate.function_entries = defaultdict(
            float, self.function_entries
        )
        duplicate.call_site_counts = defaultdict(
            float, self.call_site_counts
        )
        duplicate.call_target_counts = defaultdict(
            float, self.call_target_counts
        )
        duplicate.total_block_executions = self.total_block_executions
        duplicate.exit_status = self.exit_status
        return duplicate

    def scale(self, factor: float) -> None:
        """Multiply every count by ``factor`` (used by normalization)."""
        for counts in self.block_counts.values():
            for key in counts:
                counts[key] *= factor
        for arcs in self.arc_counts.values():
            for key in arcs:
                arcs[key] *= factor
        for function in self.function_entries:
            self.function_entries[function] *= factor
        for key in self.call_site_counts:
            self.call_site_counts[key] *= factor
        for key in self.call_target_counts:
            self.call_target_counts[key] *= factor
        self.total_block_executions *= factor
        # Branch outcomes stay integral; miss rates are ratios so
        # scaling them is never needed.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Profile({self.program_name!r}, {self.input_name!r}, "
            f"{self.total_block_executions:.0f} block executions)"
        )
