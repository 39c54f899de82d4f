"""Error propagation through the Markov flow system (linear
sensitivity analysis).

The intra-procedural Markov estimator solves ``(I - P^T) f = e`` with
the entry pinned at 1.  ``f`` is a smooth function of every branch
probability, and its derivative has a closed linear form: for a branch
in block ``i`` with arms ``t``/``u`` and taken-probability ``p``,

    d f / d p  =  (I - P^T)^{-1} r,      r = f_i (delta_t - delta_u)

— one extra solve against the *same* matrix the estimator already
factored, in the same sparse dict-row form (this is the
linear-equational view of probabilistic program analysis: error flows
through exactly the operator the estimate flowed through).

:func:`attribute_function_errors` evaluates, for every executed
non-constant branch, the first-order change in the block-frequency
vector if that branch alone used its *profiled* probability ``q``
instead of the predicted ``p``:

    delta_f  ≈  (q - p) * damping * (I - P^T)^{-1} f_i (delta_t - delta_u)

The L1 norm of ``delta_f`` is the branch's **attributed
block-frequency error** — how much of the function's estimate-vs-
profile discrepancy traces back to that prediction — and the largest
components of ``delta_f`` are its error flow (which blocks the bad
probability actually distorted).  The same damping-retry ladder as
:func:`repro.estimators.intra.markov.solve_flow_system` keeps
degenerate CFGs solvable, and a function whose system stays singular is
skipped (reported, never fatal).
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.block import CondBranch, ControlFlowGraph
from repro.estimators.intra.markov import DAMPING_FACTORS
from repro.linalg.solve import SingularMatrixError
from repro.linalg.sparse import SparseRows, solve_flow_rows
from repro.obs import incr, span

from repro.attribution.records import BranchRecord

#: How many per-block delta components each record keeps (the error
#: flow drill-down).  Components beyond this are summarized into the
#: L1 norm only.
ERROR_FLOW_TOP = 6

#: Frequency deltas below this are dropped from the error flow.
FLOW_EPSILON = 1e-12


def _build_rows(
    block_ids: list[int],
    index: dict[int, int],
    transitions: dict[int, dict[int, float]],
    damping: float,
) -> SparseRows:
    """The ``I - damping * P^T`` system, identical in construction to
    :func:`repro.estimators.intra.markov.solve_flow_system`."""
    rows: SparseRows = [{i: 1.0} for i in range(len(block_ids))]
    for source, row in transitions.items():
        j = index[source]
        for target, probability in row.items():
            target_row = rows[index[target]]
            target_row[j] = target_row.get(j, 0.0) - probability * damping
    return rows


def _solvable_rows(
    cfg: ControlFlowGraph,
    transitions: dict[int, dict[int, float]],
    block_ids: list[int],
    index: dict[int, int],
) -> Optional[tuple[SparseRows, float]]:
    """The first damped system on the estimator's ladder that solves,
    or None when even heavy damping leaves it singular."""
    rhs = [0.0] * len(block_ids)
    rhs[index[cfg.entry_id]] = 1.0
    for damping in DAMPING_FACTORS:
        rows = _build_rows(block_ids, index, transitions, damping)
        try:
            solve_flow_rows(rows, rhs)
        except SingularMatrixError:
            continue
        return rows, damping
    return None


def attribute_function_errors(
    cfg: ControlFlowGraph,
    transitions: dict[int, dict[int, float]],
    estimates: dict[int, float],
    records: list[BranchRecord],
) -> bool:
    """Fill ``local_error`` and ``error_flow`` on ``records`` (all from
    one function) by sensitivity solves against the function's flow
    system.  Returns False when the system is singular even damped (the
    records keep their zero attribution).

    ``transitions`` are the Markov transition probabilities the
    estimate was built from; ``estimates`` the solved block
    frequencies.  Only executed, non-constant branches are attributed —
    a branch the profile never saw has no measured probability to
    propagate.
    """
    block_ids = sorted(cfg.blocks)
    index = {block_id: i for i, block_id in enumerate(block_ids)}
    solvable = _solvable_rows(cfg, transitions, block_ids, index)
    if solvable is None:
        incr("attribution.singular_functions")
        return False
    rows, damping = solvable
    branch_targets = {
        block.block_id: terminator
        for block, terminator in cfg.conditional_branches()
    }
    for record in records:
        if not record.scored:
            continue
        terminator = branch_targets.get(record.block_id)
        actual = record.actual_probability
        if terminator is None or actual is None:
            continue
        _attribute_one(
            record, terminator, actual, rows, estimates, index, damping
        )
    return True


def _attribute_one(
    record: BranchRecord,
    terminator: CondBranch,
    actual: float,
    rows: SparseRows,
    estimates: dict[int, float],
    index: dict[int, int],
    damping: float,
) -> None:
    source_frequency = estimates.get(record.block_id, 0.0)
    probability_error = actual - record.predicted_probability
    scale = probability_error * damping * source_frequency
    if scale == 0.0 or terminator.true_target == terminator.false_target:
        record.local_error = 0.0
        record.error_flow = []
        return
    rhs = [0.0] * len(rows)
    rhs[index[terminator.true_target]] += scale
    rhs[index[terminator.false_target]] -= scale
    with span("attribution.solve", function=record.function):
        try:
            delta = solve_flow_rows(rows, rhs)
        except SingularMatrixError:  # pragma: no cover - rows pre-checked
            incr("attribution.singular_branches")
            return
    incr("attribution.solves")
    reverse = {i: block_id for block_id, i in index.items()}
    flow = [
        (reverse[i], value)
        for i, value in enumerate(delta)
        if abs(value) > FLOW_EPSILON
    ]
    flow.sort(key=lambda item: (-abs(item[1]), item[0]))
    record.local_error = sum(abs(value) for _, value in flow)
    record.error_flow = flow[:ERROR_FLOW_TOP]
