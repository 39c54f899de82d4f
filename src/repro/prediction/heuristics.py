"""AST-level branch-prediction heuristics (paper §4.1).

The paper designed a "smart" predictor in the spirit of Ball & Larus's
branch-prediction idioms, but operating on the abstract syntax and C
type system instead of executable code.  The idioms implemented here,
in priority order (the first that fires wins):

1.  **Constant**: a statically-known condition is "predicted" with
    certainty (and excluded from miss-rate scoring, §2).
2.  **Loop**: the controlling test of a loop is taken; with the default
    trip-count guess of 5 the probability is 0.8 (Figure 6).
3.  **Pointer**: "pointers are unlikely to be NULL" — ``p``, ``p != 0``
    predicted true, ``p == 0`` predicted false; pointer equality is
    predicted false.
4.  **Error call**: "errors (calling abort or exit) are unlikely" — an
    arm that reaches ``abort``/``exit``/assert-failure (or a noreturn
    wrapper of one, see :mod:`repro.prediction.error_functions`) is not
    taken.  Outranks the opcode idiom: ``if (c != '=') fatal()`` must
    predict the error arm cold.
5.  **Opcode**: integer/float comparisons — equality is unlikely,
    ``< 0`` / ``<= 0`` unlikely, ``>= 0`` / ``> 0`` likely.
6.  **Multiple ANDs**: "multiple logical ANDs make a condition less
    likely" — a conjunction of two or more tests is predicted false.
7.  **Return**: an arm that immediately returns is less likely (loops
    keep running; early returns are exits).
8.  **Store**: "when one arm of a conditional construct writes to
    variables read elsewhere, that arm is more likely" — approximated
    by favouring the arm that performs assignments.

When no idiom fires the prediction is *uninformative*: direction
``taken`` with probability 0.5, so the ``smart`` estimator degrades to
the ``loop`` estimator on such branches, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.frontend import ast_nodes as ast
from repro.frontend import ctypes as ct
from repro.frontend.builtins_list import ERROR_FUNCTIONS
from repro.frontend.constfold import fold_condition


@dataclass(frozen=True)
class BranchPrediction:
    """One branch prediction: direction, confidence, and provenance."""

    taken_probability: float
    reason: str
    is_constant: bool = False

    @property
    def predicted_taken(self) -> bool:
        return self.taken_probability >= 0.5

    def flipped(self) -> "BranchPrediction":
        return BranchPrediction(
            1.0 - self.taken_probability, self.reason, self.is_constant
        )


#: Default probability for the predicted arm of a binary branch
#: (paper §4.2 footnote: "We chose 0.8 ... the exact value chosen did
#: not have a significant effect").
DEFAULT_TAKEN_PROBABILITY = 0.8

#: Default loop trip-count guess (paper §4.1: "predicting that all
#: loops iterate five times").
DEFAULT_LOOP_ITERATIONS = 5


class HeuristicSettings:
    """Tunable knobs, exposed for the ablation tests.

    ``error_functions`` is the set of noreturn error functions the
    error-call idiom recognizes; pass the program-specific transitive
    closure from
    :func:`repro.prediction.error_functions.compute_error_functions`
    so that user wrappers like ``fatal()`` count (see
    :func:`settings_for_program`).
    """

    def __init__(
        self,
        taken_probability: float = DEFAULT_TAKEN_PROBABILITY,
        loop_iterations: int = DEFAULT_LOOP_ITERATIONS,
        weight_switch_by_labels: bool = True,
        error_functions: frozenset[str] = ERROR_FUNCTIONS,
    ):
        if not 0.5 <= taken_probability < 1.0:
            raise ValueError(
                "taken_probability must be in [0.5, 1.0)"
            )
        if loop_iterations < 1:
            raise ValueError("loop_iterations must be positive")
        self.taken_probability = taken_probability
        self.loop_iterations = loop_iterations
        self.weight_switch_by_labels = weight_switch_by_labels
        self.error_functions = error_functions

    @property
    def loop_taken_probability(self) -> float:
        """The loop test is true ``n-1`` of its ``n`` executions when a
        loop entered once iterates ``n-1`` times (test count ``n``)."""
        n = self.loop_iterations
        return (n - 1) / n if n > 1 else 0.5


def collect_predictions(
    condition: ast.Expression,
    kind: str = "if",
    origin: Optional[ast.Node] = None,
    settings: Optional[HeuristicSettings] = None,
) -> list[BranchPrediction]:
    """Every idiom that fires for this branch, in priority order.

    Used by :func:`predict_condition` (which keeps only the first) and
    by the evidence-combining calibrated predictor
    (:mod:`repro.prediction.calibrated`), which fuses all of them.
    """
    settings = settings or HeuristicSettings()
    p = settings.taken_probability
    fired: list[BranchPrediction] = []

    constant = fold_condition(condition)
    if constant is not None:
        return [
            BranchPrediction(
                1.0 if constant else 0.0, "constant", is_constant=True
            )
        ]

    if kind in ("loop", "do-loop"):
        fired.append(
            BranchPrediction(settings.loop_taken_probability, "loop")
        )

    pointer = _pointer_heuristic(condition, p)
    if pointer is not None:
        fired.append(pointer)

    # The error heuristic outranks the opcode heuristic: "this branch
    # guards an abort" is a stronger signal than the shape of the
    # comparison (e.g. `if (c != '=') syntax_error()` must predict the
    # error arm cold even though `!=` alone would predict taken).
    arms = _conditional_arms(origin)
    if arms is not None:
        then_branch, else_branch = arms
        error = _error_heuristic(
            then_branch, else_branch, p, settings.error_functions
        )
        if error is not None:
            fired.append(error)

    opcode = _opcode_heuristic(condition, p)
    if opcode is not None:
        fired.append(opcode)

    if _count_top_level_ands(condition) >= 2:
        fired.append(BranchPrediction(1.0 - p, "multiple-ands"))

    if arms is not None:
        then_branch, else_branch = arms
        returning = _return_heuristic(then_branch, else_branch, p)
        if returning is not None:
            fired.append(returning)
        store = _store_heuristic(then_branch, else_branch, p)
        if store is not None:
            fired.append(store)

    return fired


def predict_condition(
    condition: ast.Expression,
    kind: str = "if",
    origin: Optional[ast.Node] = None,
    settings: Optional[HeuristicSettings] = None,
) -> BranchPrediction:
    """Predict the direction of a branch on ``condition``.

    ``kind`` is the CFG branch kind (``if``, ``loop``, ``do-loop``,
    ``logical-and``, ``logical-or``, ``ternary``); ``origin`` is the AST
    construct the branch came from, used by arm-inspecting heuristics.
    The highest-priority firing idiom wins; with none, the prediction is
    the uninformative 0.5.
    """
    fired = collect_predictions(condition, kind, origin, settings)
    if fired:
        return fired[0]
    return BranchPrediction(0.5, "default")


# ----------------------------------------------------------------------
# Individual idioms.


def _is_null_constant(expression: ast.Expression) -> bool:
    """NULL spellings: 0, (void*)0, (char*)0, ..."""
    if isinstance(expression, ast.IntLiteral) and expression.value == 0:
        return True
    if isinstance(expression, ast.Cast):
        return _is_null_constant(expression.operand)
    return False


def _is_pointerish(expression: ast.Expression) -> bool:
    ctype = expression.ctype
    return ctype is not None and ctype.is_pointerish


def _pointer_heuristic(
    condition: ast.Expression, p: float
) -> Optional[BranchPrediction]:
    # Bare pointer (or negated pointer) used as a condition.
    if _is_pointerish(condition):
        return BranchPrediction(p, "pointer")
    if isinstance(condition, ast.BinaryOp) and condition.op in ("==", "!="):
        left, right = condition.left, condition.right
        left_pointer = _is_pointerish(left)
        right_pointer = _is_pointerish(right)
        null_comparison = (left_pointer and _is_null_constant(right)) or (
            right_pointer and _is_null_constant(left)
        )
        if null_comparison or (left_pointer and right_pointer):
            taken = condition.op == "!="
            return BranchPrediction(
                p if taken else 1.0 - p, "pointer"
            )
    return None


def _is_zero_constant(expression: ast.Expression) -> bool:
    if isinstance(expression, ast.IntLiteral):
        return expression.value == 0
    if isinstance(expression, ast.FloatLiteral):
        return expression.value == 0.0
    return False


def _opcode_heuristic(
    condition: ast.Expression, p: float
) -> Optional[BranchPrediction]:
    if not isinstance(condition, ast.BinaryOp):
        return None
    op = condition.op
    if op in ("==", "!="):
        # Equality rarely holds (Ball & Larus's opcode heuristic).
        taken = op == "!="
        return BranchPrediction(p if taken else 1.0 - p, "opcode-eq")
    zero_right = _is_zero_constant(condition.right)
    zero_left = _is_zero_constant(condition.left)
    if op in ("<", "<=") and zero_right:
        return BranchPrediction(1.0 - p, "opcode-neg")  # x < 0: unlikely
    if op in (">", ">=") and zero_right:
        return BranchPrediction(p, "opcode-neg")  # x > 0: likely
    if op in (">", ">=") and zero_left:
        return BranchPrediction(1.0 - p, "opcode-neg")  # 0 > x: unlikely
    if op in ("<", "<=") and zero_left:
        return BranchPrediction(p, "opcode-neg")  # 0 < x: likely
    return None


def _conditional_arms(
    origin: Optional[ast.Node],
) -> Optional[tuple[Optional[ast.Node], Optional[ast.Node]]]:
    """The (then, else) arms when origin is a two-armed construct."""
    if isinstance(origin, ast.If):
        return origin.then_branch, origin.else_branch
    if isinstance(origin, ast.Conditional):
        return origin.then_expr, origin.else_expr
    return None


def _calls_error_function(
    node: Optional[ast.Node], error_functions: frozenset[str]
) -> bool:
    if node is None:
        return False
    for child in node.walk():
        if (
            isinstance(child, ast.Call)
            and child.direct_name in error_functions
        ):
            return True
    return False


def _error_heuristic(
    then_branch: Optional[ast.Node],
    else_branch: Optional[ast.Node],
    p: float,
    error_functions: frozenset[str] = ERROR_FUNCTIONS,
) -> Optional[BranchPrediction]:
    then_errors = _calls_error_function(then_branch, error_functions)
    else_errors = _calls_error_function(else_branch, error_functions)
    if then_errors and not else_errors:
        return BranchPrediction(1.0 - p, "error-call")
    if else_errors and not then_errors:
        return BranchPrediction(p, "error-call")
    return None


def _count_top_level_ands(condition: ast.Expression) -> int:
    """Number of ``&&`` operators along the spine of the condition."""
    if isinstance(condition, ast.LogicalOp) and condition.op == "&&":
        return (
            1
            + _count_top_level_ands(condition.left)
            + _count_top_level_ands(condition.right)
        )
    return 0


def _immediately_returns(node: Optional[ast.Node]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Return):
        return True
    if isinstance(node, ast.Compound) and node.items:
        return isinstance(node.items[0], ast.Return)
    return False


def _return_heuristic(
    then_branch: Optional[ast.Node],
    else_branch: Optional[ast.Node],
    p: float,
) -> Optional[BranchPrediction]:
    then_returns = _immediately_returns(then_branch)
    else_returns = _immediately_returns(else_branch)
    if then_returns and not else_returns:
        return BranchPrediction(1.0 - p, "return")
    if else_returns and not then_returns:
        return BranchPrediction(p, "return")
    return None


def _stores(node: Optional[ast.Node]) -> int:
    if node is None:
        return 0
    count = 0
    for child in node.walk():
        if isinstance(child, (ast.Assignment, ast.IncDec)):
            count += 1
    return count


def _store_heuristic(
    then_branch: Optional[ast.Node],
    else_branch: Optional[ast.Node],
    p: float,
) -> Optional[BranchPrediction]:
    then_stores = _stores(then_branch)
    else_stores = _stores(else_branch)
    if then_stores and not else_stores:
        return BranchPrediction(p, "store")
    if else_stores and not then_stores:
        return BranchPrediction(1.0 - p, "store")
    return None
