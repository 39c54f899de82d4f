"""Calibrated branch probabilities (the paper's open question).

Paper §5.1 closes with: "It is an open question whether static branch
prediction can be accurate enough to make good use of the
intra-procedural Markov model (for example, by using a static predictor
that generates probabilities directly, rather than a true/false
guess)."

Wu & Larus answered it the same year ("Static Branch Frequency and
Program Profile Analysis", MICRO-27, 1994): give each Ball–Larus idiom
the empirically measured probability of being right, and combine the
evidence when several idioms fire on the same branch.  This module
implements that design on our idiom set:

* :data:`WU_LARUS_PROBABILITIES` — per-idiom hit rates (Wu & Larus
  Table 1, mapped onto our idiom names);
* :class:`CalibratedPredictor` — a drop-in
  :class:`~repro.prediction.predictor.BranchPredictor` that replaces
  each idiom's uniform 0.8 with its calibrated probability and fuses
  multiple firing idioms with Dempster–Shafer combination:

      p = p1*p2 / (p1*p2 + (1-p1)(1-p2))

``tests/test_paper_claims.py::test_extension_calibrated_markov`` checks
whether this closes the gap the paper observed.
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.block import BasicBlock, CondBranch, SwitchBranch
from repro.prediction.heuristics import (
    BranchPrediction,
    HeuristicSettings,
    collect_predictions,
)
from repro.prediction.predictor import (
    _uniform_switch_weights,
    label_weighted_switch_weights,
)

#: Per-idiom probability that the predicted direction is correct.
#: Values follow Wu & Larus's measured hit rates for the corresponding
#: Ball-Larus heuristics (loop branch 88%, pointer 60%, opcode 84%,
#: guard 62%, return 72%, store 55%, call/error 78%), with "constant"
#: certain by construction.
WU_LARUS_PROBABILITIES: dict[str, float] = {
    "constant": 1.0,
    "loop": 0.88,
    "pointer": 0.60,
    "opcode-eq": 0.84,
    "opcode-neg": 0.84,
    "error-call": 0.78,
    "multiple-ands": 0.62,
    "return": 0.72,
    "store": 0.55,
    "default": 0.50,
}


def combine_probabilities(first: float, second: float) -> float:
    """Dempster-Shafer combination of two taken-probabilities."""
    numerator = first * second
    denominator = numerator + (1.0 - first) * (1.0 - second)
    if denominator == 0.0:
        return 0.5  # Perfectly contradictory evidence.
    return numerator / denominator


class CalibratedPredictor:
    """A branch predictor that emits calibrated probabilities.

    ``combine_evidence=False`` uses only the highest-priority firing
    idiom (like the paper's *smart*, but with per-idiom probabilities);
    ``True`` fuses every firing idiom with Dempster–Shafer combination
    (full Wu–Larus).
    """

    def __init__(
        self,
        settings: Optional[HeuristicSettings] = None,
        probabilities: Optional[dict[str, float]] = None,
        combine_evidence: bool = True,
    ):
        self.settings = settings or HeuristicSettings()
        self.probabilities = dict(
            WU_LARUS_PROBABILITIES
            if probabilities is None
            else probabilities
        )
        self.combine_evidence = combine_evidence

    def _calibrated(self, prediction: BranchPrediction) -> float:
        """Taken-probability of one fired idiom under calibration."""
        confidence = self.probabilities.get(prediction.reason, 0.5)
        if prediction.is_constant:
            # Keep constants (nearly) certain; the Markov solver clips
            # them away from exactly 0/1 itself.
            return prediction.taken_probability
        return (
            confidence
            if prediction.predicted_taken
            else 1.0 - confidence
        )

    def predict_branch(
        self, function: str, block: BasicBlock, branch: CondBranch
    ) -> BranchPrediction:
        fired = collect_predictions(
            branch.condition, branch.kind, branch.origin, self.settings
        )
        if not fired:
            return BranchPrediction(0.5, "default")
        if fired[0].is_constant:
            return fired[0]
        if not self.combine_evidence:
            first = fired[0]
            return BranchPrediction(
                self._calibrated(first), f"calibrated:{first.reason}"
            )
        probability = self._calibrated(fired[0])
        reasons = [fired[0].reason]
        for prediction in fired[1:]:
            probability = combine_probabilities(
                probability, self._calibrated(prediction)
            )
            reasons.append(prediction.reason)
        return BranchPrediction(
            probability, "calibrated:" + "+".join(reasons)
        )

    def switch_weights(
        self, function: str, block: BasicBlock, switch: SwitchBranch
    ) -> dict[int, float]:
        if self.settings.weight_switch_by_labels:
            return label_weighted_switch_weights(switch)
        return _uniform_switch_weights(switch)


def calibrated_markov_estimator(
    program, function_name: str, combine_evidence: bool = True
):
    """Intra-procedural Markov estimation with calibrated probabilities
    (the extension's headline entry point)."""
    from repro.estimators.intra.markov import markov_estimator
    from repro.prediction.error_functions import settings_for_program

    predictor = CalibratedPredictor(
        settings_for_program(program), combine_evidence=combine_evidence
    )
    return markov_estimator(program, function_name, predictor)
