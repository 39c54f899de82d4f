"""Differential fuzzing for the static-estimator pipeline.

A seeded generator (:mod:`repro.fuzz.generator`) emits terminating
C-subset programs; a battery of oracles (:mod:`repro.fuzz.oracles`)
checks differential invariants between the interpreter, the Markov
estimators, the solvers, and the caches; failures persist to a
content-addressed corpus (:mod:`repro.fuzz.corpus`) and reduce via
delta debugging (:mod:`repro.fuzz.shrink`).  :mod:`repro.fuzz.runner`
fans cases out across worker processes with deterministic reports.
"""

from __future__ import annotations

from repro.fuzz.corpus import (
    case_key,
    list_cases,
    load_metadata,
    resolve_case,
    save_case,
    save_reduction,
)
from repro.fuzz.generator import (
    DEFAULT_MACHINE_FUEL,
    GENERATOR_VERSION,
    GeneratedProgram,
    derive_case_seed,
    generate_program,
    generate_source,
)
from repro.fuzz.oracles import (
    ORACLES,
    CaseReport,
    OracleFailure,
    check_program,
    oracle_names,
)
from repro.fuzz.runner import CaseOutcome, FuzzRunReport, fuzz_run
from repro.fuzz.shrink import (
    ShrinkResult,
    oracles_still_fail,
    shrink_case,
    shrink_source,
)

__all__ = [
    "DEFAULT_MACHINE_FUEL",
    "GENERATOR_VERSION",
    "GeneratedProgram",
    "derive_case_seed",
    "generate_program",
    "generate_source",
    "ORACLES",
    "CaseReport",
    "OracleFailure",
    "check_program",
    "oracle_names",
    "case_key",
    "list_cases",
    "load_metadata",
    "resolve_case",
    "save_case",
    "save_reduction",
    "CaseOutcome",
    "FuzzRunReport",
    "fuzz_run",
    "ShrinkResult",
    "oracles_still_fail",
    "shrink_case",
    "shrink_source",
]
