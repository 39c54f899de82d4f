"""The 14-program benchmark suite (paper Table 1, reproduced).

Each paper program is mirrored by a program in our C subset from the
same *category* — numerical codes with simple control flow versus
branchy symbolic codes versus indirect-call-heavy interpreters — since
the paper's findings are about how estimator accuracy varies across
those categories (see DESIGN.md §2 for the substitution argument).

Programs live in ``programs/*.c``; each has at least four inputs in
``inputs/<name>.<k>.txt``.  :func:`load_program` compiles one;
:func:`collect_profiles` runs it on every input and returns the
resulting profiles (memoized per process, since profiling is the
expensive step every experiment shares).

The registry also serves the generated **suite XL** tier
(:mod:`repro.suite.xl`): XL names resolve through the same loader,
profile cache, and pipeline, with their source synthesized
deterministically instead of read from disk and a single empty stdin
as their input set.

Execution goes through :func:`repro.compile.machine_class`, so the
``REPRO_BACKEND`` environment knob (or an explicit ``backend``
argument) selects the compiled backend or the interpreter for every
suite run, including pipeline worker processes.
"""

from __future__ import annotations

import glob
import os
import re
from dataclasses import dataclass

from repro import store
from repro.compile import machine_class
from repro.interp.machine import ExecutionResult
from repro.profiles import cache as profile_cache
from repro.profiles.profile import Profile
from repro.program import Program

_SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
PROGRAMS_DIR = os.path.join(_SUITE_DIR, "programs")
INPUTS_DIR = os.path.join(_SUITE_DIR, "inputs")


@dataclass(frozen=True)
class SuiteEntry:
    """Metadata for one suite program (one row of Table 1)."""

    name: str
    paper_analogue: str
    description: str
    category: str  # "numerical", "symbolic", or "indirect"
    fuel: int = 20_000_000


#: Suite roster, in the paper's Table 1 order.
SUITE: list[SuiteEntry] = [
    SuiteEntry(
        "alvinn",
        "alvinn",
        "Back-propagation training of a small neural net",
        "numerical",
    ),
    SuiteEntry(
        "compress",
        "compress",
        "LZW-style compression utility (16 functions)",
        "symbolic",
    ),
    SuiteEntry(
        "ear",
        "ear",
        "Filter-bank simulation of sound processing in the ear",
        "numerical",
    ),
    SuiteEntry(
        "eqntott",
        "eqntott",
        "Translate boolean equations to truth tables",
        "symbolic",
    ),
    SuiteEntry(
        "espresso",
        "espresso",
        "Minimize boolean functions (Quine-McCluskey)",
        "symbolic",
    ),
    SuiteEntry(
        "cc",
        "gcc",
        "Miniature C-expression compiler to a stack machine",
        "symbolic",
    ),
    SuiteEntry(
        "sc",
        "sc",
        "Spreadsheet formula evaluator",
        "symbolic",
    ),
    SuiteEntry(
        "xlisp",
        "xlisp",
        "Lisp interpreter; builtins dispatched by function pointer",
        "indirect",
    ),
    SuiteEntry(
        "awk",
        "awk",
        "Pattern-matching text processor (regex subset)",
        "symbolic",
    ),
    SuiteEntry(
        "bison",
        "bison",
        "LL(1) parser-table generator (FIRST/FOLLOW sets)",
        "symbolic",
    ),
    SuiteEntry(
        "cholesky",
        "cholesky",
        "Cholesky factorization of a symmetric matrix",
        "numerical",
    ),
    SuiteEntry(
        "gs",
        "gs",
        "PostScript-like interpreter; most operators indirect",
        "indirect",
    ),
    SuiteEntry(
        "mpeg",
        "mpeg",
        "DCT, quantization, and run-length coding of image blocks",
        "numerical",
    ),
    SuiteEntry(
        "water",
        "water",
        "Molecular-dynamics simulation of water molecules",
        "numerical",
    ),
]

SUITE_BY_NAME: dict[str, SuiteEntry] = {entry.name: entry for entry in SUITE}


def program_names() -> list[str]:
    """Names of the 14 suite programs, in Table 1 order."""
    return [entry.name for entry in SUITE]


def _xl():
    # Lazy: repro.suite.xl pulls in the fuzz package, whose runner
    # imports back from repro.suite — importing it at module load
    # would cycle during package initialization.
    from repro.suite import xl

    return xl


def xl_program_names() -> list[str]:
    """Names of the generated suite-XL programs, in index order."""
    return _xl().xl_program_names()


def known_program_names(tier: str = "base") -> list[str]:
    """Program names for a registry tier: ``base`` (the 14 paper
    programs), ``xl`` (the generated scale-up tier), or ``all``."""
    if tier == "base":
        return program_names()
    if tier == "xl":
        return xl_program_names()
    if tier == "all":
        return program_names() + xl_program_names()
    raise ValueError(f"unknown suite tier {tier!r} (base, xl, or all)")


def is_known_program(name: str) -> bool:
    """Whether ``name`` is a base-suite or suite-XL program."""
    return name in SUITE_BY_NAME or name in _xl().XL_BY_NAME


def source_path(name: str) -> str:
    """Path of one suite program's C source file."""
    return os.path.join(PROGRAMS_DIR, f"{name}.c")


def program_source(name: str) -> str:
    """The C source text of one suite program (read from disk for the
    base tier, synthesized deterministically for suite XL)."""
    if name not in SUITE_BY_NAME:
        xl = _xl()
        if name in xl.XL_BY_NAME:
            return xl.xl_source(name)
    with open(source_path(name), encoding="utf-8") as handle:
        return handle.read()


def source_line_count(name: str) -> int:
    """Number of source lines in one suite program."""
    return program_source(name).count("\n")


def input_paths(name: str) -> list[str]:
    """Paths of every input for ``name``, sorted by index.

    Inputs are globbed once (``<name>.<k>.txt``) rather than probed one
    ``isfile`` call at a time; the numbering must be contiguous from 1,
    and a gap raises a clear error instead of silently truncating the
    input set.
    """
    pattern = os.path.join(INPUTS_DIR, f"{name}.*.txt")
    matcher = re.compile(
        re.escape(name) + r"\.(\d+)\.txt\Z"
    )
    indexed: dict[int, str] = {}
    for path in glob.glob(pattern):
        match = matcher.match(os.path.basename(path))
        if match is None:
            continue
        indexed[int(match.group(1))] = path
    if not indexed:
        return []
    expected = range(1, max(indexed) + 1)
    missing = [index for index in expected if index not in indexed]
    if missing:
        raise FileNotFoundError(
            f"suite program {name!r} has a gap in its input numbering: "
            f"missing {', '.join(f'{name}.{i}.txt' for i in missing)} "
            f"(found indices {sorted(indexed)})"
        )
    return [indexed[index] for index in expected]


def program_inputs(name: str) -> list[str]:
    """All input strings for one suite program, in index order.

    XL programs read nothing from stdin; their input set is a single
    empty string so every (program × input) surface — caching, the
    pipeline fan-out, the ledger — treats both tiers uniformly.
    """
    if name not in SUITE_BY_NAME and name in _xl().XL_BY_NAME:
        return [""]
    inputs = []
    for path in input_paths(name):
        with open(path, encoding="utf-8") as handle:
            inputs.append(handle.read())
    if not inputs:
        raise FileNotFoundError(f"no inputs found for suite program {name!r}")
    return inputs


_PROGRAM_CACHE: dict[str, Program] = {}
_PROFILE_CACHE: dict[str, list[Profile]] = {}


def load_program(name: str) -> Program:
    """Compile a suite (or suite-XL) program (memoized)."""
    if not is_known_program(name):
        raise KeyError(f"unknown suite program {name!r}")
    if name not in _PROGRAM_CACHE:
        _PROGRAM_CACHE[name] = Program.from_source(
            program_source(name), name
        )
    return _PROGRAM_CACHE[name]


def program_fuel(name: str) -> int:
    """The execution budget for one registry program."""
    entry = SUITE_BY_NAME.get(name)
    if entry is not None:
        return entry.fuel
    return _xl().XL_BY_NAME[name].fuel


def run_on_input(
    name: str,
    stdin: str,
    input_name: str = "",
    backend: str | None = None,
) -> ExecutionResult:
    """Run one suite program on one input string.

    The machine class comes from :func:`repro.compile.machine_class`:
    explicit ``backend`` argument, else ``REPRO_BACKEND``, else the
    compiled default — both backends produce byte-identical profiles.
    """
    program = load_program(name)
    profile = Profile(name, input_name)
    machine = machine_class(backend)(
        program, stdin=stdin, fuel=program_fuel(name), profile=profile
    )
    result = machine.run()
    if result.aborted:
        raise RuntimeError(
            f"suite program {name} aborted on input {input_name}: "
            f"{result.stdout[-500:]}"
        )
    return result


def profile_key(name: str, stdin: str) -> str:
    """Persistent-cache key for one (suite program, input text) pair."""
    return profile_cache.profile_cache_key(program_source(name), stdin)


def profile_for_input(
    name: str, index: int, stdin: str, use_cache: bool | None = None
) -> Profile:
    """Profile of one (program, input), via the persistent cache.

    On a cache hit the interpreter never runs; on a miss the program is
    interpreted and the resulting profile stored for every later
    consumer (CLI, pytest).
    """
    if use_cache is None:
        use_cache = store.enabled()
    key = profile_key(name, stdin) if use_cache else ""
    if use_cache:
        cached = profile_cache.load_cached_profile(key)
        if cached is not None:
            return cached
    result = run_on_input(name, stdin, f"input{index}")
    if use_cache:
        profile_cache.store_profile(key, result.profile)
    return result.profile


def collect_profiles(
    name: str, use_cache: bool | None = None
) -> list[Profile]:
    """Profiles of ``name`` on all of its inputs (memoized in-process,
    persisted on disk across processes)."""
    if name not in _PROFILE_CACHE:
        profiles = []
        for index, stdin in enumerate(program_inputs(name), start=1):
            profiles.append(
                profile_for_input(name, index, stdin, use_cache)
            )
        _PROFILE_CACHE[name] = profiles
    return _PROFILE_CACHE[name]


def seed_profile_memo(name: str, profiles: list[Profile]) -> None:
    """Install already-collected profiles into the in-process memo
    (used by the parallel pipeline after a fan-out)."""
    _PROFILE_CACHE[name] = profiles


def clear_caches() -> None:
    """Drop memoized programs and profiles (used by tests).

    Analysis sessions attach to the memoized program objects, so
    dropping the programs drops their sessions; example-source sessions
    are cleared explicitly.
    """
    from repro.analysis.session import clear_sessions

    _PROGRAM_CACHE.clear()
    _PROFILE_CACHE.clear()
    clear_sessions()
