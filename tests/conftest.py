"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# The interpreter raises the recursion limit on demand; doing it once
# up front keeps hypothesis from warning about mid-test changes.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 82_000))

from repro.interp.machine import Machine  # noqa: E402
from repro.profiles.profile import Profile  # noqa: E402
from repro.program import Program  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _hermetic_profile_cache(tmp_path_factory):
    """Point the persistent store at a per-session temp dir.

    Tests still exercise the real cache machinery (suite profiles are
    interpreted once per pytest session, then served from disk), but
    never read from or write to the developer's real cache.
    """
    cache_dir = tmp_path_factory.mktemp("profile-cache")
    previous = {
        name: os.environ.get(name)
        for name in ("REPRO_CACHE_DIR", "REPRO_LEDGER", "REPRO_LEDGER_DIR")
    }
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    # The run ledger defaults under the cache dir, so it is already
    # hermetic; drop any ambient overrides so tests see the default.
    os.environ.pop("REPRO_LEDGER", None)
    os.environ.pop("REPRO_LEDGER_DIR", None)
    yield str(cache_dir)
    for name, value in previous.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@pytest.fixture
def compile_program():
    """Factory: C source -> Program."""

    def compile_(source: str, name: str = "<test>") -> Program:
        return Program.from_source(source, name)

    return compile_


@pytest.fixture
def run_c():
    """Factory: run C source, return the ExecutionResult."""

    def run(source: str, stdin: str = "", argv: tuple[str, ...] = ()):
        program = Program.from_source(source, "<test>")
        machine = Machine(
            program,
            stdin=stdin,
            argv=argv,
            profile=Profile("<test>"),
        )
        return machine.run()

    return run


@pytest.fixture
def c_eval(run_c):
    """Factory: evaluate a C expression in main and return the int
    result via the exit status (kept within 0..255 by callers) or via
    printf capture when given a format."""

    def evaluate(expression: str, prelude: str = "") -> int:
        source = (
            prelude
            + "\nint main(void) { printf(\"%d\", ("
            + expression
            + ")); return 0; }\n"
        )
        result = run_c(source)
        assert result.status == 0, result.stdout
        return int(result.stdout)

    return evaluate


@pytest.fixture(scope="session")
def strchr_example():
    from repro.experiments.examples import strchr_program

    return strchr_program()


@pytest.fixture(scope="session")
def compress_program():
    from repro.suite import load_program

    return load_program("compress")


@pytest.fixture(scope="session")
def compress_profiles():
    from repro.suite import collect_profiles

    return collect_profiles("compress")


@pytest.fixture(scope="session")
def eqntott_program():
    from repro.suite import load_program

    return load_program("eqntott")


@pytest.fixture(scope="session")
def eqntott_profiles():
    from repro.suite import collect_profiles

    return collect_profiles("eqntott")
