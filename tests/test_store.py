"""The content-addressed store (:mod:`repro.store`).

Crash consistency is tested once, parametrized over every namespace:
damaged entries load as misses, a writer killed between write and
rename leaves only an ignored tempfile, and racing writers never show
a reader a torn entry.  Key digests are pinned so a refactor cannot
silently invalidate every cache on disk.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import marshal
import multiprocessing
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro import store
from repro.analysis import cache as analysis_cache
from repro.attribution import cache as attribution_cache
from repro.attribution.explain import ProgramExplanation
from repro.compile import cache as codegen_cache
from repro.fuzz import corpus
from repro.obs import metrics_delta, metrics_snapshot
from repro.profiles import cache as profile_cache
from repro.profiles.profile import Profile
from repro.profiles.serialize import profiles_equal

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Generated-code stand-in: cutting it anywhere leaves an open bracket,
#: so a truncated ``.py`` never compiles.
_CODE_SOURCE = "VALUE = [\n" + "    1,\n" * 8 + "]\n"


def _profile() -> Profile:
    profile = Profile("prog", "input1")
    profile.block_counts["main"][0] = 3.0
    profile.block_counts["main"][1] = 2.0
    profile.function_entries["main"] = 1.0
    profile.total_block_executions = 5.0
    return profile


_ESTIMATES = {"main": {0: 1.0, 1: 0.5}}
_EXPLANATION = ProgramExplanation(
    program="prog",
    estimator="markov",
    block_errors={"main": {0: 0.25, 1: -0.25}},
    invocations={"main": 1.0},
)


def _code_value(code) -> Any:
    namespace: dict[str, Any] = {}
    exec(code, namespace)
    return namespace["VALUE"]


@dataclass
class Case:
    """One namespace, driven through its owning module's API."""

    namespace: store.Namespace
    #: The key of the ``index``-th entry.
    key: Callable[[int], str]
    #: Store the ``index``-th entry.
    put: Callable[[int], object]
    #: The module's load (None on a miss).
    get: Callable[[str], Any]
    #: Whether a loaded value is the ``index``-th stored one.
    same: Callable[[Any, int], bool]
    #: Files per entry.
    files: int = 1


def _key(index: int) -> str:
    return store.content_key("test-entry", str(index))


def _case_source(index: int) -> str:
    return f"int main(void) {{ return {index}; }}\n"


def _put_codegen(index: int) -> None:
    code = compile(_CODE_SOURCE, "<store-test>", "exec")
    codegen_cache.store_code(_key(index), _CODE_SOURCE, code)


CASES = {
    "profiles": Case(
        profile_cache.NAMESPACE,
        _key,
        lambda index: profile_cache.store_profile(_key(index), _profile()),
        profile_cache.load_cached_profile,
        lambda value, _: profiles_equal(value, _profile()),
    ),
    "analysis": Case(
        analysis_cache.NAMESPACE,
        _key,
        lambda index: analysis_cache.store_analysis(
            _key(index), analysis_cache.encode_intra(_ESTIMATES)
        ),
        lambda key: analysis_cache.load_cached_analysis(
            key, analysis_cache.decode_intra
        ),
        lambda value, _: value == _ESTIMATES,
    ),
    "codegen": Case(
        codegen_cache.NAMESPACE,
        _key,
        _put_codegen,
        codegen_cache.load_cached_code,
        lambda value, _: _code_value(value) == [1] * 8,
        files=2,
    ),
    "attribution": Case(
        attribution_cache.NAMESPACE,
        _key,
        lambda index: attribution_cache.store_explanation(
            _key(index), _EXPLANATION.to_dict()
        ),
        lambda key: attribution_cache.load_cached_explanation(
            key, ProgramExplanation.from_dict
        ),
        lambda value, _: value.to_dict() == _EXPLANATION.to_dict(),
    ),
    "corpus": Case(
        corpus.NAMESPACE,
        lambda index: corpus.case_key(_case_source(index)),
        lambda index: corpus.save_case(_case_source(index), {"seed": index}),
        corpus.load_metadata,
        lambda value, index: value["seed"] == index,
        files=2,
    ),
}

#: The four caches: namespaces whose load decodes a typed value.
CACHES = ["profiles", "analysis", "codegen", "attribution"]

_PROFILE_WRONG_TYPES = dict.fromkeys(
    [
        "block_counts",
        "arc_counts",
        "branch_outcomes",
        "function_entries",
        "call_site_counts",
        "call_target_counts",
    ],
    7,
)
_BAD_EXPLANATION = dict(_EXPLANATION.to_dict(), block_errors=[])

#: Per cache: wrong-shape file contents that must load as a miss.
WRONG_SHAPES = {
    "profiles": {
        "null": {".json": b"null"},
        "list": {".json": b"[]"},
        "mistyped": {
            ".json": json.dumps(
                {
                    "format": 1,
                    "program_name": "p",
                    "input_name": "i",
                    **_PROFILE_WRONG_TYPES,
                }
            ).encode()
        },
    },
    "analysis": {
        "null": {".json": b"null"},
        "list": {".json": b"[]"},
        "mistyped": {".json": b'{"functions": {"main": "x"}}'},
    },
    "codegen": {
        "null": {".code": marshal.dumps(None), ".py": b"def ("},
        "list": {".code": marshal.dumps([]), ".py": b"["},
        "mistyped": {".code": marshal.dumps({"co_code": 1}), ".py": b"\xff"},
    },
    "attribution": {
        "null": {".json": b"null"},
        "list": {".json": b"[]"},
        "mistyped": {".json": json.dumps(_BAD_EXPLANATION).encode()},
    },
}


@pytest.fixture(autouse=True)
def _private_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)


def _entry_files(case: Case, key: str) -> list[str]:
    directory = case.namespace.directory
    return [
        os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.startswith(key) and not name.endswith(".min.c")
    ]


def _temp_files(case: Case) -> list[str]:
    directory = case.namespace.directory
    if not os.path.isdir(directory):
        return []
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


def _counter(delta: dict, case: Case, name: str) -> float:
    return delta.get(f"{case.namespace.counters}.{name}", {}).get("value", 0)


@pytest.mark.parametrize("name", CACHES)
def test_truncated_entry_is_a_miss(name):
    case = CASES[name]
    key = case.key(0)
    case.put(0)
    assert case.same(case.get(key), 0)
    for path in _entry_files(case, key):
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
    before = metrics_snapshot()
    assert case.get(key) is None
    assert _counter(metrics_delta(before), case, "misses") == 1
    # The next store rewrites the entry whole.
    case.put(0)
    assert case.same(case.get(key), 0)


@pytest.mark.parametrize(
    "name, shape",
    [(name, shape) for name in CACHES for shape in WRONG_SHAPES[name]],
)
def test_wrong_shape_entry_is_a_miss(name, shape):
    case = CASES[name]
    key = case.key(0)
    os.makedirs(case.namespace.directory, exist_ok=True)
    for suffix, data in WRONG_SHAPES[name][shape].items():
        path = os.path.join(case.namespace.directory, key + suffix)
        with open(path, "wb") as handle:
            handle.write(data)
    assert case.get(key) is None


def test_empty_code_blob_falls_back_to_source():
    case = CASES["codegen"]
    key = case.key(0)
    case.put(0)
    directory = case.namespace.directory
    open(os.path.join(directory, f"{key}.code"), "wb").close()
    assert case.same(case.get(key), 0)
    with open(os.path.join(directory, f"{key}.py"), "w") as handle:
        handle.write(_CODE_SOURCE[:12])
    assert case.get(key) is None


@pytest.mark.parametrize("name", CACHES + ["corpus"])
def test_info_and_clear(name, monkeypatch):
    case = CASES[name]
    for index in range(3):
        case.put(index)
    info = case.namespace.info()
    assert info["entries"] == 3
    assert info["bytes"] > 0
    assert info["enabled"] is True
    assert info["oldest_mtime"] <= info["newest_mtime"]
    monkeypatch.setenv("REPRO_CACHE", "0")
    # The corpus records failures; it stays on with caching off.
    assert case.namespace.info()["enabled"] is case.namespace.always_on
    assert case.namespace.clear() == 3 * case.files
    assert case.namespace.info()["entries"] == 0
    assert all(case.get(case.key(index)) is None for index in range(3))


# Child processes start with ``spawn`` (the pytest process may hold
# threads) and inherit ``REPRO_CACHE_DIR`` from the test's environment.
_SPAWN = multiprocessing.get_context("spawn")


def _killed_writer(name: str) -> None:
    def die(*_args):
        os.kill(os.getpid(), signal.SIGKILL)

    os.replace = die
    CASES[name].put(0)


@pytest.mark.parametrize("name", CACHES + ["corpus"])
def test_killed_writer_leaves_an_ignored_tmp(name):
    case = CASES[name]
    child = _SPAWN.Process(target=_killed_writer, args=(name,))
    child.start()
    child.join(60)
    assert child.exitcode == -signal.SIGKILL
    assert len(_temp_files(case)) == 1
    info = case.namespace.info()
    assert (info["entries"], info["bytes"]) == (0, 0)
    assert case.get(case.key(0)) is None
    assert case.namespace.clear() == 1
    assert _temp_files(case) == []


def _writer(name: str, rounds: int) -> None:
    for _ in range(rounds):
        CASES[name].put(0)


def _reader(name: str, key: str, done, torn) -> None:
    case = CASES[name]
    loads = 0
    while loads == 0 or not done.is_set():
        value = case.get(key)
        if value is not None and not case.same(value, 0):
            torn.value += 1
        loads += 1


@pytest.mark.parametrize("name", CACHES + ["corpus"])
def test_racing_writers_never_tear_a_load(name):
    case = CASES[name]
    done = _SPAWN.Event()
    torn = _SPAWN.Value("i", 0)
    key = case.key(0)
    reader = _SPAWN.Process(target=_reader, args=(name, key, done, torn))
    writers = [
        _SPAWN.Process(target=_writer, args=(name, 25)) for _ in range(2)
    ]
    reader.start()
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(60)
    done.set()
    reader.join(60)
    assert [writer.exitcode for writer in writers] == [0, 0]
    assert reader.exitcode == 0
    assert torn.value == 0
    assert case.same(case.get(key), 0)
    assert _temp_files(case) == []


_SOURCE = "int main(void) { return 0; }\n"

#: Digests of today's keys for fixed inputs: a change here invalidates
#: every cache already on disk.
PINNED_KEYS = {
    "profile": (
        lambda: profile_cache.profile_cache_key(_SOURCE, "input"),
        "ac5c3923de653121d6d62d0d5058f225549a7c9c74a3c609a676915cc0a41871",
    ),
    "analysis": (
        lambda: analysis_cache.analysis_cache_key(_SOURCE, "intra", "smart"),
        "b9cef6ffd51d677a67fa47be6917c772ae9461ee01c57431767d0aa86399cef6",
    ),
    "codegen": (
        lambda: codegen_cache.codegen_cache_key(_SOURCE),
        "925aaea4ee20b4ae9017148bb88e2cc74c1a107e72ac5a8b4118ed331585556d",
    ),
    "attribution": (
        lambda: attribution_cache.attribution_cache_key(
            _SOURCE, [Profile("p", "input1")], "markov"
        ),
        "8cf8dd168d27820884c183f45d421f05d829c02c78c3d6eb1bc1350da7e14963",
    ),
    "corpus": (
        lambda: corpus.case_key(_SOURCE),
        "2ad75d95660563887d8d3f1d0ae1dcf18c2379cbd83a5c72f5ab276351ee6949",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_key_digest_is_pinned(name, monkeypatch):
    # The codegen key covers the marshal tag; pin it for every Python.
    monkeypatch.setattr(sys.implementation, "cache_tag", "cpython-312")
    key_function, digest = PINNED_KEYS[name]
    assert key_function() == digest


def _profile_compress(tmp_path, **env) -> list[str]:
    """Run ``repro profile-suite compress`` in a fresh process with
    ``env`` over a scrubbed environment; every file left under
    ``tmp_path``, relative to it."""
    environment = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    home = tmp_path / "home"
    environment.update(
        HOME=str(home),
        XDG_CACHE_HOME=str(tmp_path / "xdg"),
        PYTHONPATH=os.path.join(_REPO, "src"),
        **env,
    )
    home.mkdir()
    subprocess.run(
        [sys.executable, "-m", "repro", "profile-suite", "compress"],
        env=environment,
        cwd=str(home),
        check=True,
        capture_output=True,
        timeout=300,
    )
    return sorted(
        os.path.relpath(os.path.join(directory, name), tmp_path)
        for directory, _, names in os.walk(tmp_path)
        for name in names
    )


class TestCodegenFollowsTheStore:
    def test_cache_off_writes_nothing(self, tmp_path):
        written = _profile_compress(
            tmp_path, REPRO_CACHE="0", REPRO_CACHE_DIR=str(tmp_path / "root")
        )
        assert written == []

    def test_every_file_lands_under_the_root(self, tmp_path):
        written = _profile_compress(
            tmp_path, REPRO_CACHE_DIR=str(tmp_path / "root")
        )
        assert written
        assert all(path.startswith("root" + os.sep) for path in written)
        assert any(path.endswith(".code") for path in written)


def test_traced_benchmark_targets_resolve():
    """Every function the benchmark's tracer wraps still exists at the
    attribute its callers look it up by."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(_REPO, "perfbench", "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = (
        tracer.ANALYSIS_TARGETS + tracer.SERVE_TARGETS + tracer.RUN_TARGETS
    )
    for module_name, path, _span, _count in targets:
        owner = importlib.import_module(module_name)
        for attribute in path.split("."):
            owner = getattr(owner, attribute)
        assert callable(owner), (module_name, path)
