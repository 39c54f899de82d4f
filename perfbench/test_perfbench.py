"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import socket
import threading

import pytest

import daemon
import layers
import mix
import oracle
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def sources():
    return mix.load_sources()


def test_seed_changes_order_never_work(sources):
    first = [r for cycle in mix.edit_cycles(sources, 1, 13) for r in cycle]
    second = [r for cycle in mix.edit_cycles(sources, 2, 13) for r in cycle]
    assert mix.multiset(first) == mix.multiset(second)
    assert [r.tu for r in first] != [r.tu for r in second]
    salted = {r.source for r in first if r.kind == "analyze"}
    assert salted.isdisjoint(r.source for r in second if r.kind == "analyze")


def test_edit_cycle_shape(sources):
    cycles = mix.edit_cycles(sources, 7, 14)
    for index, cycle in enumerate(cycles):
        kinds = mix.multiset(cycle)
        assert len(cycle) == 16
        assert all(kinds[(tu, "analyze")] == 1 for tu in mix.TUS)
        assert kinds[(mix.BASE_TUS[index], "truncated")] == 1
        salted = [r for r in cycle if r.kind == "analyze"]
        assert all(r.source.startswith(sources[r.tu]) for r in salted)
        assert len({r.source_hash for r in salted}) == len(salted)


def test_truncation_cuts_inside_a_function_body(sources):
    from repro import Program
    from repro.frontend.errors import FrontendError

    expected = oracle.load_expected()["truncated"]
    for tu in mix.BASE_TUS:
        cut = mix.truncate(sources[tu])
        assert sources[tu].startswith(cut) and cut.endswith("\n")
        with pytest.raises(FrontendError) as error:
            Program.from_source(cut, f"{tu}.c")
        assert error.value.diagnostic_dict() == expected[tu]
    # The naive cut (half the lines) ends between functions and parses.
    lines = sources["compress"].splitlines(keepends=True)
    Program.from_source("".join(lines[: len(lines) // 2]), "compress.c")


def test_pinned_digests_match_the_in_process_report(sources):
    from repro.analysis.session import AnalysisSession
    from repro.program import Program
    from repro.serve.report import build_report

    expected = oracle.load_expected()["digests"]
    for tu in mix.TUS:
        session = AnalysisSession.of(Program.from_source(sources[tu], f"{tu}.c"))
        payload = build_report(session, name=f"{tu}.c")
        assert oracle.payload_digest(payload) == expected[tu], tu


def test_check_analyze_catches_wrong_answers(sources):
    from repro.analysis.session import AnalysisSession
    from repro.program import Program
    from repro.serve.report import build_report

    expected = oracle.load_expected()
    cycle = mix.edit_cycles(sources, 3, 1)[0]
    request = next(r for r in cycle if r.tu == "cholesky" and r.kind == "analyze")
    payload = build_report(
        AnalysisSession.of(Program.from_source(request.source, request.name)),
        name=request.name,
    )
    payload["server"] = {"cache": "miss", "elapsed_ms": 1.0, "trace_id": "x"}
    body = json.dumps(payload, sort_keys=True).encode()
    assert oracle.check_analyze(request, 200, body, expected) is None
    assert oracle.check_analyze(request, 500, body, expected)
    assert oracle.check_analyze(mix.analyze_request("cholesky", "analyze", sources["cholesky"]), 200, body, expected)
    payload["functions"] = payload["functions"][:-1]
    assert oracle.check_analyze(request, 200, json.dumps(payload).encode(), expected)


def _read_request(conn: socket.socket, buffer: bytes) -> bytes:
    """Read one Content-Length request off ``conn``; returns what
    follows it."""
    while b"\r\n\r\n" not in buffer:
        buffer += conn.recv(1 << 16)
    head, _, rest = buffer.partition(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
    while len(rest) < length:
        rest += conn.recv(1 << 16)
    return rest[length:]


def _answer(conn: socket.socket, body: bytes) -> None:
    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))


def test_a_connection_closed_mid_request_is_a_failed_operation():
    """The server answers the first request, closes the connection
    halfway through the second answer, then answers the third on a new
    connection: the second request counts as failed and the loop goes
    on."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve() -> None:
        first, _ = listener.accept()
        rest = _read_request(first, b"")
        _answer(first, b'"one"')
        _read_request(first, rest)
        first.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{")
        first.close()
        second, _ = listener.accept()
        _read_request(second, b"")
        _answer(second, b'"three"')
        second.close()

    server = threading.Thread(target=serve)
    server.start()
    try:
        plan = [[mix.analyze_request(tu, "analyze", f"int {tu};\n") for tu in ("a", "b", "c")]]
        out = run.Outcome()
        answers = run.send_cycles(lambda: daemon.Connection("127.0.0.1", port, timeout=10), plan, out)
    finally:
        server.join(timeout=10)
        listener.close()
    assert [(r.tu, status, body) for r, status, body in answers] == [("a", 200, b'"one"'), ("c", 200, b'"three"')]
    assert out.requests == 2 and out.attempted == 1
    assert out.failures == ["b/analyze: no answer (ConnectionError)"]
    assert len(out.pass_s) == 1


def test_golden_check_accepts_goldens_and_rejects_drift():
    goldens = oracle.load_goldens(ROOT)
    text = "\n\n\n".join(f"=== {name} ===\n\n{render}" for name, render in goldens.items())
    assert oracle.check_golden_run_all(text + "\n", goldens) is None
    assert oracle.check_golden_run_all(text.replace("Table 1", "Table 9"), goldens)
    assert oracle.check_golden_run_all("", goldens)


def test_percentile_audit():
    samples = [float(i) for i in range(1, 201)]
    labels = [f"s{i}" for i in range(1, 201)]
    audit = run.percentile(samples, labels, 0.95)
    assert audit == {"value": 190.0, "samples": 200, "beyond": 10, "at": "s190"}
    assert run.percentile(samples, labels, 0.5)["value"] == 100.0


def test_self_times_and_conservation():
    spans = [
        [1, 0, "serve.handle", 0.0, 10.0, True, 0],
        [2, 1, "serve.report", 1.0, 6.0, True, 0],
        [3, 2, "estimators.intra", 2.0, 4.0, True, 0],
        [4, 1, "serve.encode", 5.0, 8.0, True, 100],
    ]
    process = layers.Process(1, True, spans)
    assert process.self_s == {1: 3.0, 2: 3.0, 3: 2.0, 4: 3.0}
    totals = layers.serve_window([process], 0.0, 1.0)
    table = layers.conservation(totals.layer_self_ms(), 12000.0)
    assert table["self.serve_ms"] == 9000.0
    assert table["self.estimators_ms"] == 2000.0
    assert table["self.unattributed_ms"] == 1000.0
    rows = [v for k, v in table.items() if k.startswith("self.")]
    assert sum(rows) == table["trace.e2e_ms"] == 12000.0


def test_benchmark_json_lists_what_run_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
