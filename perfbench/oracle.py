"""Expected answers for every request and command the benchmark sends.

* ``/v1/analyze`` 200s: one pinned SHA-256 per TU over the payload
  without ``server``, ``name``, ``content_hash`` and ``version``;
  ``name`` must echo the sent name and ``content_hash`` must be the
  SHA-256 of the sent source (so salting cannot hide a wrong answer).
* Truncated TUs: the pinned structured-400 shape, exactly the keys
  ``error``, ``file``, ``line``, ``col`` and ``trace_id``.
* ``repro run all``: every experiment section equals its render in
  ``tests/golden_outputs.json``.

A mismatch is a failed operation; nothing is dropped from the mix.
Re-pin (only when the program's answers change on purpose) with::

    python3 perfbench/oracle.py --pin
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from typing import Optional

import mix
from daemon import Daemon

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

#: Payload keys the digest leaves out: transport/timing, and the
#: fields checked against the request itself.
UNPINNED = ("server", "name", "content_hash", "version")
ERROR_KEYS = {"error", "file", "line", "col", "trace_id"}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def payload_digest(payload: dict) -> str:
    pinned = {k: v for k, v in payload.items() if k not in UNPINNED}
    text = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def error_shape(payload: dict) -> dict:
    return {key: payload[key] for key in ("error", "file", "line", "col")}


def check_analyze(
    request: mix.Request, status: int, body: bytes, expected: dict
) -> Optional[str]:
    """None when the answer is right, else why it is wrong."""
    try:
        payload = json.loads(body)
    except ValueError:
        return f"{request.tu}/{request.kind}: body is not JSON"
    if request.kind == "truncated":
        if status != 400:
            return f"{request.tu}/truncated: status {status}, expected 400"
        if set(payload) != ERROR_KEYS or not payload.get("trace_id"):
            return f"{request.tu}/truncated: error keys {sorted(payload)}"
        if error_shape(payload) != expected["truncated"][request.tu]:
            return f"{request.tu}/truncated: {error_shape(payload)}"
        return None
    if status != 200:
        return f"{request.tu}: status {status}, expected 200"
    if payload.get("name") != request.name:
        return f"{request.tu}: name {payload.get('name')!r}"
    if payload.get("content_hash") != request.source_hash:
        return f"{request.tu}: content_hash is not the sent source's"
    if payload_digest(payload) != expected["digests"][request.tu]:
        return f"{request.tu}: payload digest differs from the pinned one"
    return None


def check_golden_run_all(stdout: str, goldens: dict) -> Optional[str]:
    """None when every ``run all`` section equals its golden render."""
    sections = {}
    for chunk in stdout.split("=== ")[1:]:
        header, _, text = chunk.partition(" ===\n\n")
        sections[header] = text.rstrip("\n")
    if set(sections) != set(goldens):
        return f"run all sections {sorted(sections)}"
    for name, render in goldens.items():
        if sections[name] != render.rstrip("\n"):
            return f"run all section {name} differs from its golden"
    return None


def load_goldens(checkout: str) -> dict:
    path = os.path.join(checkout, "tests", "golden_outputs.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["experiments"]


def pin(checkout: str) -> dict:
    """Ask a fresh daemon for every TU's answer and pin it."""
    sources = mix.load_sources()
    work = tempfile.mkdtemp(dir=checkout, prefix=".perfbench-pin-")
    daemon = Daemon(checkout, work, ["-m", "repro"])
    try:
        connection = daemon.connect()
        digests, truncated = {}, {}
        for tu in mix.TUS:
            request = mix.analyze_request(tu, "analyze", sources[tu])
            status, body = connection.request(request.raw)
            if status != 200:
                raise SystemExit(f"pin: {tu} answered {status}")
            digests[tu] = payload_digest(json.loads(body))
        for tu in mix.BASE_TUS:
            request = mix.analyze_request(
                tu, "truncated", mix.truncate(sources[tu])
            )
            status, body = connection.request(request.raw)
            payload = json.loads(body)
            if status != 400 or set(payload) != ERROR_KEYS:
                raise SystemExit(f"pin: truncated {tu} answered {status}")
            truncated[tu] = error_shape(payload)
        version = daemon.get_json("/healthz")["version"]
        connection.close()
    finally:
        daemon.stop()
        shutil.rmtree(work, ignore_errors=True)
    return {"version": version, "digests": digests, "truncated": truncated}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pin", action="store_true", required=True)
    parser.parse_args()
    expected = pin(os.getcwd())
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(expected['digests'])} digests and "
          f"{len(expected['truncated'])} error shapes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
