"""Process control for the benchmark: ``repro`` subprocesses, a
keep-alive HTTP/1.1 client for ``repro serve``, and ``/proc`` readers.

The benchmark drives the program only from outside: the daemon runs as
``python -m repro serve`` (or under the tracing bootstrap) in its own
process, and the load generator speaks plain HTTP to it over one
persistent connection.  Request bytes are encoded before the timed
phase, so the client's per-request work is a ``sendall`` and a read.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

#: How long a daemon may take to print its ready line or drain.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

#: Clock ticks per second for ``/proc/<pid>/stat`` CPU fields.
_TICKS = os.sysconf("SC_CLK_TCK")


def repro_env(checkout: str, cache_dir: str) -> dict[str, str]:
    """Environment for one private ``repro`` process tree.

    Every persistent store (profiles, analyses, codegen, attribution,
    ledger, stats snapshot, fuzz corpus) lives under ``cache_dir``, so a
    run never reads or writes ``~/.cache/repro`` and never sees another
    run's state.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(
        PYTHONPATH=os.path.join(checkout, "src"),
        REPRO_CACHE_DIR=cache_dir,
        REPRO_FUZZ_DIR=os.path.join(cache_dir, "fuzz"),
        REPRO_TRACE_FILE=os.path.join(cache_dir, "repro-trace.jsonl"),
        XDG_CACHE_HOME=os.path.join(cache_dir, "xdg"),
    )
    return env


def encode_post(path: str, payload: dict) -> bytes:
    """One complete ``POST`` request, ready to send."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: perfbench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


def encode_get(path: str) -> bytes:
    """One complete ``GET`` request, ready to send."""
    return f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode("ascii")


class Connection:
    """A persistent HTTP/1.1 connection (Content-Length bodies only)."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one encoded request; returns ``(status, body)``."""
        self.sock.sendall(raw)
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        while len(rest) < length:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("connection closed mid-body")
            rest += chunk
        self._buffer = rest[length:]
        return status, rest[:length]

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("connection closed by the daemon")
        self._buffer += chunk

    def close(self) -> None:
        self.sock.close()


class Daemon:
    """One ``repro serve`` process with a private cache dir.

    ``argv`` is the command after the interpreter: ``-m repro serve
    --port 0`` for a plain run, or the tracing bootstrap followed by
    the same CLI arguments.  The daemon's stdout carries only its ready
    line; its stderr (the JSON access log) goes to ``access.log`` in
    the cache dir.
    """

    def __init__(self, checkout: str, cache_dir: str, argv: list[str]):
        os.makedirs(cache_dir, exist_ok=True)
        self.cache_dir = cache_dir
        self._log = open(os.path.join(cache_dir, "access.log"), "wb")
        env = repro_env(checkout, cache_dir)
        env["PERFBENCH_SPAWN_TIME"] = repr(time.time())
        self.proc = subprocess.Popen(
            [sys.executable, *argv, "serve", "--port", "0"],
            cwd=checkout,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        # A daemon that never gets ready is killed, which ends the read.
        watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self._ready_line()
        finally:
            watchdog.cancel()
        address = line.rsplit("http://", 1)[1].strip()
        host, _, port = address.rpartition(":")
        self.host, self.port = host, int(port)

    def _ready_line(self) -> str:
        assert self.proc.stdout is not None
        for raw in self.proc.stdout:
            line = raw.decode("utf-8", "replace")
            if "serving on http://" in line:
                return line
        self.stop()
        raise RuntimeError("repro serve did not print its ready line")

    def connect(self) -> Connection:
        return Connection(self.host, self.port)

    def get_json(self, path: str) -> dict:
        status, body = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def get(self, path: str) -> tuple[int, bytes]:
        connection = self.connect()
        try:
            return connection.request(encode_get(path))
        finally:
            connection.close()

    def cpu_seconds(self) -> float:
        """The daemon's user+sys CPU so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL past the
        timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def run_cli(
    checkout: str,
    cache_dir: str,
    argv: list[str],
    stdout_path: str,
    timeout: float = 120.0,
) -> tuple[int, float, float, float]:
    """Run one CLI process to completion.

    Returns ``(exit code, wall seconds, CPU seconds, peak RSS MiB)``;
    CPU and peak RSS come from ``wait4`` and so cover the process and
    every worker it reaped.
    """
    env = repro_env(checkout, cache_dir)
    env["PERFBENCH_SPAWN_TIME"] = repr(time.time())
    with open(stdout_path, "wb") as out, open(
        stdout_path + ".err", "wb"
    ) as err:
        clock = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=checkout,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - clock
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )
