"""Zero-dependency sampling wall-clock profiler.

A background daemon thread wakes every ``interval_ms`` and snapshots
the Python stacks of every other thread via
:func:`sys._current_frames`, aggregating identical stacks into a
counter.  Sampling observes threads from outside — the profiled code
runs unmodified at full speed, so overhead is just the sampler
thread's own wakeups (measured < 2% at the default 5 ms interval; see
DESIGN.md §15).

Output formats:

* **collapsed stacks** (:meth:`SamplingProfiler.collapsed_text`) —
  one ``frame;frame;frame count`` line per distinct stack, the
  interchange format every flamegraph tool reads;
* **flamegraph SVG** (:func:`flamegraph_svg`) — a self-contained
  SVG (no JavaScript, no external assets): depth-stacked rectangles,
  width proportional to samples, ``<title>`` tooltips with sample
  counts and percentages.

Frames are labelled ``path:function`` with paths shortened to their
``repro/``-relative form.  By default, stacks whose leaf frame is
parked in the interpreter's own wait machinery (``threading``,
``selectors``, ``queue``, executor workers waiting for jobs) are
dropped — a wall-clock profile of a mostly idle daemon would
otherwise be 99% scheduler noise; ``include_idle=True`` keeps them.

Wired as ``repro profile -- <subcommand>`` and ``GET /debug/profile``
on the daemon.
"""

from __future__ import annotations

import html
import os
import sys
import threading
import time
import zlib
from collections import Counter
from typing import Optional

#: Default sampling interval (5 ms ≈ 200 Hz).
DEFAULT_INTERVAL_MS = 5.0

#: A stack whose leaf frame lives in one of these files is "idle":
#: parked in locks, selectors, or executor queues rather than running.
_IDLE_BASENAMES = {
    "threading.py",
    "selectors.py",
    "queue.py",
    "socket.py",
    "ssl.py",
}
_IDLE_SUFFIXES = (
    "concurrent/futures/thread.py",
    "multiprocessing/connection.py",
    "asyncio/base_events.py",
)


def _frame_label(frame) -> str:
    """``repro/serve/app.py:handle``-style label for one frame."""
    code = frame.f_code
    path = code.co_filename.replace(os.sep, "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        short = path[marker + 1:]
    else:
        short = path.rsplit("/", 1)[-1]
    return f"{short}:{code.co_name}"


def _is_idle(frame) -> bool:
    path = frame.f_code.co_filename.replace(os.sep, "/")
    if path.rsplit("/", 1)[-1] in _IDLE_BASENAMES:
        return True
    return path.endswith(_IDLE_SUFFIXES)


class SamplingProfiler:
    """Background wall-clock stack sampler (a context manager)."""

    def __init__(
        self,
        interval_ms: float = DEFAULT_INTERVAL_MS,
        include_idle: bool = False,
    ) -> None:
        self.interval_s = max(0.0005, float(interval_ms) / 1000.0)
        self.include_idle = include_idle
        #: root-first frame tuples → sample count.
        self.samples: Counter[tuple[str, ...]] = Counter()
        self.total_samples = 0
        self.idle_samples = 0
        self.wall_seconds = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started = 0.0

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._started = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.wall_seconds += time.perf_counter() - self._started

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self._sample(own)

    def _sample(self, own: int) -> None:
        for thread_id, frame in sys._current_frames().items():
            if thread_id == own:
                continue
            if not self.include_idle and _is_idle(frame):
                self.idle_samples += 1
                continue
            stack: list[str] = []
            while frame is not None:
                stack.append(_frame_label(frame))
                frame = frame.f_back
            if not stack:
                continue
            stack.reverse()
            self.samples[tuple(stack)] += 1
            self.total_samples += 1

    # ------------------------------------------------------------------

    def collapsed(self) -> dict[str, int]:
        """``{"frame;frame;...": count}`` in deterministic order."""
        return {
            ";".join(stack): count
            for stack, count in sorted(self.samples.items())
        }

    def collapsed_text(self) -> str:
        """The collapsed-stack interchange format, one line each."""
        return "\n".join(
            f"{stack} {count}"
            for stack, count in self.collapsed().items()
        ) + ("\n" if self.samples else "")

    def flamegraph_svg(self, title: str = "repro profile") -> str:
        return flamegraph_svg(self.collapsed(), title=title)


# ----------------------------------------------------------------------
# Flamegraph rendering.

_FRAME_HEIGHT = 17
_WIDTH = 1200
_MIN_FRAME_PX = 0.5
_CHAR_PX = 6.8


class _Node:
    __slots__ = ("name", "value", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.children: dict[str, "_Node"] = {}


def _frame_color(name: str) -> str:
    """A deterministic warm color per frame name (classic palette)."""
    digest = zlib.crc32(name.encode("utf-8"))
    red = 205 + digest % 50
    green = 60 + (digest >> 8) % 130
    blue = (digest >> 16) % 40
    return f"rgb({red},{green},{blue})"


def flamegraph_svg(
    collapsed: dict[str, int], title: str = "repro profile"
) -> str:
    """Self-contained flamegraph SVG from collapsed stacks.

    Root-first stacks merge into a trie; each node becomes one
    rectangle whose width is proportional to its inclusive sample
    count, stacked by depth, siblings in name order (deterministic
    output for identical profiles).  No scripts, no external assets —
    the file opens in any browser or image viewer.
    """
    root = _Node("all")
    for stack, count in sorted(collapsed.items()):
        count = int(count)
        root.value += count
        node = root
        for frame in stack.split(";"):
            child = node.children.get(frame)
            if child is None:
                child = node.children[frame] = _Node(frame)
            child.value += count
            node = child

    def depth_of(node: _Node) -> int:
        return 1 + max(
            (depth_of(child) for child in node.children.values()),
            default=0,
        )

    depth = depth_of(root)
    height = (depth + 2) * _FRAME_HEIGHT + 24
    total = root.value
    rects: list[str] = []

    def emit(node: _Node, x: float, width: float, level: int) -> None:
        if width < _MIN_FRAME_PX:
            return
        y = height - (level + 2) * _FRAME_HEIGHT
        label = html.escape(node.name)
        percent = 100.0 * node.value / total if total else 0.0
        tooltip = (
            f"{label} ({node.value} samples, {percent:.2f}%)"
        )
        rects.append(
            f'<g><title>{tooltip}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{width:.2f}" '
            f'height="{_FRAME_HEIGHT - 1}" '
            f'fill="{_frame_color(node.name)}" rx="1"/>'
        )
        max_chars = int(width / _CHAR_PX)
        if max_chars >= 3:
            text = node.name
            if len(text) > max_chars:
                text = text[: max_chars - 1] + "…"
            rects.append(
                f'<text x="{x + 2:.2f}" y="{y + 12}" '
                f'font-size="11" font-family="monospace">'
                f"{html.escape(text)}</text>"
            )
        rects.append("</g>")
        cursor = x
        for name in sorted(node.children):
            child = node.children[name]
            child_width = (
                width * child.value / node.value if node.value else 0.0
            )
            emit(child, cursor, child_width, level + 1)
            cursor += child_width

    if total:
        emit(root, 0.0, float(_WIDTH), 0)
    header = html.escape(
        f"{title} — {total} samples"
        if total
        else f"{title} — no samples"
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">\n'
        f'<rect width="{_WIDTH}" height="{height}" fill="#fdf6e3"/>\n'
        f'<text x="8" y="16" font-size="13" '
        f'font-family="monospace">{header}</text>\n'
        + "\n".join(rects)
        + "\n</svg>\n"
    )


def write_profile(
    profiler: SamplingProfiler,
    path: Optional[str] = None,
    title: str = "repro profile",
) -> tuple[str, str]:
    """Write the SVG and collapsed stacks; returns both paths.

    ``path`` names the SVG (default ``REPRO_PROFILE_FILE`` or
    ``repro-profile.svg``); collapsed stacks land next to it with a
    ``.collapsed`` extension.
    """
    svg_path = path or os.environ.get(
        "REPRO_PROFILE_FILE", ""
    ).strip() or "repro-profile.svg"
    base, _ = os.path.splitext(svg_path)
    collapsed_path = base + ".collapsed"
    with open(svg_path, "w", encoding="utf-8") as handle:
        handle.write(profiler.flamegraph_svg(title=title))
    with open(collapsed_path, "w", encoding="utf-8") as handle:
        handle.write(profiler.collapsed_text())
    return svg_path, collapsed_path
