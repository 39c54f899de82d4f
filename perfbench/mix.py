"""The benchmark's inputs and request mixes.

Inputs are pinned copies under ``inputs/``: the 14 suite translation
units (TUs) plus suite-XL ``xl33`` (65 KB, 49 functions), so the work a
run sends never changes with the program under test.

The seed only salts and shuffles.  Every seed sends the same multiset
of ``(TU, kind)`` requests, so per-run work cannot vary with the seed
(a seed that drew a few heavy programs would move every number).
"""

from __future__ import annotations

import hashlib
import os
import random
import re
from collections import Counter
from dataclasses import dataclass

from daemon import encode_post

BASE_TUS = (
    "alvinn", "awk", "bison", "cc", "cholesky", "compress", "ear",
    "eqntott", "espresso", "gs", "mpeg", "sc", "water", "xlisp",
)
XL_TU = "xl33"
#: Every analyzed TU.
TUS = BASE_TUS + (XL_TU,)

INPUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")


@dataclass(frozen=True)
class Request:
    """One pre-encoded ``POST /v1/analyze``."""

    tu: str
    #: ``analyze`` (expects a 200) or ``truncated`` (expects a
    #: structured 400).
    kind: str
    name: str
    source: str
    raw: bytes

    @property
    def source_hash(self) -> str:
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()


def load_sources() -> dict[str, str]:
    """The pinned source of every TU."""
    sources = {}
    for tu in TUS:
        with open(os.path.join(INPUT_DIR, f"{tu}.c"), encoding="utf-8") as f:
            sources[tu] = f.read()
    return sources


_FUNCTION_HEADER = re.compile(r"\)\s*\{\s*$")


def truncate(source: str) -> str:
    """``source`` cut at a line boundary inside a function body.

    Cutting at the middle line is not enough: half of ``compress.c``
    ends between two functions and parses.  The cut is the first line
    boundary at or after the middle where the text so far is inside a
    function body (opened by a ``) {`` line) and the last line is a
    complete statement, so the parser reaches end of input with an
    unclosed body.
    """
    lines = source.splitlines(keepends=True)
    depth = 0
    in_function = False
    for index, line in enumerate(lines):
        code = line.split("//", 1)[0]
        if depth == 0 and "{" in code:
            in_function = bool(_FUNCTION_HEADER.search(code)) or (
                code.strip() == "{"
                and index > 0
                and lines[index - 1].rstrip().endswith(")")
            )
        depth += code.count("{") - code.count("}")
        if (
            index + 1 >= len(lines) // 2
            and in_function
            and depth >= 1
            and code.rstrip().endswith(";")
        ):
            return "".join(lines[: index + 1])
    raise ValueError("no line boundary inside a function body")


def analyze_request(tu: str, kind: str, source: str) -> Request:
    name = f"{tu}.c"
    raw = encode_post("/v1/analyze", {"name": name, "source": source})
    return Request(tu, kind, name, source, raw)


def edit_cycles(
    sources: dict[str, str], seed: int, cycles: int
) -> list[list[Request]]:
    """``serve_edit``: one editor's saves, ``cycles`` rounds of 16.

    Each cycle posts all 15 TUs with a seed-salted trailing comment
    (so the session pool and every content-hash cache miss) and one
    base TU truncated inside a function body, rotating through the 14
    base TUs by cycle index.  The seed shuffles the order within each
    cycle.
    """
    rng = random.Random(f"serve_edit:{seed}")
    truncated = {tu: truncate(sources[tu]) for tu in BASE_TUS}
    plan = []
    for cycle in range(cycles):
        batch = [
            analyze_request(
                tu,
                "analyze",
                sources[tu] + f"\n/* perfbench edit {seed}.{cycle} */\n",
            )
            for tu in TUS
        ]
        cut = BASE_TUS[cycle % len(BASE_TUS)]
        batch.append(analyze_request(cut, "truncated", truncated[cut]))
        rng.shuffle(batch)
        plan.append(batch)
    return plan


def multiset(requests) -> Counter:
    """The ``(TU, kind)`` multiset a request list sends."""
    return Counter((request.tu, request.kind) for request in requests)
