"""Parse what ``repro`` printed and compare it with the expected answer.

Each checker returns ``None`` when the output matches and a one-line
reason otherwise; the benchmark counts every non-``None`` as a failure.
"""

from __future__ import annotations

import re
from typing import List, Optional

from perfbench.generate import Expect

_HOLDS = re.compile(r"^HOLDS: .* sat .*  \((\d+) traces, depth ≤ \d+\)$")
_TRACES = re.compile(r"^(\d+) traces \(depth ≤ \d+, engine \w+\):$")
_STATS = re.compile(r"^\S+: (\d+) traces in \d+ trie nodes \(depth ≤ \d+, engine \w+\)$")
_CACHE = re.compile(r"^snapshot cache: (\d+) hits, (\d+) misses")
_NO_DEADLOCK = re.compile(r"^no deadlock reachable within \d+ visible events")
_DEADLOCKS = re.compile(r"^(\d+) deadlocking trace\(s\) \(\d+ states touched\):$")
_SIDE = re.compile(r"^  \d+ side conditions discharged semantically$")


def _split_verdicts(stdout: str) -> List[List[str]]:
    """``check`` output as one line block per verdict."""
    blocks: List[List[str]] = []
    for line in stdout.splitlines():
        if line.startswith(("HOLDS:", "VIOLATED:")) or not blocks:
            blocks.append([line])
        else:
            blocks[-1].append(line)
    return blocks


def _verdict(expect: Expect, block: List[str]) -> Optional[str]:
    head = block[0] if block else ""
    if expect.verdict == "HOLDS":
        match = _HOLDS.match(head)
        if not match:
            return f"expected HOLDS, got {head[:80]!r}"
        if expect.count is not None and int(match.group(1)) != expect.count:
            return f"HOLDS with {match.group(1)} traces, expected {expect.count}"
        return None
    if not head.startswith("VIOLATED:"):
        return f"expected VIOLATED, got {head[:80]!r}"
    if not any(line.startswith("  by trace: ⟨") for line in block[1:]):
        return "VIOLATED without a counterexample trace"
    return None


def check_verdicts(expect: Expect, stdout: str) -> Optional[str]:
    """``check`` output: one verdict, or one per spec of a batch."""
    wanted = expect.verdicts or (expect,)
    blocks = _split_verdicts(stdout)
    if len(blocks) != len(wanted):
        return f"{len(blocks)} verdicts printed, expected {len(wanted)}"
    for want, block in zip(wanted, blocks):
        problem = _verdict(want, block)
        if problem:
            return problem
    return None


def check_output(expect: Expect, stdout: str, exit_code: int) -> Optional[str]:
    """Compare one command's stdout and exit code with ``expect``."""
    if exit_code != expect.exit_code:
        return f"exit code {exit_code}, expected {expect.exit_code}"
    lines = stdout.splitlines()
    head = lines[0] if lines else ""
    kind = expect.verdict
    if kind in ("HOLDS", "VIOLATED"):
        return check_verdicts(expect, stdout)
    if kind == "TRACES":
        match = _TRACES.match(head)
        if not match:
            return f"expected a trace listing, got {head[:80]!r}"
        listed = sum(1 for line in lines[1:] if line.startswith("  ⟨"))
        if int(match.group(1)) != expect.count or listed != expect.count:
            return f"{match.group(1)} traces ({listed} listed), expected {expect.count}"
        return None
    if kind == "STATS":
        match = _STATS.match(head)
        if not match or int(match.group(1)) != expect.count:
            return f"expected {expect.count} traces, got {head[:80]!r}"
        if expect.cache_hits is not None:
            cache = next((m for m in map(_CACHE.match, lines) if m), None)
            if cache is None:
                return "stats printed no snapshot cache account"
            if (int(cache.group(1)) > 0) != expect.cache_hits:
                return f"snapshot cache hits {cache.group(1)}, expected " + (
                    "some" if expect.cache_hits else "none"
                )
        if not any(line == "trace-trie kernel statistics" for line in lines):
            return "stats printed no kernel statistics"
        return None
    if kind == "PARSE":
        for name in expect.names:
            if not any(line.startswith(f"{name}") for line in lines):
                return f"pretty-printed definitions lack {name!r}"
        return None
    if kind == "DEADLOCKS":
        if expect.count == 0:
            return None if _NO_DEADLOCK.match(head) else f"unexpected {head[:80]!r}"
        match = _DEADLOCKS.match(head)
        listed = sum(1 for line in lines[1:] if line.startswith("  ⟨"))
        if not match or int(match.group(1)) != expect.count or listed != expect.count:
            return f"expected {expect.count} deadlocking traces, got {head[:80]!r}"
        return None
    if kind == "PROVED":
        if not head.startswith("checked ⊢ ") or not any(map(_SIDE.match, lines)):
            return f"expected a checked proof, got {head[:80]!r}"
        return None
    if kind == "PROOF FAILED":
        if not head.startswith("PROOF FAILED: "):
            return f"expected PROOF FAILED, got {head[:80]!r}"
        return None
    raise ValueError(f"unknown expected verdict {kind!r}")
