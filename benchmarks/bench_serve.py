"""Benchmark the payoff of ``repro serve``: warm-daemon query latency
vs. a cold single-shot CLI invocation.

A cold ``repro check`` pays Python interpreter startup, package import,
``.csp`` parsing, and the full fixpoint solve on every call.  A warm
daemon worker pays those once, so the steady-state cost of a repeated
query is one socket round-trip plus the sat walk over an
already-solved closure.  This module records both sides and their
ratio to ``BENCH_serve.json``; ``bench_guard.py`` re-measures the
ratio and fails CI if the warm path stops beating the cold path by the
acceptance factor.

Run as::

    PYTHONPATH=src python -m benchmarks.bench_serve
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "csp"

#: (case name, source file, extra CLI args) — each must HOLD (exit 0) so
#: a verdict mismatch shows up as a benchmark failure, not a quiet skip.
CASES = (
    (
        "check protocol depth=6",
        "protocol.csp",
        ["--set", "M=0,1", "--spec", "output <= input", "--depth", "6"],
    ),
    (
        "check copier depth=6",
        "copier.csp",
        ["--process", "network", "--spec", "output <= input", "--depth", "6"],
    ),
)

COLD_RUNS = 3
WARM_RUNS = 20


def _cli_env() -> dict:
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    return env


def _cold_run(source: Path, args: list) -> "tuple[float, str]":
    """One cold CLI invocation; returns (seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", str(source), "--no-cache",
         *args],
        env=_cli_env(),
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(
            f"cold run failed ({proc.returncode}): {proc.stderr.strip()}"
        )
    return elapsed, proc.stdout


def _serve_case(name: str, filename: str, args: list) -> dict:
    """Cold-vs-warm measurement for one query.

    The daemon runs with one worker so every warm query hits the same
    warm checker; the first warm query (which pays the solve) is
    excluded — it is the cold path's job to show that cost.
    """
    from repro.cli import build_parser
    from repro.process.parser import parse_definitions
    from repro.server.client import ServerClient
    from repro.server.supervisor import Supervisor

    source = EXAMPLES / filename
    cold_s = min(_cold_run(source, args)[0] for _ in range(COLD_RUNS))
    cold_stdout = _cold_run(source, args)[1]

    parsed = build_parser().parse_args(
        ["check", str(source), "--no-cache", *args]
    )
    defs = parse_definitions(source.read_text(encoding="utf-8"))
    query = dict(
        process=parsed.process,
        spec=parsed.spec,
        depth=parsed.depth,
        sample=parsed.sample,
        sets=parsed.set or [],
        with_cancel=parsed.with_cancel,
        no_cache=True,
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        supervisor = Supervisor(os.path.join(tmp, "bench.sock"), jobs=1)
        supervisor.start()
        try:
            with ServerClient(supervisor.socket_path) as client:
                first = client.check(defs, **query)  # pays the solve
                if first["stdout"] + "\n" != cold_stdout:
                    raise SystemExit(
                        f"verdict mismatch for {name!r}: "
                        f"{first['stdout']!r} vs {cold_stdout!r}"
                    )
                warm = []
                for _ in range(WARM_RUNS):
                    start = time.perf_counter()
                    response = client.check(defs, **query)
                    warm.append(time.perf_counter() - start)
                    assert response["stdout"] == first["stdout"]
        finally:
            supervisor.stop()
    warm_s = sorted(warm)[len(warm) // 2]  # median: damps GC spikes
    return {
        "case": name,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 5),
        "speedup": round(cold_s / warm_s, 1) if warm_s else float("inf"),
        "cold_runs": COLD_RUNS,
        "warm_runs": WARM_RUNS,
    }


#: Concurrent clients hammering a two-worker pool in the concurrency
#: case below.
CONCURRENT_CLIENTS = 8


def _concurrent_case() -> dict:
    """Eight clients firing the same batch check at a two-worker pool at
    once.  Under ``no_cache`` nothing is shared between workers, so each
    worker solves the system at most once and at most the pool width of
    solves is ever paid.  Records wall clock for the concurrent volley
    vs the same requests serialised through one warm connection."""
    import threading

    from repro.process.parser import parse_definitions
    from repro.server.client import ServerClient
    from repro.server.supervisor import Supervisor

    source = EXAMPLES / "protocol.csp"
    defs = parse_definitions(source.read_text(encoding="utf-8"))
    query = dict(
        spec=["output <= input"],
        depth=6,
        sets=["M=0,1"],
        no_cache=True,
    )
    outputs = []
    lock = threading.Lock()

    def one_client(socket_path: str) -> None:
        with ServerClient(socket_path) as client:
            response = client.check(defs, **query)
        with lock:
            outputs.append((response["exit_code"], response["stdout"]))

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        supervisor = Supervisor(os.path.join(tmp, "pool.sock"), jobs=2)
        supervisor.start()
        try:
            start = time.perf_counter()
            threads = [
                threading.Thread(
                    target=one_client, args=(supervisor.socket_path,)
                )
                for _ in range(CONCURRENT_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            concurrent_s = time.perf_counter() - start
            if len({o for o in outputs}) != 1:
                raise SystemExit(
                    f"concurrent clients disagreed: {outputs!r}"
                )
            with ServerClient(supervisor.socket_path) as client:
                start = time.perf_counter()
                for _ in range(CONCURRENT_CLIENTS):
                    client.check(defs, **query)
                serial_s = time.perf_counter() - start
        finally:
            supervisor.stop()
    case = {
        "case": f"concurrent clients n={CONCURRENT_CLIENTS} jobs=2",
        "concurrent_s": round(concurrent_s, 4),
        # the same volley serialised through one warm connection — the
        # steady-state floor the concurrent path converges to once the
        # pool is fully warmed
        "serial_warm_s": round(serial_s, 4),
    }
    print(
        f"{case['case']:<28} concurrent {concurrent_s * 1000:8.1f} ms   "
        f"serial-warm {serial_s * 1000:8.1f} ms"
    )
    return case


def generate() -> dict:
    cases = []
    for name, filename, args in CASES:
        case = _serve_case(name, filename, args)
        print(
            f"{case['case']:<28} cold {case['cold_s']*1000:8.1f} ms   "
            f"warm {case['warm_s']*1000:7.2f} ms   ×{case['speedup']}"
        )
        cases.append(case)
    return {
        "description": (
            "repro serve warm-daemon query latency vs cold single-shot "
            "CLI invocation (same query, byte-identical verdict), plus "
            "concurrent clients against a two-worker pool (no cache: "
            "each worker solves the system at most once)"
        ),
        "python": sys.version.split()[0],
        "cases": cases,
        "concurrent_cases": [_concurrent_case()],
    }


def main() -> None:
    report = generate()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
