"""Untraced runs: set up a workload, drive ``repro`` through its public
surface, time every operation, and check every answer.

CLI workloads run ``python -m repro …`` subprocesses one at a time (a
closed loop with one client).  The serve workload starts ``repro serve
--jobs 2`` and drives it through :class:`repro.server.client.ServerClient`
from two client threads (a closed loop with two clients).
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import generate
from perfbench.verdicts import check_output

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Serve requests per pass (a fixed slice of the seeded stream).
SERVE_PASS = 400
#: Seconds allowed for a daemon to answer its first ping.
DAEMON_START_TIMEOUT = 60.0


@dataclass
class Context:
    """Where a run lives: the checkout root and its scratch directory."""

    root: Path
    scratch: Path

    @property
    def src(self) -> Path:
        return self.root / "src"

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["PYTHONHASHSEED"] = "0"
        return env

    def tempdir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))


@dataclass
class Tally:
    """Per-operation timings and answer checks of one run."""

    latencies: List[float] = field(default_factory=list)  #: seconds
    passes: List[float] = field(default_factory=list)  #: seconds
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    measured_s: float = 0.0

    def record(self, latency: float, problem: Optional[str], what: str) -> None:
        self.attempted += 1
        self.latencies.append(latency)
        if problem is not None:
            self.fail(f"{what}: {problem}")

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def write_inputs(work: generate.Workload, directory: Path) -> None:
    for system in work.systems.values():
        (directory / f"{system.key}.csp").write_text(system.source, encoding="utf-8")


def run_command(
    ctx: Context, argv: Sequence[str], cwd: Path
) -> Tuple[float, int, str, float]:
    """Run one ``python -m repro`` process; return (seconds, exit code,
    stdout, peak RSS in MB) — RSS from ``os.wait4`` of that child."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd, env=ctx.child_env(), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    return elapsed, proc.returncode, stdout, usage.ru_maxrss / 1024.0


def command_argv(command: generate.Command, cache_root: Path) -> List[str]:
    argv = list(command.argv)
    if command.situation:
        argv += ["--cache-dir", str(cache_root / command.situation)]
    return argv


# -- CLI workloads ------------------------------------------------------------


def setup_cli(ctx: Context, name: str, seed: int) -> Tuple[generate.Workload, Path, float]:
    """Generate the inputs, compile ``.pyc`` files, and warm up with one
    command, ``SETUP_REPEATS`` times; returns the last set-up and the
    median set-up time."""
    times: List[float] = []
    inputs: Optional[Path] = None
    for _ in range(SETUP_REPEATS):
        if inputs is not None:
            shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        work = generate.build(name, seed)
        inputs = ctx.tempdir("inputs-")
        write_inputs(work, inputs)
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ctx.src / "repro")],
            env=ctx.child_env(), check=True, stdout=subprocess.DEVNULL,
        )
        first = next(iter(work.systems.values()))
        _, code, _, _ = run_command(
            ctx, ["check", f"{first.key}.csp", "--process", first.target,
                  "--spec", "true", "--depth", "1", "--no-cache", *first.options],
            inputs,
        )
        if code != 0:
            raise RuntimeError(f"warm-up command exited {code}")
        times.append(time.perf_counter() - start)
    assert inputs is not None
    return work, inputs, statistics.median(times)


def cli_pass(ctx: Context, work: generate.Workload, inputs: Path, tally: Tally) -> float:
    """One pass over the workload's fixed command sequence, against a
    fresh cache directory; returns its wall time."""
    cache_root = ctx.tempdir("cache-")
    start = time.perf_counter()
    for command in work.commands:
        elapsed, code, stdout, rss = run_command(
            ctx, command_argv(command, cache_root), inputs
        )
        tally.peak_rss_mb = max(tally.peak_rss_mb, rss)
        tally.record(elapsed, check_output(command.expect, stdout, code),
                     f"{command.label} {command.system}")
    wall = time.perf_counter() - start
    shutil.rmtree(cache_root, ignore_errors=True)
    return wall


def another_pass(start: float, passes: List[float], seconds: float) -> bool:
    """Start a pass unless it would end more than half a pass after
    ``seconds`` (there is always at least one)."""
    if not passes:
        return True
    return time.perf_counter() - start + statistics.median(passes) / 2 < seconds


def run_cli(ctx: Context, work: generate.Workload, inputs: Path, seconds: float) -> Tally:
    """Closed loop: repeat the fixed sequence for about ``seconds``."""
    tally = Tally()
    start = time.perf_counter()
    while another_pass(start, tally.passes, seconds):
        tally.passes.append(cli_pass(ctx, work, inputs, tally))
    tally.measured_s = time.perf_counter() - start
    return tally


# -- serve workload -----------------------------------------------------------


class Daemon:
    """A ``repro serve --jobs 2`` child with its own cache directory."""

    def __init__(self, ctx: Context, work: generate.Workload) -> None:
        from repro.process.parser import parse_definitions
        from repro.server import protocol

        self.home = ctx.tempdir("serve-")
        self.cache_dir = self.home / "cache"
        # Unix socket paths are short; keep it relative to the checkout.
        self.socket = os.path.relpath(self.home / "d.sock", ctx.root)
        self._log = open(self.home / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--jobs", "2"],
            cwd=ctx.root, env=ctx.child_env(), stdout=self._log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        # One request template per situation; requests differ only in
        # spec and id.
        self._templates: Dict[Tuple[str, int, int], dict] = {}
        for request in work.warmup:
            system = work.systems[request.system]
            self._templates[(request.system, request.depth, request.sample)] = (
                protocol.query(
                    "check", parse_definitions(system.source),
                    process=system.target, depth=request.depth,
                    sample=request.sample, sets=system.sets,
                    with_cancel=system.with_cancel,
                    cache_dir=os.path.relpath(self.cache_dir, ctx.root),
                )
            )

    def client(self):
        from repro.server.client import ServerClient

        return ServerClient(self.socket, attempts=1)

    def wait_ready(self) -> None:
        from repro.errors import ReproError

        deadline = time.perf_counter() + DAEMON_START_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited {self.proc.returncode}")
            try:
                with self.client() as client:
                    client.ping()
                return
            except (OSError, ReproError):
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)

    def payload(self, request: generate.Request, rid: str) -> dict:
        payload = dict(self._templates[(request.system, request.depth, request.sample)])
        payload["spec"] = (
            list(request.specs) if len(request.specs) > 1 else request.specs[0]
        )
        payload["id"] = rid
        return payload

    def stats(self) -> dict:
        with self.client() as client:
            return client.stats()

    def peak_rss_mb(self, stats: dict) -> float:
        """Peak resident set of the supervisor plus its workers (VmHWM)."""
        pids = [self.proc.pid] + [w["pid"] for w in stats.get("workers", [])]
        total_kb = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self) -> None:
        from repro.errors import ReproError

        if self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
            except (OSError, ReproError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        shutil.rmtree(self.home, ignore_errors=True)


def serve_requests(
    daemon: Daemon,
    requests: Sequence[generate.Request],
    ids: str,
    tally: Optional[Tally],
    clients: int = 2,
) -> float:
    """Issue ``requests`` from ``clients`` closed-loop client threads
    sharing one queue; returns the wall time until all are answered.
    Without a ``tally`` (the warm-up pass) a wrong answer raises."""
    from repro.errors import ReproError

    lock = threading.Lock()
    cursor = [0]
    errors: List[BaseException] = []

    def client_loop() -> None:
        with daemon.client() as client:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                request = requests[index]
                payload = daemon.payload(request, f"{ids}-{index}")
                start = time.perf_counter()
                try:
                    response = client.call(payload)
                    problem = None
                except (OSError, ReproError) as exc:
                    response, problem = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                if response is not None:
                    if response.get("status") != "OK":
                        problem = f"status {response.get('status')}"
                    else:
                        problem = check_output(
                            request.expect, response.get("stdout") or "",
                            int(response.get("exit_code", -1)),
                        )
                if tally is not None:
                    with lock:
                        tally.record(elapsed, problem, f"request {request.system}")
                elif problem is not None:
                    raise RuntimeError(f"warm-up request failed: {problem}")

    def guarded() -> None:
        try:
            client_loop()
        except BaseException as exc:  # re-raised below, in the caller's thread
            errors.append(exc)

    start = time.perf_counter()
    threads = [threading.Thread(target=guarded) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return time.perf_counter() - start


def setup_serve(ctx: Context, seed: int) -> Tuple[generate.Workload, Daemon, float]:
    """Generate the stream, start the daemon, wait for its first ping,
    and run the warm-up pass — ``SETUP_REPEATS`` times, keeping the last
    daemon; returns the median set-up time."""
    times: List[float] = []
    daemon: Optional[Daemon] = None
    for attempt in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        start = time.perf_counter()
        work = generate.build("serve", seed)
        daemon = Daemon(ctx, work)
        try:
            daemon.wait_ready()
            # The warm-up pass: every situation twice.
            serve_requests(daemon, work.warmup * 2, f"warm{attempt}", None)
        except BaseException:
            daemon.stop()
            raise
        times.append(time.perf_counter() - start)
    assert daemon is not None
    return work, daemon, statistics.median(times)


def count_daemon_failures(stats: dict, tally: Tally) -> None:
    """Every shed, retried, respawned or crashed request the daemon's
    ``stats`` op reports is a failure."""
    for counter in ("shed", "retries", "respawns", "crashes"):
        if stats.get(counter):
            tally.fail(f"daemon reports {stats[counter]} {counter}", stats[counter])


def stream_passes(work: generate.Workload):
    """Successive fixed slices of the seeded request stream."""
    for offset in range(0, len(work.requests) - SERVE_PASS + 1, SERVE_PASS):
        yield offset, work.requests[offset:offset + SERVE_PASS]


def run_serve(daemon: Daemon, work: generate.Workload, seconds: float) -> Tally:
    """Closed loop with two clients for about ``seconds``; then read the
    daemon's counters: any shed, retried, respawned or crashed request is
    a failure."""
    tally = Tally()
    start = time.perf_counter()
    for offset, requests in stream_passes(work):
        if not another_pass(start, tally.passes, seconds):
            break
        tally.passes.append(serve_requests(daemon, requests, f"r{offset}", tally))
    tally.measured_s = time.perf_counter() - start
    stats = daemon.stats()
    count_daemon_failures(stats, tally)
    tally.peak_rss_mb = daemon.peak_rss_mb(stats)
    return tally


# -- metrics ------------------------------------------------------------------

#: Percentiles considered for the tail metric, lowest first.  It stops at
#: p99: a serve run has well over 10 000 requests, and p99.9 of a run
#: that long is set by a handful of scheduler stalls.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it (the median when there are fewer than twenty)."""
    ordered = sorted(values)
    n = len(ordered)
    chosen = max(
        (p for p in TAIL_LADDER if n * (1 - p / 100.0) >= 10), default=50.0
    )
    if chosen == 50.0:
        return chosen, statistics.median(ordered)
    return chosen, ordered[min(n - 1, int(round(chosen / 100.0 * (n - 1))))]


def end_to_end(tally: Tally, setup_s: float) -> Tuple[Dict[str, Tuple[float, str]], str]:
    """The end-to-end metrics (name → (value, unit)) and a line with the
    latency tail, which is printed but not gated (see README.md)."""
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(tally.passes), "s"),
        "op_p50_ms": (statistics.median(tally.latencies) * 1000.0, "ms"),
        "ops_per_s": (tally.attempted / tally.measured_s, "1/s"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }
    percentile, tail_value = tail(tally.latencies)
    note = (
        f"op_tail_ms {tail_value * 1000.0:.6g} ms "
        f"(p{percentile:g} of {len(tally.latencies)} operations)"
    )
    return metrics, note
