"""The traced run: replay a workload in-process with a span around each
call into a layer of ``repro``, and reduce the spans to per-layer metrics.

Spans are recorded only here, by wrapping public functions and methods of
the ``repro`` modules for the duration of the replay; nothing is added
to ``src/``.  Each span has a name, a layer, a start, an end, a parent,
and the id of the workload item (command or request) it belongs to.
They are kept in memory and written once, at the end, as Chrome
trace-event JSON.

A layer's self time is the time its spans cover minus the time their
child spans cover.  The root span of each item belongs to no layer, so
its self time is the replay's own overhead; summed over items that is
``bench.unattributed_s``, and the layer self times plus it add up to
``bench.traced_total_s`` exactly.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import generate, workloads
from perfbench.verdicts import check_output

#: Pause between probe pings, so probing adds little load of its own.
PING_INTERVAL = 0.002

LAYERS = (
    "cli", "process", "assertions", "semantics", "traces", "operational",
    "sat", "proof", "report", "server",
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "item", "index")

    def __init__(self, name, layer, start, parent, item, index) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.index = index


class Tracer:
    """In-memory span recorder plus the method wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.item: Optional[str] = None
        self._restore: List[Tuple[Any, str, Any]] = []
        self.counters: Dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str, layer: Optional[str]):
        parent = self._stack[-1].index if self._stack else None
        span = Span(name, layer, time.perf_counter_ns(), parent, self.item, len(self.spans))
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping ---------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        after: Optional[Callable[..., None]] = None,
        before: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span around every outermost call of ``owner.attr``.

        Plain functions are replaced in every loaded ``repro`` module that
        imported them by name, so call sites bound at import time see the
        wrapper too.  ``before(args)`` runs inside the span ahead of the
        call; ``after(args, result)`` runs after it, outside the span.
        """
        original = getattr(owner, attr)
        depth = [0]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return original(*args, **kwargs)
            depth[0] += 1
            try:
                with tracer.span(name, layer):
                    if before is not None:
                        before(args)
                    result = original(*args, **kwargs)
            finally:
                depth[0] -= 1
            if after is not None:
                after(args, result)
            return result

        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module for key, module in list(sys.modules.items())
                if key.startswith("repro") and module is not owner
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._restore.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, wrapper)

    def unwrap(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()


def install(tracer: Tracer) -> List[Any]:
    """Wrap the public entry points of every layer; returns the snapshot
    caches opened while installed (their hit/miss counters are read at
    the end)."""
    from importlib import import_module

    from repro.operational.explorer import Explorer
    from repro.proof.checker import CheckReport, ProofChecker
    from repro.proof.tactics import SatProver
    from repro.sat.checker import SatChecker
    from repro.semantics.denotation import Denoter
    from repro.semantics.engine import DenotationEngine

    # By module path: some package namespaces re-export a function under
    # a submodule's name (``repro.process.pretty``).  The worker module is
    # loaded so its imported names get patched too.
    (cli, report, assertion_parser, process_parser, pretty, snapshot, stats,
     _worker) = (
        import_module(f"repro.{path}") for path in (
            "cli", "report", "assertions.parser", "process.parser",
            "process.pretty", "traces.snapshot", "traces.stats", "server.worker",
        )
    )

    caches: List[Any] = []
    count = tracer.count

    tracer.wrap(process_parser, "parse_definitions", "parse_definitions", "process",
                after=lambda a, r: count("process.parse_calls"))
    tracer.wrap(assertion_parser, "parse_assertion", "parse_assertion", "assertions")

    def plan_first(args) -> None:
        # Time the SCC condensation on its own before the solve reuses it.
        engine = args[0]
        with tracer.span("DenotationEngine.plan", "semantics"):
            engine.plan()

    solved: Dict[int, Any] = {}

    def after_run(args, result) -> None:
        # ``run`` is idempotent and called again by later queries on the
        # same engine; account each engine once.
        engine = args[0]
        if id(engine) in solved:
            return
        solved[id(engine)] = engine
        count("semantics.levels", engine.levels_computed())
        for scc in engine.reports:
            count("semantics.skipped", scc.skipped)
            count("semantics.planned", scc.skipped + scc.redenoted)

    tracer.wrap(DenotationEngine, "run", "DenotationEngine.run", "semantics",
                before=plan_first, after=after_run)
    tracer.wrap(Denoter, "denote", "Denoter.denote", "semantics")
    tracer.wrap(SatChecker, "traces_of", "SatChecker.traces_of", "semantics")

    def after_check(args, result) -> None:
        count("sat.traces_checked", result.traces_checked)

    tracer.wrap(SatChecker, "check", "SatChecker.check", "sat", after=after_check)

    def after_explore(args, result) -> None:
        count("operational.states_touched", args[0].states_touched)

    tracer.wrap(Explorer, "visible_traces", "Explorer.visible_traces", "operational",
                after=after_explore)
    tracer.wrap(Explorer, "deadlock_report", "Explorer.deadlock_report",
                "operational", after=after_explore)

    tracer.wrap(snapshot.SnapshotCache, "__init__", "SnapshotCache.open", "traces",
                after=lambda a, r: caches.append(a[0]))

    def after_save(args, result) -> None:
        path = args[0].path
        if path.exists():
            count("traces.snapshot_bytes", path.stat().st_size)

    tracer.wrap(snapshot.SnapshotCache, "save", "SnapshotCache.save", "traces",
                after=after_save)

    tracer.wrap(SatProver, "prove_name", "SatProver.prove_name", "proof")

    def after_proof_check(args, result) -> None:
        count("proof.discharges", len(result.discharges))
        count("proof.oracle_instances",
              sum(d.verdict.instances for d in result.discharges))

    tracer.wrap(ProofChecker, "check", "ProofChecker.check", "proof",
                after=after_proof_check)

    for name in ("check_outcome", "traces_outcome", "render_partial"):
        tracer.wrap(report, name, name, "report")
    tracer.wrap(CheckReport, "summary", "CheckReport.summary", "report")
    tracer.wrap(stats, "format_stats", "format_stats", "report")
    tracer.wrap(pretty, "pretty_definitions", "pretty_definitions", "report")
    tracer.wrap(cli, "main", "cli.main", "cli")
    return caches


def kernel_counts(tracer: Tracer) -> None:
    """Fold the kernel counters of the item just replayed into the run's
    totals (the CLI workloads reset them before each item, like a fresh
    process)."""
    from repro.traces.stats import snapshot

    snap = snapshot()
    interner = snap["interner"]
    tracer.count("traces.nodes_interned", interner["misses"])
    tracer.count("traces.intern_hits", interner["hits"])
    tracer.count("traces.intern_lookups", interner["hits"] + interner["misses"])
    for memo in snap["memos"].values():
        tracer.count("traces.memo_hits", memo["hits"])
        tracer.count("traces.memo_lookups", memo["hits"] + memo["misses"])
    tracer.count("operational.frontier_reused", snap["frontiers"]["reused"])


# -- replays ----------------------------------------------------------------


def _median_subprocess(ctx: workloads.Context, code: str, repeats: int, cwd: Path) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=cwd, env=ctx.child_env(),
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def replay_cli(
    ctx: workloads.Context, work: generate.Workload, inputs: Path,
    tracer: Tracer, tally: workloads.Tally,
) -> float:
    """Each command as a fresh interpreter importing ``repro.cli`` (the
    part a subprocess pays before ``main``) followed by ``cli.main`` run
    in-process against a cold kernel.  Returns the replay's wall time."""
    import repro.cli as cli
    from repro.traces.stats import reset_stats
    from repro.traces.trie import clear_interner

    cache_root = ctx.tempdir("cache-")
    env = ctx.child_env()
    start = time.perf_counter()
    for index, command in enumerate(work.commands):
        tracer.item = f"{index}:{command.label}"
        clear_interner()
        reset_stats()
        with tracer.span(command.label, None):
            with tracer.span("interpreter+import repro.cli", "cli"):
                subprocess.run([sys.executable, "-c", "import repro.cli"],
                               cwd=inputs, env=env, check=True)
            out = io.StringIO()
            here = os.getcwd()
            os.chdir(inputs)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(workloads.command_argv(command, cache_root))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            finally:
                os.chdir(here)
        kernel_counts(tracer)
        tally.record(0.0, check_output(command.expect, out.getvalue(), code),
                     f"{command.label} {command.system}")
    tracer.item = None
    return time.perf_counter() - start


def replay_serve(
    daemon: workloads.Daemon, work: generate.Workload,
    tracer: Tracer, tally: workloads.Tally,
) -> float:
    """The first pass of the stream through ``repro.server.worker.run_query``
    in this process — the code a serve worker runs per request, against a
    checker pool and cache directory of its own."""
    from repro.server import worker
    from repro.traces.stats import reset_stats

    _, requests = next(workloads.stream_passes(work))
    reset_stats()
    start = time.perf_counter()
    for index, request in enumerate(requests):
        tracer.item = f"{index}:{request.system}"
        payload = daemon.payload(request, f"replay-{index}")
        payload["cache_dir"] = str(daemon.home / "replay-cache")
        with tracer.span("request", None):
            with tracer.span("run_query", "server"):
                response = worker.run_query(payload)
        tally.record(0.0, check_output(request.expect, response.get("stdout") or "",
                                       int(response.get("exit_code", -1))),
                     f"request {request.system}")
    tracer.item = None
    kernel_counts(tracer)
    return time.perf_counter() - start


def server_probes(daemon: workloads.Daemon, work: generate.Workload,
                  tracer: Tracer, tally: workloads.Tally) -> Dict[str, float]:
    """Ping latency with the daemon idle and while one client streams
    requests, then the daemon's own counters."""
    import threading

    def pings(client, n: int, stop=None) -> List[float]:
        times = []
        while len(times) < n or (stop is not None and not stop.is_set()):
            with tracer.span("ServerClient.ping", "server"):
                start = time.perf_counter()
                client.ping()
                times.append(time.perf_counter() - start)
            time.sleep(PING_INTERVAL)
        return times

    with daemon.client() as client:
        idle = pings(client, 50)
    _, requests = next(workloads.stream_passes(work))
    stop = threading.Event()
    loaded: List[float] = []

    def ping_loop() -> None:
        with daemon.client() as client:
            loaded.extend(pings(client, 1, stop))

    thread = threading.Thread(target=ping_loop)
    thread.start()
    try:
        workloads.serve_requests(daemon, requests, "probe", tally, clients=1)
    finally:
        stop.set()
        thread.join()
    stats = daemon.stats()
    workloads.count_daemon_failures(stats, tally)
    metrics = {
        "server.ping_idle_ms": statistics.median(idle) * 1000.0,
        "server.ping_load_ms": statistics.median(loaded) * 1000.0,
    }
    for counter in ("retries", "ships", "deduped", "shed", "respawns"):
        metrics[f"server.{counter}"] = float(stats.get(counter, 0))
    return metrics


# -- reduction --------------------------------------------------------------


def self_times(spans: List[Span]) -> List[float]:
    """Seconds of each span not covered by its children."""
    own = [(s.end - s.start) / 1e9 for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= (span.end - span.start) / 1e9
    return own


PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.interp_s": "s",
    "process.parse_s": "s", "process.parse_calls": "count",
    "assertions.parse_s": "s",
    "semantics.plan_s": "s", "semantics.solve_s": "s",
    "semantics.levels": "count", "semantics.skip_ratio": "ratio",
    "traces.nodes_interned": "count", "traces.intern_hit_ratio": "ratio",
    "traces.memo_hit_ratio": "ratio", "traces.snapshot_load_s": "s",
    "traces.snapshot_save_s": "s", "traces.snapshot_bytes": "bytes",
    "traces.cache_hit_ratio": "ratio",
    "operational.explore_s": "s", "operational.states_touched": "count",
    "operational.frontier_reused": "count",
    "sat.check_s": "s", "sat.traces_checked": "count", "sat.traces_per_s": "1/s",
    "proof.search_s": "s", "proof.check_s": "s", "proof.discharges": "count",
    "proof.oracle_instances": "count", "proof.instances_per_s": "1/s",
    "report.render_s": "s",
    "server.ping_idle_ms": "ms", "server.ping_load_ms": "ms",
    "server.retries": "count", "server.ships": "count", "server.deduped": "count",
    "server.shed": "count", "server.respawns": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.traced_total_s": "s", "bench.unattributed_s": "s",
    "bench.trace_overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reduce(
    tracer: Tracer, caches: List[Any], extra: Dict[str, float],
    untraced_s: float, traced_s: float,
) -> Dict[str, float]:
    """Per-layer metrics from the spans and counters of one replay."""
    in_items = [s for s in tracer.spans if s.item is not None]
    own = self_times(tracer.spans)
    by_name: Dict[str, float] = {}
    by_layer = {layer: 0.0 for layer in LAYERS}
    total = unattributed = 0.0
    for span in in_items:
        seconds = own[span.index]
        by_name[span.name] = by_name.get(span.name, 0.0) + seconds
        if span.layer is None:
            unattributed += seconds
            total += (span.end - span.start) / 1e9
        else:
            by_layer[span.layer] += seconds
    c = tracer.counters.get
    boots = [
        (s.end - s.start) / 1e9 for s in in_items
        if s.name == "interpreter+import repro.cli"
    ]
    hits = sum(cache.hits for cache in caches)
    lookups = hits + sum(cache.misses for cache in caches)
    proof_s = by_name.get("SatProver.prove_name", 0.0) + by_name.get(
        "ProofChecker.check", 0.0)
    metrics = {
        "cli.import_s": statistics.median(boots) if boots else 0.0,
        "process.parse_s": by_name.get("parse_definitions", 0.0),
        "process.parse_calls": c("process.parse_calls", 0),
        "assertions.parse_s": by_name.get("parse_assertion", 0.0),
        "semantics.plan_s": by_name.get("DenotationEngine.plan", 0.0),
        "semantics.solve_s": by_layer["semantics"]
        - by_name.get("DenotationEngine.plan", 0.0),
        "semantics.levels": c("semantics.levels", 0),
        "semantics.skip_ratio": _ratio(c("semantics.skipped", 0),
                                       c("semantics.planned", 0)),
        "traces.nodes_interned": c("traces.nodes_interned", 0),
        "traces.intern_hit_ratio": _ratio(c("traces.intern_hits", 0),
                                          c("traces.intern_lookups", 0)),
        "traces.memo_hit_ratio": _ratio(c("traces.memo_hits", 0),
                                        c("traces.memo_lookups", 0)),
        "traces.snapshot_load_s": by_name.get("SnapshotCache.open", 0.0),
        "traces.snapshot_save_s": by_name.get("SnapshotCache.save", 0.0),
        "traces.snapshot_bytes": c("traces.snapshot_bytes", 0),
        "traces.cache_hit_ratio": _ratio(hits, lookups),
        "operational.explore_s": by_layer["operational"],
        "operational.states_touched": c("operational.states_touched", 0),
        "operational.frontier_reused": c("operational.frontier_reused", 0),
        "sat.check_s": by_layer["sat"],
        "sat.traces_checked": c("sat.traces_checked", 0),
        "sat.traces_per_s": _ratio(c("sat.traces_checked", 0), by_layer["sat"]),
        "proof.search_s": by_name.get("SatProver.prove_name", 0.0),
        "proof.check_s": by_name.get("ProofChecker.check", 0.0),
        "proof.discharges": c("proof.discharges", 0),
        "proof.oracle_instances": c("proof.oracle_instances", 0),
        "proof.instances_per_s": _ratio(c("proof.oracle_instances", 0), proof_s),
        "report.render_s": by_layer["report"],
        **{f"{layer}.self_s": seconds for layer, seconds in by_layer.items()},
        "bench.traced_total_s": total,
        "bench.unattributed_s": unattributed,
        "bench.trace_overhead": _ratio(traced_s, untraced_s),
    }
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, 0.0)
    metrics.update(extra)
    return metrics


def write_trace(tracer: Tracer, metrics: Dict[str, float], directory: Path) -> None:
    """Chrome trace-event JSON of every span, with the metrics beside it."""
    directory.mkdir(parents=True, exist_ok=True)
    origin = min((s.start for s in tracer.spans), default=0)
    events = [
        {
            "name": s.name, "cat": s.layer or "item", "ph": "X",
            "ts": (s.start - origin) / 1000.0, "dur": (s.end - s.start) / 1000.0,
            "pid": 1, "tid": 1,
            "args": {"item": s.item, "id": s.index, "parent": s.parent},
        }
        for s in tracer.spans
    ]
    (directory / "trace.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}), encoding="utf-8"
    )
    (directory / "layers.json").write_text(
        json.dumps(metrics, indent=1, sort_keys=True), encoding="utf-8"
    )


def traced_run(ctx: workloads.Context, name: str, seed: int, out_dir: Path
               ) -> Tuple[Dict[str, float], workloads.Tally]:
    """One untraced pass, then the traced replay of the same pass."""
    tally = workloads.Tally()
    tracer = Tracer()
    extra: Dict[str, float] = {}
    if name == "serve":
        # No command boots here; the daemon's start-up pays the import.
        extra["cli.interp_s"] = _median_subprocess(ctx, "pass", 5, ctx.root)
        extra["cli.import_s"] = _median_subprocess(ctx, "import repro.cli", 5, ctx.root)
        work, daemon, _ = workloads.setup_serve(ctx, seed)
        try:
            _, requests = next(workloads.stream_passes(work))
            untraced = workloads.serve_requests(daemon, requests, "untraced", tally)
            extra.update(server_probes(daemon, work, tracer, tally))
            caches = install(tracer)
            try:
                traced = replay_serve(daemon, work, tracer, tally)
            finally:
                tracer.unwrap()
        finally:
            daemon.stop()
    else:
        work, inputs, _ = workloads.setup_cli(ctx, name, seed)
        extra["cli.interp_s"] = _median_subprocess(ctx, "pass", 5, inputs)
        untraced = workloads.cli_pass(ctx, work, inputs, tally)
        caches = install(tracer)
        try:
            traced = replay_cli(ctx, work, inputs, tracer, tally)
        finally:
            tracer.unwrap()
    metrics = reduce(tracer, caches, extra, untraced, traced)
    write_trace(tracer, metrics, out_dir)
    return metrics, tally
