"""The ``repro serve`` worker: one warm kernel, one request at a time.

Spawned by the supervisor as ``python -m repro.server.worker --fd N``
with one end of a ``socketpair`` inherited on fd ``N``; reads request
frames off it, answers them, and exits when the supervisor closes its
end.  The loop is deliberately single-threaded: a worker is the unit of
*crash isolation*, not of concurrency — parallelism comes from the pool.

Warmth is the whole point of serving: the process-global arena kernel
accumulates interned nodes across requests, and per-system
:class:`~repro.sat.checker.SatChecker` instances (with their solved
engine bindings and snapshot caches) are kept in a small LRU keyed by
the semantic situation, so the hundredth ``P sat R`` query against one
solved system pays only the sat walk.

Workers share solved systems only through the on-disk
:class:`~repro.traces.snapshot.SnapshotCache` (the same cache the local
CLI uses, flock-guarded and merged on save): a system one worker solved
and saved loads as cache hits in a sibling's fresh checker.  Under
``no_cache`` nothing is shared, so each worker solves a system at most
once for as long as its checker stays pooled.

Failure contract:

* a library error inside a query becomes an ``ERROR`` response carrying
  the exact ``error:`` line and exit code the CLI would have produced;
* a :class:`~repro.runtime.faults.FaultInjected` at the
  ``serve.worker_exit`` site becomes ``os._exit`` — a SIGKILL-grade
  crash mid-request, exercised by the chaos suite — and at any other
  site it propagates and kills the worker the ordinary way;
* per-request budgets run under a fresh :class:`Governor`, so a
  deadline trip yields the same sound ``PARTIAL`` verdict (plus resume
  slots) as a governed local run.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro import serialize
from repro.errors import (
    EXIT_PARSE,
    BudgetExceeded,
    ServerError,
    exit_code_for,
)
from repro.process.definitions import DefinitionList
from repro.runtime import faults as _faults
from repro.runtime.faults import FaultInjected
from repro.runtime.governor import Budget, activate
from repro.server import protocol

#: Warm checkers kept per semantic situation (definitions, config,
#: bindings, engine, cache placement); least-recently-used beyond this
#: many distinct situations are dropped (their interned nodes stay warm
#: in the process-global arena either way).
CHECKER_POOL_SIZE = 8

_CHECKERS: "OrderedDict[str, Tuple[Any, Any]]" = OrderedDict()


def _situation_key(request: Dict[str, Any]) -> str:
    """One string per semantic situation a checker can be reused for —
    the key of this worker's checker pool.  Built from the raw request
    fields (defaults applied), so two requests that differ only in a
    field the checker never reads share one warm checker."""
    import json

    return json.dumps(
        [
            request.get("definitions"),
            request.get("depth", 5),
            request.get("sample", 2),
            sorted(request.get("sets") or []),
            request.get("with_cancel"),
            request.get("engine", "denotational"),
            request.get("jobs", 1),
            request.get("cache_dir"),
            bool(request.get("no_cache")),
        ],
        sort_keys=True,
        separators=(",", ":"),
    )


def _checker_for(request: Dict[str, Any], defs: Any, governed: bool):
    """A :class:`SatChecker` for this request — reused across requests
    when ungoverned (governed runs need fresh checkpoint-only caches and
    must not inherit warm full-depth engine bindings)."""
    from repro.cli import environment_from_options
    from repro.sat.checker import SatChecker
    from repro.semantics.config import SemanticsConfig

    config = SemanticsConfig(
        depth=int(request.get("depth", 5)), sample=int(request.get("sample", 2))
    )
    key = None if governed else _situation_key(request)
    if key is not None and key in _CHECKERS:
        _CHECKERS.move_to_end(key)
        return _CHECKERS[key]
    env = environment_from_options(
        request.get("sets") or [], request.get("with_cancel")
    )
    cache = None
    if not request.get("no_cache"):
        # The CLI opens its cache through the same helper, so remote and
        # local invocations share slots.
        from repro.traces.snapshot import open_cache

        cache = open_cache(
            defs,
            config,
            cache_dir=request.get("cache_dir"),
            sets=request.get("sets"),
            with_cancel=request.get("with_cancel"),
            checkpoint_only=governed,
        )
    checker = SatChecker(
        defs,
        env,
        config,
        engine=request.get("engine", "denotational"),
        jobs=int(request.get("jobs") or 1),
        cache=cache,
    )
    if key is not None:
        _CHECKERS[key] = (checker, cache)
        while len(_CHECKERS) > CHECKER_POOL_SIZE:
            _CHECKERS.popitem(last=False)
    return checker, cache


def run_query(request: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one ``check``/``traces`` request and render its response
    exactly as the local CLI would."""
    from repro.process.ast import Name
    from repro.report import check_outcome, traces_outcome

    rid = request.get("id")
    if request.get("engine", "denotational") not in (
        "denotational",
        "operational",
    ):
        raise ServerError(f"unknown engine {request.get('engine')!r}")
    defs = serialize.decode(request["definitions"])
    if not isinstance(defs, DefinitionList):
        raise ServerError("definitions payload is not a definition list")
    name = request.get("process") or list(defs)[-1].name
    if name not in defs:
        return protocol.error_response(
            rid,
            EXIT_PARSE,
            f"no process named {name!r}; defined: {sorted(defs.names())}",
        )
    target = Name(name)
    budget = Budget.from_spec(request.get("budget"))
    governor = budget.start() if budget is not None else None
    resume_slots: Tuple[str, ...] = ()
    verdicts: list = []
    with activate(governor):
        checker, cache = _checker_for(request, defs, governor is not None)
        try:
            if request["op"] == "check":
                raw = request.get("spec")
                if not raw:
                    raise ServerError("check request carries no spec")
                specs = list(raw) if isinstance(raw, list) else [raw]
                if not all(isinstance(s, str) and s for s in specs):
                    raise ServerError("check batch carries a non-string spec")
                # Batch: every assertion runs against the same checker —
                # the system is solved once, later specs pay only the sat
                # walk.  A budget trip ends the batch (soundly partial).
                for spec in specs:
                    try:
                        result = checker.check(target, spec)
                    except BudgetExceeded as exc:
                        s_out, s_err, s_code = check_outcome(
                            name, spec, trip=exc
                        )
                        if exc.checkpoint is not None:
                            resume_slots = exc.checkpoint.resume_slots()
                        verdicts.append(
                            {
                                "spec": spec,
                                "exit_code": s_code,
                                "stdout": s_out,
                                "stderr": s_err,
                            }
                        )
                        break
                    s_out, s_err, s_code = check_outcome(
                        name, spec, result=result, depth=checker.config.depth
                    )
                    verdicts.append(
                        {
                            "spec": spec,
                            "exit_code": s_code,
                            "stdout": s_out,
                            "stderr": s_err,
                        }
                    )
                stdout = "\n".join(v["stdout"] for v in verdicts if v["stdout"])
                stderr = "\n".join(v["stderr"] for v in verdicts if v["stderr"])
                code = next(
                    (v["exit_code"] for v in verdicts if v["exit_code"]), 0
                )
            else:
                partial = checker.traces_partial(target)
                stdout, stderr, code = traces_outcome(
                    partial, checker.config.depth, checker.engine
                )
        finally:
            if cache is not None:
                cache.save()
    response = {
        "id": rid,
        "status": "OK",
        "exit_code": code,
        "stdout": stdout,
        "stderr": stderr,
        "pid": os.getpid(),
    }
    if request["op"] == "check":
        response["verdicts"] = verdicts
    if resume_slots:
        response["resume_slots"] = list(resume_slots)
    return response


def handle(request: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch one request; every failure that is not a simulated crash
    becomes a structured ``ERROR`` response (the worker must survive bad
    queries — robustness would be cheap if only good input arrived)."""
    rid = request.get("id")
    op = request.get("op")
    try:
        if op == "ping":
            return {
                "id": rid,
                "status": "OK",
                "exit_code": 0,
                "pid": os.getpid(),
                "protocol": protocol.PROTOCOL_VERSION,
            }
        if op in ("check", "traces"):
            return run_query(request)
        raise ServerError(f"unknown op {op!r}")
    except FaultInjected:
        raise  # simulated crash: must not be converted to a response
    except Exception as exc:
        return protocol.error_response(
            rid, exit_code_for(exc), str(exc), pid=os.getpid()
        )


def serve(sock: socket.socket) -> None:
    """The request loop: read a frame, answer it, repeat until EOF."""
    stream = sock.makefile("rwb")
    while True:
        request = protocol.recv_frame(stream)
        if request is None:
            return  # supervisor closed its end: clean exit
        try:
            _faults.maybe_fail("serve.worker_exit")
        except FaultInjected:
            # Simulate a SIGKILL-grade crash mid-request: no response, no
            # cleanup, no atexit — exactly what the supervisor must heal.
            os._exit(86)
        response = handle(request)
        try:
            protocol.send_frame(stream, response)
        except OSError:
            return  # supervisor gone mid-response


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-serve-worker")
    parser.add_argument(
        "--fd", type=int, required=True, help="inherited socketpair fd"
    )
    parser.add_argument(
        "--inject",
        metavar="SITE[:AFTER]",
        help="arm a deterministic fault plan in this worker (chaos tests)",
    )
    args = parser.parse_args(argv)
    sock = socket.socket(fileno=args.fd)
    if args.inject:
        with _faults.inject(_faults.parse_plan(args.inject)):
            serve(sock)
    else:
        serve(sock)
    return 0


if __name__ == "__main__":
    sys.exit(main())
