"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` times the workload through
the public surface (``python -m repro`` subprocesses, or a ``repro serve``
daemon) and prints the end-to-end metrics; ``--trace 1`` replays it
in-process with spans around each layer and prints the per-layer metrics,
writing the spans as Chrome trace-event JSON under ``.perfbench_out/``.
Every answer is checked.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("cli-cold", "check-deep", "prove", "serve")
#: Hash seed of the benchmark process and of every child it starts.
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_table(metrics, units, notes) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {units[name]}")
    for note in notes:
        print(note)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = [str(root), str(root / "src")]

    from perfbench import workloads

    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    ctx = workloads.Context(root, Path(tempfile.mkdtemp(prefix="run-", dir=out)))
    try:
        if args.trace:
            from perfbench import traced

            metrics, tally = traced.traced_run(
                ctx, args.workload, args.seed,
                out / f"{args.workload}-seed{args.seed}",
            )
            units = traced.PER_LAYER_UNITS
            notes = [f"spans: {out / f'{args.workload}-seed{args.seed}' / 'trace.json'}"]
        else:
            if args.workload == "serve":
                work, daemon, setup_s = workloads.setup_serve(ctx, args.seed)
                try:
                    tally = workloads.run_serve(daemon, work, args.seconds)
                finally:
                    daemon.stop()
            else:
                work, inputs, setup_s = workloads.setup_cli(ctx, args.workload, args.seed)
                tally = workloads.run_cli(ctx, work, inputs, args.seconds)
            pairs, note = workloads.end_to_end(tally, setup_s)
            metrics = {name: value for name, (value, _) in pairs.items()}
            units = {name: unit for name, (_, unit) in pairs.items()}
            fail_frac = tally.failed / max(1, tally.attempted)
            notes = [note, f"fail_frac {fail_frac:.6g} ratio "
                     f"({tally.failed} of {tally.attempted} operations)"]
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print_table(metrics, units, notes)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
