"""``--jobs 2`` against ``--jobs 1`` through the CLI.

Forked workers solve same-rank SCCs into private arenas and splice them
back, but the §3.3 chain has one least fixpoint, so the printed verdicts,
counterexamples and trace listings must be byte-identical to the
sequential run.  ``stats`` is compared on its result line, and on the
counters a solve moves — the memo tables and delta-frontier walks, which
forked children ship back to the parent.  The interner, arena and
spliced-segment lines describe *how* the fixpoint was reached (children
solve into private arenas), which is exactly what differs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.systems import copier, protocol, register

pytestmark = pytest.mark.differential

PHILOSOPHERS = Path(__file__).resolve().parents[2] / "examples/csp/philosophers.csp"

#: (label, source text, target, extra CLI options, specs)
SYSTEMS = [
    ("copier", copier.SOURCE, "network", [], ["output <= input", "input <= output"]),
    ("protocol", protocol.SOURCE, "protocol", ["--set", "M=0,1"],
     ["output <= input", "input <= output"]),
    ("register", register.SOURCE, "reg", ["--set", "M=0,1"], ["get <= set"]),
    ("philosophers", PHILOSOPHERS.read_text(), "table", ["--sample", "3"],
     ["eat <= grab", "grab <= eat"]),
]


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "label,source,target,extra,specs", SYSTEMS, ids=[s[0] for s in SYSTEMS]
)
@pytest.mark.parametrize("command", ["check", "traces", "stats"])
def test_jobs_two_matches_jobs_one(
    label, source, target, extra, specs, command, tmp_path, capsys
):
    path = tmp_path / f"{label}.csp"
    path.write_text(source)
    argv = [command, str(path), "--process", target, "--depth", "4",
            "--no-cache", *extra]
    if command == "check":
        for spec in specs:
            argv += ["--spec", spec]
    elif command == "stats":
        argv += ["--spec", specs[0]]
    sequential = _run(capsys, argv + ["--jobs", "1"])
    forked = _run(capsys, argv + ["--jobs", "2"])
    if command == "stats":
        sequential = (sequential[0], sequential[1].split("\n\n")[0])
        forked = (forked[0], forked[1].split("\n\n")[0])
    assert forked == sequential


def _solve_counters(text):
    """The ``memo tables`` block and the ``delta frontiers`` line of a
    ``repro stats`` report."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if "memo tables" in line)
    block = [lines[start]]
    block += [line for line in lines[start + 1:] if line.startswith("    ")]
    block += [line for line in lines if "delta frontiers:" in line]
    return block


@pytest.mark.parametrize(
    "label,source,target,extra",
    [(s[0], s[1], s[2], s[3]) for s in SYSTEMS
     if s[0] in ("protocol", "philosophers")],
    ids=["protocol", "philosophers"],
)
def test_stats_counts_forked_kernel_work(label, source, target, extra, tmp_path):
    """Forked children's memo lookups and delta walks reach the parent's
    counters: the report matches ``--jobs 1`` line for line.  Each run is
    its own process so no memo table is warm from an earlier run."""
    path = tmp_path / f"{label}.csp"
    path.write_text(source)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    reports = []
    for jobs in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "stats", str(path),
             "--process", target, "--depth", "5", "--no-cache", *extra,
             "--jobs", jobs],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        reports.append(_solve_counters(out))
    sequential, forked = reports
    assert any("delta frontiers:" in line for line in sequential)
    assert forked == sequential
