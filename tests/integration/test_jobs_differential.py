"""``--jobs 2`` against ``--jobs 1`` through the CLI.

Forked workers solve same-rank SCCs into private arenas and splice them
back, but the §3.3 chain has one least fixpoint, so the printed verdicts,
counterexamples and trace listings must be byte-identical to the
sequential run.  ``stats`` is compared on its result line only: the
kernel counters below it describe *how* the fixpoint was reached
(spliced segments, interner hits), which is exactly what differs.
"""

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
