"""End-to-end tests of the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main

COPIER = """
copier = input?x:NAT -> wire!x -> copier;
recopier = wire?y:NAT -> output!y -> recopier;
network = chan wire; (copier || recopier)
"""

PROTOCOL = """
sender = input?y:M -> q[y];
q[x:M] = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x]);
receiver = wire?z:M -> (wire!ACK -> output!z -> receiver | wire!NACK -> receiver);
protocol = chan wire; (sender || receiver)
"""

DEADLOCKER = """
p = w!1 -> out!1 -> STOP;
q = w?x:{2..3} -> STOP;
net = p || q
"""


@pytest.fixture
def copier_file(tmp_path):
    path = tmp_path / "copier.csp"
    path.write_text(COPIER)
    return str(path)


@pytest.fixture
def protocol_file(tmp_path):
    path = tmp_path / "protocol.csp"
    path.write_text(PROTOCOL)
    return str(path)


@pytest.fixture
def deadlock_file(tmp_path):
    path = tmp_path / "net.csp"
    path.write_text(DEADLOCKER)
    return str(path)


class TestParse:
    def test_pretty_prints(self, copier_file, capsys):
        assert main(["parse", copier_file]) == 0
        out = capsys.readouterr().out
        assert "copier = input?x:NAT -> wire!x -> copier" in out

    def test_missing_file(self, capsys):
        assert main(["parse", "/nonexistent.csp"]) == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.csp"
        path.write_text("p = wire!")
        assert main(["parse", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestTraces:
    def test_lists_traces(self, copier_file, capsys):
        assert main(["traces", copier_file, "--process", "copier", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "input.0" in out and "wire.0" in out

    def test_default_process_is_last_equation(self, copier_file, capsys):
        assert main(["traces", copier_file, "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "input" in out

    def test_unknown_process(self, copier_file, capsys):
        # Exit 2 like serve's answer to an unknown process, not
        # SystemExit(str)'s 1 ("property violated").
        assert main(["traces", copier_file, "--process", "ghost"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: no process named 'ghost'; defined: "
            "['copier', 'network', 'recopier']\n"
        )

    def test_operational_engine(self, copier_file, capsys):
        assert (
            main(
                [
                    "traces",
                    copier_file,
                    "--depth",
                    "2",
                    "--engine",
                    "operational",
                ]
            )
            == 0
        )


class TestCheck:
    def test_holds(self, copier_file, capsys):
        code = main(
            ["check", copier_file, "--process", "copier", "--spec", "wire <= input"]
        )
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_violated_with_counterexample(self, copier_file, capsys):
        code = main(
            ["check", copier_file, "--process", "copier", "--spec", "input <= wire"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "violated" in out

    def test_named_set_binding(self, protocol_file, capsys):
        code = main(
            [
                "check",
                protocol_file,
                "--process",
                "protocol",
                "--spec",
                "output <= input",
                "--set",
                "M=0,1",
                "--with-cancel",
                "f",
                "--depth",
                "4",
                "--sample",
                "3",
            ]
        )
        assert code == 0

    def test_bad_set_syntax(self, protocol_file, capsys):
        code = main(
            ["check", protocol_file, "--spec", "output <= input", "--set", "M"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --set expects NAME=v1,v2")
        assert err.count("\n") == 1


class TestProve:
    def test_proves_network(self, copier_file, capsys):
        code = main(
            [
                "prove",
                copier_file,
                "--goal",
                "network",
                "--invariant",
                "copier=wire <= input",
                "--invariant",
                "recopier=output <= wire",
                "--invariant",
                "network=output <= input",
            ]
        )
        assert code == 0
        assert "checked" in capsys.readouterr().out

    def test_show_proof(self, copier_file, capsys):
        code = main(
            [
                "prove",
                copier_file,
                "--goal",
                "copier",
                "--invariant",
                "copier=wire <= input",
                "--show-proof",
            ]
        )
        assert code == 0
        assert "[recursion]" in capsys.readouterr().out

    def test_false_invariant_fails(self, copier_file, capsys):
        code = main(
            [
                "prove",
                copier_file,
                "--goal",
                "copier",
                "--invariant",
                "copier=input <= wire",
            ]
        )
        assert code == 1
        assert "PROOF FAILED" in capsys.readouterr().out

    def test_array_invariant_uses_definition_parameter(self, protocol_file, capsys):
        code = main(
            [
                "prove",
                protocol_file,
                "--goal",
                "sender",
                "--set",
                "M=0,1",
                "--with-cancel",
                "f",
                "--invariant",
                "sender=f(wire) <= input",
                "--invariant",
                "q=f(wire) <= x ^ input",
            ]
        )
        assert code == 0
        assert "sender sat" in capsys.readouterr().out


    def test_invariant_without_equals_is_parse_exit(self, copier_file, capsys):
        code = main(["prove", copier_file, "--invariant", "copier"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --invariant expects NAME=FORMULA")
        assert err.count("\n") == 1

    def test_unevaluable_invariant_names_the_evaluation_error(
        self, copier_file, capsys
    ):
        # A number compared with a sequence errors on every instance; the
        # failure names that error instead of guessing at host functions.
        code = main(
            ["prove", copier_file, "--invariant", "network=#output <= output"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("PROOF FAILED: oracle could not evaluate")
        assert "cannot compare 0 <= ()" in out
        assert "host-function" not in out


class TestSimulateAndDeadlocks:
    def test_simulate_runs(self, copier_file, capsys):
        code = main(
            ["simulate", copier_file, "--process", "copier", "--steps", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "input" in out

    def test_simulate_reports_deadlock(self, deadlock_file, capsys):
        code = main(["simulate", deadlock_file, "--process", "net", "--steps", "5"])
        assert code == 1
        assert "DEADLOCK" in capsys.readouterr().out

    def test_deadlocks_found(self, deadlock_file, capsys):
        code = main(["deadlocks", deadlock_file, "--process", "net", "--depth", "2"])
        assert code == 1
        assert "deadlocking" in capsys.readouterr().out

    def test_no_deadlocks(self, copier_file, capsys):
        code = main(["deadlocks", copier_file, "--process", "copier", "--depth", "3"])
        assert code == 0
        assert "no deadlock" in capsys.readouterr().out


class TestBudgetsAndExitCodes:
    """The robustness contract: budget flags, partial results, exit taxonomy."""

    @pytest.fixture(autouse=True)
    def cold_kernel(self):
        # --max-nodes counts fresh interner misses; the interner is
        # process-global, so start these tests from a cold kernel.
        from repro.traces.trie import clear_interner

        clear_interner()

    def test_check_max_nodes_partial(self, copier_file, capsys):
        code = main(
            [
                "check",
                copier_file,
                "--process",
                "copier",
                "--spec",
                "wire <= input",
                "--depth",
                "8",
                "--max-nodes",
                "15",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "PARTIAL" in captured.out
        assert "verified to depth" in captured.err

    def test_check_deadline_zero_is_budget_exit(self, copier_file, capsys):
        code = main(
            [
                "check",
                copier_file,
                "--process",
                "copier",
                "--spec",
                "wire <= input",
                "--deadline",
                "0",
            ]
        )
        assert code == 4
        assert "budget exhausted" in capsys.readouterr().err

    def test_check_with_ample_budget_still_holds(self, copier_file, capsys):
        code = main(
            [
                "check",
                copier_file,
                "--process",
                "copier",
                "--spec",
                "wire <= input",
                "--max-nodes",
                "1000000",
            ]
        )
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_traces_partial_lists_verified_prefix(self, copier_file, capsys):
        code = main(
            [
                "traces",
                copier_file,
                "--process",
                "copier",
                "--depth",
                "8",
                "--max-nodes",
                "15",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "PARTIAL" in captured.out
        assert "input.0" in captured.out  # the sound prefix is still printed

    def test_deadlocks_budget_partial(self, copier_file, capsys):
        # the copier network keeps running, so a one-state budget trips
        code = main(
            [
                "deadlocks",
                copier_file,
                "--process",
                "network",
                "--depth",
                "4",
                "--max-states",
                "1",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "PARTIAL" in captured.out
        assert "budget exhausted" in captured.err

    def test_deadlocks_reports_states_touched(self, deadlock_file, capsys):
        code = main(["deadlocks", deadlock_file, "--process", "net", "--depth", "2"])
        assert code == 1
        assert "states touched" in capsys.readouterr().out

    def test_stats_appends_governor_counters(self, copier_file, capsys):
        code = main(
            [
                "stats",
                copier_file,
                "--process",
                "copier",
                "--depth",
                "3",
                "--max-nodes",
                "1000000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resource governor" in out
        assert "max-nodes=1000000" in out

    def test_semantics_error_exit_code(self, protocol_file, capsys):
        # protocol needs --set M=…; without it the semantics layer fails
        code = main(
            ["check", protocol_file, "--process", "protocol", "--spec", "output <= input"]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csp"
        bad.write_text("p = wire!")
        assert main(["check", str(bad), "--spec", "wire <= input"]) == 2

    @pytest.mark.parametrize(
        "command", ["traces", "check", "stats", "prove", "simulate", "deadlocks"]
    )
    @pytest.mark.parametrize(
        "flag, value", [("--depth", "-1"), ("--sample", "0"), ("--depth", "deep")]
    )
    def test_bad_bounds_are_usage_errors(
        self, copier_file, capsys, command, flag, value
    ):
        argv = [command, copier_file, flag, value]
        if command == "check":
            argv += ["--spec", "wire <= input"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"argument {flag}:" in err

    def test_debug_reraises(self, copier_file):
        with pytest.raises(Exception):
            main(["check", "/nonexistent.csp", "--spec", "x <= y", "--debug"])

    def test_reproduce_deadline_zero_skips_everything(self, capsys):
        code = main(["reproduce", "--quick", "--deadline", "0"])
        assert code == 4
        out = capsys.readouterr().out
        assert "SKIPPED (budget exhausted)" in out
        assert "partial under the active budget" in out


class TestEngineFlags:
    """--jobs / --cache-dir / --no-cache / --explain-plan plumbing."""

    def test_jobs_two_traces_identical(self, copier_file, capsys):
        from repro.traces.stats import KERNEL_STATS, reset_stats

        assert (
            main(
                ["traces", copier_file, "--process", "copier", "--depth", "3",
                 "--no-cache"]
            )
            == 0
        )
        sequential = capsys.readouterr().out
        reset_stats()
        assert (
            main(
                ["traces", copier_file, "--process", "copier", "--depth", "3",
                 "--jobs", "2", "--no-cache"]
            )
            == 0
        )
        assert capsys.readouterr().out == sequential
        if hasattr(os, "fork"):
            # copier and recopier share a rank: forked workers solved them
            # and the parent spliced their segments back (onto nodes the
            # sequential run already interned, hence remaps, not new ids).
            assert KERNEL_STATS.remap_entries > 0
        reset_stats()

    def test_parallel_flag_is_a_hidden_no_op(self, copier_file, capsys):
        argv = ["traces", copier_file, "--process", "copier", "--depth", "3",
                "--jobs", "2", "--no-cache"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--parallel", "processes"]) == 0
        assert capsys.readouterr().out == plain
        with pytest.raises(SystemExit):
            main(argv + ["--parallel", "threads"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["traces", "--help"])
        assert "--parallel" not in capsys.readouterr().out

    def test_check_warm_cache_second_run(self, copier_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "check", copier_file, "--process", "copier",
            "--spec", "wire <= input", "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        assert "HOLDS" in capsys.readouterr().out
        snapshots = list((tmp_path / "cache").glob("snapshot-*.json"))
        assert len(snapshots) == 1
        assert main(argv) == 0  # warm start, same verdict
        assert "HOLDS" in capsys.readouterr().out

    def test_no_cache_writes_nothing(self, copier_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [
            "check", copier_file, "--process", "copier",
            "--spec", "wire <= input", "--cache-dir", str(cache_dir),
            "--no-cache",
        ]
        assert main(argv) == 0
        assert not cache_dir.exists()

    def test_budgeted_run_writes_only_checkpoint_slots(
        self, copier_file, tmp_path, capsys
    ):
        import json
        import re

        cache_dir = tmp_path / "cache"
        argv = [
            "traces", copier_file, "--process", "copier", "--depth", "3",
            "--cache-dir", str(cache_dir), "--deadline", "30",
        ]
        assert main(argv) == 0
        # Governed runs persist per-completed-depth checkpoint slots —
        # and nothing from the general (ungoverned) slot vocabulary.
        snapshots = list(cache_dir.glob("snapshot-*.json"))
        assert len(snapshots) == 1
        roots = json.loads(snapshots[0].read_text())["roots"]
        assert roots
        assert all(re.fullmatch(r"fix:.+@level\d+", slot) for slot in roots)
        first = capsys.readouterr().out
        # A rerun resumes from the checkpoint slots and prints the same
        # traces (invocation-determinism).
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_explain_plan_cold_then_warm(self, copier_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "stats", copier_file, "--explain-plan", "--depth", "3",
            "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "engine plan:" in cold
        assert "rank 0" in cold
        assert "definition-levels denoted" in cold
        assert "delta frontiers:" in cold
        assert "snapshot cache:" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache hit" in warm

    def test_explain_plan_jobs_two(self, copier_file, capsys):
        assert (
            main(
                ["stats", copier_file, "--explain-plan", "--depth", "3",
                 "--jobs", "2", "--no-cache"]
            )
            == 0
        )
        assert "jobs=2" in capsys.readouterr().out

    def test_traces_budget_trip_under_jobs(self, copier_file, capsys):
        code = main(
            ["traces", copier_file, "--process", "copier", "--depth", "6",
             "--jobs", "2", "--deadline", "0"]
        )
        assert code == 4

    def test_worker_error_exit_code_without_debug(self, tmp_path, capsys):
        # two independent recursive definitions over an unbound set: both
        # SCCs fail during denotation (in worker processes with --jobs 2),
        # and the CLI must still map the error to the semantics exit code
        path = tmp_path / "unbound.csp"
        path.write_text("p = a?x:S -> p; q = b?y:S -> q")
        code = main(
            ["traces", str(path), "--process", "p", "--jobs", "2",
             "--no-cache"]
        )
        assert code == 3
        assert "unbound" in capsys.readouterr().err

    def test_worker_error_debug_reraises_original_class(self, tmp_path):
        from repro.errors import UnboundVariableError

        path = tmp_path / "unbound.csp"
        path.write_text("p = a?x:S -> p; q = b?y:S -> q")
        with pytest.raises(UnboundVariableError):
            main(
                ["traces", str(path), "--process", "p", "--jobs", "2",
                 "--no-cache", "--debug"]
            )


class TestImportCost:
    def test_cli_import_leaves_numpy_unloaded(self):
        # Every CLI invocation pays this import; the snapshot codec is
        # pure Python, so nothing on the path may pull numpy in.
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('numpy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert probe.stdout.strip() == "False"


class TestServeParser:
    """The serve/--server surface (daemon behavior itself is covered by
    tests/server/)."""

    def _parse(self, argv):
        from repro.cli import build_parser

        return build_parser().parse_args(argv)

    def test_serve_requires_socket(self):
        with pytest.raises(SystemExit):
            self._parse(["serve"])

    def test_serve_has_no_parallel_flag(self):
        # serve workers fork for --jobs like every other command.
        with pytest.raises(SystemExit):
            self._parse(["serve", "--socket", "/tmp/r.sock",
                         "--parallel", "processes"])

    def test_serve_defaults(self):
        args = self._parse(["serve", "--socket", "/tmp/repro.sock"])
        assert args.jobs == 2
        assert args.queue_limit == 16
        assert args.request_timeout == 300.0
        assert args.grace == 2.0
        assert args.max_attempts == 3
        assert args.max_requests is None
        assert args.inject is None

    def test_check_accepts_server_flag(self):
        args = self._parse(
            ["check", "file.csp", "--spec", "a <= b",
             "--server", "/tmp/repro.sock"]
        )
        assert args.server == "/tmp/repro.sock"

    def test_server_refused_maps_to_exit_9(self, copier_file, capsys):
        # no daemon behind the socket: the client exhausts its retries
        # and the CLI maps the failure to the server exit code
        code = main(
            ["check", copier_file, "--spec", "wire <= input",
             "--server", "/nonexistent/repro.sock"]
        )
        assert code == 9
        assert "error" in capsys.readouterr().err


class TestStats:
    def test_stats_reports_kernel_counters(self, copier_file, capsys):
        code = main(["stats", copier_file, "--process", "network", "--depth", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trie nodes" in out
        assert "interner" in out
        assert "memo tables" in out

    def test_stats_with_spec_checks_and_reports(self, copier_file, capsys):
        code = main(
            [
                "stats",
                copier_file,
                "--process",
                "network",
                "--depth",
                "4",
                "--spec",
                "output <= input",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out
        assert "interner" in out
