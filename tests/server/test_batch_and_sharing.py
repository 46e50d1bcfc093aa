"""Request batching and solved-system sharing across the serve pool.

* a ``check`` request whose ``spec`` is a *list* runs every assertion
  against one warm solved system in a single dispatch, returning a
  per-assertion ``verdicts`` array beside the same concatenated
  rendering the local CLI prints for a repeated ``--spec``;
* workers share solved systems only through the on-disk snapshot cache:
  a system one worker solved and saved loads as cache hits in a fresh
  sibling, and every verdict stays byte-identical to the local CLI no
  matter which worker answered.
"""

import threading

import pytest

from repro.cli import main
from repro.process.parser import parse_definitions
from repro.semantics.config import SemanticsConfig
from repro.server.client import ServerClient
from repro.server.supervisor import Supervisor
from repro.server.worker import handle
from repro.traces.snapshot import fix_slot, open_cache

COPIER = """
copier = input?x:NAT -> wire!x -> copier;
recopier = wire?y:NAT -> output!y -> recopier;
network = chan wire; (copier || recopier)
"""

SPECS = ["output <= input", "input <= output"]


@pytest.fixture
def copier_defs():
    return parse_definitions(COPIER)


@pytest.fixture
def daemon(tmp_path):
    supervisor = Supervisor(str(tmp_path / "repro.sock"), jobs=1)
    supervisor.start()
    yield supervisor
    supervisor.stop()


@pytest.fixture
def pool(tmp_path):
    """A two-worker daemon, for the concurrency test."""
    supervisor = Supervisor(str(tmp_path / "pool.sock"), jobs=2)
    supervisor.start()
    yield supervisor
    supervisor.stop()


def _client(supervisor, **kwargs):
    return ServerClient(supervisor.socket_path, **kwargs)


class TestBatching:
    def test_batch_matches_local_repeated_spec(
        self, daemon, copier_defs, tmp_path, capsys
    ):
        path = tmp_path / "copier.csp"
        path.write_text(COPIER)
        code = main(
            ["check", str(path), "--process", "network", "--depth", "4",
             "--spec", SPECS[0], "--spec", SPECS[1], "--no-cache"]
        )
        captured = capsys.readouterr()
        with _client(daemon) as client:
            response = client.check(
                copier_defs, SPECS, process="network", depth=4, no_cache=True
            )
        assert response["status"] == "OK"
        assert response["exit_code"] == code == 1
        assert response["stdout"] + "\n" == captured.out
        assert response["stderr"] == captured.err.rstrip("\n")

    def test_verdicts_arrive_in_request_order(self, daemon, copier_defs):
        with _client(daemon) as client:
            response = client.check(
                copier_defs, SPECS, process="network", depth=4, no_cache=True
            )
        verdicts = response["verdicts"]
        assert [v["spec"] for v in verdicts] == SPECS
        assert verdicts[0]["exit_code"] == 0
        assert verdicts[1]["exit_code"] == 1
        assert verdicts[0]["stdout"].startswith("HOLDS")
        assert verdicts[1]["stdout"].startswith("VIOLATED")

    def test_single_spec_still_renders_identically(self, daemon, copier_defs):
        with _client(daemon) as client:
            single = client.check(
                copier_defs, SPECS[0], process="network", depth=4,
                no_cache=True,
            )
            batched = client.check(
                copier_defs, [SPECS[0]], process="network", depth=4,
                no_cache=True,
            )
        assert single["stdout"] == batched["stdout"]
        assert single["exit_code"] == batched["exit_code"] == 0
        assert batched["verdicts"][0]["stdout"] == batched["stdout"]

    def test_non_string_spec_in_batch_is_rejected(self, daemon, copier_defs):
        with _client(daemon) as client:
            response = client.check(
                copier_defs, [SPECS[0], 7], process="network", no_cache=True
            )
        assert response["status"] == "ERROR"
        assert response["exit_code"] == 9


class TestWarmSharing:
    """Solved systems reach other pool workers only through the snapshot
    cache directory."""

    def test_fresh_workers_share_through_the_snapshot_cache(
        self, tmp_path, copier_defs, capsys
    ):
        """Every request lands on a fresh worker (``max_requests=1``), so
        the only way the second can reuse the first's solve is the cache
        directory both open.  The target is ``copier``, whose fixpoint
        the engine caches per entry (``network``'s ``chan`` hiding is
        solved at its own hide depth and cached as a traces slot)."""
        specs = ["wire <= input", "input <= wire"]
        cache_dir = str(tmp_path / "cache")
        supervisor = Supervisor(
            str(tmp_path / "disk.sock"), jobs=2, max_requests=1
        )
        supervisor.start()
        try:
            with _client(supervisor) as client:
                first = client.check(
                    copier_defs, specs, process="copier", depth=4,
                    cache_dir=cache_dir,
                )
                on_disk = open_cache(
                    copier_defs, SemanticsConfig(depth=4, sample=2),
                    cache_dir=cache_dir,
                )
                for name in ("copier", "recopier", "network"):
                    assert on_disk.get(fix_slot(name)) is not None
                second = client.check(
                    copier_defs, specs, process="copier", depth=4,
                    cache_dir=cache_dir,
                )
        finally:
            supervisor.stop()
        assert first["pid"] != second["pid"]
        path = tmp_path / "copier.csp"
        path.write_text(COPIER)
        code = main(
            ["check", str(path), "--process", "copier", "--depth", "4",
             "--spec", specs[0], "--spec", specs[1], "--cache-dir", cache_dir]
        )
        captured = capsys.readouterr()
        for response in (first, second):
            assert response["status"] == "OK"
            assert response["exit_code"] == code == 1
            assert response["stdout"] + "\n" == captured.out
            assert response["stderr"] == captured.err.rstrip("\n")

    def test_warm_frame_is_an_unknown_op(self):
        response = handle({"id": "w", "op": "warm", "situation": "s",
                           "roots": {}})
        assert response["status"] == "ERROR"
        assert response["stderr"] == "error: unknown op 'warm'"

    def test_concurrent_clients_agree(self, pool, copier_defs):
        """Both workers busy at once, each solving for itself under
        ``no_cache``: every verdict is still byte-identical."""
        results = []
        lock = threading.Lock()

        def one_client():
            with _client(pool) as client:
                response = client.check(
                    copier_defs, SPECS, process="network", depth=4,
                    no_cache=True,
                )
            with lock:
                results.append(response)

        threads = [threading.Thread(target=one_client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({r["stdout"] for r in results}) == 1
        assert {r["exit_code"] for r in results} == {1}
