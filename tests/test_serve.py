"""The analysis-as-a-service daemon (``repro serve``).

Covers the tentpole contract: /analyze parity with ``repro analyze
--json`` (byte-identical modulo wall-clock fields), /batch NDJSON
streaming with duplicate coalescing, bounded admission (429), /metrics
counter names, graceful drain — in-process via ``request_shutdown`` and
end-to-end via SIGTERM on a real ``python -m repro serve`` subprocess —
plus the persistent pool's fault tolerance and the disk result cache
shared with ``repro sweep``.
"""

import contextlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.core.orchestrator import FaultPlan, OrchestratorOptions, PersistentPool
from repro.corpus import generate_corpus
from repro.serve import AnalysisServer, ServeOptions

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

VOLATILE_FIELDS = ("elapsed_seconds", "stage_seconds", "cache_hits", "cache_misses")


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(6, seed=3)


@pytest.fixture(scope="module")
def bytecodes(corpus):
    return [contract.runtime for contract in corpus]


@contextlib.contextmanager
def running_server(**overrides):
    """An AnalysisServer on a background thread, port auto-assigned."""
    import asyncio

    overrides.setdefault("port", 0)
    overrides.setdefault("jobs", 0)
    options = ServeOptions(**overrides)
    holder = {}
    ready = threading.Event()

    def run():
        async def main():
            server = AnalysisServer(options)
            await server.start()
            holder["server"] = server
            holder["port"] = server.address[1]
            ready.set()
            await server.run_until_shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(15), "server failed to start"
    try:
        yield holder["server"], holder["port"]
    finally:
        holder["server"].request_shutdown()
        thread.join(30)
        assert not thread.is_alive(), "server failed to drain"


def request(port, method, path, payload=None, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    body = json.dumps(payload).encode() if payload is not None else None
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, data


def normalized(report_text):
    """Report JSON with the wall-clock/per-process fields zeroed, re-dumped
    with the same formatting — byte comparison then proves everything else
    (keys, order, values) identical."""
    payload = json.loads(report_text)
    for field in VOLATILE_FIELDS:
        payload[field] = None
    return json.dumps(payload, indent=2)


def cli_report_json(capsys, hex_path, *extra):
    from repro.cli import main

    code = main(["analyze", "--hex", hex_path, "--json", "-", *extra])
    assert code in (0, 1)
    return capsys.readouterr().out


class TestAnalyzeParity:
    @pytest.mark.parametrize("engine", ["python", "datalog"])
    def test_analyze_matches_cli_json(
        self, tmp_path, capsys, bytecodes, engine
    ):
        runtime = bytecodes[2]  # a flagged contract exercises warnings too
        hex_path = tmp_path / "contract.hex"
        hex_path.write_text(runtime.hex())
        cli_text = cli_report_json(capsys, str(hex_path), "--engine", engine)
        with running_server() as (_server, port):
            status, body = request(
                port,
                "POST",
                "/analyze",
                {"bytecode": runtime.hex(), "engine": engine},
            )
        assert status == 200
        served = body.decode()
        assert served.endswith("\n") and cli_text.endswith("\n")
        assert normalized(served) == normalized(cli_text)
        if engine == "datalog":
            # The full EngineStats payload (per-rule maps, stratum list)
            # survives the worker/report path — not just scalars.
            datalog = json.loads(served)["datalog"]
            assert "rule_derivations" in datalog
            assert isinstance(datalog["stratum_iterations"], list)

    def test_duplicate_request_is_byte_identical(self, bytecodes):
        with running_server() as (server, port):
            payload = {"bytecode": bytecodes[0].hex(), "name": "dup"}
            status1, first = request(port, "POST", "/analyze", payload)
            status2, second = request(port, "POST", "/analyze", payload)
            assert (status1, status2) == (200, 200)
            # The duplicate resolved from the completed-row cache: same
            # bytes, timings included, and no second analysis ran.
            assert first == second
            assert server.backend.stats.analyzed == 1
            assert server.backend.stats.report_cache_hits == 1

    def test_minisol_source_input(self):
        source = (
            "contract Owned { address owner;"
            " function set(address o) public { owner = o; } }"
        )
        with running_server() as (_server, port):
            status, body = request(port, "POST", "/analyze", {"source": source})
        assert status == 200
        assert json.loads(body)["schema_version"] == 2

    def test_client_errors_are_400(self, bytecodes):
        with running_server() as (_server, port):
            for payload in (
                {"bytecode": "zz"},
                {"bytecode": bytecodes[0].hex(), "engine": "nope"},
                # the retired columnar tier is an unknown engine now
                {"bytecode": bytecodes[0].hex(), "engine": "datalog-columnar"},
                {"bytecode": bytecodes[0].hex(), "kinds": ["not-a-kind"]},
                {"egnine": "python"},
                {},
            ):
                status, body = request(port, "POST", "/analyze", payload)
                assert status == 400, payload
                assert "error" in json.loads(body)
            assert request(port, "GET", "/nowhere")[0] == 404
            assert request(port, "GET", "/analyze")[0] == 405


class TestBatch:
    def test_streams_every_contract_with_indices(self, bytecodes):
        with running_server() as (_server, port):
            status, body = request(
                port,
                "POST",
                "/batch",
                {
                    "contracts": [
                        {"bytecode": b.hex(), "name": "c%d" % i}
                        for i, b in enumerate(bytecodes)
                    ]
                },
            )
        assert status == 200
        lines = [json.loads(line) for line in body.splitlines() if line]
        assert sorted(line["index"] for line in lines) == list(
            range(len(bytecodes))
        )
        for line in lines:
            assert line["report"]["schema_version"] == 2
            assert line["report"]["name"] == "c%d" % line["index"]

    def test_duplicates_coalesce_to_one_analysis(self, bytecodes):
        copies = 6
        with running_server() as (server, port):
            status, body = request(
                port,
                "POST",
                "/batch",
                {
                    "contracts": [
                        {"bytecode": bytecodes[0].hex(), "name": "same"}
                    ]
                    * copies
                },
            )
            stats = server.backend.stats
            assert stats.analyzed == 1
            assert (
                stats.coalesced + stats.report_cache_hits == copies - 1
            )
        assert status == 200
        lines = [json.loads(line) for line in body.splitlines() if line]
        assert len(lines) == copies
        reports = {json.dumps(line["report"], sort_keys=True) for line in lines}
        assert len(reports) == 1  # every duplicate got the same row

    def test_shared_overrides_apply_per_batch(self, bytecodes):
        with running_server() as (_server, port):
            status, body = request(
                port,
                "POST",
                "/batch",
                {
                    "engine": "datalog",
                    "contracts": [{"bytecode": bytecodes[2].hex()}],
                },
            )
        assert status == 200
        line = json.loads(body.splitlines()[0])
        assert line["report"]["datalog"] is not None

    def test_malformed_batch_is_400(self):
        with running_server() as (_server, port):
            assert request(port, "POST", "/batch", {})[0] == 400
            assert request(port, "POST", "/batch", {"contracts": []})[0] == 400


class TestBackpressure:
    def test_admission_full_is_429_but_duplicates_still_land(self, bytecodes):
        release = threading.Event()
        with running_server(max_queue=1) as (server, port):
            server.pool.task_hook = lambda *_args: release.wait(30)
            results = {}

            def first():
                results["first"] = request(
                    port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()}
                )

            holder = threading.Thread(target=first)
            holder.start()
            deadline = time.monotonic() + 10
            while (
                server.backend.open_requests < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.backend.open_requests == 1

            # A *different* contract cannot be admitted: 429.
            status, body = request(
                port, "POST", "/analyze", {"bytecode": bytecodes[1].hex()}
            )
            assert status == 429
            assert "queue is full" in json.loads(body)["error"]
            assert server.backend.stats.rejections == 1

            # A *duplicate* of the in-flight contract coalesces instead of
            # queueing, so it is admitted even at capacity.
            def dup():
                results["dup"] = request(
                    port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()}
                )

            joiner = threading.Thread(target=dup)
            joiner.start()
            deadline = time.monotonic() + 10
            while (
                server.backend.stats.coalesced < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.backend.stats.coalesced == 1

            release.set()
            holder.join(60)
            joiner.join(60)
            assert results["first"][0] == 200
            assert results["dup"][0] == 200
            assert results["dup"][1] == results["first"][1]


class TestMetrics:
    EXPECTED = [
        "repro_serve_requests_total",
        "repro_serve_queue_depth",
        "repro_serve_inflight_identities",
        "repro_serve_coalesced_requests_total",
        "repro_serve_report_cache_hits_total",
        "repro_serve_result_cache_hits_total",
        "repro_serve_queue_rejections_total",
        "repro_serve_uptime_seconds",
        "repro_orchestrator_workers",
        "repro_orchestrator_dispatched_total",
        "repro_orchestrator_completed_total",
        "repro_orchestrator_heartbeats_total",
        "repro_orchestrator_retries_total",
        "repro_orchestrator_crashes_total",
        "repro_orchestrator_watchdog_kills_total",
        "repro_orchestrator_recycles_total",
    ]

    def test_exposition_format_and_counter_names(self, bytecodes):
        with running_server() as (_server, port):
            request(port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()})
            request(port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()})
            status, body = request(port, "GET", "/metrics")
        assert status == 200
        text = body.decode()
        for name in self.EXPECTED:
            assert "# TYPE %s " % name in text, name
            assert re.search(r"^%s(\{[^}]*\})? \S+$" % name, text, re.M), name
        assert (
            'repro_serve_requests_total{endpoint="analyze",status="200"} 2'
            in text
        )
        assert "repro_serve_report_cache_hits_total 1" in text

    def test_duplicate_heavy_load_shows_dedup_hits(self, bytecodes):
        with running_server() as (_server, port):
            request(
                port,
                "POST",
                "/batch",
                {"contracts": [{"bytecode": bytecodes[0].hex()}] * 8},
            )
            _status, body = request(port, "GET", "/metrics")
        text = body.decode()
        coalesced = int(
            re.search(
                r"^repro_serve_coalesced_requests_total (\d+)$", text, re.M
            ).group(1)
        )
        cached = int(
            re.search(
                r"^repro_serve_report_cache_hits_total (\d+)$", text, re.M
            ).group(1)
        )
        assert coalesced + cached == 7


class TestResultCacheSharing:
    def test_sweep_result_cache_warms_the_daemon(self, tmp_path, bytecodes):
        cache_dir = str(tmp_path / "results")
        summary = api.sweep([bytecodes[0]], result_cache=cache_dir)
        sweep_entry = summary.entries[0]
        with running_server(result_cache=cache_dir) as (server, port):
            status, body = request(
                port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()}
            )
            assert status == 200
            assert server.backend.stats.result_cache_hits == 1
            assert server.backend.stats.analyzed == 0
        # The served report is the sweep's entry, byte for byte — same
        # identity, same stored row, timings included.
        from repro.serve.codecs import report_text

        assert body.decode() == report_text(
            sweep_entry, "", len(bytecodes[0])
        )

    def test_daemon_populates_the_cache_for_later_sweeps(
        self, tmp_path, bytecodes
    ):
        cache_dir = str(tmp_path / "results")
        with running_server(result_cache=cache_dir) as (_server, port):
            assert (
                request(
                    port, "POST", "/analyze", {"bytecode": bytecodes[1].hex()}
                )[0]
                == 200
            )
        summary = api.sweep([bytecodes[1]], result_cache=cache_dir)
        assert summary.orchestrator["result_cache_hits"] == 1


class TestDrain:
    def test_in_flight_request_completes_during_drain(self, bytecodes):
        with running_server() as (server, port):
            server.pool.task_hook = lambda *_args: time.sleep(0.3)
            results = {}

            def slow():
                results["response"] = request(
                    port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()}
                )

            thread = threading.Thread(target=slow)
            thread.start()
            deadline = time.monotonic() + 10
            while (
                server.backend.open_requests < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            server.request_shutdown()
            thread.join(60)
        assert results["response"][0] == 200

    def test_sigterm_drains_a_real_daemon(self, bytecodes):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, "no listening line: %r" % line
            port = int(match.group(2))
            status, body = request(
                port, "POST", "/analyze", {"bytecode": bytecodes[0].hex()}
            )
            assert status == 200
            assert json.loads(body)["schema_version"] == 2
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


class TestPersistentPool:
    def test_warm_pool_serves_mixed_configs(self, bytecodes):
        with PersistentPool(
            jobs=2, options=OrchestratorOptions(mp_context="fork")
        ) as pool:
            futures = [
                pool.submit(runtime, config)
                for runtime in bytecodes[:3]
                for config in (
                    api.AnalysisConfig(),
                    api.AnalysisConfig(engine="datalog"),
                )
            ]
            rows = [future.result(timeout=120) for future in futures]
        assert all(len(row) == 1 and row[0].error is None for row in rows)
        assert pool.stats.completed == len(futures)

    def test_transient_failures_retry_with_error_row_contract(self, bytecodes):
        options = OrchestratorOptions(
            mp_context="fork",
            fault_plan=FaultPlan(transient_failures={0: 1}),
            backoff_seconds=0.0,
        )
        with PersistentPool(jobs=1, options=options) as pool:
            row = pool.submit(bytecodes[0]).result(timeout=120)
        assert row[0].error is None
        assert row[0].attempts == 2
        assert pool.stats.retries == 1

    def test_worker_crash_charges_one_request_and_pool_survives(
        self, bytecodes
    ):
        options = OrchestratorOptions(
            mp_context="fork", fault_plan=FaultPlan(crash_indices=(0,))
        )
        with PersistentPool(jobs=1, options=options) as pool:
            crashed = pool.submit(bytecodes[0]).result(timeout=120)
            healthy = pool.submit(bytecodes[1]).result(timeout=120)
        assert crashed[0].error.startswith("worker_crashed")
        assert healthy[0].error is None
        assert pool.stats.crashes == 1

    def test_closed_pool_rejects_submissions(self, bytecodes):
        pool = PersistentPool(jobs=0)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(bytecodes[0])


class TestBackendSubmit:
    def test_already_resolved_future_does_not_deadlock(self):
        """A pool that resolves before ``submit`` registers its callback
        runs the callback on the submitting thread; it must not block on
        the backend's own lock."""
        from concurrent.futures import Future

        from repro.core.batch import BatchEntry
        from repro.serve.backend import ServingBackend

        row = (BatchEntry(0, (), None, 0.0, 1),)

        class ResolvedPool:
            outstanding = 0

            def submit(self, runtime, config):
                future = Future()
                future.set_result(row)
                return future

        backend = ServingBackend(ResolvedPool())
        results = []

        def submit():
            results.append(backend.submit(b"\x00", api.AnalysisConfig(), "id-0"))

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        thread.join(10)
        assert not thread.is_alive(), "submit deadlocked on its own lock"
        assert results[0].result(timeout=0) == row
        assert backend.inflight_identities == 0
        duplicate = backend.submit(b"\x00", api.AnalysisConfig(), "id-0")
        assert duplicate.result(timeout=0) == row
        assert backend.stats.analyzed == 1
        assert backend.stats.report_cache_hits == 1
