"""The analysis daemon end to end: request/response over real sockets,
structured errors on open connections, deadlines, concurrency, drain."""

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.circuit.bench import parse_bench, write_bench
from repro.circuit.examples import mux_circuit
from repro.errors import RemoteError, ServiceError
from repro.gen.suite import get_circuit
from repro.service.client import ServiceClient
from repro.service.server import AnalysisServer
from repro.timing.annotate import write_delay_annotations
from repro.timing.delays import random_delays

#: well-framed requests whose fields break the op table; daemon and
#: fleet must both answer ProtocolError for every one
MALFORMED_FIELDS = (
    {"id": 4, "op": "signoff", "circuit": "c17", "delays": 5},
    {"id": 5, "op": "classify", "circuit": "c17", "max_accepted": True},
    {"id": 6, "op": "signoff", "circuit": "c17", "k": True},
    {"id": 7, "op": "classify", "circuit": "c17", "deadline": True},
    {"id": 8, "op": "classify", "circuit": "c17", "criterion": "fs",
     "sort": "bogus"},
    {"id": 9, "op": "tightness", "circuit": "c17", "criterion": "nr",
     "sort": "bogus"},
)


class ServerHarness:
    """One AnalysisServer on a private event loop in a daemon thread."""

    def __init__(self, **kwargs):
        self.server_kwargs = kwargs
        self.server: "AnalysisServer | None" = None
        self.address: "str | None" = None
        self.loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None

    def start(self, **start_kwargs) -> str:
        ready = threading.Event()

        def run():
            self.loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self.loop)

            async def go():
                self.server = AnalysisServer(**self.server_kwargs)
                self.address = await self.server.start(**start_kwargs)
                ready.set()
                await self.server.run()

            self.loop.run_until_complete(go())

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert ready.wait(10), "server failed to start"
        return self.address

    def stop(self, timeout: float = 30.0) -> None:
        if self.loop is not None and self.server is not None:
            self.loop.call_soon_threadsafe(self.server.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout)
            assert not self._thread.is_alive(), "server failed to drain"


@pytest.fixture
def harness(tmp_path):
    harnesses = []

    def factory(**kwargs):
        h = ServerHarness(**kwargs)
        harnesses.append(h)
        return h

    factory.tmp_path = tmp_path
    yield factory
    for h in harnesses:
        h.stop()


def _unix_server(factory, **kwargs):
    h = factory(**kwargs)
    h.start(socket_path=str(factory.tmp_path / "svc.sock"))
    return h


class TestRequests:
    def test_ping(self, harness):
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            result = client.ping()
        assert result["server"] == "repro-rd"
        assert result["version"]

    def test_classify_suite_name_over_tcp(self, harness):
        h = harness()
        h.start(port=0)  # ephemeral TCP port
        with ServiceClient.connect(h.address) as client:
            result = client.classify(circuit="c17")
        assert result["name"] == "c17"
        assert result["total_logical"] == 22
        assert result["criterion"] == "SIGMA_PI"

    def test_classify_bench_text_and_events(self, harness):
        h = _unix_server(harness)
        events = []
        with ServiceClient.connect(h.address) as client:
            result = client.classify(
                bench="INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
                criterion="fs",
                on_event=events.append,
            )
        assert result["total_logical"] == 4  # 2 physical paths x 2 edges
        assert [e["event"] for e in events] == ["start"]
        assert events[0]["fingerprint"].startswith("rdfp")
        assert events[0]["deadline"] > 0

    def test_classify_circuit_object(self, harness):
        """An in-memory Circuit travels as .bench text."""
        h = _unix_server(harness)
        circuit = mux_circuit()
        with ServiceClient.connect(h.address) as client:
            result = client.classify(circuit=circuit, criterion="nr")
        assert result["name"] == circuit.name
        assert result["fingerprint"].startswith("rdfp")

    def test_stats_op(self, harness):
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            client.classify(circuit="c17")
            stats = client.stats()
        assert stats["counters"]["ok"] >= 1
        assert stats["store"] is None  # started without a store

    def test_store_backed_warm_requests(self, harness, tmp_path):
        h = _unix_server(
            harness, store=str(tmp_path / "store.sqlite")
        )
        with ServiceClient.connect(h.address) as client:
            cold = client.classify(circuit="c17")
            warm = client.classify(circuit="c17")
            stats = client.stats()
        assert warm["accepted"] == cold["accepted"]
        assert warm["session"]["store_hits"] > 0
        assert stats["store"]["entries"] > 0

    def test_cone_granularity_requests(self, harness, tmp_path):
        """``cones=true`` reuses stored cone rows on the second request."""
        h = _unix_server(
            harness, store=str(tmp_path / "store.sqlite")
        )
        with ServiceClient.connect(h.address) as client:
            whole = client.classify(circuit="c17")
            cold = client.classify(circuit="c17", cones=True)
            warm = client.classify(circuit="c17", cones=True)
        assert cold["accepted"] == whole["accepted"]  # exact decomposition
        assert cold["total_logical"] == whole["total_logical"]
        assert cold["cone_stats"]["reused"] == 0
        assert warm["cone_stats"]["reused"] == warm["cone_stats"]["cones"]
        assert warm["cone_stats"]["reuse_ratio"] == 1.0
        assert warm["accepted"] == whole["accepted"]
        assert "cone_stats" not in whole  # whole-circuit answers unchanged

    def test_renamed_netlist_answers_with_its_own_names(self, harness):
        """Sessions are keyed by request source, not fingerprint alone: a
        renamed copy of a netlist the daemon has already seen answers
        with its own circuit and gate names."""
        h = _unix_server(harness)
        text = write_bench(get_circuit("c17"))
        copies = (
            parse_bench(text, name="alpha"),
            parse_bench(re.sub(r"\b(\d+)\b", r"\1_r", text), name="beta"),
        )
        with ServiceClient.connect(h.address) as client:
            answers = [
                (circuit, client.classify(circuit=circuit))
                for circuit in copies
            ]
            for circuit, classified in answers:
                assert classified["name"] == circuit.name
                gates = {
                    circuit.gate_name(g) for g in range(circuit.num_gates)
                }
                result = client.signoff(
                    circuit=circuit,
                    k=5,
                    delays=write_delay_annotations(
                        random_delays(circuit, seed=3)
                    ),
                )
                assert result["circuit"] == circuit.name
                assert result["rows"]
                for row in result["rows"]:
                    assert {gate for gate, _pin in row["path"]} <= gates
        assert answers[0][1]["fingerprint"] == answers[1][1]["fingerprint"]

    def test_cones_rejects_bad_fields(self, harness):
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            with pytest.raises(RemoteError) as exc_info:
                client.request("classify", circuit="c17", cones="yes")
            assert exc_info.value.error_type == "ProtocolError"
            assert client.ping()["server"] == "repro-rd"


class TestStructuredErrors:
    def test_unknown_circuit_keeps_connection_open(self, harness):
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            with pytest.raises(RemoteError) as exc_info:
                client.classify(circuit="no-such-circuit")
            assert exc_info.value.error_type == "CircuitError"
            assert client.ping()["server"] == "repro-rd"  # still usable

    def test_bench_parse_error(self, harness):
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            with pytest.raises(RemoteError) as exc_info:
                client.classify(bench="y = AND(a b\n")
            assert exc_info.value.error_type == "BenchParseError"

    def test_bad_criterion(self, harness):
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            with pytest.raises(RemoteError) as exc_info:
                client.classify(circuit="c17", criterion="bogus")
            assert exc_info.value.error_type == "ProtocolError"

    def test_malformed_json_line(self, harness):
        h = _unix_server(harness)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(h.address)
        with sock, sock.makefile("rwb") as f:
            f.write(b"{this is not json\n")
            f.flush()
            answer = json.loads(f.readline())
            assert answer["ok"] is False
            assert answer["error"]["type"] == "ProtocolError"
            # the connection survives framing-level garbage too
            f.write(b'{"id": 2, "op": "ping"}\n')
            f.flush()
            assert json.loads(f.readline())["ok"] is True

    def test_missing_op_and_missing_circuit(self, harness):
        h = _unix_server(harness)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(h.address)
        with sock, sock.makefile("rwb") as f:
            for request in (
                {"id": 1},
                {"id": 2, "op": "classify"},
                {"id": 3, "op": "classify", "bench": "x", "circuit": "y"},
                *MALFORMED_FIELDS,
            ):
                f.write(json.dumps(request).encode() + b"\n")
                f.flush()
                answer = json.loads(f.readline())
                assert answer["id"] == request["id"]
                assert answer["error"]["type"] == "ProtocolError"

    def test_deadline_is_a_structured_error_not_a_disconnect(self, harness):
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            with pytest.raises(RemoteError) as exc_info:
                client.classify(circuit="c17", deadline=1e-9)
            assert exc_info.value.error_type == "TaskTimeout"
            assert "budget" in str(exc_info.value)
            # same connection, full-budget retry succeeds
            assert client.classify(circuit="c17")["total_logical"] == 22


class TestConcurrency:
    def test_eight_concurrent_clients(self, harness, tmp_path):
        h = _unix_server(
            harness, store=str(tmp_path / "store.sqlite"), concurrency=8
        )
        results: list = [None] * 8
        errors: list = []

        def worker(i):
            try:
                with ServiceClient.connect(h.address) as client:
                    results[i] = client.classify(
                        circuit="c17", sort=["heu1", "heu2"][i % 2]
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert not errors
        assert all(r is not None for r in results)
        assert len({r["accepted"] for r in results}) == 1

    def test_sequential_pipelined_requests_answer_in_order(self, harness):
        h = _unix_server(harness)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(h.address)
        with sock, sock.makefile("rwb") as f:
            for i in range(5):
                f.write(json.dumps({"id": i, "op": "ping"}).encode() + b"\n")
            f.flush()
            seen = [json.loads(f.readline())["id"] for _ in range(5)]
        assert seen == list(range(5))


class TestDrain:
    def test_in_flight_request_finishes_during_drain(self, harness):
        h = _unix_server(harness)
        client = ServiceClient.connect(h.address)
        try:
            done = {}

            def run_request():
                done["result"] = client.classify(circuit="s499-ecc")

            t = threading.Thread(target=run_request)
            t.start()
            time.sleep(0.3)  # let the request reach the classifier
            h.stop(timeout=120)
            t.join(120)
            assert done["result"]["name"] == "s499-ecc"
        finally:
            client.close()

    def test_idle_connections_are_closed_on_drain(self, harness):
        h = _unix_server(harness)
        client = ServiceClient.connect(h.address)
        try:
            client.ping()
            h.stop()
            with pytest.raises(ServiceError):
                client.ping()
        finally:
            client.close()


class TestSubprocessDaemon:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """The CI smoke scenario: real daemon process, classify over the
        socket twice (cold then warm), SIGTERM, clean exit."""
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        sock_path = str(tmp_path / "daemon.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_dir, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", sock_path,
                "--store", str(tmp_path / "store.sqlite"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )
        try:
            deadline = time.time() + 30
            while not os.path.exists(sock_path):
                assert proc.poll() is None, proc.stdout.read().decode()
                assert time.time() < deadline, "daemon never bound its socket"
                time.sleep(0.1)
            with ServiceClient.connect(sock_path) as client:
                cold = client.classify(circuit="c17")
                warm = client.classify(circuit="c17")
            assert warm["accepted"] == cold["accepted"]
            assert warm["session"]["store_hits"] > 0
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            banner = proc.stdout.read().decode()
            assert "serving on" in banner
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
