"""Endpoint contract of the serve-mode HTTP surface.

One module-scoped world keeps this suite fast; every test talks to the
server over a real socket, exactly as a scraper would.
"""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import parse_exposition
from repro.serve import ServeSession, ServeSpec, read_metadata
from repro.serve.http import (MAX_POST_BYTES, PROMETHEUS_CONTENT_TYPE,
                               ServeHTTPServer)
from repro.serve.runner import run_serve


def request(url, method="GET", payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    if method == "POST" and data is None:
        data = b""
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return (response.status, response.read().decode(),
                    response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), exc.headers


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "ck.bin"
    session = ServeSession(ServeSpec(seed=5))
    server = ServeHTTPServer(session, checkpoint_path=str(path),
                             allow_inject=True)
    server.start()
    run_serve(session, server, pace_s=0, max_ticks=25)
    yield session, server, path
    server.stop()


class TestReadEndpoints:
    def test_health_always_ok(self, served):
        _, server, _ = served
        code, body, _ = request(server.url + "/health")
        assert code == 200
        assert json.loads(body)["healthy"] is True

    def test_ready_after_warmup(self, served):
        _, server, _ = served
        code, body, _ = request(server.url + "/ready")
        assert code == 200
        assert json.loads(body)["ready"] is True

    def test_ready_503_before_warmup(self):
        session = ServeSession(ServeSpec(seed=6))
        server = ServeHTTPServer(session)
        server.start()
        try:
            code, _, _ = request(server.url + "/ready")
            assert code == 503
        finally:
            server.stop()

    def test_metrics_scrape_parses(self, served):
        session, server, _ = served
        code, body, headers = request(server.url + "/metrics")
        assert code == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        exposition = parse_exposition(body)
        assert exposition.series["repro_uptime_ticks"] == session.ticks
        build_info = [key for key in exposition.series
                      if key.startswith("repro_build_info")]
        assert len(build_info) == 1
        assert f'shards="{session.spec.shards}"' in build_info[0]

    def test_status_payload(self, served):
        session, server, _ = served
        code, body, _ = request(server.url + "/status")
        assert code == 200
        status = json.loads(body)
        assert status["tick"] == session.ticks
        assert status["config_digest"] == session.config_digest

    def test_alerts_payload(self, served):
        _, server, _ = served
        code, body, _ = request(server.url + "/alerts")
        assert code == 200
        assert "analyzer_problems" in json.loads(body)["rules"][0]

    def test_unknown_path_404(self, served):
        _, server, _ = served
        assert request(server.url + "/nope")[0] == 404
        assert request(server.url + "/nope", method="POST")[0] == 404


class TestCheckpointEndpoint:
    def test_post_writes_file(self, served):
        session, server, path = served
        code, body, _ = request(server.url + "/checkpoint",
                                method="POST")
        assert code == 200
        reply = json.loads(body)
        assert reply["tick"] == session.ticks
        assert read_metadata(path)["tick"] == session.ticks

    def test_409_without_configured_path(self):
        session = ServeSession(ServeSpec(seed=6))
        server = ServeHTTPServer(session)  # no checkpoint_path
        server.start()
        try:
            code, _, _ = request(server.url + "/checkpoint",
                                 method="POST")
            assert code == 409
        finally:
            server.stop()


class TestInjectEndpoint:
    def test_valid_fault_scheduled_relative_to_now(self, served):
        session, server, _ = served
        before = len(session.faults.faults)
        code, body, _ = request(
            server.url + "/inject", method="POST",
            payload={"fault": "link_corruption@5-20:pod0-tor0,"
                              "pod0-agg0:drop_prob=0.4"})
        assert code == 200
        reply = json.loads(body)
        now_s = session.cluster.sim.now / 10 ** 9
        assert reply["start_s"] == pytest.approx(now_s + 5)
        assert reply["end_s"] == pytest.approx(now_s + 20)
        assert len(session.faults.faults) == before + 1

    def test_bad_grammar_400(self, served):
        _, server, _ = served
        code, _, _ = request(server.url + "/inject", method="POST",
                             payload={"fault": "nonsense"})
        assert code == 400

    def test_wrong_arity_400(self, served):
        _, server, _ = served
        code, _, _ = request(
            server.url + "/inject", method="POST",
            payload={"fault": "link_corruption@5:only-one-locus"})
        assert code == 400

    def test_403_when_disabled(self):
        session = ServeSession(ServeSpec(seed=6))
        server = ServeHTTPServer(session)  # allow_inject defaults off
        server.start()
        try:
            code, _, _ = request(
                server.url + "/inject", method="POST",
                payload={"fault": "link_corruption@1-2:a,b"})
            assert code == 403
        finally:
            server.stop()


class TestPostLength:
    def post_with_length(self, server, declared):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/inject")
            conn.putheader("Content-Length", declared)
            conn.endheaders()  # no body follows
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize("declared", ["abc", "-5", "1.5"])
    def test_malformed_length_400(self, served, declared):
        _, server, _ = served
        code, reply = self.post_with_length(server, declared)
        assert code == 400
        assert "Content-Length" in reply["error"]

    def test_oversized_length_413_without_reading(self, served):
        # The body is never sent: a server that tried to read it would
        # block until the client's timeout instead of answering.
        _, server, _ = served
        code, _ = self.post_with_length(server, str(MAX_POST_BYTES + 1))
        assert code == 413


class TestLockNotHeldWhileWriting:
    def test_every_endpoint_writes_outside_the_lock(self, tmp_path,
                                                   monkeypatch):
        session = ServeSession(ServeSpec(seed=5))
        server = ServeHTTPServer(session,
                                 checkpoint_path=str(tmp_path / "ck.bin"),
                                 allow_inject=True)
        handler_cls = server._httpd.RequestHandlerClass
        original = handler_cls.flush_headers
        writes = []

        def flush_headers(handler):
            writes.append((handler.path, server.lock.locked()))
            original(handler)
        monkeypatch.setattr(handler_cls, "flush_headers", flush_headers)
        server.start()
        try:
            run_serve(session, server, pace_s=0, max_ticks=3)
            calls = [("/metrics", "GET", None), ("/health", "GET", None),
                     ("/ready", "GET", None), ("/status", "GET", None),
                     ("/alerts", "GET", None), ("/nope", "GET", None),
                     ("/checkpoint", "POST", None),
                     ("/inject", "POST", {"fault": "link_corruption@5-9:"
                                                  "pod0-tor0,pod0-agg0"}),
                     ("/inject", "POST", {"fault": "nonsense"}),
                     ("/nope", "POST", None), ("/shutdown", "POST", None)]
            for path, method, payload in calls:
                request(server.url + path, method, payload)
        finally:
            server.stop()
        assert [path for path, _ in writes] == [path for path, _, _ in calls]
        assert not any(locked for _, locked in writes), writes


class TestKeepAlive:
    def test_sequential_requests_have_no_delayed_ack_floor(self, served):
        # Headers and body leave in two writes; with Nagle's algorithm on,
        # the body waits for the client's delayed ACK (~40 ms).
        _, server, _ = served
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        elapsed = []
        try:
            for _ in range(10):
                start = time.perf_counter()
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(elapsed) < 0.020, elapsed


class TestStalledClient:
    """A keep-alive client that never reads cannot hold the tick loop."""

    REQUESTS = 1000   # ~10 MB of /metrics: far beyond any socket buffer

    @staticmethod
    def tick_seconds(session, server, ticks):
        stamps = [time.perf_counter()]
        worker = threading.Thread(
            target=run_serve, args=(session, server), daemon=True,
            kwargs={"pace_s": 0, "max_ticks": ticks,
                    "render": lambda _: stamps.append(time.perf_counter())})
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "tick loop stalled behind a client"
        return [b - a for a, b in zip(stamps, stamps[1:])]

    def test_unread_metrics_responses_do_not_delay_ticks(self, monkeypatch):
        session = ServeSession(ServeSpec(seed=5))
        server = ServeHTTPServer(session)
        handler_cls = server._httpd.RequestHandlerClass
        original = handler_cls._respond
        answered = []

        def respond(handler, *args):
            original(handler, *args)
            answered.append(handler.path)
        monkeypatch.setattr(handler_cls, "_respond", respond)
        client = socket.socket()
        client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)

        def pipeline():
            try:
                client.sendall(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
                               * self.REQUESTS)
            except OSError:
                pass   # closed under us at teardown
        server.start()
        try:
            run_serve(session, server, pace_s=0, max_ticks=3)
            baseline = self.tick_seconds(session, server, 10)
            client.connect((server.host, server.port))
            threading.Thread(target=pipeline, daemon=True).start()
            # Let the handler answer until its writes block: the count of
            # completed responses stops moving.
            seen, quiet_since = -1, time.perf_counter()
            deadline = quiet_since + 20
            while time.perf_counter() < deadline:
                if len(answered) != seen:
                    seen, quiet_since = len(answered), time.perf_counter()
                elif time.perf_counter() - quiet_since > 0.5:
                    break
                time.sleep(0.05)
            stalled = self.tick_seconds(session, server, 10)
            # The handler is still stuck mid-write while the ticks ran.
            assert len(answered) < self.REQUESTS
        finally:
            client.close()
            server.stop()
        assert session.ticks == 23
        assert statistics.median(stalled) < \
            3 * statistics.median(baseline) + 0.05, (baseline, stalled)


class TestShutdownEndpoint:
    def test_post_stops_the_loop(self):
        session = ServeSession(ServeSpec(seed=6))
        server = ServeHTTPServer(session)
        server.start()
        try:
            code, _, _ = request(server.url + "/shutdown", method="POST")
            assert code == 200
            assert server.shutdown_requested.is_set()
            assert run_serve(session, server, pace_s=0,
                             max_ticks=50) == 0
        finally:
            server.stop()


class TestScrapeDoesNotPerturbReplay:
    def test_scraped_and_unscraped_runs_share_digest(self):
        spec = ServeSpec(seed=9)
        quiet = ServeSession(spec)
        for _ in range(12):
            quiet.tick()
        noisy = ServeSession(spec)
        server = ServeHTTPServer(noisy)
        server.start()
        try:
            for _ in range(12):
                with server.lock:
                    noisy.tick()
                request(server.url + "/metrics")
                request(server.url + "/status")
        finally:
            server.stop()
        assert noisy.replay_digest() == quiet.replay_digest()
