"""HTTP-layer tests against an in-process server (inline scheduler).

Each test binds a real ``ThreadingHTTPServer`` on an OS-assigned port
and talks to it through :class:`repro.service.client.ServiceClient` —
the same stack ``repro serve`` / ``repro submit`` use.
"""

import http.client
import json
import os
import socket
import threading
import time

import pytest

from repro.service import journal as journal_module
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ExperimentService, make_server
from repro.service.specio import canonical_spec, spec_hash

PAYLOAD = {"workers": 4, "max_iter": 2, "seed": 3}


@pytest.fixture
def service_stack(tmp_path):
    service = ExperimentService(
        tmp_path / "state", pool_workers=2, inline=True, max_pending=8
    )
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        f"http://127.0.0.1:{httpd.server_address[1]}", timeout=10.0
    )
    yield service, client
    httpd.shutdown()
    httpd.server_close()
    service.scheduler.shutdown(timeout=10)


class TestEndpoints:
    def test_submit_poll_result_round_trip(self, service_stack):
        _, client = service_stack
        ticket = client.submit_one(dict(PAYLOAD))
        assert ticket["sweep_id"] == "s000001"
        digest = ticket["cells"][0]
        assert digest == spec_hash(PAYLOAD)
        snapshot = client.wait_for_sweep(ticket["sweep_id"], timeout=60)
        assert snapshot["complete"] is True
        assert snapshot["cells"][digest]["status"] == "done"
        entry = client.result(digest)
        assert entry["spec_hash"] == digest
        assert entry["spec"] == canonical_spec(PAYLOAD)
        assert "final_params_sha256" in entry["fingerprint"]

    def test_multi_spec_sweep_with_explicit_id(self, service_stack):
        _, client = service_stack
        specs = [dict(PAYLOAD), {**PAYLOAD, "seed": 4}]
        ticket = client.submit(specs, sweep_id="mine")
        assert ticket["sweep_id"] == "mine"
        snapshot = client.wait_for_sweep("mine", timeout=60)
        assert snapshot["total"] == 2
        assert snapshot["failed"] == []

    def test_second_submit_is_a_cache_hit(self, service_stack):
        _, client = service_stack
        first = client.submit_one(dict(PAYLOAD))
        client.wait_for_sweep(first["sweep_id"], timeout=60)
        second = client.submit_one(dict(PAYLOAD))
        snapshot = client.wait_for_sweep(second["sweep_id"], timeout=60)
        digest = spec_hash(PAYLOAD)
        assert snapshot["cells"][digest]["cache_hit"] is True
        assert client.stats()["runs_computed"] == 1

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({"workers": 4, "bogus": True}, "unknown spec field"),
            # Rejected by the protocol builder's own rule, at /submit
            # rather than after every retry in the pool.
            ({"protocol": "adpsgd", "workers": 16},
             "'ring_based(16)' is not bipartite"),
            ({"scenario": {"family": "random",
                           "params": {"probabilty": 0.5}}},
             "accepted: factor, probability"),
            ({"scenario": {"family": "crash-restart", "params": {
                "slowdown": {"family": "random", "params": [1]}}}},
             "scenario params must be an object"),
            ({"scenario": {"family": "crash-restart", "params": {
                "slowdown": {"family": {}}}}},
             "scenario family must be a string"),
        ],
    )
    def test_bad_spec_is_a_400_with_the_validation_message(
        self, service_stack, payload, fragment
    ):
        _, client = service_stack
        with pytest.raises(ServiceError) as info:
            client.submit_one(payload)
        assert info.value.status == 400
        assert fragment in str(info.value)
        assert client.stats()["runs_computed"] == 0

    def test_malformed_json_is_a_400(self, service_stack):
        _, client = service_stack
        import urllib.request
        request = urllib.request.Request(
            client.url + "/submit", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_unknown_sweep_and_result_are_404(self, service_stack):
        _, client = service_stack
        for path in ("/sweep/nope", "/result/" + "0" * 64, "/nope"):
            with pytest.raises(ServiceError) as info:
                client._request(path)
            assert info.value.status == 404

    def test_duplicate_sweep_id_is_a_409(self, service_stack):
        _, client = service_stack
        client.submit([dict(PAYLOAD)], sweep_id="dup")
        with pytest.raises(ServiceError) as info:
            client.submit([{**PAYLOAD, "seed": 9}], sweep_id="dup")
        assert info.value.status == 409
        client.wait_for_sweep("dup", timeout=60)

    def test_resubmitting_identical_sweep_is_idempotent(self, service_stack):
        # A client retry after a lost response re-sends the same
        # sweep_id + cells; the server must acknowledge with the
        # existing ticket, not 409, and never duplicate the sweep.
        _, client = service_stack
        first = client.submit([dict(PAYLOAD)], sweep_id="retry")
        second = client.submit([dict(PAYLOAD)], sweep_id="retry")
        assert second == first
        snapshot = client.wait_for_sweep("retry", timeout=60)
        assert snapshot["total"] == 1
        assert client.stats()["runs_computed"] == 1


def port_of(client):
    return int(client.url.rsplit(":", 1)[1])


def keep_alive(client):
    """One persistent HTTP/1.1 connection to the fixture's server."""
    return http.client.HTTPConnection(
        "127.0.0.1", port_of(client), timeout=10
    )


def exchange(connection, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if data else {}
    connection.request(method, path, body=data, headers=headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


class TestTransport:
    def test_every_reply_is_one_send_on_a_nodelay_socket(
        self, service_stack, monkeypatch
    ):
        # Headers and body written as two sends let Nagle hold the body
        # until the client's delayed ACK: ~40 ms per reply.
        _, client = service_stack
        port = port_of(client)
        sends = []  # TCP_NODELAY of the server socket, one per send

        def counting(original):
            def send(sock, *args, **kwargs):
                if sock.getsockname()[1] == port:  # server side only
                    sends.append(sock.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    ))
                return original(sock, *args, **kwargs)
            return send

        for name in ("send", "sendall"):
            monkeypatch.setattr(
                socket.socket, name, counting(getattr(socket.socket, name))
            )
        connection = keep_alive(client)
        try:
            status, ticket = exchange(
                connection, "POST", "/submit", dict(PAYLOAD)
            )
            assert status == 202 and len(sends) == 1
            sweep_path = ticket["status_url"]
            assert service_stack[0].scheduler.sweep(
                ticket["sweep_id"]
            ).finished.wait(60)
            digest = ticket["cells"][0]
            requests = [
                ("GET", "/healthz", 200),
                ("GET", sweep_path, 200),
                ("GET", f"/result/{digest}", 200),
                ("GET", "/stats", 200),
                ("GET", "/readyz", 200),
                ("GET", "/nope", 404),
                ("POST", "/submit", 400),
            ]
            for method, path, expected in requests:
                before = len(sends)
                body = {"bogus": 1} if method == "POST" else None
                status, _ = exchange(connection, method, path, body)
                assert status == expected, path
                assert len(sends) - before == 1, f"{method} {path}"
        finally:
            connection.close()
        assert sends and all(sends), "a reply left without TCP_NODELAY"

    def test_keep_alive_round_trips_do_not_stall(self, service_stack):
        # The delayed-ACK stall costs >= 40 ms a reply, so 50 round
        # trips with it take >= 2 s; without it, a few milliseconds.
        _, client = service_stack
        connection = keep_alive(client)
        try:
            exchange(connection, "GET", "/healthz")  # connect
            start = time.perf_counter()
            for _ in range(50):
                assert exchange(connection, "GET", "/healthz") == (
                    200, {"ok": True}
                )
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 1.0, f"50 keep-alive round trips took {elapsed:.2f} s"

    def test_expect_100_continue_is_answered_before_the_body(
        self, service_stack
    ):
        # The interim reply must not wait in the reply buffer: the
        # client sends the body only after it arrives.
        _, client = service_stack
        port = port_of(client)
        body = json.dumps(PAYLOAD).encode()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(
                b"POST /submit HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            )
            interim = sock.recv(1024)
            assert interim.startswith(b"HTTP/1.1 100"), interim
            sock.sendall(body)
            assert sock.recv(1024).startswith(b"HTTP/1.1 202")


class TestAdmission:
    def test_fully_cached_sweep_is_complete_on_the_first_poll(
        self, service_stack, monkeypatch
    ):
        service, client = service_stack
        first = client.submit_one(dict(PAYLOAD))
        client.wait_for_sweep(first["sweep_id"], timeout=60)
        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(journal_module.os, "fsync", counting_fsync)
        connection = keep_alive(client)
        try:
            status, ticket = exchange(
                connection, "POST", "/submit", dict(PAYLOAD)
            )
            assert status == 202
            status, snapshot = exchange(
                connection, "GET", ticket["status_url"]
            )  # no sleep between submit and poll
        finally:
            connection.close()
        digest = spec_hash(PAYLOAD)
        assert snapshot["complete"] is True
        assert snapshot["cells"][digest]["cache_hit"] is True
        # Sweep record, hit and sweep-done: one append, one fsync.
        assert len(fsyncs) == 1
        record = service.journal.replay()[ticket["sweep_id"]]
        assert record.complete
        assert record.done[digest]["cache_hit"] is True
        assert service.scheduler.counters["runs_computed"] == 1


class TestResultAddress:
    @pytest.mark.parametrize(
        "name",
        ["../victim", "..%2Fvictim", "..%2fvictim", "A" * 64, "a" * 63,
         "a" * 65, "g" * 64, "a" * 64 + "?x=1"],
    )
    def test_non_hash_is_a_404_that_touches_no_file_or_counter(
        self, service_stack, tmp_path, name
    ):
        # A name that is not a hash never becomes a path: ../victim
        # would resolve to <state_dir>/../victim.json, fail
        # verification and be unlinked.
        service, client = service_stack
        victim = tmp_path / "victim.json"
        victim.write_text('{"keep": true}\n')
        connection = keep_alive(client)
        try:
            status, _ = exchange(connection, "GET", f"/result/{name}")
        finally:
            connection.close()
        assert status == 404
        assert victim.read_text() == '{"keep": true}\n'
        assert service.cache.stats() == {
            "hits": 0, "misses": 0, "corruptions": 0
        }


class TestDegradation:
    def test_healthz_always_answers(self, service_stack):
        _, client = service_stack
        assert client.healthz() == {"ok": True}

    def test_overload_sheds_with_429_and_readyz_reflects_it(self, tmp_path):
        service = ExperimentService(
            tmp_path / "state", inline=True, max_pending=1
        )
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{httpd.server_address[1]}", timeout=10.0
        )
        try:
            slow = {**PAYLOAD, "chaos": {"delay_seconds": 1.0}}
            ticket = client.submit_one(slow)
            with pytest.raises(ServiceError) as info:
                client.submit_one({**PAYLOAD, "seed": 5})
            assert info.value.status == 429
            assert client.readyz() is False  # saturated
            assert client.healthz() == {"ok": True}  # but alive
            client.wait_for_sweep(ticket["sweep_id"], timeout=60)
            assert client.readyz() is True  # recovered
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.scheduler.shutdown(timeout=10)

    def test_draining_returns_503_and_unready(self, service_stack):
        service, client = service_stack
        service.scheduler.drain(timeout=10)
        with pytest.raises(ServiceError) as info:
            client.submit_one(dict(PAYLOAD))
        assert info.value.status == 503
        assert client.readyz() is False

    def test_slow_client_does_not_block_other_requests(self, service_stack):
        _, client = service_stack
        # Open a connection and... do nothing with it (a stalled
        # client holding a socket); health checks must still answer.
        host, port = client.url.rsplit(":", 1)[0][7:], int(
            client.url.rsplit(":", 1)[1]
        )
        stalled = socket.create_connection((host, port))
        try:
            stalled.sendall(b"POST /submit HTTP/1.1\r\n")  # never finishes
            assert client.healthz() == {"ok": True}
            ticket = client.submit_one(dict(PAYLOAD))
            assert client.wait_for_sweep(ticket["sweep_id"], timeout=60)
        finally:
            stalled.close()


class TestResume:
    def test_resume_replays_incomplete_sweeps_from_cache(self, tmp_path):
        state = tmp_path / "state"
        first = ExperimentService(state, inline=True)
        ticket = first.submit(dict(PAYLOAD))
        sweep = first.scheduler.sweep(ticket["sweep_id"])
        assert sweep.finished.wait(60)
        # Simulate dying *before* sweep-done landed: rebuild the
        # journal without the final record.
        digest = spec_hash(PAYLOAD)
        lines = [
            json.dumps(
                {"kind": "sweep", "sweep_id": "s000001",
                 "cells": [{"hash": digest, "payload": PAYLOAD}]}
            )
        ]
        (state / "journal.jsonl").write_text("\n".join(lines) + "\n")
        first.scheduler.shutdown(timeout=10)

        second = ExperimentService(state, inline=True)
        resumed = second.resume()
        assert resumed == ["s000001"]
        sweep = second.scheduler.sweep("s000001")
        assert sweep.finished.wait(60)
        cell = sweep.snapshot()["cells"][digest]
        # The pre-crash result is found in the cache: no recompute.
        assert cell["cache_hit"] is True
        assert second.scheduler.counters["runs_computed"] == 0
        assert second.journal.replay()["s000001"].complete
        second.scheduler.shutdown(timeout=10)

    def test_completed_sweeps_are_not_resumed(self, tmp_path):
        state = tmp_path / "state"
        first = ExperimentService(state, inline=True)
        ticket = first.submit(dict(PAYLOAD))
        sweep = first.scheduler.sweep(ticket["sweep_id"])
        assert sweep.finished.wait(60)
        first.scheduler.shutdown(timeout=10)

        second = ExperimentService(state, inline=True)
        assert second.resume() == []
        # ...and the sweep-id sequence continues, never reuses.
        ticket = second.submit({**PAYLOAD, "seed": 11})
        assert ticket["sweep_id"] == "s000002"
        second.scheduler.sweep("s000002").finished.wait(60)
        second.scheduler.shutdown(timeout=10)
