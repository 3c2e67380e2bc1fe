"""The asyncio HTTP front end: framing, keep-alive, conditional GETs.

Everything here talks to a real socket on an ephemeral port — these
are wire tests, not handler-function tests.  The retraction test is
the transport half of the supersede rule: a stale ETag must stop
revalidating the moment the store mutates.
"""

import asyncio
import json

import pytest

from repro.serve import (
    MevHttpServer,
    MevQueryService,
    build_mix,
    probe_once,
    serve_and_replay,
)

from tests.serve.test_store import rebuild_by_hand


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture()
def served(batch_query):
    """A started server (own mutable store clone) + teardown."""
    store = rebuild_by_hand(batch_query.store)
    store.set_quality(batch_query.store.coverage()["quality"])
    service = MevQueryService(store)
    return service


async def _with_server(service, body):
    server = MevHttpServer(service)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


async def _raw_exchange(server, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(server.host,
                                                   server.port)
    writer.write(payload)
    await writer.drain()
    writer.write_eof()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return raw


class TestWire:
    def test_etag_conditional_roundtrip(self, served):
        async def body(server):
            status, etag, first = await probe_once(
                server.host, server.port, "/v1/aggregates/table1")
            assert status == 200 and etag and first
            status, same_etag, empty = await probe_once(
                server.host, server.port, "/v1/aggregates/table1",
                if_none_match=etag)
            assert (status, same_etag, empty) == (304, etag, b"")

        run(_with_server(served, body))

    def test_retraction_invalidates_stale_etag(self, served):
        height = next(h for h in range(*served.store.bounds())
                      if served.store.rows_at(h))

        async def body(server):
            target = f"/v1/blocks/{height}/mev"
            status, etag, stale_body = await probe_once(
                server.host, server.port, target)
            assert status == 200 and b'"count":0' not in stale_body
            served.store.retract_block(height)
            status, fresh_etag, fresh = await probe_once(
                server.host, server.port, target, if_none_match=etag)
            assert status == 200  # stale ETag missed — no 304
            assert fresh_etag != etag
            assert b'"count":0' in fresh

        run(_with_server(served, body))

    def test_keep_alive_serves_many_on_one_connection(self, served):
        async def body(server):
            from repro.serve.loadgen import _Client
            client = _Client(server.host, server.port)
            await client.connect()
            try:
                for target in ("/v1/coverage", "/v1/mev?limit=5",
                               "/v1/aggregates/table1"):
                    status, _, payload = await client.get(target, None)
                    assert status == 200 and payload
            finally:
                await client.close()
            assert server.connections == 1
            assert server.requests == 3

        run(_with_server(served, body))

    @pytest.mark.parametrize("request_head,expected", [
        (b"POST /v1/mev HTTP/1.1\r\nHost: x\r\n\r\n", b"405"),
        (b"GET /v1/mev HTTP/2.0\r\nHost: x\r\n\r\n", b"505"),
        (b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", b"404"),
        (b"GET /v1/mev HTTP/1.1\r\nHuge: " + b"x" * 20000
         + b"\r\n\r\n", b"431"),
        (b"GARBAGE\r\n\r\n", b"400"),
        (b'G"T /v1/mev HTTP/1.1\r\n\r\n', b"405"),
    ])
    def test_transport_errors(self, served, request_head, expected):
        async def body(server):
            raw = await _raw_exchange(server, request_head)
            status_line = raw.split(b"\r\n", 1)[0]
            assert expected in status_line
            # client bytes echoed into a message stay valid JSON
            document = json.loads(raw.split(b"\r\n\r\n", 1)[1])
            assert document["status"] == int(expected)

        run(_with_server(served, body))

    def test_no_date_header_ever(self, served):
        async def body(server):
            raw = await _raw_exchange(
                server, b"GET /v1/coverage HTTP/1.1\r\n"
                b"Connection: close\r\n\r\n")
            head = raw.split(b"\r\n\r\n", 1)[0].lower()
            assert b"date:" not in head

        run(_with_server(served, body))


class TestLoadReplay:
    def test_seeded_mix_replays_cleanly(self, served):
        lo, hi = served.store.bounds()
        mix = build_mix(lo, hi, requests=60, seed=3)
        again = build_mix(lo, hi, requests=60, seed=3)
        assert mix == again  # the mix is seed-deterministic
        report = run(serve_and_replay(served, mix, seed=3,
                                      connections=3))
        assert report.errors == 0
        # walks and conditional revalidations add extra requests
        assert report.requests >= len(mix)
        assert report.not_modified > 0
        assert report.p99_ms >= report.p50_ms > 0
        assert report.qps > 0
        document = report.to_dict()
        assert document["by_kind"] and document["connections"] == 3

    def test_empty_range_mix_is_refused(self):
        with pytest.raises(ValueError):
            build_mix(10, 9)
