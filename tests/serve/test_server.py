"""TCP transports: NDJSON pipelining, the socket client, the HTTP face."""

import asyncio
import gc
import json

import pytest

from repro.serve import (
    PredictionService,
    ServeConfig,
    ServeServer,
    TcpServeClient,
    api,
    http_get,
    http_post,
)
from repro.serve import server as server_module
from repro.serve.server import MAX_REQUEST_BYTES

WIDE_OPEN = dict(max_queue_depth=100000, rate=1e9, burst=10**6)


def run(coro):
    return asyncio.run(coro)


def predict_envelope(rid, servers=4):
    return {
        "kind": "predict",
        "id": rid,
        "client": "tcp",
        "query": {"platform": "j90", "molecule": "medium", "servers": servers},
    }


def sweep_envelope(rid, servers):
    return {
        "kind": "sweep",
        "id": rid,
        "client": "tcp",
        "query": {"platform": "j90", "molecule": "medium", "servers": list(servers)},
    }


async def with_server(scenario, **config):
    service = PredictionService(ServeConfig(**(config or WIDE_OPEN)))
    async with ServeServer(service, port=0) as server:
        return await scenario(server.bound_port)


class TestNdjson:
    def test_request_response_round_trip(self):
        async def scenario(port):
            async with TcpServeClient("127.0.0.1", port) as client:
                pong = await client.request({"kind": "ping", "id": "p"})
                answer = await client.request(predict_envelope("q"))
            return pong, answer

        pong, answer = run(with_server(scenario))
        assert pong["status"] == 200 and pong["result"] == {"kind": "pong"}
        assert answer["status"] == 200 and answer["result"]["servers"] == 4

    def test_pipelined_requests_all_answered(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            n = 10
            for i in range(n):
                line = json.dumps(predict_envelope(f"r{i}", servers=1 + i % 7))
                writer.write(line.encode() + b"\n")
            await writer.drain()
            writer.write_eof()
            responses = []
            for _ in range(n):
                responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return responses

        responses = run(with_server(scenario))
        assert {r["id"] for r in responses} == {f"r{i}" for i in range(10)}
        assert all(r["status"] == 200 for r in responses)

    def test_unparseable_line_gets_an_error_response(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"this is not json\n")
            await writer.drain()
            writer.write_eof()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return response

        response = run(with_server(scenario))
        assert response["status"] == 400
        assert response["error"]["reason"] == "invalid-json"

    def test_a_line_that_is_not_utf8_gets_an_error_response(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"\x80abc\n")
            await writer.drain()
            writer.write_eof()
            response = json.loads(await asyncio.wait_for(reader.readline(), 10.0))
            writer.close()
            await writer.wait_closed()
            return response

        response = run(with_server(scenario))
        assert response["status"] == 400
        assert response["error"]["reason"] == "invalid-json"

    def test_a_long_connection_keeps_no_answered_tasks(self):
        """One socket, many lines: answered lines leave nothing behind."""

        def answered_line_tasks():
            gc.collect()
            return sum(
                1
                for obj in gc.get_objects()
                if isinstance(obj, asyncio.Task)
                and obj.done()
                and obj.get_coro().__qualname__.endswith("_handle_ndjson.<locals>.answer")
            )

        async def scenario(port):
            async with TcpServeClient("127.0.0.1", port) as client:
                for burst in range(6):
                    await asyncio.gather(*(
                        client.request({"kind": "ping", "id": f"p{burst}-{i}"})
                        for i in range(50)
                    ))
                return answered_line_tasks()  # the connection is still open

        assert run(with_server(scenario)) < 10

    def test_a_dead_socket_ends_the_connection_quietly(self):
        """Answers that fail to write are retrieved, not logged at collection."""

        class DeadWriter:
            def write(self, data):
                pass

            async def drain(self):
                raise ConnectionResetError("peer went away")

            def close(self):
                pass

            async def wait_closed(self):
                pass

        async def connection():
            reader = asyncio.StreamReader()
            for i in range(3):
                reader.feed_data(json.dumps({"kind": "ping", "id": f"p{i}"}).encode() + b"\n")
            # the reset lands after the three answers have run
            loop = asyncio.get_running_loop()
            loop.call_later(0.05, reader.set_exception, ConnectionResetError("reset"))
            service = PredictionService(ServeConfig(**WIDE_OPEN))
            await ServeServer(service)._handle_connection(reader, DeadWriter())

        async def main():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: unhandled.append(context)
            )
            await connection()
            await asyncio.sleep(0)
            gc.collect()  # the connection's tasks are garbage now
            return unhandled

        assert [context["message"] for context in run(main())] == []


class TestLineLimits:
    """Lines past asyncio's default 64 KiB reader limit, both directions."""

    def test_a_129_kb_sweep_request_is_answered(self):
        envelope = sweep_envelope("big", range(1, 24001))
        assert len(api.canonical(envelope)) > 129_000

        async def scenario(port):
            async with TcpServeClient("127.0.0.1", port) as client:
                return await asyncio.wait_for(client.request(envelope), 30.0)

        response = run(with_server(scenario))
        assert response["status"] == 200
        assert response["result"]["servers"] == list(range(1, 24001))

    @pytest.mark.parametrize("preamble", [b"", b'{"kind":"ping","id":"p"}\n'])
    def test_a_line_over_the_limit_gets_a_400_then_the_connection_closes(
        self, preamble
    ):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(preamble + b"x" * (MAX_REQUEST_BYTES + 1) + b"\n")
            await writer.drain()
            lines = [await reader.readline() for _ in range(preamble.count(b"\n") + 1)]
            tail = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            return [json.loads(line) for line in lines], tail

        responses, tail = run(with_server(scenario))
        refused = responses[-1]
        assert refused["status"] == 400
        assert refused["error"]["reason"] == "request-too-large"
        assert [r["status"] for r in responses[:-1]] == [200] * (len(responses) - 1)
        assert tail == b""

    def test_a_line_of_exactly_the_limit_is_parsed(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"x" * MAX_REQUEST_BYTES + b"\n")
            await writer.drain()
            writer.write_eof()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return response

        response = run(with_server(scenario))
        assert response["error"]["reason"] == "invalid-json"

    def test_a_130_kb_reply_arrives_through_the_client(self):
        envelope = sweep_envelope("wide", range(1, 3001))
        assert len(api.canonical(envelope)) < 64 * 1024

        async def scenario(port):
            async with TcpServeClient("127.0.0.1", port) as client:
                return await asyncio.wait_for(client.request(envelope), 30.0)

        response = run(with_server(scenario))
        assert response["status"] == 200
        assert len(api.canonical(response)) > 130_000
        assert response["result"]["servers"] == list(range(1, 3001))

    def test_a_reply_over_the_client_bound_ends_the_link_cleanly(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_REPLY_BYTES", 1024)

        async def scenario():
            async def oversized_reply(reader, writer):
                await reader.readline()
                writer.write(b'{"id":"f1","pad":"' + b"x" * 4096 + b'"}\n')
                await writer.drain()
                await reader.read()  # hold the socket until the client closes
                writer.close()

            listener = await asyncio.start_server(oversized_reply, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            client = TcpServeClient("127.0.0.1", port)
            await client.connect()
            try:
                outcome = await asyncio.wait_for(
                    client.request(predict_envelope("big")), 10.0
                )
            except ConnectionError as exc:
                outcome = exc
            alive = client.alive
            await client.close()  # must not re-raise from the reader task
            listener.close()
            await listener.wait_closed()
            return outcome, alive

        outcome, alive = run(scenario())
        assert isinstance(outcome, ConnectionError)
        assert not alive


class TestHttpHeadLimits:
    """A malformed or oversized HTTP request head gets a 400 envelope."""

    @pytest.mark.parametrize(
        "request_bytes, reason",
        [
            (
                b"POST /v1/query HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
                "invalid-length",
            ),
            (
                b"GET /healthz HTTP/1.1\r\nX-Pad: "
                + b"x" * (MAX_REQUEST_BYTES + 1)
                + b"\r\n\r\n",
                "request-too-large",
            ),
            (
                # every line is under the limit; the block is over it
                b"GET /healthz HTTP/1.1\r\n"
                + (b"X-Pad: " + b"x" * (1 << 16) + b"\r\n") * 17
                + b"\r\n",
                "request-too-large",
            ),
        ],
        ids=["non-numeric-content-length", "header-line-over-limit", "header-block-over-limit"],
    )
    def test_bad_head_gets_a_400_and_the_server_lives_on(self, request_bytes, reason):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(request_bytes)
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            health = await http_get("127.0.0.1", port, "/healthz")
            return reply, health

        reply, health = run(with_server(scenario))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        envelope = json.loads(body)
        assert envelope["status"] == 400
        assert envelope["error"]["reason"] == reason
        assert health == (200, {"status": "ok"})


class TestTcpServeClient:
    def test_concurrent_requests_share_one_connection(self):
        async def scenario(port):
            async with TcpServeClient("127.0.0.1", port) as client:
                requests = asyncio.gather(
                    *(
                        client.request(predict_envelope(f"c{i}", servers=1 + i % 7))
                        for i in range(8)
                    )
                )
                return await asyncio.wait_for(requests, timeout=10.0)

        responses = run(with_server(scenario))
        assert [r["id"] for r in responses] == [f"c{i}" for i in range(8)]
        assert [r["result"]["servers"] for r in responses] == [
            1 + i % 7 for i in range(8)
        ]
        assert all(r["status"] == 200 for r in responses)

    def test_pending_requests_fail_when_the_server_goes_away(self):
        async def scenario():
            async def swallow(reader, writer):
                # take all eight requests, answer none, hang up
                for _ in range(8):
                    await reader.readline()
                writer.close()

            listener = await asyncio.start_server(swallow, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            async with TcpServeClient("127.0.0.1", port) as client:
                requests = asyncio.gather(
                    *(client.request(predict_envelope(f"c{i}")) for i in range(8)),
                    return_exceptions=True,
                )
                outcomes = await asyncio.wait_for(requests, timeout=10.0)
                alive = client.alive
            listener.close()
            await listener.wait_closed()
            return outcomes, alive

        outcomes, alive = run(scenario())
        assert all(isinstance(o, ConnectionError) for o in outcomes), outcomes
        assert not alive


class TestHttp:
    def test_healthz(self):
        async def scenario(port):
            return await http_get("127.0.0.1", port, "/healthz")

        status, body = run(with_server(scenario))
        assert status == 200 and body == {"status": "ok"}

    def test_post_query(self):
        async def scenario(port):
            return await http_post(
                "127.0.0.1", port, "/v1/query", predict_envelope("h1")
            )

        status, body = run(with_server(scenario))
        assert status == 200
        assert body["result"]["platform"] == "j90"

    def test_platform_catalog_endpoint(self):
        async def scenario(port):
            return await http_get("127.0.0.1", port, "/v1/platforms")

        status, body = run(with_server(scenario))
        assert status == 200
        assert any(p["name"] == "j90" for p in body["result"]["platforms"])

    def test_unknown_endpoint_is_404(self):
        async def scenario(port):
            return await http_get("127.0.0.1", port, "/nope")

        status, body = run(with_server(scenario))
        assert status == 404
        assert body["error"]["reason"] == "unknown-endpoint"

    def test_error_statuses_propagate_to_http(self):
        async def scenario(port):
            bad = {"kind": "predict", "id": "x", "client": "h",
                   "query": {"platform": "vax", "molecule": "medium",
                             "servers": 1}}
            return await http_post("127.0.0.1", port, "/v1/query", bad)

        status, body = run(with_server(scenario))
        assert status == 404
        assert body["error"]["reason"] == "unknown-platform"

    def test_post_without_body_is_rejected(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"POST /v1/query HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return int(status_line.split()[1])

        assert run(with_server(scenario)) == 400

    def test_a_body_that_is_not_utf8_is_rejected(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"POST /v1/query HTTP/1.1\r\nContent-Length: 4\r\n\r\n\x80abc")
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            return reply

        head, _, body = run(with_server(scenario)).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"]["reason"] == "invalid-json"


class TestLifecycle:
    def test_port_zero_binds_an_ephemeral_port(self):
        async def scenario():
            service = PredictionService(ServeConfig(**WIDE_OPEN))
            async with ServeServer(service, port=0) as server:
                return server.bound_port

        assert run(scenario()) > 0

    def test_stop_is_idempotent(self):
        async def scenario():
            service = PredictionService(ServeConfig(**WIDE_OPEN))
            server = ServeServer(service, port=0)
            await server.start()
            await server.stop()
            await server.stop()

        run(scenario())
