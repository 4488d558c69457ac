"""The HTTP layer and ServeApp routes, end to end over real sockets.

No pytest-asyncio: each test runs its own event loop via a small
harness that boots the server on an ephemeral port, issues raw
HTTP/1.1 requests, and shuts down.
"""

import asyncio
import json

import pytest

from repro.hb.streaming import PredictorSpec
from repro.serve.app import ServeApp
from repro.serve.http import (
    MAX_BODY_BYTES,
    HttpError,
    HttpRequest,
    render_response,
    serve_app,
)
from repro.serve.state import ShardedStateStore


def make_app():
    store = ShardedStateStore(
        specs={
            "ma5": PredictorSpec(predictor="ma5"),
            "ewma": PredictorSpec(predictor="ewma"),
        },
        n_shards=2,
        max_paths_per_shard=8,
    )
    return ServeApp(store, label="test-serve")


async def raw_exchange(port, payload):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    return data


async def request(port, method, path, body=None, headers=""):
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(payload)}\r\n{headers}Connection: close\r\n\r\n"
    )
    data = await raw_exchange(port, head.encode() + payload)
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ")[1])
    return status, json.loads(body) if body.startswith(b"{") else body


def with_server(coro_factory):
    """Run coro_factory(app, port) against a live server."""

    async def runner():
        app = make_app()
        server = await serve_app(app.handle, port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await coro_factory(app, port)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(runner())


class TestRoutes:
    def test_healthz(self):
        async def scenario(app, port):
            return await request(port, "GET", "/healthz")

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["paths"] == 0

    def test_ingest_then_predict(self):
        async def scenario(app, port):
            status, doc = await request(
                port,
                "POST",
                "/paths/p1/samples",
                {"samples": [10.0, 10.5, 9.8, 10.2, 10.1]},
            )
            assert status == 200 and doc["accepted"] == 5
            return await request(port, "GET", "/paths/p1/predict?predictor=ma5")

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["predictor"] == "ma5"
        assert doc["prediction"] == pytest.approx(10.12)
        assert doc["ready"] is True

    def test_predict_all_predictors(self):
        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"sample": 10.0})
            return await request(port, "GET", "/paths/p1/predict")

        status, doc = with_server(scenario)
        assert status == 200
        assert sorted(doc["predictions"]) == ["ewma", "ma5"]
        assert doc["predictions"]["ewma"] == 10.0  # Ewma min_history is 1

    def test_invalid_samples_flagged_not_rejected(self):
        async def scenario(app, port):
            return await request(
                port, "POST", "/paths/p1/samples", {"samples": [10.0, 0.0, -4.0]}
            )

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["accepted"] == 1
        assert doc["invalid"] == 2

    def test_path_info(self):
        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"samples": [10, 11]})
            return await request(port, "GET", "/paths/p1")

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["predictors"]["ma5"]["n_observed"] == 2

    def test_predict_fb(self):
        async def scenario(app, port):
            return await request(
                port, "POST", "/predict/fb", {"rtt_ms": 45, "loss": 0.002}
            )

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["predicted_mbps"] > 0
        assert doc["model"] == "pftk"
        assert doc["lossless"] is False

    def test_metrics_exposition(self):
        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"samples": [10.0]})
            return await request(port, "GET", "/metrics")

        status, body = with_server(scenario)
        assert status == 200
        text = body.decode() if isinstance(body, bytes) else json.dumps(body)
        assert 'kind="serve"' in text
        assert text.rstrip().endswith("# EOF")

    def test_quality_summary_route(self):
        async def scenario(app, port):
            await request(
                port, "POST", "/paths/p1/samples", {"samples": [10.0, 11.0, 10.5]}
            )
            return await request(port, "GET", "/quality?paths=1")

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["enabled"] is True
        assert doc["totals"]["paths"] == 1
        assert doc["totals"]["scored"] > 0
        assert "ewma" in doc["predictors"]
        assert "p1" in doc["paths"]

    def test_quality_summary_omits_paths_by_default(self):
        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"samples": [10.0]})
            return await request(port, "GET", "/quality")

        status, doc = with_server(scenario)
        assert status == 200 and "paths" not in doc

    def test_path_quality_route(self):
        async def scenario(app, port):
            await request(
                port, "POST", "/paths/p1/samples", {"samples": [10.0, 11.0]}
            )
            return await request(port, "GET", "/paths/p1/quality")

        status, doc = with_server(scenario)
        assert status == 200
        assert doc["key"] == "p1" and doc["enabled"] is True
        assert doc["predictors"]["ewma"]["scored"] >= 1

    def test_path_quality_unknown_path_404(self):
        async def scenario(app, port):
            return await request(port, "GET", "/paths/ghost/quality")

        status, doc = with_server(scenario)
        assert status == 404

    def test_quality_disabled_store(self):
        async def scenario(app, port):
            app.store.quality = None
            return await request(port, "GET", "/quality")

        status, doc = with_server(scenario)
        assert status == 200 and doc == {"enabled": False}

    def test_quality_routes_disabled_under_kill_switch(self, monkeypatch):
        # REPRO_OBS=0 must read as "layer off", not an empty tracker.
        monkeypatch.setenv("REPRO_OBS", "0")

        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"samples": [10.0]})
            summary = await request(port, "GET", "/quality")
            per_path = await request(port, "GET", "/paths/p1/quality")
            return summary, per_path

        (status, doc), (path_status, path_doc) = with_server(scenario)
        assert status == 200 and doc == {"enabled": False}
        assert path_status == 200
        assert path_doc["enabled"] is False and path_doc["predictors"] == {}


class TestErrorResponses:
    def test_unknown_route_404(self):
        async def scenario(app, port):
            return await request(port, "GET", "/nope")

        status, doc = with_server(scenario)
        assert status == 404 and "error" in doc

    def test_wrong_method_405(self):
        async def scenario(app, port):
            return await request(port, "GET", "/predict/fb")

        status, doc = with_server(scenario)
        assert status == 405

    def test_unknown_path_key_404(self):
        async def scenario(app, port):
            return await request(port, "GET", "/paths/ghost/predict")

        status, doc = with_server(scenario)
        assert status == 404

    def test_unknown_predictor_400(self):
        async def scenario(app, port):
            await request(port, "POST", "/paths/p1/samples", {"samples": [10.0]})
            return await request(port, "GET", "/paths/p1/predict?predictor=zz")

        status, doc = with_server(scenario)
        assert status == 400 and "zz" in doc["error"]

    def test_fb_validation_matches_cli(self):
        async def scenario(app, port):
            return await request(
                port, "POST", "/predict/fb", {"rtt_ms": -1, "loss": 1.5}
            )

        status, doc = with_server(scenario)
        assert status == 400
        assert "rtt_ms must be a positive number" in doc["error"]
        assert "loss must be in [0, 1)" in doc["error"]

    def test_fb_lossless_requires_availbw(self):
        async def scenario(app, port):
            return await request(port, "POST", "/predict/fb", {"rtt_ms": 45, "loss": 0})

        status, doc = with_server(scenario)
        assert status == 400 and "availbw" in doc["error"]

    def test_malformed_json_body_400(self):
        async def scenario(app, port):
            payload = b"{not json"
            head = (
                f"POST /paths/p1/samples HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
            )
            data = await raw_exchange(port, head.encode() + payload)
            return int(data.split(b" ")[1])

        assert with_server(scenario) == 400

    def test_non_numeric_sample_400(self):
        async def scenario(app, port):
            return await request(
                port, "POST", "/paths/p1/samples", {"samples": [10.0, "x"]}
            )

        status, doc = with_server(scenario)
        assert status == 400 and "samples[1]" in doc["error"]

    def test_oversized_body_413(self):
        async def scenario(app, port):
            head = (
                f"POST /paths/p1/samples HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\nConnection: close\r\n\r\n"
            )
            data = await raw_exchange(port, head.encode())
            return int(data.split(b" ")[1])

        assert with_server(scenario) == 413

    def test_malformed_request_line_400(self):
        async def scenario(app, port):
            data = await raw_exchange(port, b"BANANAS\r\n\r\n")
            return int(data.split(b" ")[1])

        assert with_server(scenario) == 400


class TestMetricsContentType:
    async def metrics_headers(self, port, accept=None):
        accept_line = f"Accept: {accept}\r\n" if accept else ""
        head = (
            f"GET /metrics HTTP/1.1\r\nHost: t\r\n{accept_line}"
            "Connection: close\r\n\r\n"
        )
        data = await raw_exchange(port, head.encode())
        head, _, body = data.partition(b"\r\n\r\n")
        headers = {}
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        return headers, body

    def test_openmetrics_content_type_by_default(self):
        from repro.serve.app import OPENMETRICS_CONTENT_TYPE

        async def scenario(app, port):
            return await self.metrics_headers(port)

        headers, body = with_server(scenario)
        assert headers["content-type"] == OPENMETRICS_CONTENT_TYPE
        assert body.decode().rstrip().endswith("# EOF")

    def test_plain_scraper_gets_text_plain(self):
        async def scenario(app, port):
            return await self.metrics_headers(port, accept="text/plain")

        headers, body = with_server(scenario)
        assert headers["content-type"] == "text/plain; charset=utf-8"
        assert body.decode().rstrip().endswith("# EOF")

    def test_openmetrics_accept_wins_over_text_plain(self):
        async def scenario(app, port):
            return await self.metrics_headers(
                port,
                accept="application/openmetrics-text; version=1.0.0, text/plain",
            )

        headers, _ = with_server(scenario)
        assert "openmetrics" in headers["content-type"]


class TestProtocol:
    def test_keep_alive_serves_multiple_requests(self):
        async def scenario(app, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            statuses = []
            for _ in range(3):
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                statuses.append(int(head.split(b" ")[1]))
                length = int(
                    [
                        line.split(b":")[1]
                        for line in head.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ][0]
                )
                await reader.readexactly(length)
            writer.close()
            await writer.wait_closed()
            return statuses

        assert with_server(scenario) == [200, 200, 200]

    def test_render_response_shapes(self):
        body = render_response(200, {"a": 1}, keep_alive=True)
        assert body.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: keep-alive" in body

    def test_request_json_helper(self):
        req = HttpRequest("POST", "/x", {}, {}, body=b'{"a": 1}')
        assert req.json() == {"a": 1}
        with pytest.raises(HttpError):
            HttpRequest("POST", "/x", {}, {}, body=b"").json()
        with pytest.raises(HttpError):
            HttpRequest("POST", "/x", {}, {}, body=b"{oops").json()



class TestShutdown:
    def test_sigterm_with_idle_keep_alive_client_exits_cleanly(self):
        """An idle keep-alive connection open across SIGTERM must not
        surface its cancelled task as a traceback on the server's stderr."""
        import os
        import signal
        import socket
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "REPRO_OBS": "0"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on http://" in banner, banner
            port = int(banner.strip().rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                assert sock.recv(4096).startswith(b"HTTP/1.1 200")
                proc.send_signal(signal.SIGTERM)
                out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "Traceback" not in err, err
        assert "shut down cleanly" in out
