"""End-to-end smoke test for repro-serve (``make serve-smoke``).

Boots the real CLI as a subprocess on an ephemeral port, drives it over
HTTP, and checks the full lifecycle the unit tests can't cover from
inside one process:

1. ingest a short trace and read back a forecast that exactly matches
   an offline StreamingPredictorState fed the same samples;
2. read ``/paths/{key}/quality`` and check the online error series is
   bit-identical to a twin QualityTracker replaying the same stream
   (the walk-forward parity the quality layer promises), and that
   ``repro-obs quality <url>`` renders it against the live server;
3. every response carries an ``X-Request-Id`` and every request lands
   in the JSONL access log with phase timings;
4. SIGTERM → clean exit (code 0) with no traceback in the server's
   output, even with an idle keep-alive connection held open across the
   signal; snapshot and manifest written, the manifest carrying the
   quality section;
5. restart from the snapshot → the restored forecast is bit-identical.

Exits non-zero with a one-line reason on any failure.  Artifacts land
in --workdir (default .serve-smoke/).
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.hb.streaming import StreamingPredictorState  # noqa: E402
from repro.obs.quality import QualityConfig, QualityTracker  # noqa: E402
from repro.serve.state import default_specs  # noqa: E402

SAMPLES = [42.0, 44.5, 41.8, 43.2, 150.0, 42.6, 43.9, 42.1, 44.0, 43.3]
PREDICTORS = ["ma10", "ewma"]
START_TIMEOUT_S = 20.0
STOP_TIMEOUT_S = 20.0

#: X-Request-Id of every response received (order of arrival).
request_ids: list[str] = []


def fail(reason: str) -> None:
    print(f"serve-smoke: FAIL: {reason}", file=sys.stderr)
    sys.exit(1)


def spawn(workdir: Path) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli.serve",
            "--port",
            "0",
            "--predictors",
            ",".join(PREDICTORS),
            "--snapshot",
            str(workdir / "state.json"),
            "--manifest",
            str(workdir / "manifest.json"),
            "--access-log",
            str(workdir / "access.jsonl"),
            "--label",
            "serve-smoke",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    # The port is ephemeral: parse it from the startup banner, with a
    # deadline so a broken server can't hang the smoke run.  Read raw
    # chunks with os.read — a buffered readline() can swallow a line
    # *past* the one it returns (e.g. the restore notice and the banner
    # arriving in one pipe chunk), leaving select() waiting on an fd
    # that is empty while the banner sits in the Python-side buffer.
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + START_TIMEOUT_S
    banner = ""
    marker = "listening on http://"
    while time.monotonic() < deadline:
        if not sel.select(timeout=0.2):
            if proc.poll() is not None:
                fail(f"server exited during startup: {banner!r}")
            continue
        chunk = os.read(proc.stdout.fileno(), 4096).decode(errors="replace")
        if not chunk:
            if proc.poll() is not None:
                fail(f"server exited during startup: {banner!r}")
            continue
        banner += chunk
        if marker in banner:
            tail = banner.split(marker, 1)[1]
            if "\n" in tail:
                port = int(tail.split("\n", 1)[0].rsplit(":", 1)[1])
                return proc, port
    proc.kill()
    fail(f"no startup banner within {START_TIMEOUT_S}s (got {banner!r})")
    raise AssertionError  # unreachable


def http(port: int, method: str, path: str, body: dict | None = None) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        method=method,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            request_id = response.headers.get("X-Request-Id")
            if not request_id:
                fail(f"{method} {path} response lacks an X-Request-Id header")
            request_ids.append(request_id)
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        fail(f"{method} {path} -> HTTP {exc.code}: {exc.read()!r}")
        raise AssertionError  # unreachable


def quality_twin() -> QualityTracker:
    """Replay SAMPLES through a twin tracker in the store's scoring order."""
    tracker = QualityTracker(QualityConfig())
    for name, spec in default_specs(PREDICTORS).items():
        state = StreamingPredictorState(spec)
        last = state.prediction()
        for value in SAMPLES:
            previous = last
            last = state.ingest(value)
            tracker.score(
                "smoke-path",
                name,
                previous,
                value,
                level_shifts=state.n_level_shifts,
            )
    return tracker


def run_obs_quality(port: int) -> None:
    """``repro-obs quality <url>`` must render against the live server."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli.obs",
            "quality",
            f"http://127.0.0.1:{port}",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    if result.returncode != 0:
        fail(f"repro-obs quality exited {result.returncode}: {result.stderr!r}")
    if "quality:" not in result.stdout:
        fail(f"repro-obs quality output unexpected: {result.stdout!r}")
    print("serve-smoke: repro-obs quality renders the live server")


def check_access_log(workdir: Path) -> None:
    """Every response we received must be one JSONL record with phases."""
    log_path = workdir / "access.jsonl"
    if not log_path.exists():
        fail("access log was not written")
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    by_id = {record["id"]: record for record in records}
    missing = [rid for rid in request_ids if rid not in by_id]
    if missing:
        fail(f"responses missing from the access log: {missing}")
    for rid in request_ids:
        if not by_id[rid].get("phases"):
            fail(f"access record lacks phase laps: {by_id[rid]}")
    print(f"serve-smoke: access log holds all {len(request_ids)} traced requests")


def idle_connection(port: int) -> socket.socket:
    """A keep-alive connection that served one request and now idles."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n")
    if not sock.recv(4096).startswith(b"HTTP/1.1 200"):
        fail("idle keep-alive connection got no 200 for GET /healthz")
    return sock


def stop(proc: subprocess.Popen) -> None:
    """SIGTERM with an idle keep-alive client connected: the server must
    exit 0 and print no traceback (its stderr is merged into stdout)."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail(f"server did not exit within {STOP_TIMEOUT_S}s of SIGTERM")
    output = proc.stdout.read()
    if proc.returncode != 0:
        fail(f"server exited with code {proc.returncode}: {output!r}")
    if "Traceback" in output:
        fail(f"server printed a traceback at shutdown: {output!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=".serve-smoke", metavar="DIR")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    # Offline twin: the CLI builds PredictorSpec(predictor=name, lso=True)
    # for each --predictors entry, so feed the same spec the same trace.
    twin = StreamingPredictorState(default_specs(["ma10"])["ma10"])
    for value in SAMPLES:
        twin.ingest(value)
    expected = twin.prediction()

    proc, port = spawn(workdir)
    try:
        doc = http(port, "POST", "/paths/smoke-path/samples", {"samples": SAMPLES})
        if doc["accepted"] != len(SAMPLES):
            fail(f"expected {len(SAMPLES)} accepted samples, got {doc}")
        doc = http(port, "GET", "/paths/smoke-path/predict?predictor=ma10")
        if doc["prediction"] != expected:
            fail(f"online forecast {doc['prediction']!r} != offline {expected!r}")
        health = http(port, "GET", "/healthz")
        if health["paths"] != 1:
            fail(f"expected 1 tracked path, got {health}")
        print(f"serve-smoke: ingest+predict ok (forecast {expected:.4f} Mbps)")

        twin_quality = quality_twin()
        doc = http(port, "GET", "/paths/smoke-path/quality")
        if doc["predictors"] != twin_quality.path_summary("smoke-path"):
            fail(
                "online quality series diverges from the offline replay: "
                f"{doc['predictors']}"
            )
        print("serve-smoke: /quality matches the offline twin bit-for-bit")
        run_obs_quality(port)
        idle = idle_connection(port)
    finally:
        stop(proc)
    idle.close()
    print("serve-smoke: SIGTERM with an idle keep-alive client exits cleanly")

    snapshot = workdir / "state.json"
    manifest = workdir / "manifest.json"
    if not snapshot.exists():
        fail("snapshot file was not written on shutdown")
    if not manifest.exists():
        fail("manifest file was not written on shutdown")
    doc = json.loads(manifest.read_text())
    if doc.get("kind") != "serve":
        fail(f"manifest kind is {doc.get('kind')!r}, expected 'serve'")
    manifest_totals = (doc.get("quality") or {}).get("totals")
    expected_totals = quality_twin().summary()["totals"]
    if manifest_totals != expected_totals:
        fail(
            f"manifest quality totals {manifest_totals} != "
            f"offline replay {expected_totals}"
        )
    print("serve-smoke: shutdown wrote snapshot + manifest with quality totals")

    proc, port = spawn(workdir)
    try:
        doc = http(port, "GET", "/paths/smoke-path/predict?predictor=ma10")
        if doc["prediction"] != expected:
            fail(f"restored forecast {doc['prediction']!r} != offline {expected!r}")
        print("serve-smoke: snapshot restore is bit-identical")
    finally:
        stop(proc)

    check_access_log(workdir)
    print("serve-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
