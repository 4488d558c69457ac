"""HTTP load for the serve workload: dataset replay, closed and open loop.

The request stream replays a campaign dataset the way the paper's use
case runs online: for every (path, trace) key, in epoch order, the
client asks for the HB forecast (``GET /paths/{key}/predict``) and then
reports the transfer's measured throughput (``POST
/paths/{key}/samples``).  For one (key, epoch) in five it first asks for
a formula-based forecast (``POST /predict/fb``) from the epoch's prior
RTT, loss and avail-bw estimates (lossless paths need the avail-bw).
A key's first epoch sends no ``GET``: the service answers 404 for a
path it has never seen.

Every key is pinned to one connection, so its requests reach the
service in the order they were sent, and :func:`check_final_predictions`
can replay the same samples offline and demand equal forecasts.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import select
import subprocess
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from common import BenchError, Tally, percentile, tail, wait_child

#: One (key, epoch) in this many also asks for an FB forecast.
FB_EVERY = 5

#: Open-loop acceptance: latency limit on the p99, the share of the
#: offered rate that must complete, the most generator lag tolerated.
P99_LIMIT_MS = 20.0
ACHIEVED_MIN = 0.98
LAG_LIMIT_MS = 5.0

#: A closed-loop block that takes longer than this has a stuck service.
BLOCK_TIMEOUT_S = 60.0


class Request:
    __slots__ = ("conn", "raw", "route", "key", "sample", "due", "sent", "done", "status", "body")

    def __init__(self, conn, raw, route, key, sample):
        self.conn = conn
        self.raw = raw
        self.route = route
        self.key = key
        self.sample = sample
        self.due = self.sent = self.done = 0.0
        self.status = 0
        self.body = b""


def _get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()


def _post(path: str, doc: dict) -> bytes:
    body = json.dumps(doc).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


class Replay:
    """The dataset's request stream, cut into blocks of epochs.

    Each pass uses fresh keys (``<path>-t<trace>-p<pass>``), so a block
    of a new pass meets an empty per-path state and a later block of the
    same pass meets a warm one.
    """

    def __init__(self, dataset, n_conns: int) -> None:
        self.traces = [t for t in dataset.traces if len(t)]
        self.n_conns = n_conns
        self.sent: dict[str, list[float]] = {}

    @property
    def n_epochs(self) -> int:
        return max(len(t) for t in self.traces)

    def block(self, pass_no: int, lo: int, hi: int) -> list[Request]:
        requests = []
        for epoch_index in range(lo, hi):
            for k, trace in enumerate(self.traces):
                if epoch_index >= len(trace):
                    continue
                epoch = trace.epochs[epoch_index]
                key = f"{trace.path_id}-t{trace.trace_index}-p{pass_no}"
                conn = k % self.n_conns
                if (k + epoch_index) % FB_EVERY == 0:
                    doc = {
                        "rtt_ms": epoch.that_s * 1000.0,
                        "loss": epoch.phat,
                        "availbw": epoch.ahat_mbps,
                    }
                    requests.append(Request(conn, _post("/predict/fb", doc), "predict_fb", None, None))
                if epoch_index > 0:
                    requests.append(Request(conn, _get(f"/paths/{key}/predict"), "predict_hb", key, None))
                sample = epoch.throughput_mbps
                raw = _post(f"/paths/{key}/samples", {"samples": [sample]})
                requests.append(Request(conn, raw, "ingest", key, sample))
        return requests

    def stream(self, first_pass: int):
        """Endless request iterator: pass after pass, ten epochs a block."""
        pass_no = first_pass
        while True:
            for lo in range(0, self.n_epochs, 10):
                yield from self.block(pass_no, lo, min(lo + 10, self.n_epochs))
            pass_no += 1

    def record(self, requests) -> None:
        """Remember the samples the service accepted, per key, in order."""
        for req in requests:
            if req.sample is not None and req.status == 200:
                self.sent.setdefault(req.key, []).append(req.sample)


class Pushback:
    """A request iterator that takes back what a step did not send."""

    def __init__(self, iterator) -> None:
        self.iterator = iterator
        self.back: deque[Request] = deque()

    def take(self, n: int) -> list[Request]:
        out = [self.back.popleft() for _ in range(min(n, len(self.back)))]
        out.extend(next(self.iterator) for _ in range(n - len(out)))
        return out

    def put_back(self, requests: list[Request]) -> None:
        self.back.extendleft(reversed(requests))


# -- wire ------------------------------------------------------------------


async def read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    start = head.find(b"Content-Length: ") + 16
    length = int(head[start : head.find(b"\r\n", start)])
    body = await reader.readexactly(length)
    return status, body


class Connection:
    """One keep-alive connection; responses are matched in FIFO order."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: deque[Request] = deque()
        self.broken = False

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    def send(self, req: Request) -> None:
        self.pending.append(req)
        self.writer.write(req.raw)

    async def read_loop(self) -> None:
        pending, reader = self.pending, self.reader
        try:
            while True:
                status, body = await read_response(reader)
                req = pending.popleft()
                req.done = perf_counter()
                req.status = status
                if req.route != "ingest":
                    req.body = body
        except (asyncio.IncompleteReadError, ConnectionError, IndexError):
            self.broken = True

    async def call(self, req: Request) -> None:
        """Closed loop: send one request and wait for its response."""
        req.due = req.sent = perf_counter()
        self.writer.write(req.raw)
        req.status, req.body = await read_response(self.reader)
        req.done = perf_counter()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def count_failures(requests, tally: Tally) -> None:
    failures = [
        f"{r.route} {r.key or ''} -> {r.status or 'no response'}"
        for r in requests
        if not 200 <= r.status < 300
    ]
    tally.bulk(len(requests), failures)


# -- closed loop -----------------------------------------------------------


async def closed_block(port: int, replay: Replay, requests: list[Request]) -> tuple[float, float]:
    """Replay a block, one request in flight per connection; (start, end)."""
    conns = [await Connection.open(port) for _ in range(replay.n_conns)]
    per_conn = [[r for r in requests if r.conn == c] for c in range(replay.n_conns)]

    async def drive(conn: Connection, reqs: list[Request]) -> None:
        try:
            for req in reqs:
                await conn.call(req)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the unanswered requests keep status 0 and count as failed

    try:
        started = perf_counter()
        try:
            await asyncio.wait_for(
                asyncio.gather(*(drive(c, r) for c, r in zip(conns, per_conn))),
                BLOCK_TIMEOUT_S,
            )
        except asyncio.TimeoutError:
            pass  # likewise
        ended = perf_counter()
    finally:
        for conn in conns:
            await conn.close()
    replay.record(requests)
    return started, ended


# -- open loop -------------------------------------------------------------


@dataclass
class Step:
    """One fixed-rate open-loop step."""

    offered_rps: float
    requests: list[Request]
    started: float = 0.0
    aborted: bool = False
    backlog_at_end: int = 0

    def latencies_ms(self, route: str | None = None) -> list[float]:
        return [
            (r.done - r.due) * 1000.0
            for r in self.requests
            if r.done and (route is None or r.route == route)
        ]

    def lag_p99_ms(self) -> float:
        lags = sorted((r.sent - r.due) * 1000.0 for r in self.requests if r.sent)
        return percentile(lags, 99.0) if lags else float("inf")

    def achieved_rps(self) -> float:
        done = [r.done for r in self.requests if r.done]
        return len(done) / (max(done) - self.started) if done else 0.0

    def valid(self) -> bool:
        """False when the generator, not the service, fell behind."""
        return not self.aborted and self.lag_p99_ms() <= LAG_LIMIT_MS

    def meets_limit(self) -> bool:
        lat = self.latencies_ms()
        return (
            self.valid()
            and len(lat) == len(self.requests)
            and tail(lat)[1] <= P99_LIMIT_MS
            and self.achieved_rps() >= ACHIEVED_MIN * self.offered_rps
            and self.backlog_at_end <= max(8, int(self.offered_rps * P99_LIMIT_MS / 1000))
        )


async def open_step(conns: list[Connection], stream: Pushback, rate: float, seconds: float) -> Step:
    """Send ``rate * seconds`` requests on schedule, whatever the replies do.

    A step whose backlog passes a quarter second of requests stops
    sending; the unsent requests go back to ``stream``.
    """
    step = Step(rate, stream.take(int(rate * seconds)))
    requests, interval = step.requests, 1.0 / rate
    abort_backlog = max(50, int(rate * 0.25))
    t0 = step.started = perf_counter() + 0.005
    i, n = 0, len(requests)
    while i < n:
        now = perf_counter()
        due = t0 + i * interval
        if due > now:
            await asyncio.sleep(due - now)
            continue
        while i < n and t0 + i * interval <= now:
            req = requests[i]
            req.due = t0 + i * interval
            req.sent = now
            conns[req.conn].send(req)
            i += 1
        if sum(len(c.pending) for c in conns) > abort_backlog or any(c.broken for c in conns):
            step.aborted = True
            break
        await asyncio.sleep(0)
    step.requests = requests[:i]
    stream.put_back(requests[i:])
    step.backlog_at_end = sum(len(c.pending) for c in conns)
    deadline = perf_counter() + 15.0
    while any(c.pending for c in conns) and perf_counter() < deadline:
        if any(c.broken for c in conns):
            break
        await asyncio.sleep(0.002)
    return step


# -- the server process ----------------------------------------------------


class Server:
    """``repro-serve --port 0`` as a subprocess, with its defaults."""

    def __init__(self, argv, env, cwd: Path, stderr_path: Path, cpu: int | None = None) -> None:
        self.stderr_path = stderr_path
        self._stderr = stderr_path.open("wb")
        self.peak_rss_mb = 0.0
        self.returncode = None
        started = perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=self._stderr,
            preexec_fn=None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu})),
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 30.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise BenchError(f"repro-serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        deadline = time.monotonic() + 30.0
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError("repro-serve never answered /healthz")
            time.sleep(0.005)
        self.booted = (started, perf_counter())
        self.boot_s = self.booted[1] - started

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (clients must have closed first) and reap the process."""
        if self.proc.returncode is None:
            self.proc.terminate()
            try:
                self.returncode, rusage = wait_child(self.proc, 20.0)
                self.peak_rss_mb = rusage.ru_maxrss / 1024.0
            except BenchError:
                self.proc.kill()
                self.returncode = self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()

    def cpu_s(self) -> float:
        """CPU seconds the server has used so far (user + system)."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def shutdown_tracebacks(self) -> int:
        return self.stderr_path.read_bytes().count(b"Traceback")


def check_final_predictions(server: Server, replay: Replay, tally: Tally) -> None:
    """Every key's forecasts equal an offline replay of its samples."""
    from repro.hb.streaming import StreamingPredictorState
    from repro.serve.state import default_specs

    specs = default_specs()
    for key, samples in replay.sent.items():
        states = {name: StreamingPredictorState(spec) for name, spec in specs.items()}
        for value in samples:
            for state in states.values():
                state.ingest(value)
        expected = {name: state.prediction() for name, state in states.items()}
        status, body = server.get(f"/paths/{key}/predict")
        got = json.loads(body).get("predictions") if status == 200 else None
        tally.check(got == expected, f"final predict {key}: {got} != offline {expected}")
