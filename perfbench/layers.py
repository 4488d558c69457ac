"""The traced run: a per-layer breakdown of the whole workflow.

Every traced run measures every layer, whatever the workload, by
calling each layer's public functions from here inside spans (the
program itself is not instrumented further).  Then, for the named
workload only, it

* repeats the workload's operation with ``REPRO_OBS=0`` beside the
  default, interleaved, and reports ``obs.overhead_frac``;
* reports ``unaccounted_frac``: 1 - (sum of layer self times) / (the
  operation's end-to-end wall time), flagged above 10%.

Spans are kept in memory and written once, at the end, to
``.perfbench/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import loadgen
import workloads
from common import (
    CAMPAIGN_ARGS,
    EXPECTED_RENDERED,
    EXPECTED_SKIPPED,
    WORK,
    RunTree,
    Tally,
    Tracer,
    check_cli,
    manifest,
    median,
    run_cli,
    tail,
)

UNACCOUNTED_FLAG = 0.10

#: Open-loop steps: fixed rates, their length, and the max-rate search.
FIXED_RATES = (1000, 2000)
STEP_S = 2.0
PROBE_S = 1.0
SEARCH_GROWTH = 1.3
SEARCH_RESOLUTION = 1.03
SEARCH_CEILING = 16000.0
SEARCH_FLOOR = 50.0
STEP_RETRIES = 2

#: Passes each twin server takes at most (a pass adds 70 keys).
MAX_TWIN_PASSES = 9

#: Requests fed through the in-process serve probes.
PROBE_REQUESTS = 3000

CLI_MODULES = {
    "campaign": "repro.cli.campaign",
    "analysis": "repro.cli.analyze",
    "serve": "repro.cli.serve",
}


@contextmanager
def traced(tracer: Tracer, owner, attr: str, name: str):
    """Run every call of ``owner.attr`` inside a span named ``name``."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


# -- cli -------------------------------------------------------------------


def cli_startup_s(tree: RunTree, module: str) -> float:
    """Median seconds to import a CLI module in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(3):
        out = subprocess.run(
            [sys.executable, "-c", code], env=tree.env(), cwd=tree.root,
            capture_output=True, check=True, timeout=60,
        )
        times.append(float(out.stdout))
    return median(times)


# -- campaign --------------------------------------------------------------


def campaign_layers(tracer: Tracer, tree: RunTree, seed: int) -> dict:
    """What ``repro-campaign`` does, in process, one span per layer."""
    from repro.obs import RunRecorder
    from repro.paths.config import may_2004_catalog
    from repro.testbed.cache import DatasetCache, campaign_cache_key
    from repro.testbed.campaign import Campaign, CampaignSettings
    from repro.testbed.checkpoint import CheckpointStore
    from repro.testbed.io import save_dataset

    work = tree.fresh_dir("campaign-inproc")
    out = work / "dataset.csv"
    settings = CampaignSettings(n_traces=2, epochs_per_trace=150)
    with tracer.span("campaign"):
        campaign = Campaign(may_2004_catalog(), seed=seed, label="may2004")
        key = campaign_cache_key(campaign, settings)
        recorder = RunRecorder(
            label="may2004", seed=seed, cache_key=key,
            settings=dataclasses.asdict(settings), workers=1,
        ).start()
        with traced(tracer, Campaign, "run", "testbed.dispatch"), \
                traced(tracer, Campaign, "run_trace", "fastpath.simulate"):
            dataset = campaign.run(
                settings, checkpoint=CheckpointStore(work / "checkpoints"), run_key=key
            )
        cache = DatasetCache(work / "cache")
        with tracer.span("testbed.cache_store"):
            cache.store(key, dataset)
        recorder.finish(n_paths=35, n_traces=len(dataset.traces), n_epochs=len(dataset.epochs()))
        with tracer.span("testbed.save_dataset"):
            save_dataset(dataset, out)
        with tracer.span("obs.write"):
            # Like the CLI: sidecars next to the output and the cache entry.
            recorder.write(out)
            recorder.write(cache.path_for(key))
    return {"testbed.dataset_bytes": (out.stat().st_size, "bytes")}


# -- analysis --------------------------------------------------------------


def _figures():
    """(figure, layer, compute, render): the calls ``repro-analyze`` makes."""
    from repro.analysis import fb_eval, hb_eval
    from repro.analysis import report as r

    def bars(rows_of):
        return lambda result: r.render_bar_table(rows_of(result), title="")

    fb, hb = "analysis.fb", "analysis.hb"
    return [
        (2, fb, fb_eval.error_cdfs, lambda c: r.render_cdf_table(
            {"all": c.all, "lossy": c.lossy, "lossless": c.lossless},
            thresholds=(-1.0, 0.0, 1.0, 2.0, 5.0, 9.0), title="") + c.summary()),
        (3, fb, fb_eval.increase_cdfs, lambda i: r.render_cdf_table(
            {"rtt": i.rtt_absolute_s, "loss": i.loss_absolute},
            thresholds=(0.0, 0.005, 0.02, 0.1), title="")),
        (6, fb, fb_eval.during_flow_prediction, lambda c: r.render_cdf_table(
            {"prior": c.with_prior, "during": c.with_during},
            thresholds=(-3.0, -1.0, 0.0, 1.0, 3.0), title="")),
        (7, fb, fb_eval.per_path_percentiles, bars(lambda rows: [
            (s.path_id, {"p10": s.p10, "median": s.median, "p90": s.p90}) for s in rows])),
        (8, fb, fb_eval.throughput_vs_error,
         lambda s: r.render_scatter_summary(s.x, s.errors, "R", "E")),
        (11, fb, fb_eval.duration_effect, lambda e: r.render_cdf_table(
            e.cdfs, thresholds=(-1.0, 0.0, 1.0, 3.0), title="")),
        (12, fb, fb_eval.window_limited, bars(lambda rows: [
            (c.path_id, {"large": c.rmsre_large_window, "small": c.rmsre_small_window})
            for c in rows if c.window_limited])),
        (16, hb, lambda ds: hb_eval.predictor_cdfs(ds, hb_eval.ma_family()),
         lambda c: r.render_quantile_table(c, title="")),
        (17, hb, lambda ds: hb_eval.predictor_cdfs(ds, hb_eval.hw_family()),
         lambda c: r.render_quantile_table(c, title="")),
        (19, hb, hb_eval.fb_vs_hb, lambda c: r.render_quantile_table(
            {"FB": c.fb, "HB": c.hb}, title="") + c.summary()),
        (20, hb, hb_eval.cov_correlation,
         lambda c: r.render_scatter_summary(c.covs, c.rmsres, "CoV", "RMSRE")),
        (21, hb, hb_eval.path_classes, bars(lambda rows: [
            (c.path_id, {n: sum(v) / len(v) for n, v in c.rmsres_by_predictor.items()})
            for c in rows])),
        (22, hb, hb_eval.window_limited_hb, bars(lambda rows: [
            (c.path_id, {"large": c.rmsre_large_window, "small": c.rmsre_small_window})
            for c in rows])),
        (23, hb, hb_eval.interval_effect, lambda c: r.render_quantile_table(c, title="")),
    ]


def analysis_layers(tracer: Tracer, dataset_path: Path, tally: Tally) -> None:
    """What ``repro-analyze`` computes, in process, with no evaluation cache."""
    from repro.core.errors import ReproError
    from repro.testbed.io import load_dataset

    rendered, skipped = [], []
    with tracer.span("analyze"):
        with tracer.span("testbed.load_dataset"):
            dataset = load_dataset(dataset_path)
        for number, layer, compute, render in _figures():
            try:
                with tracer.span(layer):
                    result = compute(dataset)
            except ReproError:
                skipped.append(number)
                continue
            with tracer.span("analysis.render"):
                render(result)
            rendered.append(number)
    tally.check(
        rendered == EXPECTED_RENDERED and skipped == EXPECTED_SKIPPED,
        f"in-process figures rendered {rendered} skipped {skipped}",
    )


def _counter_sum(doc: dict, name: str, predicate=lambda tags: True) -> float:
    return sum(
        c["value"] for c in doc.get("counters", ())
        if c["name"] == name and predicate(c.get("tags") or {})
    )


def _sidecar_bytes(doc: dict, manifest_path: Path) -> int:
    """Bytes of a manifest and its events file, as they were read."""
    if not doc:
        return 0
    events = manifest_path.parent / Path(doc["events"]["path"]).name
    return manifest_path.stat().st_size + (events.stat().st_size if events.exists() else 0)


def analysis_counts(tree: RunTree, dataset: Path, tally: Tally) -> dict:
    """Counts from the manifests: the dataset's campaign, then
    ``repro-analyze`` cold and rerun on one eval-cache dir."""
    evals = tree.fresh_dir("evals")
    env = tree.env(REPRO_EVAL_CACHE_DIR=str(evals))

    def analyze() -> dict:
        run = run_cli("repro.cli.analyze", [str(dataset)], env, dataset.parent)
        check_cli(tally, run)
        return workloads.check_figures(dataset, tally)

    campaign_manifest = dataset.with_name(dataset.stem + ".manifest.json")
    campaign = manifest(campaign_manifest)
    cold = analyze()
    files = [p for p in evals.rglob("*") if p.is_file()]
    rerun = analyze()
    analysis_manifest = dataset.with_name(dataset.stem + ".analysis.manifest.json")

    def events(doc: dict) -> int:
        return doc.get("events", {}).get("written", 0)

    hits = _counter_sum(rerun, "evalcache.hits")
    misses = _counter_sum(rerun, "evalcache.misses")
    is_fb = lambda tags: tags.get("predictor") == "fb"  # noqa: E731
    return {
        "obs.events_written": (events(campaign) + events(cold), "count"),
        "obs.sidecar_bytes": (
            _sidecar_bytes(campaign, campaign_manifest) + _sidecar_bytes(cold, analysis_manifest),
            "bytes",
        ),
        "fb.predictions": (_counter_sum(cold, "predictions.made", is_fb), "count"),
        "hb.predictions": (_counter_sum(
            cold, "predictions.made", lambda t: "predictor" in t and not is_fb(t)), "count"),
        "evalcache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "frac"),
        "evalcache.disk_files": (len(files), "count"),
        "evalcache.disk_bytes": (sum(p.stat().st_size for p in files), "bytes"),
    }


# -- serve -----------------------------------------------------------------


def serve_layers(tracer: Tracer, replay: loadgen.Replay, tally: Tally) -> tuple[dict, float]:
    """Per-call costs of the serve layers, on the replay's own requests.

    Also returns the server-side seconds one request of the replay's
    route mix costs: parse + handle + render.
    """
    from repro.hb.streaming import StreamingPredictorState
    from repro.obs.quality import QualityTracker
    from repro.serve.app import ServeApp
    from repro.serve.http import HttpError, read_request, render_response
    from repro.serve.state import ShardedStateStore, default_specs

    stream = replay.stream(first_pass=900)
    requests = [next(stream) for _ in range(PROBE_REQUESTS)]
    counts: dict[str, int] = {}

    async def probe() -> None:
        reader = asyncio.StreamReader()
        reader.feed_data(b"".join(r.raw for r in requests))
        reader.feed_eof()
        parsed = []
        with tracer.span("serve.http.parse"):
            for _ in requests:
                parsed.append(await read_request(reader))
        app = ServeApp(ShardedStateStore())
        for req, http_req in zip(requests, parsed):
            name = f"serve.app.{req.route}"
            counts[name] = counts.get(name, 0) + 1
            try:
                with tracer.span(name):
                    status, payload = await app.handle(http_req)
            except HttpError as exc:
                status, payload = exc.status, {"error": exc.message}
            tally.check(200 <= status < 300, f"in-process {req.route} {req.key or ''} -> {status}")
            with tracer.span("serve.http.render"):
                render_response(status, payload, True)

    asyncio.run(probe())

    # Each trace's samples through fresh per-key states, scored against
    # the forecast standing before each sample, as the store does.
    scored = []
    with tracer.span("hb.streaming.ingest"):
        for key, trace in enumerate(replay.traces):
            for name, spec in default_specs().items():
                state, before = StreamingPredictorState(spec), None
                for epoch in trace.epochs:
                    after = state.ingest(epoch.throughput_mbps)
                    scored.append((key, name, before, epoch.throughput_mbps, state.n_level_shifts))
                    before = after
    tracker = QualityTracker()
    with tracer.span("obs.quality.score"):
        for key, name, before, value, shifts in scored:
            tracker.score(str(key), name, before, value, level_shifts=shifts)

    self_s = tracer.self_times()
    per_call = {
        "serve.http.parse_us": self_s["serve.http.parse"] / len(requests),
        "serve.http.render_us": self_s["serve.http.render"] / len(requests),
        "hb.streaming.ingest_us": self_s["hb.streaming.ingest"] / len(scored),
        "obs.quality.score_us": self_s["obs.quality.score"] / len(scored),
    }
    for route in ("ingest", "predict_hb", "predict_fb"):
        name = f"serve.app.{route}"
        per_call[f"{name}_us"] = self_s[name] / counts[name]
    mix = {r: counts[f"serve.app.{r}"] / len(requests) for r in ("ingest", "predict_hb", "predict_fb")}
    per_request_s = (
        per_call["serve.http.parse_us"] + per_call["serve.http.render_us"]
        + sum(mix[r] * per_call[f"serve.app.{r}_us"] for r in mix)
    )
    metrics = {name: (value * 1e6, "us") for name, value in per_call.items()}
    return metrics, per_request_s


async def _open_loop(server: loadgen.Server, replay: loadgen.Replay, tally: Tally) -> dict:
    conns = [await loadgen.Connection.open(server.port) for _ in range(replay.n_conns)]
    readers = [asyncio.create_task(c.read_loop()) for c in conns]
    stream = loadgen.Pushback(replay.stream(first_pass=100))
    steps: list[loadgen.Step] = []

    async def step(rate: float, seconds: float) -> loadgen.Step:
        for _ in range(STEP_RETRIES + 1):
            result = await loadgen.open_step(conns, stream, rate, seconds)
            steps.append(result)
            if result.valid():
                break
        return result

    try:
        await step(1000, 0.5)  # warm-up: new keys, connections, allocator
        fixed = {rate: await step(rate, STEP_S) for rate in FIXED_RATES}
        max_rps = await _search(step, fixed[FIXED_RATES[-1]])
    finally:
        for conn in conns:
            await conn.close()
        for task in readers:
            await task
    for s in steps:
        loadgen.count_failures(s.requests, tally)
        replay.record(s.requests)

    metrics = {"serve_max_rps": (max_rps, "1/s")}
    for rate, s in fixed.items():
        lat = s.latencies_ms()
        metrics[f"serve.r{rate}.p50_ms"] = (median(lat), "ms")
        metrics[f"serve.r{rate}.p99_ms"] = (tail(lat)[1], "ms")
        metrics[f"serve.r{rate}.achieved_rps"] = (s.achieved_rps(), "1/s")
        if not s.valid():
            print(f"warning: step r{rate} invalid (generator lag p99 "
                  f"{s.lag_p99_ms():.2f} ms)", file=sys.stderr)
    base = fixed[FIXED_RATES[0]]
    for route in ("ingest", "predict_hb", "predict_fb"):
        metrics[f"serve.route.{route}.p50_ms"] = (median(base.latencies_ms(route)), "ms")
    metrics["serve.generator_lag_ms"] = (max(s.lag_p99_ms() for s in steps), "ms")
    metrics["serve.steps_invalid"] = (sum(not s.valid() for s in steps), "count")
    return metrics


async def _search(step, start: loadgen.Step) -> float:
    """Highest offered rate meeting the limit, to SEARCH_RESOLUTION."""
    lo, hi = (start.offered_rps, None) if start.meets_limit() else (None, start.offered_rps)
    while hi is None and lo < SEARCH_CEILING:
        rate = lo * SEARCH_GROWTH
        lo, hi = (rate, None) if (await step(rate, PROBE_S)).meets_limit() else (lo, rate)
    while lo is None:
        if hi < SEARCH_FLOOR:
            return 0.0
        rate = hi / SEARCH_GROWTH
        lo, hi = (rate, hi) if (await step(rate, PROBE_S)).meets_limit() else (None, rate)
    while hi is not None and hi / lo > SEARCH_RESOLUTION:
        rate = (lo * hi) ** 0.5
        if (await step(rate, PROBE_S)).meets_limit():
            lo = rate
        else:
            hi = rate
    return lo


def _server_request_ms(server: loadgen.Server, tally: Tally) -> dict:
    """p50 of ``serve.request_s`` per route, from ``GET /metrics``."""
    _status, body = server.get("/metrics")
    found = {}
    for line in body.decode().splitlines():
        if line.startswith("repro_serve_request_s{") and 'quantile="0.5"' in line:
            route = line.split('route="', 1)[1].split('"', 1)[0]
            found[route] = float(line.rsplit(" ", 1)[1]) * 1000.0
    metrics = {}
    for route in ("ingest", "predict_hb", "predict_fb"):
        tally.check(route in found, f"GET /metrics has no serve.request_s p50 for {route}")
        metrics[f"serve.server_request_ms.{route}"] = (found.get(route, 0.0), "ms")
    return metrics


def serve_http(tree: RunTree, replay: loadgen.Replay, tally: Tally) -> dict:
    server = workloads.start_server(tree)
    try:
        metrics = asyncio.run(_open_loop(server, replay, tally))
        metrics.update(_server_request_ms(server, tally))
        loadgen.check_final_predictions(server, replay, tally)
    finally:
        workloads.stop_server(server, tally)
    metrics["serve.shutdown_tracebacks"] = (server.shutdown_tracebacks(), "count")
    return metrics


# -- telemetry-cost twins --------------------------------------------------


def _interleave(seconds: float, on, off, max_pairs: int = 1000) -> tuple[list, list]:
    """Alternate on/off runs until ``seconds`` pass (at least 3 pairs)."""
    on_s, off_s = [], []
    deadline = time.perf_counter() + seconds
    while len(on_s) < 3 or (time.perf_counter() < deadline and len(on_s) < max_pairs):
        on_s.append(on())
        off_s.append(off())
    return on_s, off_s


def campaign_twin(tree: RunTree, seed: int, seconds: float, tally: Tally) -> tuple[list, list]:
    def run(obs: str) -> float:
        work = tree.fresh_dir("campaign-twin")
        env = tree.env(
            REPRO_OBS=obs,
            REPRO_CACHE_DIR=str(work / "cache"),
            REPRO_CHECKPOINT_DIR=str(work / "checkpoints"),
        )
        args = [*CAMPAIGN_ARGS, "--seed", str(seed), "-o", str(work / "dataset.csv")]
        result = run_cli("repro.cli.campaign", args, env, work)
        check_cli(tally, result)
        return result.wall_s

    return _interleave(seconds, lambda: run("1"), lambda: run("0"))


def analysis_twin(tree: RunTree, dataset: Path, seconds: float, tally: Tally) -> tuple[list, list]:
    def run(obs: str) -> float:
        env = tree.env(REPRO_OBS=obs, REPRO_EVAL_CACHE_DIR=str(tree.fresh_dir("evals-twin")))
        result = run_cli("repro.cli.analyze", [str(dataset)], env, dataset.parent)
        check_cli(tally, result)
        return result.wall_s

    return _interleave(seconds, lambda: run("1"), lambda: run("0"))


def serve_twin(tree: RunTree, dataset: Path, seconds: float, tally: Tally) -> tuple[list, list]:
    """Closed-loop block pairs against a default server and a REPRO_OBS=0 one."""
    on_server = workloads.start_server(tree)
    off_server = workloads.start_server(tree, tree.env(REPRO_OBS="0"))
    replays = {s: workloads.load_replay(dataset) for s in (on_server, off_server)}
    passes = {s: 0 for s in replays}

    def run(server) -> float:
        cold, warm = workloads.serve_pass(server, replays[server], passes[server], tally)
        passes[server] += 1
        return (cold[1] - cold[0]) + (warm[1] - warm[0])

    try:
        on_off = _interleave(
            seconds, lambda: run(on_server), lambda: run(off_server), MAX_TWIN_PASSES
        )
        for server, replay in replays.items():
            loadgen.check_final_predictions(server, replay, tally)
    finally:
        workloads.stop_server(on_server, tally)
        workloads.stop_server(off_server, tally)
    return on_off


# -- the traced run --------------------------------------------------------


def traced_run(workload: str, tree: RunTree, seed: int, seconds: float, tally: Tally) -> dict:
    tracer = Tracer()
    metrics = {"cli.startup_s": (cli_startup_s(tree, CLI_MODULES[workload]), "s")}

    dataset, _, _ = workloads.build_dataset(tree, seed, tally)
    metrics.update(campaign_layers(tracer, tree, seed))
    analysis_layers(tracer, dataset, tally)
    metrics.update(analysis_counts(tree, dataset, tally))

    replay = workloads.load_replay(dataset)
    serve_metrics, per_request_s = serve_layers(tracer, replay, tally)
    metrics.update(serve_metrics)
    metrics.update(serve_http(tree, replay, tally))

    self_s = tracer.self_times()
    for name in ("fastpath.simulate", "testbed.dispatch", "testbed.cache_store",
                 "testbed.save_dataset", "obs.write", "testbed.load_dataset",
                 "analysis.fb", "analysis.hb", "analysis.render"):
        metrics[f"{name}_s"] = (self_s.get(name, 0.0), "s")

    # The named workload: telemetry on vs off, and what the layers explain.
    startup = metrics["cli.startup_s"][0]
    if workload == "campaign":
        on, off = campaign_twin(tree, seed, seconds, tally)
        layer_s = startup + sum(self_s[n] for n in (
            "fastpath.simulate", "testbed.dispatch", "testbed.cache_store",
            "testbed.save_dataset", "obs.write"))
    elif workload == "analysis":
        on, off = analysis_twin(tree, dataset, seconds, tally)
        layer_s = startup + sum(self_s[n] for n in (
            "testbed.load_dataset", "analysis.fb", "analysis.hb", "analysis.render"))
    else:
        on, off = serve_twin(tree, dataset, seconds, tally)
        # One server process serves both connections, one request at a time.
        e = workloads.BLOCK_EPOCHS
        layer_s = per_request_s * (len(replay.block(0, 0, e)) + len(replay.block(0, e, 2 * e)))
    e2e_s = median(on)
    unaccounted = 1.0 - layer_s / e2e_s
    if unaccounted > UNACCOUNTED_FLAG:
        print(f"flag: {workload} unaccounted_frac {unaccounted:.3f} > {UNACCOUNTED_FLAG}",
              file=sys.stderr)
    metrics.update({
        "obs.on_s": (e2e_s, "s"),
        "obs.off_s": (median(off), "s"),
        "obs.overhead_frac": (e2e_s / median(off) - 1.0, "frac"),
        "unaccounted_frac": (unaccounted, "frac"),
    })
    tracer.write(WORK / f"spans-{workload}-{seed}.json")
    return metrics
