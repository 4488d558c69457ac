"""The three workloads, timed end to end through the public CLIs.

Each workload reports the same four end-to-end metrics:

* ``setup_s`` — median of the set-ups;
* ``cold_s`` — median seconds of the workload's operation on empty state;
* ``warm_s`` — median seconds of the same operation repeated on the
  state the cold one left behind;
* ``peak_rss_mb`` — peak resident memory of the program's process.

Every time is reference-speed seconds (see ``speed.py``): each operation
runs pinned to known CPUs while a probe watches how fast they run.
See ``perfbench/README.md`` for what each metric means per workload.
"""

from __future__ import annotations

import asyncio
import hashlib
import shutil
import sys
import time
from pathlib import Path

import loadgen
import speed
from common import (
    CAMPAIGN_ARGS,
    EXPECTED_RENDERED,
    EXPECTED_SKIPPED,
    PINNED_ANALYZE_SHA256,
    PINNED_CSV_SHA256,
    BenchError,
    RunTree,
    Tally,
    check_cli,
    manifest,
    median,
    run_cli,
    sha256_file,
)

#: Set-ups per run: ``repro-campaign --help`` is short, so it repeats more.
SETUP_REPEATS = 3
HELP_REPEATS = 5

#: Serve: connections (one per core of the reference host), epochs per
#: replayed block, and the passes each server takes (a pass adds 70 keys;
#: the default store holds 1024).
N_CONNS = 2
BLOCK_EPOCHS = 40
PASSES_PER_SERVER = 3

#: The CLIs and the server run on OP_CPU; the benchmark's own process
#: (the serve client included) on AUX_CPU.  One CPU on a 1-CPU host.
OP_CPU, AUX_CPU = speed.cpus()[0], speed.cpus()[-1]


def build_dataset(tree: RunTree, seed: int, tally: Tally, cpu: int | None = None):
    """One ``repro-campaign`` on empty cache and checkpoint dirs.

    Returns (dataset path, the CliRun, CSV sha256).
    """
    work = tree.fresh_dir("campaign")
    out = work / "dataset.csv"
    env = tree.env(
        REPRO_CACHE_DIR=str(work / "cache"),
        REPRO_CHECKPOINT_DIR=str(work / "checkpoints"),
    )
    args = [*CAMPAIGN_ARGS, "--seed", str(seed), "-o", str(out)]
    run = run_cli("repro.cli.campaign", args, env, work, cpu=cpu)
    check_cli(tally, run)
    digest = sha256_file(out) if out.is_file() else ""
    if seed == 0:
        tally.check(digest == PINNED_CSV_SHA256, f"seed-0 CSV sha256 {digest} != pinned")
    return out, run, digest


def _rounds(seconds: float, minimum: int):
    """Round numbers: at least ``minimum``, then until ``seconds`` pass."""
    deadline = time.perf_counter() + seconds
    n = 0
    while n < minimum or time.perf_counter() < deadline:
        yield n
        n += 1


# -- campaign --------------------------------------------------------------


def campaign(tree: RunTree, seed: int, seconds: float, tally: Tally) -> dict:
    """``repro-campaign`` on empty caches (cold), then again on its cache (warm)."""
    speed.pin(AUX_CPU)
    setups, cold, warm, rss, digests = [], [], [], [], set()
    with speed.SpeedProbe([OP_CPU]) as probe:
        for _ in range(HELP_REPEATS):
            run = run_cli("repro.cli.campaign", ["--help"], tree.env(), tree.root, cpu=OP_CPU)
            check_cli(tally, run)
            setups.append(_cli_span(run))

        for _ in _rounds(seconds, 3):
            work = tree.fresh_dir("campaign")
            env = tree.env(
                REPRO_CACHE_DIR=str(work / "cache"),
                REPRO_CHECKPOINT_DIR=str(work / "checkpoints"),
            )
            for label, spans in (("cold", cold), ("warm", warm)):
                out = work / f"{label}.csv"
                args = [*CAMPAIGN_ARGS, "--seed", str(seed), "-o", str(out)]
                run = run_cli("repro.cli.campaign", args, env, work, cpu=OP_CPU)
                if not check_cli(tally, run):
                    continue
                spans.append(_cli_span(run))
                rss.append(run.peak_rss_mb)
                digests.add(sha256_file(out))
                hit = b"cache hit" in run.stdout
                tally.check(hit == (label == "warm"), f"{label} campaign: cache hit = {hit}")
            shutil.rmtree(work)  # as in analysis: every round starts alike
    tally.check(len(digests) == 1, f"campaign CSVs differ across repeats: {sorted(digests)}")
    if seed == 0:
        tally.check(digests == {PINNED_CSV_SHA256}, f"seed-0 CSV sha256 {digests} != pinned")
    return _metrics(probe, setups, cold, warm, rss)


def _cli_span(run) -> tuple[float, float, dict]:
    """(start, end, busy CPUs) of a CLI run pinned to OP_CPU."""
    return run.started, run.ended, {OP_CPU: 1.0}


# -- analysis --------------------------------------------------------------


def analysis(tree: RunTree, seed: int, seconds: float, tally: Tally) -> dict:
    """``repro-analyze`` on an empty eval cache (cold), then a rerun (warm)."""
    speed.pin(AUX_CPU)
    setups, digests = [], set()
    cold, warm, rss, outputs = [], [], [], set()
    with speed.SpeedProbe([OP_CPU]) as probe:
        for _ in range(SETUP_REPEATS):
            dataset, run, digest = build_dataset(tree, seed, tally, cpu=OP_CPU)
            setups.append(_cli_span(run))
            digests.add(digest)

        for _ in _rounds(seconds, 3):
            evals = tree.fresh_dir("evals")
            env = tree.env(REPRO_EVAL_CACHE_DIR=str(evals))
            for spans in (cold, warm):
                run = run_cli("repro.cli.analyze", [str(dataset)], env, dataset.parent, cpu=OP_CPU)
                if not check_cli(tally, run):
                    continue
                spans.append(_cli_span(run))
                rss.append(run.peak_rss_mb)
                outputs.add(hashlib.sha256(run.stdout).hexdigest())
                check_figures(dataset, tally)
            # Each round frees the ~1.3k cache files it wrote, so every
            # round starts from the same file-system and memory state.
            shutil.rmtree(evals)
    tally.check(len(digests) == 1, f"campaign CSVs differ across repeats: {sorted(digests)}")
    tally.check(len(outputs) == 1, f"repro-analyze stdout differs between runs: {sorted(outputs)}")
    if seed == 0:
        tally.check(outputs == {PINNED_ANALYZE_SHA256}, f"seed-0 analysis sha256 {outputs} != pinned")
    return _metrics(probe, setups, cold, warm, rss)


def check_figures(dataset: Path, tally: Tally) -> dict:
    """The analysis manifest lists exactly the expected figure sets."""
    doc = manifest(dataset.with_name(dataset.stem + ".analysis.manifest.json"))
    section = doc.get("analysis", {})
    rendered, skipped = section.get("figures"), section.get("skipped")
    tally.check(
        rendered == EXPECTED_RENDERED and skipped == EXPECTED_SKIPPED,
        f"figures rendered {rendered} skipped {skipped}",
    )
    return doc


# -- serve -----------------------------------------------------------------


def start_server(tree: RunTree, env: dict | None = None, cpu: int | None = None) -> loadgen.Server:
    argv = [sys.executable, "-m", "repro.cli.serve", "--port", "0"]
    stderr = tree.fresh_dir("serve") / "stderr.log"
    return loadgen.Server(argv, env or tree.env(), tree.root, stderr, cpu)


def stop_server(server: loadgen.Server, tally: Tally) -> None:
    server.stop()
    tally.check(server.returncode == 0, f"repro-serve exited {server.returncode}")
    tracebacks = server.shutdown_tracebacks()
    if tracebacks:
        # A known shutdown defect, reported rather than hidden; see README.
        print(f"finding: repro-serve logged {tracebacks} traceback(s) at shutdown "
              f"({server.stderr_path})", file=sys.stderr)


def load_replay(dataset: Path) -> loadgen.Replay:
    from repro.testbed.io import load_dataset

    return loadgen.Replay(load_dataset(dataset), N_CONNS)


def serve_pass(server: loadgen.Server, replay: loadgen.Replay, pass_no: int,
               tally: Tally) -> tuple[tuple, tuple]:
    """One closed-loop block on fresh keys (cold), then one on the same keys (warm).

    Returns each block's (start, end, busy CPUs): the server's CPU
    seconds on OP_CPU, the client's on AUX_CPU.
    """
    spans = []
    for lo in (0, BLOCK_EPOCHS):
        block = replay.block(pass_no, lo, lo + BLOCK_EPOCHS)
        server_cpu, client_cpu = server.cpu_s(), time.process_time()
        start, end = asyncio.run(loadgen.closed_block(server.port, replay, block))
        busy = speed.busy_on(
            (OP_CPU, server.cpu_s() - server_cpu), (AUX_CPU, time.process_time() - client_cpu)
        )
        spans.append((start, end, busy))
        loadgen.count_failures(block, tally)
    return spans[0], spans[1]


def serve(tree: RunTree, seed: int, seconds: float, tally: Tally) -> dict:
    """Closed-loop dataset replay against ``repro-serve`` with its defaults.

    Servers are started one after another, and each serves exactly
    PASSES_PER_SERVER passes, so its peak RSS does not depend on how
    many passes fit in ``seconds``.  The server runs on OP_CPU and the
    client on AUX_CPU; a block's speed weighs both CPUs by their use.
    """
    dataset, _, _ = build_dataset(tree, seed, tally)
    speed.pin(AUX_CPU)
    boots, cold, warm, rss = [], [], [], []
    with speed.SpeedProbe(sorted({OP_CPU, AUX_CPU})) as probe:
        for _ in _rounds(seconds, SETUP_REPEATS):
            replay = load_replay(dataset)
            client_cpu = time.process_time()
            server = start_server(tree, cpu=OP_CPU)
            busy = speed.busy_on(
                (OP_CPU, server.cpu_s()), (AUX_CPU, time.process_time() - client_cpu)
            )
            boots.append((*server.booted, busy))
            try:
                for pass_no in range(PASSES_PER_SERVER):
                    cold_span, warm_span = serve_pass(server, replay, pass_no, tally)
                    cold.append(cold_span)
                    warm.append(warm_span)
                loadgen.check_final_predictions(server, replay, tally)
            finally:
                stop_server(server, tally)
            rss.append(server.peak_rss_mb)
    return _metrics(probe, boots, cold, warm, rss)


def _metrics(probe: speed.SpeedProbe, setups, cold, warm, rss) -> dict:
    """Medians of reference-speed seconds; wall-clock medians go to stderr."""
    if not (cold and warm):
        return {}
    metrics = {}
    for name, spans in (("setup_s", setups), ("cold_s", cold), ("warm_s", warm)):
        ref = [probe.reference_s(start, end, busy) for start, end, busy in spans]
        if None in ref:
            raise BenchError(f"{name}: the speed probe took too few samples")
        metrics[name] = (median(ref), "s")
        wall = median([end - start for start, end, _ in spans])
        print(f"{name}: {len(spans)} repeats, wall-clock median {wall:.4f} s, "
              f"reference-speed median {metrics[name][0]:.4f} s", file=sys.stderr)
    metrics["peak_rss_mb"] = (max(rss), "MB")
    return metrics


WORKLOADS = {"campaign": campaign, "analysis": analysis, "serve": serve}
