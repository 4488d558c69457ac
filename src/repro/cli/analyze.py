"""``repro-analyze``: regenerate the paper's figures from a saved dataset.

Every invocation is an observable run: telemetry from the prediction
pipeline (per-predictor timers/counters, LSO detections, per-figure
wall times) is recorded and written as ``X.analysis.manifest.json`` +
``X.analysis.events.jsonl`` sidecars next to the dataset — rendered by
``repro-obs summary`` and gated by ``repro-obs bench check``.  Set
``REPRO_OBS=0`` to disable telemetry (no sidecars are written).

The run is one in-process pass over the dataset: the figures share a
per-dataset memo (:mod:`repro.analysis.memo`), so each HB walk is
computed once and the FB predictor runs once per distinct predictor, as
one array pass over every epoch.  Nothing is written besides the
sidecars.  Rendered output is byte-identical whatever the HB engine, and
from one run to the next (``make analyze-parity`` checks both).

A missing, unreadable or malformed dataset fails before any figure is
computed, with one ``repro-analyze: error: ...`` line and exit status 2.

Examples::

    repro-analyze may.csv                      # every applicable figure
    repro-analyze may.csv --figures 2 19 20    # a subset
    repro-analyze may.csv --hb-engine scalar   # pin the scalar oracle
    repro-analyze march.csv --figures 11
    repro-obs summary may.analysis.manifest.json
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from collections.abc import Callable
from pathlib import Path

from repro.analysis import fb_eval, hb_eval
from repro.hb.vector_eval import ENV_HB_VECTOR
from repro.analysis.report import (
    render_bar_table,
    render_cdf_table,
    render_quantile_table,
    render_scatter_summary,
)
from repro.core.errors import ReproError
from repro.obs import RunRecorder, get_telemetry
from repro.obs.recorder import analysis_sidecar_paths, write_manifest
from repro.paths.records import Dataset
from repro.testbed.io import load_dataset


def _fig2(ds: Dataset) -> str:
    cdfs = fb_eval.error_cdfs(ds)
    return render_cdf_table(
        {"all": cdfs.all, "lossy": cdfs.lossy, "lossless": cdfs.lossless},
        thresholds=(-1.0, 0.0, 1.0, 2.0, 5.0, 9.0),
        title="Fig. 2: FB error CDFs",
    ) + "\n" + cdfs.summary()


def _fig3(ds: Dataset) -> str:
    inc = fb_eval.increase_cdfs(ds)
    return (
        render_cdf_table(
            {"RTT incr (s)": inc.rtt_absolute_s, "loss incr": inc.loss_absolute},
            thresholds=(0.0, 0.005, 0.02, 0.1),
            title="Fig. 3: absolute increases during flow",
        )
        + f"\nmean RTT ratio {inc.mean_rtt_ratio:.2f}, "
        + f"mean loss ratio {inc.mean_loss_ratio:.2f}"
    )


def _fig6(ds: Dataset) -> str:
    comp = fb_eval.during_flow_prediction(ds)
    return render_cdf_table(
        {"prior": comp.with_prior, "during": comp.with_during},
        thresholds=(-3.0, -1.0, 0.0, 1.0, 3.0),
        title="Fig. 6: prior vs during-flow inputs",
    )


def _fig7(ds: Dataset) -> str:
    rows = [
        (s.path_id, {"p10": s.p10, "median": s.median, "p90": s.p90})
        for s in fb_eval.per_path_percentiles(ds)
    ]
    return render_bar_table(rows, title="Fig. 7: per-path FB error", value_format="{:+.2f}")


def _fig8(ds: Dataset) -> str:
    sc = fb_eval.throughput_vs_error(ds)
    return "Fig. 8: R vs E\n" + render_scatter_summary(sc.x, sc.errors, "R", "E")


def _fig11(ds: Dataset) -> str:
    effect = fb_eval.duration_effect(ds)
    return render_cdf_table(
        effect.cdfs, thresholds=(-1.0, 0.0, 1.0, 3.0), title="Fig. 11: duration cuts"
    )


def _fig12(ds: Dataset) -> str:
    rows = [
        (c.path_id, {"W=1MB": c.rmsre_large_window, "W=20KB": c.rmsre_small_window})
        for c in fb_eval.window_limited(ds)
        if c.window_limited
    ]
    return render_bar_table(rows, title="Fig. 12: FB RMSRE by window")


def _fig16(ds: Dataset) -> str:
    cdfs = hb_eval.predictor_cdfs(ds, hb_eval.ma_family())
    return render_quantile_table(cdfs, title="Fig. 16: MA family RMSRE")


def _fig17(ds: Dataset) -> str:
    cdfs = hb_eval.predictor_cdfs(ds, hb_eval.hw_family())
    return render_quantile_table(cdfs, title="Fig. 17: HW family RMSRE")


def _fig19(ds: Dataset) -> str:
    comp = hb_eval.fb_vs_hb(ds)
    return (
        render_quantile_table(
            {"FB": comp.fb, "HB": comp.hb}, title="Fig. 19: FB vs HB RMSRE"
        )
        + "\n"
        + comp.summary()
    )


def _fig20(ds: Dataset) -> str:
    rel = hb_eval.cov_correlation(ds)
    return (
        "Fig. 20: CoV vs RMSRE\n"
        + render_scatter_summary(rel.covs, rel.rmsres, "CoV", "RMSRE")
        + f"\ncorrelation: {rel.correlation():.2f}"
    )


def _fig21(ds: Dataset) -> str:
    rows = [
        (
            f"{c.path_id} [{c.label}]",
            {n: sum(v) / len(v) for n, v in c.rmsres_by_predictor.items()},
        )
        for c in hb_eval.path_classes(ds)
    ]
    return render_bar_table(rows, title="Fig. 21: path classes")


def _fig22(ds: Dataset) -> str:
    rows = [
        (c.path_id, {"W=1MB": c.rmsre_large_window, "W=20KB": c.rmsre_small_window})
        for c in hb_eval.window_limited_hb(ds)
    ]
    return render_bar_table(rows, title="Fig. 22: HB RMSRE by window")


def _fig23(ds: Dataset) -> str:
    cdfs = hb_eval.interval_effect(ds)
    return render_quantile_table(cdfs, title="Fig. 23: transfer intervals")


FIGURES: dict[int, Callable[[Dataset], str]] = {
    2: _fig2,
    3: _fig3,
    6: _fig6,
    7: _fig7,
    8: _fig8,
    11: _fig11,
    12: _fig12,
    16: _fig16,
    17: _fig17,
    19: _fig19,
    20: _fig20,
    21: _fig21,
    22: _fig22,
    23: _fig23,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Regenerate the paper's figures from a saved campaign CSV.",
    )
    parser.add_argument("dataset", help="CSV written by repro-campaign")
    parser.add_argument(
        "--figures",
        type=int,
        nargs="+",
        metavar="N",
        help=f"figure numbers to produce (available: {sorted(FIGURES)})",
    )
    parser.add_argument(
        "--hb-engine",
        choices=("vector", "scalar"),
        default=None,
        help="pin the HB evaluation engine for this run (default: the "
        f"{ENV_HB_VECTOR} environment variable, vector when unset)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the analysis under cProfile and write the stats "
        "next to the dataset as DATASET.analysis.pstats (inspect with "
        "'python -m pstats')",
    )
    return parser


def _dataset_identity(path: Path) -> str:
    """sha256 of the dataset file bytes — the analysis-run cache_key."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _flush_phase_timers(clock, telemetry) -> None:
    """Turn the run's phase laps into manifest timers.

    ``load`` becomes ``analysis.load_s``; every ``fig<N>`` lap becomes a
    sample of ``analysis.figure_s{figure=N}``.
    """
    for phase, seconds in clock.phases.items():
        if phase.startswith("fig"):
            timer = telemetry.metrics.timer("analysis.figure_s", figure=phase[3:])
        else:
            timer = telemetry.metrics.timer(f"analysis.{phase}_s")
        timer.observe(seconds)


def _error(message: str) -> int:
    """Report a usage or input problem as one line; exit status 2."""
    print(f"repro-analyze: error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    dataset_path = Path(args.dataset)
    wanted = args.figures or sorted(FIGURES)
    if not dataset_path.is_file():
        return _error(f"dataset not found: {args.dataset}")
    telemetry = get_telemetry()
    observing = telemetry.enabled
    if observing and not os.access(dataset_path.parent, os.W_OK):
        return _error(
            f"cannot write the telemetry sidecars next to the dataset: "
            f"{dataset_path.parent} is not writable (set REPRO_OBS=0 to skip them)"
        )
    if args.hb_engine is not None:
        os.environ[ENV_HB_VECTOR] = "1" if args.hb_engine == "vector" else "0"

    recorder = RunRecorder(
        label=dataset_path.name,
        kind="analysis",
        cache_key=_dataset_identity(dataset_path) if observing else "",
        settings={
            "dataset": str(args.dataset),
            "figures": list(wanted),
            "hb_engine": args.hb_engine,
        },
    ).start()
    clock = telemetry.phase_clock()

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    try:
        dataset = load_dataset(args.dataset)
    except (ReproError, OSError) as exc:
        if profiler is not None:
            profiler.disable()
        telemetry.clear_context()
        return _error(f"cannot load dataset {args.dataset}: {exc}")
    clock.lap("load")

    status = 0
    rendered: list[int] = []
    skipped: list[int] = []
    try:
        print(dataset.summary())
        for number in wanted:
            renderer = FIGURES.get(number)
            if renderer is None:
                print(f"\n[fig {number}] no renderer (available: {sorted(FIGURES)})")
                status = 2
                clock.lap(f"fig{number}")
                telemetry.emit("figure", figure=number, status="unknown")
                continue
            print()
            try:
                print(renderer(dataset))
            except ReproError as exc:
                print(f"[fig {number}] not derivable from this dataset: {exc}")
                clock.lap(f"fig{number}")
                skipped.append(number)
                telemetry.emit(
                    "figure",
                    figure=number,
                    status="skipped",
                    wall_s=clock.phases.get(f"fig{number}", 0.0),
                    reason=str(exc),
                )
            else:
                clock.lap(f"fig{number}")
                rendered.append(number)
                telemetry.emit(
                    "figure",
                    figure=number,
                    status="ok",
                    wall_s=clock.phases.get(f"fig{number}", 0.0),
                )
    except BrokenPipeError:
        # Downstream pipe closed (e.g. `repro-analyze ds.csv | head`).
        status = 0
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(f"{args.dataset}.analysis.pstats")
    if observing:
        _flush_phase_timers(clock, telemetry)
    recorder.finish(
        n_paths=len(dataset.path_ids),
        n_traces=len(dataset.traces),
        n_epochs=len(dataset.epochs()),
        extras={
            "analysis": {
                "dataset": str(args.dataset),
                "figures": rendered,
                "skipped": skipped,
            }
        },
    )
    if observing:
        manifest_path, events_path = analysis_sidecar_paths(dataset_path)
        write_manifest(recorder.manifest, recorder.events, manifest_path, events_path)
        print(f"telemetry -> {manifest_path}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
