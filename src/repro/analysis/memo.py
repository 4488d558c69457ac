"""Per-dataset memo: each analysis quantity computed once per dataset.

The figures ask for many identical quantities — Fig. 21's ``10-MA``
walk is Fig. 16's, Figs. 19, 20, 22 and 23 share the HW-LSO walk of
each trace, and every FB figure evaluates the same Eq. (3) predictions.
An :class:`AnalysisMemo` computes each of them once:

* trace series per (trace, small-window flag, downsample factor);
* HB walks per (trace, small-window flag, downsample factor, predictor
  spec), the spec from :func:`derive_spec` — a predictor whose exact
  type has none is walked fresh every time;
* LSO segmentations per (trace, small-window flag, downsample factor,
  :class:`~repro.hb.lso.LsoConfig`);
* one FB array pass per distinct predictor over every epoch.

:func:`dataset_memo` keeps the memo on ``Dataset.memo``, so it lives no
longer than its dataset, and renews it when the traces change.  Nothing
is hashed and nothing is written to disk.  Every caller gets the same
arrays, so they are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from time import perf_counter

import numpy as np

from repro.core.metrics import relative_errors
from repro.core.timeseries import TimeSeries
from repro.formulas.fb_predictor import FormulaBasedPredictor
from repro.hb.autoregressive import AutoRegressive
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.evaluate import (
    HbEvaluation,
    LsoSegmentation,
    evaluate_predictor,
    lso_segmentation,
)
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import LsoConfig
from repro.hb.moving_average import MovingAverage
from repro.hb.wrappers import LsoPredictor
from repro.obs import get_telemetry
from repro.paths.records import Dataset, Trace

def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


#: A predictor spec: a family tag followed by constructor parameters,
#: e.g. ``("ma", 10)`` or ``("lso", ("hw", 0.8, 0.2), 0.3, 0.4, True)``.
PredictorSpec = tuple


def derive_spec(predictor: HistoryPredictor) -> PredictorSpec | None:
    """The memo key of a predictor instance, or ``None``.

    Exact type matches only: a subclass may override anything, so it
    never shares a spec with the family it inherits from (and, for the
    same reason, takes the scalar walk in :mod:`repro.hb.vector_eval`).
    """
    kind = type(predictor)
    if kind is MovingAverage:
        return ("ma", predictor.order)
    if kind is Ewma:
        return ("ewma", predictor.alpha)
    if kind is HoltWinters:
        return ("hw", predictor.alpha, predictor.beta)
    if kind is AutoRegressive:
        return ("ar", predictor.order, predictor.max_history, predictor.ridge)
    if kind is LsoPredictor:
        inner = derive_spec(predictor._base)
        if inner is None:
            return None
        config = predictor._config
        return (
            "lso",
            inner,
            config.level_shift_threshold,
            config.outlier_threshold,
            predictor.harden,
        )
    return None


@dataclass(frozen=True)
class EpochColumns:
    """The epochs of a dataset as float arrays named after the
    :class:`~repro.paths.records.EpochMeasurement` fields they hold, in
    ``dataset.epochs()`` order; ``smallw_throughput_mbps`` is NaN where
    there was no small-window transfer, and trace ``k`` spans
    ``trace_bounds[k]:trace_bounds[k + 1]``."""

    that_s: np.ndarray
    phat: np.ndarray
    ahat_mbps: np.ndarray
    throughput_mbps: np.ndarray
    ptilde: np.ndarray
    ttilde_s: np.ndarray
    smallw_throughput_mbps: np.ndarray
    trace_bounds: np.ndarray

    @classmethod
    def from_traces(cls, traces: list[Trace]) -> "EpochColumns":
        epochs = [epoch for trace in traces for epoch in trace]
        columns = {
            f.name: np.array([getattr(e, f.name) for e in epochs], dtype=float)
            for f in fields(cls)
            if f.name != "trace_bounds"
        }
        bounds = np.cumsum([0, *(len(trace) for trace in traces)])
        _read_only(bounds, *columns.values())
        return cls(**columns, trace_bounds=bounds)


@dataclass(frozen=True)
class FbPass:
    """One FB predictor over every epoch: ``R_hat`` (Mbps) and Eq. 4 errors."""

    predicted: np.ndarray
    errors: np.ndarray


def _shape(dataset: Dataset) -> tuple[tuple[int, int], ...]:
    return tuple((id(trace), len(trace)) for trace in dataset.traces)


class AnalysisMemo:
    """Quantities derived from one dataset's traces, each computed once."""

    def __init__(self, dataset: Dataset) -> None:
        self.shape = _shape(dataset)
        # Holding the traces keeps their ids unique for the memo's life.
        self._traces = list(dataset.traces)
        self._ordinals = {id(trace): k for k, trace in enumerate(self._traces)}
        self._memo: dict[tuple, object] = {}

    def _get(self, key: tuple, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def series(
        self, trace: Trace, small_window: bool = False, downsample: int = 1
    ) -> TimeSeries:
        """The trace's throughput series, optionally down-sampled."""
        key = ("series", self._ordinals[id(trace)], small_window, downsample)
        if key not in self._memo:
            series = trace.throughput_series(small_window=small_window)
            self._memo[key] = series if downsample == 1 else series.downsample(downsample)
        return self._memo[key]

    def evaluation(
        self,
        trace: Trace,
        factory: PredictorFactory,
        small_window: bool = False,
        downsample: int = 1,
        lso_config: LsoConfig | None = None,
    ) -> HbEvaluation:
        """:func:`~repro.hb.evaluate.evaluate_predictor` over the series.

        With ``lso_config``: the shared walk plus the outliers of the
        shared segmentation — what ``evaluate_predictor`` assembles.
        """
        series = self.series(trace, small_window, downsample)
        spec = derive_spec(factory())
        if spec is None:
            return evaluate_predictor(series, factory, lso_config=lso_config)
        if lso_config is not None:
            walk = self.evaluation(trace, factory, small_window, downsample)
            segmentation = self.segmentation(trace, lso_config, small_window, downsample)
            return replace(walk, outlier_indices=frozenset(segmentation.outlier_indices))
        key = ("walk", self._ordinals[id(trace)], small_window, downsample, spec)
        if key not in self._memo:
            walk = evaluate_predictor(series, factory)
            _read_only(walk.predictions, walk.errors)
            self._memo[key] = walk
        return self._memo[key]

    def segmentation(
        self,
        trace: Trace,
        config: LsoConfig | None = None,
        small_window: bool = False,
        downsample: int = 1,
    ) -> LsoSegmentation:
        """:func:`~repro.hb.evaluate.lso_segmentation` of the series."""
        config = config or LsoConfig()
        values = self.series(trace, small_window, downsample).values
        key = ("lso", self._ordinals[id(trace)], small_window, downsample, config)
        return self._get(key, lambda: lso_segmentation(values, config))

    @property
    def columns(self) -> EpochColumns:
        """The dataset's epochs as arrays, built on first use."""
        return self._get(("columns",), lambda: EpochColumns.from_traces(self._traces))

    def path_indices(self, path_id: str) -> np.ndarray:
        """Positions of ``dataset.epochs(path_id)`` within :attr:`columns`."""
        bounds = self.columns.trace_bounds
        return np.concatenate(
            [np.arange(0)]
            + [
                np.arange(bounds[k], bounds[k + 1])
                for k, trace in enumerate(self._traces)
                if trace.path_id == path_id
            ]
        )

    def fb(self, predictor: FormulaBasedPredictor) -> FbPass:
        """``predictor.predict_array`` over every epoch's a priori
        estimates, once; the pass counts ``predictions.made{predictor=fb,
        regime}`` by epochs and takes one ``predict.wall_s`` sample."""
        return self._get(("fb", predictor), lambda: self._fb_pass(predictor))

    def _fb_pass(self, predictor: FormulaBasedPredictor) -> FbPass:
        columns = self.columns
        started = perf_counter()
        predicted = predictor.predict_array(
            columns.that_s, columns.phat, columns.ahat_mbps
        )
        elapsed = perf_counter() - started
        telemetry = get_telemetry()
        if telemetry.enabled and predicted.size:
            metrics = telemetry.metrics
            metrics.timer("predict.wall_s", predictor="fb").observe(elapsed)
            lossless = int(np.count_nonzero(columns.phat == 0.0))
            for regime, count in (
                ("lossy", predicted.size - lossless),
                ("lossless", lossless),
            ):
                if count:
                    metrics.counter(
                        "predictions.made", predictor="fb", regime=regime
                    ).inc(count)
        errors = relative_errors(predicted, columns.throughput_mbps)
        _read_only(predicted, errors)
        return FbPass(predicted=predicted, errors=errors)


def dataset_memo(dataset: Dataset) -> AnalysisMemo:
    """The dataset's memo, created (or renewed after a change) on demand."""
    memo = dataset.memo
    if not isinstance(memo, AnalysisMemo) or memo.shape != _shape(dataset):
        memo = dataset.memo = AnalysisMemo(dataset)
    return memo
