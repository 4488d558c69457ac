"""One-step evaluation of HB predictors over throughput traces.

:func:`evaluate_predictor` performs the walk-forward evaluation behind
every HB figure of the paper: at each epoch the predictor (built fresh
for the trace) forecasts the next throughput from the history so far,
the relative error (Eq. 4) is recorded, and the trace's accuracy is
summarised with RMSRE (Eq. 5).

Two engines produce those numbers:

* the **scalar oracle** — a per-epoch Python loop calling the
  predictor's ``forecast()``/``update()`` directly; and
* the **vector walk** (:mod:`repro.hb.vector_eval`) — array recurrences
  for the registered predictor families, bit-identical to the oracle
  and dispatched by default.  ``REPRO_HB_VECTOR=0`` pins the oracle.

:func:`lso_segmentation` re-runs the paper's LSO heuristics over a whole
trace and reports the final outlier indices and stationary segments —
what Section 6.1.3 needs to compute a trace's CoV (weighted across
stationary periods, outliers excluded) and to exclude outliers from the
RMSRE of Fig. 20.  It follows the same split: an incremental O(n) pass
with precheck-gated detector calls by default, the original
re-scan-everything loop as the oracle.

Every call computes its walk; sharing walks across figures is the
analysis layer's per-dataset memo (:mod:`repro.analysis.memo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.errors import DataError
from repro.core.metrics import relative_error, rmsre, segmented_cov
from repro.core.timeseries import TimeSeries
from repro.hb.base import PredictorFactory
from repro.hb.lso import LsoConfig, detect_level_shift, detect_outliers
from repro.hb.vector_eval import (
    hb_vector_enabled,
    lso_segmentation_fast,
    vector_errors,
    vector_walk,
)
from repro.obs import get_telemetry


@dataclass(frozen=True)
class HbEvaluation:
    """Result of walking one predictor over one trace.

    Attributes:
        predictor_name: label of the evaluated predictor.
        series_name: label of the trace.
        predictions: per-epoch forecasts; NaN before the predictor had
            enough history.
        errors: per-epoch relative errors (Eq. 4); NaN where no forecast
            was made.
        outlier_indices: epochs flagged as outliers by the final LSO
            segmentation of the trace (empty when LSO is not used).
    """

    predictor_name: str
    series_name: str
    predictions: np.ndarray
    errors: np.ndarray
    outlier_indices: frozenset[int] = field(default_factory=frozenset)

    @property
    def valid_errors(self) -> np.ndarray:
        """All recorded errors (forecast epochs only)."""
        return self.errors[~np.isnan(self.errors)]

    def rmsre(self, exclude_outliers: bool = False) -> float:
        """Trace RMSRE (Eq. 5) over the forecast epochs.

        Args:
            exclude_outliers: drop epochs flagged as outliers, as the
                paper does when comparing RMSRE against CoV (Fig. 20).
        """
        mask = ~np.isnan(self.errors)
        if exclude_outliers and self.outlier_indices:
            keep = np.ones_like(mask)
            keep[list(self.outlier_indices)] = False
            mask &= keep
        errors = self.errors[mask]
        if errors.size == 0:
            raise DataError("no forecast epochs to compute RMSRE over")
        return rmsre(errors)

    def mean_absolute_error(self) -> float:
        """Mean |E| over the forecast epochs."""
        errors = self.valid_errors
        if errors.size == 0:
            raise DataError("no forecast epochs")
        return float(np.mean(np.abs(errors)))


def evaluate_predictor(
    series: TimeSeries,
    factory: PredictorFactory,
    lso_config: LsoConfig | None = None,
) -> HbEvaluation:
    """Walk-forward one-step evaluation of a predictor over a trace.

    Args:
        series: the throughput trace (values must be positive).
        factory: builds the predictor instance evaluated on this trace.
        lso_config: when given, the trace's final LSO segmentation is
            computed so outlier epochs can be excluded from RMSRE (used
            for Fig. 20).  This does not wrap the predictor in LSO — pass
            an :class:`~repro.hb.wrappers.LsoPredictor` factory for that.

    Returns:
        The per-epoch forecasts and errors.

    Raises:
        DataError: when the trace carries a non-positive sample — named
            by epoch, up front, before any predictor sees it.
    """
    values = series.values
    nonpositive = np.flatnonzero(values <= 0)
    if nonpositive.size:
        epoch = int(nonpositive[0])
        raise DataError(
            f"throughput must be positive, got {float(values[epoch])} "
            f"at epoch {epoch} of series {series.name!r}"
        )

    predictor = factory()
    name = getattr(predictor, "name", type(predictor).__name__)

    started = perf_counter()
    predictions = vector_walk(values, predictor) if hb_vector_enabled() else None
    if predictions is not None:
        errors = vector_errors(predictions, values)
    else:
        predictions, errors = _scalar_walk(values, predictor)
    elapsed = perf_counter() - started

    tele = get_telemetry()
    if tele.enabled:
        made = int(np.count_nonzero(~np.isnan(predictions)))
        if made:
            # One sample per walk (covering every forecast of the trace)
            # and one counter bump for all of them: the instrumented path
            # no longer pays per-epoch clock reads and handle lookups.
            tele.metrics.timer("predict.wall_s", predictor=name).observe(elapsed)
            tele.metrics.counter("predictions.made", predictor=name).inc(made)

    outliers: frozenset[int] = frozenset()
    if lso_config is not None:
        outliers = frozenset(lso_segmentation(values, lso_config).outlier_indices)

    return HbEvaluation(
        predictor_name=name,
        series_name=series.name,
        predictions=predictions,
        errors=errors,
        outlier_indices=outliers,
    )


def _scalar_walk(
    values: np.ndarray, predictor: object
) -> tuple[np.ndarray, np.ndarray]:
    """The reference per-epoch loop — the oracle the vector walk must match."""
    n = len(values)
    predictions = np.full(n, np.nan)
    errors = np.full(n, np.nan)
    for i in range(n):
        value = float(values[i])
        if predictor.ready:
            forecast = predictor.forecast()
            predictions[i] = forecast
            errors[i] = relative_error(forecast, value)
        predictor.update(value)
    return predictions, errors


@dataclass(frozen=True)
class LsoSegmentation:
    """Final LSO structure of a trace.

    Attributes:
        outlier_indices: original epoch indices flagged as outliers.
        shift_indices: original epoch indices at which a level shift was
            detected (index of the first post-shift sample).
        segments: the stationary segments — values of consecutive
            non-outlier epochs between shift boundaries.
    """

    outlier_indices: tuple[int, ...]
    shift_indices: tuple[int, ...]
    segments: tuple[tuple[float, ...], ...]

    def weighted_cov(self) -> float:
        """Trace CoV per Section 6.1.3: segment CoVs weighted by length."""
        return segmented_cov([list(seg) for seg in self.segments])


def lso_segmentation(
    values: np.ndarray | list[float], config: LsoConfig | None = None
) -> LsoSegmentation:
    """Run the incremental LSO pass over a full trace.

    Replays the same online algorithm the :class:`LsoPredictor` uses,
    but keeps track of original indices so the caller learns *which*
    epochs were outliers and where the stationary segments lie.

    By default runs the O(n) incremental pass (sorted-mirror medians,
    precheck-gated detector calls); ``REPRO_HB_VECTOR=0`` selects the
    original quadratic re-scan loop, the oracle both must match.
    """
    config = config or LsoConfig()
    vals = np.asarray(values, dtype=float)
    if hb_vector_enabled():
        outlier_indices, shift_indices = lso_segmentation_fast(vals, config)
    else:
        outlier_indices, shift_indices = _segmentation_scalar(vals, config)
    return _assemble_segmentation(vals, outlier_indices, shift_indices)


def _segmentation_scalar(
    vals: np.ndarray, config: LsoConfig
) -> tuple[list[int], list[int]]:
    """The reference pass: both detectors over the full history, each epoch."""
    history: list[tuple[int, float]] = []  # (original index, value)
    outlier_indices: list[int] = []
    shift_indices: list[int] = []

    for idx, raw in enumerate(vals):
        value = float(raw)
        if value <= 0:
            raise DataError(f"throughput must be positive, got {value} at epoch {idx}")
        history.append((idx, value))

        flagged = detect_outliers([v for _, v in history], config)
        if flagged:
            flagged_set = set(flagged)
            outlier_indices.extend(history[k][0] for k in flagged)
            history = [item for k, item in enumerate(history) if k not in flagged_set]

        shift = detect_level_shift([v for _, v in history], config)
        if shift is not None:
            shift_indices.append(history[shift][0])
            history = history[shift:]

    return outlier_indices, shift_indices


def _assemble_segmentation(
    vals: np.ndarray, outlier_indices: list[int], shift_indices: list[int]
) -> LsoSegmentation:
    """Build segments: non-outlier indices partitioned at shift boundaries."""
    outlier_set = set(outlier_indices)
    n = len(vals)
    boundaries = sorted(set(shift_indices))
    segments: list[tuple[float, ...]] = []
    start = 0
    for boundary in [*boundaries, n]:
        segment = tuple(
            float(vals[i]) for i in range(start, boundary) if i not in outlier_set
        )
        if segment:
            segments.append(segment)
        start = boundary

    return LsoSegmentation(
        outlier_indices=tuple(sorted(outlier_set)),
        shift_indices=tuple(boundaries),
        segments=tuple(segments),
    )
