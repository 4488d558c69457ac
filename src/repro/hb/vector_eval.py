"""Array twins of the scalar walk-forward HB evaluation.

:func:`repro.hb.evaluate.evaluate_predictor` walks a predictor over a
trace one epoch at a time — clear, correct, and slow.  This module holds
the fast path: closed-form array recurrences for each registered
predictor family whose floating-point expression trees match the scalar
``forecast()``/``update()`` chain *element for element*, so the
forecasts (and therefore errors, RMSRE and every figure downstream) are
bit-identical to the scalar walk.  Exact type matches only: a subclass
may override anything, so it is routed to the scalar oracle.

The same contract as the fluid vector engine (``repro.fastpath.vector``)
applies:

* ``REPRO_HB_VECTOR=0`` pins the scalar loop — the oracle the parity
  suite (``tests/hb/test_vector_eval.py``) and ``make analyze-parity``
  compare against.
* Any new predictor family must either land with a vector twin and
  parity coverage, or simply not register here — unknown types fall
  back to the scalar walk and stay correct.

Bit-identity notes, family by family:

* ``MovingAverage`` — ``sum(deque)`` adds left-associatively starting
  from ``0``; a running prefix sum (warm-up) and per-offset column
  accumulation (steady state) add the same samples in the same order.
* ``Ewma``/``HoltWinters`` — inherently sequential recurrences, run as
  tight Python loops over the raw floats with the scalar update
  expressions verbatim, then stored into the output array in one slice
  assignment.
* ``AutoRegressive`` — the scalar ``forecast()`` builds fresh arrays
  from its history list; a contiguous slice view of the trace holds the
  same values in the same layout, so ``mean``, the normal-equation
  solve, and the lag dot product reproduce the same bits.
* ``LsoPredictor`` — a replay over the series' LSO trajectory
  (:class:`~repro.hb.lso_core.LsoTrajectory`: one pass of the shared
  LSO core, which analysis records once per series and config): the
  base predictor's feed splits into streams at each restart, and each
  stream is the base family's own array walk, read at the fed length
  and range-clamped.  Its detections are counted once per walk, as the
  wrapper's detectors count them.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.core.errors import DataError
from repro.hb.autoregressive import AutoRegressive
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import _MIN_FORECAST, HoltWinters
from repro.hb.lso_core import LsoTrajectory
from repro.hb.moving_average import MovingAverage
from repro.hb.wrappers import LsoPredictor

#: Set to ``0`` to disable the vectorized walk and run the scalar oracle.
ENV_HB_VECTOR = "REPRO_HB_VECTOR"


def hb_vector_enabled() -> bool:
    """True unless ``REPRO_HB_VECTOR=0`` pins the scalar oracle.

    Read per call, so tests and the parity harness can flip the
    environment variable without re-importing anything.
    """
    return os.environ.get(ENV_HB_VECTOR, "1") != "0"


def vector_walk(
    values: np.ndarray,
    predictor: HistoryPredictor,
    trajectory: LsoTrajectory | None = None,
) -> np.ndarray | None:
    """Per-epoch forecasts of the walk-forward evaluation, or ``None``.

    Args:
        values: the trace samples (already validated positive).
        predictor: a fresh predictor instance — inspected for its family
            and parameters, never mutated.
        trajectory: for an :class:`LsoPredictor`, the
            :class:`~repro.hb.lso_core.LsoTrajectory` of ``values`` under
            its config, when the caller shares one; recorded afresh
            otherwise.  Ignored for other families.

    Returns:
        The forecast array the scalar loop would produce (NaN where the
        predictor was not ready), bit-identical; or ``None`` when the
        predictor's exact type has no registered vector twin and the
        caller must run the scalar walk.
    """
    kind = type(predictor)
    if kind is MovingAverage:
        return _walk_moving_average(values, predictor.order)
    if kind is Ewma:
        return _walk_ewma(values, predictor.alpha)
    if kind is HoltWinters:
        return _walk_holt_winters(values, predictor.alpha, predictor.beta)
    if kind is AutoRegressive:
        return _walk_autoregressive(values, predictor)
    if kind is LsoPredictor:
        return _walk_lso(values, predictor, trajectory)
    return None


def vector_errors(predictions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-epoch relative errors (Eq. 4) for the forecast epochs.

    Element-wise ``(pred - actual) / min(pred, actual)`` — the same C
    double operations :func:`repro.core.metrics.relative_error` performs
    one epoch at a time.
    """
    errors = np.full(len(values), np.nan)
    mask = ~np.isnan(predictions)
    if not mask.any():
        return errors
    preds = predictions[mask]
    actuals = values[mask]
    nonpositive = preds <= 0
    if nonpositive.any():
        # Unreachable for the registered families (their forecasts are
        # positive by construction), but mirror relative_error's typed
        # failure rather than emitting garbage if that ever changes.
        k = int(np.flatnonzero(mask)[int(np.argmax(nonpositive))])
        raise DataError(
            f"relative error undefined for non-positive throughputs "
            f"(predicted={float(predictions[k])!r}, actual={float(values[k])!r})"
        )
    errors[mask] = (preds - actuals) / np.minimum(preds, actuals)
    return errors


def _walk_moving_average(values: np.ndarray, order: int) -> np.ndarray:
    n = len(values)
    predictions = np.full(n, np.nan)
    if n < 2:
        return predictions
    # Warm-up epochs (partial windows): a running prefix sum adds the
    # samples in the same left-to-right order as ``sum(deque)``.
    vals = values.tolist()
    prefix = 0.0
    for i in range(1, min(n, order)):
        prefix += vals[i - 1]
        predictions[i] = prefix / i
    if n > order:
        # Steady state: window_sums[t] = ((0 + v[t]) + v[t+1]) + ... —
        # one shifted-column addition per window offset keeps the
        # left-associative order of the scalar sum.
        window_sums = np.zeros(n - order)
        for j in range(order):
            window_sums += values[j : n - order + j]
        predictions[order:] = window_sums / order
    return predictions


def _walk_ewma(values: np.ndarray, alpha: float) -> np.ndarray:
    n = len(values)
    predictions = np.full(n, np.nan)
    if n < 2:
        return predictions
    vals = values.tolist()
    one_minus = 1.0 - alpha
    estimate = vals[0]
    out: list[float] = []
    append = out.append
    for value in vals[1:]:
        append(estimate)
        estimate = alpha * value + one_minus * estimate
    predictions[1:] = out
    return predictions


def _walk_holt_winters(values: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    n = len(values)
    predictions = np.full(n, np.nan)
    if n < 3:
        return predictions
    vals = values.tolist()
    one_minus_a = 1.0 - alpha
    one_minus_b = 1.0 - beta
    level = vals[1]
    trend = vals[1] - vals[0]
    out: list[float] = []
    append = out.append
    for value in vals[2:]:
        raw = level + trend
        forecast = raw if raw > 0 else max(level, _MIN_FORECAST)
        append(forecast)
        new_level = alpha * value + one_minus_a * forecast
        trend = beta * (new_level - level) + one_minus_b * trend
        level = new_level
    predictions[2:] = out
    return predictions


def _walk_autoregressive(
    values: np.ndarray, predictor: AutoRegressive
) -> np.ndarray:
    n = len(values)
    predictions = np.full(n, np.nan)
    p = predictor.order
    max_history = predictor.max_history
    min_fit = 2 * p + 2
    eye = predictor.ridge * np.eye(p + 1)
    for i in range(1, n):
        start = i - max_history
        window = values[start if start > 0 else 0 : i]
        m = len(window)
        if m < min_fit:
            predictions[i] = window.mean()
            continue
        design = np.ones((m - p, p + 1))
        for j in range(p):
            design[:, j + 1] = window[p - 1 - j : m - 1 - j]
        gram = design.T @ design + eye
        coeffs = np.linalg.solve(gram, design.T @ window[p:])
        prediction = float(coeffs[0] + coeffs[1:] @ window[-1 : -p - 1 : -1])
        predictions[i] = prediction if prediction > 0 else window[-p:].mean()
    return predictions


def _prefix_forecasts(stream: list[float], factory: PredictorFactory) -> np.ndarray:
    """Forecasts of a fresh base predictor after each prefix of ``stream``.

    Entry ``k`` (of ``len(stream) + 1``) is the forecast once the first
    ``k`` samples were fed, NaN while not ready: the walk of the
    family's array twin over the stream plus one placeholder sample,
    which no forecast reads; the scalar loop for unregistered types.
    """
    samples = np.array([*stream, 1.0])
    predictor = factory()
    forecasts = vector_walk(samples, predictor)
    if forecasts is None:
        forecasts = np.full(len(samples), np.nan)
        for k, value in enumerate(samples.tolist()):
            if predictor.ready:
                forecasts[k] = predictor.forecast()
            predictor.update(value)
    return forecasts


def _walk_lso(
    values: np.ndarray,
    predictor: LsoPredictor,
    trajectory: LsoTrajectory | None = None,
) -> np.ndarray:
    """Replay an LsoPredictor walk's base predictor over its LSO trajectory.

    The scalar wrapper re-runs both detectors over its clean history
    and rebuilds its base predictor from scratch every epoch.  The
    detections depend on the series and the config alone, so they come
    from the trajectory (recorded here unless the caller shares one),
    and are counted once for this walk as the wrapper's detectors would
    count them.  The replay applies the trajectory's history edits to a
    list of values and splits what the base predictor is fed into
    *streams*: a stream restarts from the clean history's fed prefix
    whenever an edit removed an already-fed sample, and otherwise grows
    by the samples the quarantine admits.  Each epoch's forecast is the
    family's array walk over its stream, read at the fed length (NaN
    while the base is not ready), and clamped to the range of the clean
    history — tracked through the appends and recomputed after each
    edit.
    """
    trajectory = LsoTrajectory.shared(values, predictor._config, trajectory)
    trajectory.count()
    harden = predictor.harden

    vals = values.tolist()
    n = len(vals)
    quarantined = trajectory.quarantined.tolist()
    tails = values[trajectory.edit_tail].tolist()
    edits = iter(trajectory.edits.tolist())
    no_edit = (n, 0, 0)
    edit_epoch, kept, end = next(edits, no_edit)
    start = 0
    history: list[float] = []
    lo = math.inf
    hi = -math.inf
    streams: list[list[float]] = []
    stream: list[float] = []  # what the base was fed since its last rebuild
    offset = 0  # of the stream's forecasts in the concatenated streams'
    slots: list[int] = []  # per epoch, where its forecast is read
    lows: list[float] = []
    highs: list[float] = []

    for epoch in range(n):
        fed = len(stream)
        slots.append(offset + fed)
        if harden:
            lows.append(lo)
            highs.append(hi)
        if epoch == edit_epoch:
            history[kept:] = tails[start:end]
            start = end
            lo = min(history)
            hi = max(history)
            rebuild = kept < fed
            edit_epoch, kept, end = next(edits, no_edit)
        else:
            value = vals[epoch]
            history.append(value)
            if value < lo:
                lo = value
            if value > hi:
                hi = value
            rebuild = False
        # The wrapper's _replay(): withhold a quarantined newest sample.
        target = len(history)
        if harden and quarantined[epoch]:
            target -= 1
        if rebuild:
            streams.append(stream)
            offset += fed + 1
            stream = history[:target]
        elif target > fed:
            stream += history[fed:target]
    streams.append(stream)

    factory = predictor._factory
    forecasts = np.concatenate([_prefix_forecasts(s, factory) for s in streams])
    predictions = forecasts[slots]  # NaN while the base is not ready
    if harden:
        # min(max(raw, lo/2), hi*2) over the clean history's range.
        clamp = predictor.RANGE_CLAMP_FACTOR
        np.maximum(predictions, np.array(lows) / clamp, out=predictions)
        np.minimum(predictions, np.array(highs) * clamp, out=predictions)
    return predictions
