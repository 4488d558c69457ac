"""History-Based (HB) TCP throughput prediction (paper Sections 5-6).

The predictors are incremental one-step forecasters over a history of
previous transfer throughputs on the same path:

* :class:`~repro.hb.moving_average.MovingAverage` — ``n``-MA.
* :class:`~repro.hb.ewma.Ewma` — exponentially weighted moving average.
* :class:`~repro.hb.holt_winters.HoltWinters` — non-seasonal
  Holt-Winters with level and trend components.
* :class:`~repro.hb.wrappers.LsoPredictor` — any of the above wrapped
  with the paper's Level-Shift and Outlier heuristics (Section 5.2):
  detected outliers are discarded from the history, and a detected level
  shift restarts the predictor from the shift point.

:func:`~repro.hb.evaluate.evaluate_predictor` walks a throughput
:class:`~repro.core.timeseries.TimeSeries` and produces the one-step
errors and RMSRE used by every HB figure of the paper.
"""

from repro.hb.autoregressive import AutoRegressive
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.evaluate import HbEvaluation, evaluate_predictor
from repro.hb.ewma import Ewma
from repro.hb.hybrid import HybridPredictor
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import (
    DEFAULT_LEVEL_SHIFT_THRESHOLD,
    DEFAULT_OUTLIER_THRESHOLD,
    LsoConfig,
    detect_level_shift,
    detect_outliers,
)
from repro.hb.moving_average import MovingAverage
from repro.hb.nws import AdaptiveEnsemble
from repro.hb.streaming import (
    BASE_PREDICTORS,
    DEFAULT_SERVE_PREDICTORS,
    PredictorSpec,
    StreamingLso,
    StreamingPredictorState,
    offline_twin,
)
from repro.hb.vector_eval import ENV_HB_VECTOR, hb_vector_enabled, vector_walk
from repro.hb.wrappers import LsoPredictor

__all__ = [
    "ENV_HB_VECTOR",
    "AdaptiveEnsemble",
    "AutoRegressive",
    "BASE_PREDICTORS",
    "DEFAULT_LEVEL_SHIFT_THRESHOLD",
    "DEFAULT_OUTLIER_THRESHOLD",
    "DEFAULT_SERVE_PREDICTORS",
    "Ewma",
    "HybridPredictor",
    "HbEvaluation",
    "HistoryPredictor",
    "HoltWinters",
    "LsoConfig",
    "LsoPredictor",
    "MovingAverage",
    "PredictorFactory",
    "PredictorSpec",
    "StreamingLso",
    "StreamingPredictorState",
    "detect_level_shift",
    "detect_outliers",
    "evaluate_predictor",
    "hb_vector_enabled",
    "offline_twin",
    "vector_walk",
]
