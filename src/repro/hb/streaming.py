"""Streaming predictor state: O(1)-amortised ingest for online serving.

The offline :class:`~repro.hb.wrappers.LsoPredictor` re-runs outlier
detection, level-shift detection, and a full base-predictor replay over
the entire since-last-shift history on **every** observation — fine for
a 150-epoch batch analysis, ruinous for a long-running service answering
thousands of ingest+predict requests per second.  This module provides
the streaming equivalent:

* :class:`StreamingLso` — the same LSO wrapper semantics on the one
  incremental LSO state machine, :class:`~repro.hb.lso_core.LsoCore`,
  which analysis also records its trajectories with.  Each ingest does
  O(log n) bookkeeping (a sorted mirror of the clean history for exact
  medians) plus O(1) prechecks that decide whether the detector scans
  can possibly fire; the scans and base-predictor rebuilds only run on
  the rare updates where an outlier or level shift is actually in play.
  Predictions are **bit-identical** to :class:`LsoPredictor` — the
  parity suite in ``tests/hb/test_streaming.py`` proves it against the
  walk-forward :func:`~repro.hb.evaluate.evaluate_predictor` on
  campaign traces, and ``tests/hb/test_lso_core.py`` against the
  quadratic oracle on generated edge cases.
* :class:`PredictorSpec` — a JSON-able description of one predictor
  configuration (base predictor by registry name, LSO on/off,
  thresholds), the unit of configuration for ``repro-serve``.
* :class:`StreamingPredictorState` — one path × one spec worth of live
  state: ``ingest(sample) -> prediction``, non-positive (outage)
  samples flagged instead of raised, and exact JSON snapshot/restore
  for restart durability.

Why incremental feeding preserves bit-parity
--------------------------------------------

(Why the detection prechecks do is told in :mod:`repro.hb.lso_core`.)
The offline wrapper rebuilds its base predictor from scratch each
update.  Because every predictor is a deterministic state
machine over its update sequence, feeding the base **incrementally**
with exactly the samples a rebuild would feed produces bit-identical
state; a real rebuild is only needed when the clean history mutates
non-append-wise (an already-fed sample removed as an outlier, or a
level shift truncating the history).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.core.errors import ConfigurationError, DataError, PredictionError
from repro.hb.autoregressive import AutoRegressive
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import (
    DEFAULT_LEVEL_SHIFT_THRESHOLD,
    DEFAULT_OUTLIER_THRESHOLD,
    LsoConfig,
)
from repro.hb.lso_core import LsoCore, count_detections
from repro.hb.moving_average import MovingAverage
from repro.hb.wrappers import LsoPredictor
from repro.obs import get_telemetry

__all__ = [
    "BASE_PREDICTORS",
    "DEFAULT_SERVE_PREDICTORS",
    "PredictorSpec",
    "StreamingLso",
    "StreamingPredictorState",
    "offline_twin",
]

#: Registry of base predictors constructible by name — the vocabulary of
#: :class:`PredictorSpec` and of the ``repro-serve`` ``--predictors``
#: flag.  All are O(1)-per-update state machines except ``ar3``, whose
#: *forecast* refits a small ridge regression over a bounded window.
BASE_PREDICTORS: dict[str, PredictorFactory] = {
    "last": lambda: MovingAverage(1),
    "ma5": lambda: MovingAverage(5),
    "ma10": lambda: MovingAverage(10),
    "ewma": lambda: Ewma(0.8),
    "hw": lambda: HoltWinters(0.8, 0.2),
    "ar3": lambda: AutoRegressive(3),
}

#: The predictor set ``repro-serve`` maintains per path by default.
DEFAULT_SERVE_PREDICTORS = ("last", "ma10", "ewma", "hw")


@dataclass(frozen=True)
class PredictorSpec:
    """One predictor configuration, JSON-able for snapshots.

    Attributes:
        predictor: base predictor registry name (see
            :data:`BASE_PREDICTORS`).
        lso: wrap the base predictor with the paper's Level-Shift and
            Outlier heuristics (the default, as in the paper's HB
            evaluation).
        harden: apply the implementation hardenings (trailing-sample
            quarantine, forecast range clamp); ignored when ``lso`` is
            off.
        level_shift_threshold: the LSO ``χ``.
        outlier_threshold: the LSO ``ψ``.
    """

    predictor: str = "ma10"
    lso: bool = True
    harden: bool = True
    level_shift_threshold: float = DEFAULT_LEVEL_SHIFT_THRESHOLD
    outlier_threshold: float = DEFAULT_OUTLIER_THRESHOLD

    def __post_init__(self) -> None:
        if self.predictor not in BASE_PREDICTORS:
            raise ConfigurationError(
                f"unknown predictor {self.predictor!r}; "
                f"choose from {sorted(BASE_PREDICTORS)}"
            )
        # Delegate threshold validation (must be positive).
        self.lso_config()

    def lso_config(self) -> LsoConfig:
        return LsoConfig(
            level_shift_threshold=self.level_shift_threshold,
            outlier_threshold=self.outlier_threshold,
        )

    def build(self) -> HistoryPredictor:
        """A fresh streaming predictor for this spec."""
        factory = BASE_PREDICTORS[self.predictor]
        if not self.lso:
            return factory()
        return StreamingLso(factory, self.lso_config(), harden=self.harden)

    def to_dict(self) -> dict[str, Any]:
        return {
            "predictor": self.predictor,
            "lso": self.lso,
            "harden": self.harden,
            "level_shift_threshold": self.level_shift_threshold,
            "outlier_threshold": self.outlier_threshold,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "PredictorSpec":
        try:
            return cls(
                predictor=str(doc["predictor"]),
                lso=bool(doc.get("lso", True)),
                harden=bool(doc.get("harden", True)),
                level_shift_threshold=float(
                    doc.get("level_shift_threshold", DEFAULT_LEVEL_SHIFT_THRESHOLD)
                ),
                outlier_threshold=float(
                    doc.get("outlier_threshold", DEFAULT_OUTLIER_THRESHOLD)
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed predictor spec {doc!r}: {exc}") from exc


class StreamingLso(HistoryPredictor):
    """Incremental twin of :class:`~repro.hb.wrappers.LsoPredictor`.

    Same constructor, same observable behaviour (forecasts, diagnostics,
    raised errors), different cost model: each update pushes the sample
    through the shared :class:`~repro.hb.lso_core.LsoCore` and feeds the
    base predictor only the samples its quarantine target newly admits,
    rebuilding it only when an already-fed sample left the clean history.

    State is exactly a function of ``(clean history, count, shift and
    outlier tallies)`` — the same invariant the offline wrapper has — so
    snapshots are interchangeable between the two implementations.
    """

    RANGE_CLAMP_FACTOR = LsoPredictor.RANGE_CLAMP_FACTOR

    def __init__(
        self,
        factory: PredictorFactory,
        config: LsoConfig | None = None,
        harden: bool = True,
    ) -> None:
        self._factory = factory
        self._config = config or LsoConfig()
        self.harden = harden
        self._base = factory()
        self.name = f"{self._base.name}-LSO"
        self._core = LsoCore(self._config)
        self._fed = 0  # length of the clean-history prefix fed to _base

    # -- HistoryPredictor surface ---------------------------------------

    @property
    def min_history(self) -> int:
        return self._base.min_history

    @property
    def n_observed(self) -> int:
        return self._core.count

    @property
    def n_level_shifts(self) -> int:
        return self._core.n_level_shifts

    @property
    def n_outliers(self) -> int:
        return self._core.n_outliers

    @property
    def ready(self) -> bool:
        return self._base.ready

    @property
    def clean_history(self) -> tuple[float, ...]:
        """The retained history: post-shift samples, outliers removed."""
        return tuple(self._core.history)

    def update(self, value: float) -> None:
        value = float(value)
        if value <= 0:
            raise DataError(
                f"throughput observations must be positive, got {value} "
                "(a zero/outage epoch — discard or flag it before ingest)"
            )
        core = self._core
        core.push(value)
        count_detections(len(core.dropped), core.shift is not None)
        self._feed_base(rebuild=core.kept < self._fed)

    def _feed_base(self, rebuild: bool) -> None:
        """Bring the base predictor to the core's feed target.

        The offline wrapper's quarantine rule: a newest sample deviating
        from the history median beyond psi is withheld from the base
        predictor until the next sample disambiguates it.
        """
        core = self._core
        history = core.history
        target = len(history) - (self.harden and core.quarantined)
        if rebuild:
            base = self._base = self._factory()
            for sample in history[:target]:
                base.update(sample)
        else:
            base = self._base
            for sample in history[self._fed : target]:
                base.update(sample)
        self._fed = target

    def forecast(self) -> float:
        if not self._base.ready:
            raise PredictionError(
                f"{self.name} needs {self.min_history} clean observations, "
                f"has {len(self._core.history)}"
            )
        raw = self._base.forecast()
        if not self.harden:
            return raw
        ordered = self._core.ordered
        low = ordered[0] / self.RANGE_CLAMP_FACTOR
        high = ordered[-1] * self.RANGE_CLAMP_FACTOR
        return min(max(raw, low), high)

    def reset(self) -> None:
        self._base = self._factory()
        self._core = LsoCore(self._config)
        self._fed = 0

    # -- snapshot / restore ----------------------------------------------

    def state_dict(self) -> dict:
        core = self._core
        return {
            "history": list(core.history),
            "count": core.count,
            "n_level_shifts": core.n_level_shifts,
            "n_outliers": core.n_outliers,
        }

    def load_state(self, state: dict) -> None:
        self._core.load(
            [float(v) for v in state["history"]],
            int(state["count"]),
            int(state["n_level_shifts"]),
            int(state["n_outliers"]),
        )
        self._feed_base(rebuild=True)


class StreamingPredictorState:
    """One path × one :class:`PredictorSpec` of live service state.

    The service-facing contract differs from the library predictors in
    one deliberate way: a non-positive or non-finite throughput sample
    (an outage epoch, a client bug) is **flagged and skipped** — counted
    in ``n_invalid`` and the ``hb.invalid_samples`` telemetry counter —
    rather than raised, because one bad sample must not take down an
    ingest stream or poison the path's history.

    Attributes:
        spec: the predictor configuration.
        n_invalid: invalid samples flagged (and skipped) so far.
    """

    __slots__ = ("spec", "n_invalid", "_predictor")

    def __init__(
        self, spec: PredictorSpec, _predictor: HistoryPredictor | None = None
    ) -> None:
        self.spec = spec
        self.n_invalid = 0
        self._predictor = _predictor if _predictor is not None else spec.build()

    @property
    def n_observed(self) -> int:
        """Valid samples absorbed since the state was created."""
        return self._predictor.n_observed

    @property
    def ready(self) -> bool:
        return self._predictor.ready

    @property
    def n_level_shifts(self) -> int:
        """Cumulative LSO level-shift detections (0 for bare predictors).

        Cheap enough for per-sample reads: the quality tracker checks it
        after every ingest to reset error windows at shift boundaries.
        """
        predictor = self._predictor
        if isinstance(predictor, (StreamingLso, LsoPredictor)):
            return predictor.n_level_shifts
        return 0

    def ingest(self, value: float) -> float | None:
        """Absorb one sample; return the forecast for the next epoch.

        Returns ``None`` while the predictor lacks the history to
        forecast.  Invalid (non-positive / non-finite) samples are
        flagged, skipped, and leave the prediction unchanged.
        """
        value = float(value)
        if not math.isfinite(value) or value <= 0:
            self.n_invalid += 1
            get_telemetry().counter("hb.invalid_samples").inc()
            return self.prediction()
        self._predictor.update(value)
        return self.prediction()

    def prediction(self) -> float | None:
        """The current one-step forecast, or ``None`` if not ready."""
        if not self._predictor.ready:
            return None
        return self._predictor.forecast()

    def diagnostics(self) -> dict[str, Any]:
        """Counters useful in service responses and state listings."""
        info: dict[str, Any] = {
            "n_observed": self.n_observed,
            "n_invalid": self.n_invalid,
            "ready": self.ready,
        }
        predictor = self._predictor
        if isinstance(predictor, (StreamingLso, LsoPredictor)):
            info["n_level_shifts"] = predictor.n_level_shifts
            info["n_outliers"] = predictor.n_outliers
            info["clean_history_len"] = len(predictor.clean_history)
        return info

    # -- snapshot / restore ----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The full state as a JSON-serializable dict."""
        return {
            "spec": self.spec.to_dict(),
            "n_invalid": self.n_invalid,
            "state": self._predictor.state_dict(),
        }

    @classmethod
    def restore(cls, doc: dict[str, Any]) -> "StreamingPredictorState":
        """Rebuild a state captured by :meth:`snapshot`, bit-for-bit."""
        try:
            spec = PredictorSpec.from_dict(doc["spec"])
            state = doc["state"]
            n_invalid = int(doc.get("n_invalid", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed predictor snapshot: {exc}") from exc
        restored = cls(spec)
        restored._predictor.load_state(state)
        restored.n_invalid = n_invalid
        return restored


def offline_twin(spec: PredictorSpec) -> PredictorFactory:
    """The walk-forward factory equivalent to a spec's streaming build.

    Parity tests (and anyone cross-checking the service against the
    paper's evaluation) use this to construct the *offline* predictor —
    :class:`LsoPredictor` instead of :class:`StreamingLso` — with the
    same base predictor and thresholds.
    """
    factory = BASE_PREDICTORS[spec.predictor]
    if not spec.lso:
        return factory
    return lambda: LsoPredictor(factory, spec.lso_config(), harden=spec.harden)
