"""The LSO wrapper: any base predictor + the paper's two heuristics.

On every new observation the wrapper re-runs outlier detection on its
clean history (samples since the last level shift), discards detected
outliers, then runs level-shift detection; upon a shift it drops all
history before the shift point and restarts the base predictor from the
post-shift samples.  The base predictor state is rebuilt by replaying the
clean history, which keeps restarts and outlier removals exactly
consistent (histories are short — the paper's traces have 150 epochs —
so the replay cost is negligible).
"""

from __future__ import annotations

from statistics import median

from repro.core.errors import DataError, PredictionError
from repro.hb.base import HistoryPredictor, PredictorFactory
from repro.hb.lso import (
    LsoConfig,
    detect_level_shift,
    detect_outliers,
    relative_difference,
)


class LsoPredictor(HistoryPredictor):
    """A base HB predictor guarded by Level-Shift and Outlier detection.

    Args:
        factory: produces fresh instances of the base predictor (one per
            restart).
        config: LSO thresholds; defaults to the paper's ``χ=0.3, ψ=0.4``.
        harden: apply the two implementation hardenings on top of the
            paper's heuristics — quarantining a suspect trailing sample
            from the base predictor, and clamping forecasts to the
            observed history range.  ``False`` gives the paper-literal
            wrapper (used by the ablation benchmarks).

    Attributes:
        n_level_shifts: level shifts detected so far (diagnostics).
        n_outliers: outliers discarded so far (diagnostics).
    """

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
        self._history: list[float] = []
        self._count = 0
        self.n_level_shifts = 0
        self.n_outliers = 0

    @property
    def min_history(self) -> int:
        return self._base.min_history

    @property
    def n_observed(self) -> int:
        return self._count

    @property
    def clean_history(self) -> tuple[float, ...]:
        """The retained history: post-shift samples, outliers removed."""
        return tuple(self._history)

    def update(self, value: float) -> None:
        value = float(value)
        if value <= 0:
            raise DataError(
                f"throughput observations must be positive, got {value} "
                "(a zero/outage epoch — discard or flag it before ingest)"
            )
        self._count += 1
        self._history.append(value)

        outliers = detect_outliers(self._history, self._config)
        if outliers:
            self.n_outliers += len(outliers)
            flagged = set(outliers)
            self._history = [
                x for k, x in enumerate(self._history) if k not in flagged
            ]

        shift = detect_level_shift(self._history, self._config)
        if shift is not None:
            self.n_level_shifts += 1
            self._history = self._history[shift:]

        self._replay()

    #: Forecasts are clamped into [min/2, max*2] of the clean history: a
    #: forecast outside the range ever observed on the path is predictor
    #: overshoot (e.g. a Holt-Winters trend extrapolating through zero
    #: after a sharp dip), not information.
    RANGE_CLAMP_FACTOR = 2.0

    def forecast(self) -> float:
        if not self._base.ready:
            raise PredictionError(
                f"{self.name} needs {self.min_history} clean observations, "
                f"has {len(self._history)}"
            )
        raw = self._base.forecast()
        if not self.harden:
            return raw
        low = min(self._history) / self.RANGE_CLAMP_FACTOR
        high = max(self._history) * self.RANGE_CLAMP_FACTOR
        return min(max(raw, low), high)

    @property
    def ready(self) -> bool:
        return self._base.ready

    def reset(self) -> None:
        self._base = self._factory()
        self._history = []
        self._count = 0
        self.n_level_shifts = 0
        self.n_outliers = 0

    def _replay(self) -> None:
        """Rebuild the base predictor from the current clean history.

        The newest sample cannot be judged by the outlier rule yet (it
        may be the start of a level shift).  If it deviates from the
        history median beyond the outlier threshold it is *quarantined*:
        kept in the history for future shift/outlier decisions, but not
        fed to the base predictor until the next sample disambiguates
        it.  This keeps one isolated outlier from polluting exactly one
        forecast.
        """
        feed = self._history
        if self.harden and len(feed) >= 3:
            last = feed[-1]
            med = median(feed)
            if relative_difference(last, med) > self._config.outlier_threshold:
                feed = feed[:-1]
        self._base = self._factory()
        # Plain loop, not update_many: the base is freshly built and the
        # feed already validated, so the batch API's copy-validate-commit
        # staging would only add a deepcopy to this per-update hot path.
        for sample in feed:
            self._base.update(sample)

    def state_dict(self) -> dict:
        return {
            "history": list(self._history),
            "count": self._count,
            "n_level_shifts": self.n_level_shifts,
            "n_outliers": self.n_outliers,
        }

    def load_state(self, state: dict) -> None:
        self._history = [float(v) for v in state["history"]]
        self._count = int(state["count"])
        self.n_level_shifts = int(state["n_level_shifts"])
        self.n_outliers = int(state["n_outliers"])
        # The base predictor is a pure function of the clean history, so
        # replaying it restores the wrapper bit-for-bit.
        self._replay()
