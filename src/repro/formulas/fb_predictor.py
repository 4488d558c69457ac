"""The combined Formula-Based predictor of the paper's Eq. (3).

::

    R_hat = | min(PFTK(T_hat, p_hat, T0_hat; M, b, W), W / T_hat)   p_hat > 0
            | min(W / T_hat, A_hat)                                 p_hat = 0

with the retransmission timeout estimated as
``T0_hat = max(1 s, 2 * SRTT)`` where SRTT is the a priori RTT.

The predictor is a small class so the model variant (paper Eq. (2),
full PFTK, revised PFTK, or Mathis) is a constructor choice and the
prediction call site stays identical across the evaluation figures.

:meth:`FormulaBasedPredictor.predict` answers one query (``repro-serve``,
``repro-predict``); :meth:`FormulaBasedPredictor.predict_array` answers a
whole dataset's epochs in one pass for the analysis figures, element for
element bit-identical to the scalar form.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ConfigurationError, PredictionError
from repro.obs import get_telemetry
from repro.formulas.availbw import availbw_prediction
from repro.formulas.mathis import mathis_throughput
from repro.formulas.params import PathEstimates, TcpParameters
from repro.formulas.pftk import (
    pftk_full_throughput,
    pftk_throughput,
    pftk_throughput_array,
)
from repro.formulas.pftk_revised import pftk_revised_throughput

#: Signature shared by the lossy-path models: (rtt_s, loss_rate, rto_s, tcp) -> Mbps.
LossyModel = Callable[[float, float, float, TcpParameters], float]

#: Minimum RTO mandated by RFC 2988 and used by the paper's T0 estimate.
MIN_RTO_S = 1.0


def estimate_rto(rtt_s: float, min_rto_s: float = MIN_RTO_S) -> float:
    """The paper's RTO estimate: ``T0_hat = max(1 s, 2 * SRTT)``."""
    if rtt_s <= 0:
        raise ValueError(f"rtt_s must be positive, got {rtt_s}")
    return max(min_rto_s, 2.0 * rtt_s)


def _mathis_adapter(
    rtt_s: float, loss_rate: float, rto_s: float, tcp: TcpParameters
) -> float:
    """Adapt the Mathis model (which has no RTO term) to the shared shape."""
    del rto_s  # the square-root model ignores timeouts
    return min(
        mathis_throughput(rtt_s, loss_rate, tcp),
        tcp.max_window_segments / rtt_s * tcp.mss_bytes * 8 / 1e6,
    )


#: Registry of lossy-path model variants selectable by name.
MODEL_VARIANTS: dict[str, LossyModel] = {
    "pftk": pftk_throughput,
    "pftk-full": pftk_full_throughput,
    "pftk-revised": pftk_revised_throughput,
    "mathis": _mathis_adapter,
}


@dataclass(frozen=True)
class FormulaBasedPredictor:
    """FB throughput predictor (paper Eq. (3)).

    Attributes:
        tcp: parameters of the transfer being predicted.
        model: which throughput model to apply on lossy paths; one of
            ``"pftk"`` (paper default), ``"pftk-full"``,
            ``"pftk-revised"``, ``"mathis"``.
    """

    tcp: TcpParameters = field(default_factory=TcpParameters)
    model: str = "pftk"

    def __post_init__(self) -> None:
        if self.model not in MODEL_VARIANTS:
            raise ConfigurationError(
                f"unknown model {self.model!r}; choose from {sorted(MODEL_VARIANTS)}"
            )

    def predict(self, estimates: PathEstimates) -> float:
        """Predicted throughput ``R_hat`` in Mbps from a priori estimates.

        Raises:
            PredictionError: on a lossless path with no avail-bw estimate.
        """
        window_limit = (
            self.tcp.max_window_bytes * 8 / estimates.rtt_s / 1e6
        )
        if estimates.lossless:
            if estimates.availbw_mbps is None:
                raise PredictionError(
                    "path measured lossless but no avail-bw estimate available"
                )
            get_telemetry().counter("fb.model_selected", model="availbw").inc()
            return availbw_prediction(
                estimates.rtt_s, estimates.availbw_mbps, self.tcp
            )
        model_fn = MODEL_VARIANTS[self.model]
        get_telemetry().counter("fb.model_selected", model=self.model).inc()
        rto = estimate_rto(estimates.rtt_s)
        modeled = model_fn(estimates.rtt_s, estimates.loss_rate, rto, self.tcp)
        return min(modeled, window_limit)

    def predict_array(self, rtt_s, loss_rate, availbw_mbps=None) -> np.ndarray:
        """:meth:`predict` over arrays of estimates, bit-identical element
        for element (the paper's PFTK model via :func:`pftk_throughput_array`;
        other models call their scalar form per lossy element).

        ``availbw_mbps`` may be ``None`` or hold NaN for "no estimate".
        Bad input raises what :class:`PathEstimates` or :meth:`predict`
        would for the first offending element, before any
        ``fb.model_selected`` count moves; a pass bumps each by its count.
        A subclass that overrides :meth:`predict` must override this too.
        """
        rtt, loss, availbw = np.broadcast_arrays(
            np.asarray(rtt_s, dtype=float),
            np.asarray(loss_rate, dtype=float),
            np.asarray(np.nan if availbw_mbps is None else availbw_mbps, dtype=float),
        )
        for values, bad, problem in (
            (rtt, rtt <= 0, "rtt_s must be positive"),
            (loss, ~((loss >= 0.0) & (loss < 1.0)), "loss_rate must be in [0, 1)"),
            (availbw, availbw <= 0, "availbw_mbps must be positive when given"),
        ):
            if bad.any():
                raise ConfigurationError(f"{problem}, got {float(values[bad][0])}")
        lossless = loss == 0.0
        if np.isnan(availbw[lossless]).any():
            raise PredictionError(
                "path measured lossless but no avail-bw estimate available"
            )
        window_limit = self.tcp.max_window_bytes * 8 / rtt / 1e6
        predicted = np.minimum(window_limit, availbw)
        lossy = ~lossless
        rtt_lossy, loss_lossy = rtt[lossy], loss[lossy]
        rto = np.maximum(MIN_RTO_S, 2.0 * rtt_lossy)
        if self.model == "pftk":
            modeled = pftk_throughput_array(rtt_lossy, loss_lossy, rto, self.tcp)
        else:
            model_fn = MODEL_VARIANTS[self.model]
            modeled = np.array(
                [
                    model_fn(r, p, t0, self.tcp)
                    for r, p, t0 in zip(rtt_lossy.tolist(), loss_lossy.tolist(), rto.tolist())
                ],
                dtype=float,
            )
        predicted[lossy] = np.minimum(modeled, window_limit[lossy])
        for model, count in (("availbw", lossless.sum()), (self.model, lossy.sum())):
            if count:
                get_telemetry().counter("fb.model_selected", model=model).inc(int(count))
        return predicted

    def predict_from(
        self,
        rtt_s: float,
        loss_rate: float,
        availbw_mbps: float | None = None,
    ) -> float:
        """Convenience wrapper building :class:`PathEstimates` inline."""
        return self.predict(
            PathEstimates(rtt_s=rtt_s, loss_rate=loss_rate, availbw_mbps=availbw_mbps)
        )
