"""The combined FB predictor (paper Eq. (3))."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, PredictionError
from repro.formulas.fb_predictor import (
    MODEL_VARIANTS,
    FormulaBasedPredictor,
    estimate_rto,
)
from repro.formulas.params import PathEstimates, TcpParameters
from repro.formulas.pftk import pftk_throughput


class TestEstimateRto:
    def test_floor_at_one_second(self):
        assert estimate_rto(0.05) == 1.0

    def test_twice_srtt_above_floor(self):
        assert estimate_rto(0.8) == pytest.approx(1.6)

    def test_rejects_bad_rtt(self):
        with pytest.raises(ValueError):
            estimate_rto(0.0)


class TestPathEstimates:
    def test_lossless_flag(self):
        assert PathEstimates(rtt_s=0.1, loss_rate=0.0, availbw_mbps=5.0).lossless
        assert not PathEstimates(rtt_s=0.1, loss_rate=0.01).lossless

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PathEstimates(rtt_s=0.0, loss_rate=0.0)
        with pytest.raises(ConfigurationError):
            PathEstimates(rtt_s=0.1, loss_rate=1.0)
        with pytest.raises(ConfigurationError):
            PathEstimates(rtt_s=0.1, loss_rate=0.0, availbw_mbps=-1.0)


class TestTcpParameters:
    def test_paper_presets(self):
        assert TcpParameters.congestion_limited().max_window_bytes == 1_000_000
        assert TcpParameters.window_limited().max_window_bytes == 20_000

    def test_window_segments(self):
        tcp = TcpParameters(mss_bytes=1000, max_window_bytes=20_000)
        assert tcp.max_window_segments == 20.0

    def test_window_smaller_than_mss_rejected(self):
        with pytest.raises(ConfigurationError):
            TcpParameters(mss_bytes=1460, max_window_bytes=1000)


class TestFbPredictor:
    def test_lossy_path_uses_pftk(self):
        fb = FormulaBasedPredictor()
        estimates = PathEstimates(rtt_s=0.1, loss_rate=0.01)
        expected = pftk_throughput(0.1, 0.01, estimate_rto(0.1), fb.tcp)
        assert fb.predict(estimates) == pytest.approx(expected)

    def test_lossless_path_uses_availbw(self):
        fb = FormulaBasedPredictor()
        estimates = PathEstimates(rtt_s=0.1, loss_rate=0.0, availbw_mbps=7.0)
        assert fb.predict(estimates) == 7.0

    def test_lossless_without_availbw_rejected(self):
        fb = FormulaBasedPredictor()
        with pytest.raises(PredictionError):
            fb.predict(PathEstimates(rtt_s=0.1, loss_rate=0.0))

    def test_window_cap_on_lossless(self):
        fb = FormulaBasedPredictor(tcp=TcpParameters.window_limited())
        estimates = PathEstimates(rtt_s=0.05, loss_rate=0.0, availbw_mbps=50.0)
        assert fb.predict(estimates) == pytest.approx(3.2)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            FormulaBasedPredictor(model="nonsense")

    @pytest.mark.parametrize("model", sorted(MODEL_VARIANTS))
    def test_all_variants_predict_positive(self, model):
        fb = FormulaBasedPredictor(model=model)
        assert fb.predict_from(rtt_s=0.1, loss_rate=0.01) > 0

    def test_predict_from_convenience(self):
        fb = FormulaBasedPredictor()
        direct = fb.predict(PathEstimates(rtt_s=0.1, loss_rate=0.02))
        assert fb.predict_from(0.1, 0.02) == direct

    @given(
        st.floats(min_value=5e-3, max_value=0.5),
        st.floats(min_value=1e-5, max_value=0.2),
    )
    @settings(max_examples=50)
    def test_never_exceeds_window_limit(self, rtt, loss):
        tcp = TcpParameters.congestion_limited()
        fb = FormulaBasedPredictor(tcp=tcp)
        limit = tcp.max_window_bytes * 8 / rtt / 1e6
        assert fb.predict_from(rtt, loss) <= limit * 1.0001

    def test_mathis_variant_respects_window(self):
        fb = FormulaBasedPredictor(
            tcp=TcpParameters(max_window_bytes=20_000), model="mathis"
        )
        limit = 20_000 * 8 / 0.1 / 1e6
        assert fb.predict_from(0.1, 1e-6) <= limit * 1.0001


# ---------------------------------------------------------------------
# predict_array: the array pass must equal predict() element by element
# ---------------------------------------------------------------------

_PRESETS = {
    "congestion_limited": TcpParameters.congestion_limited(),
    "window_limited": TcpParameters.window_limited(),
}

#: One epoch's a priori estimates: (rtt_s, loss_rate, availbw_mbps);
#: a third of them lossless, as in the campaign datasets.
_epochs = st.tuples(
    st.floats(min_value=1e-4, max_value=5.0),
    st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=0.99)),
    st.floats(min_value=1e-3, max_value=1e4),
)


def _scalar(fb: FormulaBasedPredictor, epochs) -> np.ndarray:
    return np.asarray(
        [fb.predict(PathEstimates(rtt, loss, availbw)) for rtt, loss, availbw in epochs],
        dtype=float,
    )


class TestPredictArray:
    @given(
        st.lists(_epochs, min_size=1, max_size=40),
        st.sampled_from(sorted(_PRESETS)),
    )
    @example(epochs=[(0.5, 0.0, 1.0)], preset="window_limited")
    @example(epochs=[(0.05, 0.01, 3.0), (0.05, 0.0, 3.0)], preset="congestion_limited")
    @example(epochs=[(2.0, 0.5, 1.0)], preset="congestion_limited")  # RTO above 1 s
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_scalar(self, epochs, preset):
        fb = FormulaBasedPredictor(tcp=_PRESETS[preset])
        rtt, loss, availbw = (np.asarray(column) for column in zip(*epochs))
        vector = fb.predict_array(rtt, loss, availbw)
        assert vector.tobytes() == _scalar(fb, epochs).tobytes()

    @pytest.mark.parametrize("model", sorted(MODEL_VARIANTS))
    def test_every_model_variant_bit_identical(self, model):
        fb = FormulaBasedPredictor(model=model)
        epochs = [(0.02, 0.001, 40.0), (0.3, 0.0, 2.0), (0.7, 0.08, 1.0)]
        rtt, loss, availbw = (np.asarray(column) for column in zip(*epochs))
        assert fb.predict_array(rtt, loss, availbw).tobytes() == _scalar(fb, epochs).tobytes()

    def test_lossless_without_availbw_is_the_scalar_error(self):
        fb = FormulaBasedPredictor()
        with pytest.raises(PredictionError) as scalar:
            fb.predict(PathEstimates(rtt_s=0.1, loss_rate=0.0))
        for availbw in (None, np.array([4.0, np.nan])):
            with pytest.raises(PredictionError) as vector:
                fb.predict_array(np.array([0.1, 0.1]), np.array([0.01, 0.0]), availbw)
            assert str(vector.value) == str(scalar.value)

    def test_missing_availbw_is_fine_on_lossy_epochs(self):
        fb = FormulaBasedPredictor()
        predicted = fb.predict_array(np.array([0.1]), np.array([0.01]))
        assert predicted[0] == fb.predict(PathEstimates(rtt_s=0.1, loss_rate=0.01))

    @pytest.mark.parametrize(
        "rtt, loss, availbw",
        [(0.0, 0.01, 1.0), (0.1, 1.0, 1.0), (0.1, -0.1, 1.0), (0.1, 0.0, -2.0)],
    )
    def test_invalid_estimates_rejected_like_path_estimates(self, rtt, loss, availbw):
        with pytest.raises(ConfigurationError) as scalar:
            PathEstimates(rtt, loss, availbw)
        with pytest.raises(ConfigurationError) as vector:
            FormulaBasedPredictor().predict_array(
                np.array([0.1, rtt]), np.array([0.01, loss]), np.array([1.0, availbw])
            )
        assert str(vector.value) == str(scalar.value)
