"""Bit-parity of the vectorized HB analysis path against the scalar oracle.

Every registered predictor family — plain and LSO-wrapped, at several
LsoConfigs — is walked over a grid of traces (noisy, spiky,
level-shifted, tiny) by both engines, and the per-epoch predictions and
errors must compare equal *as bytes*, not approximately.  The same bar
applies to the O(n) ``lso_segmentation`` rewrite and to evaluations
shared through the per-dataset analysis memo.
"""

import numpy as np
import pytest

from repro.analysis.memo import AnalysisMemo, derive_spec
from repro.core.errors import DataError
from repro.core.timeseries import TimeSeries
from repro.hb.autoregressive import AutoRegressive
from repro.hb.evaluate import evaluate_predictor, lso_segmentation
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import LsoConfig
from repro.hb.moving_average import MovingAverage
from repro.hb.vector_eval import ENV_HB_VECTOR, hb_vector_enabled, vector_walk
from repro.hb.wrappers import LsoPredictor
from repro.paths.records import Dataset, EpochMeasurement, Trace

# ---------------------------------------------------------------------
# Trace grid
# ---------------------------------------------------------------------


def _noisy(seed: int, n: int, spikes: bool = False, shifts: bool = False):
    rng = np.random.default_rng(seed)
    values = 40.0 + rng.normal(0.0, 3.0, n)
    if shifts:
        values[n // 3 :] *= 1.8
        values[2 * n // 3 :] *= 0.45
    if spikes:
        values[::29] *= 2.6
    return np.abs(values) + 0.5


TRACES = {
    "noisy": _noisy(1, 240),
    "spiky": _noisy(2, 240, spikes=True),
    "shifted": _noisy(3, 240, shifts=True),
    "adversarial": _noisy(4, 300, spikes=True, shifts=True),
    "clean-shift": np.array([10.0] * 30 + [30.0] * 30),
    "tiny1": np.array([5.0]),
    "tiny2": np.array([5.0, 6.0]),
    "tiny4": np.array([5.0, 6.0, 4.0, 7.0]),
}

FACTORIES = {
    "1-MA": lambda: MovingAverage(1),
    "10-MA": lambda: MovingAverage(10),
    "20-MA": lambda: MovingAverage(20),
    "0.3-EWMA": lambda: Ewma(0.3),
    "0.8-EWMA": lambda: Ewma(0.8),
    "HW": lambda: HoltWinters(0.8, 0.2),
    "0.2-HW": lambda: HoltWinters(0.2, 0.5),
    "AR3": lambda: AutoRegressive(3),
    "AR2-short": lambda: AutoRegressive(2, max_history=16, ridge=1e-2),
}


def _lso_variants(factory):
    return {
        "lso": lambda: LsoPredictor(factory),
        "lso-soft": lambda: LsoPredictor(factory, harden=False),
        "lso-tight": lambda: LsoPredictor(factory, LsoConfig(0.2, 0.3)),
    }


def series(values, name="parity"):
    return TimeSeries.from_values(values, period=180.0, name=name)


def run_engine(monkeypatch, engine, values, factory, lso_config=None):
    monkeypatch.setenv(ENV_HB_VECTOR, "1" if engine == "vector" else "0")
    return evaluate_predictor(series(values), factory, lso_config=lso_config)


# ---------------------------------------------------------------------
# evaluate_predictor parity
# ---------------------------------------------------------------------


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("family", sorted(FACTORIES))
def test_families_bit_identical(monkeypatch, trace_name, family):
    values = TRACES[trace_name]
    factory = FACTORIES[family]
    scalar = run_engine(monkeypatch, "scalar", values, factory)
    vector = run_engine(monkeypatch, "vector", values, factory)
    assert scalar.predictions.tobytes() == vector.predictions.tobytes()
    assert scalar.errors.tobytes() == vector.errors.tobytes()


@pytest.mark.parametrize("trace_name", ["spiky", "adversarial", "clean-shift"])
@pytest.mark.parametrize("family", ["1-MA", "10-MA", "0.8-EWMA", "HW", "AR3"])
@pytest.mark.parametrize("variant", ["lso", "lso-soft", "lso-tight"])
def test_lso_wrappers_bit_identical(monkeypatch, trace_name, family, variant):
    values = TRACES[trace_name]
    factory = _lso_variants(FACTORIES[family])[variant]
    scalar = run_engine(monkeypatch, "scalar", values, factory)
    vector = run_engine(monkeypatch, "vector", values, factory)
    assert scalar.predictions.tobytes() == vector.predictions.tobytes()
    assert scalar.errors.tobytes() == vector.errors.tobytes()


def test_rmsre_bit_identical_including_outlier_exclusion(monkeypatch):
    values = TRACES["adversarial"]
    factory = _lso_variants(FACTORIES["HW"])["lso"]
    scalar = run_engine(monkeypatch, "scalar", values, factory, LsoConfig())
    vector = run_engine(monkeypatch, "vector", values, factory, LsoConfig())
    assert scalar.outlier_indices == vector.outlier_indices
    assert scalar.rmsre() == vector.rmsre()
    assert scalar.rmsre(exclude_outliers=True) == vector.rmsre(
        exclude_outliers=True
    )


def test_unregistered_predictor_falls_back_to_scalar(monkeypatch):
    class TweakedMa(MovingAverage):
        def forecast(self):
            return super().forecast() * 1.5

    values = TRACES["noisy"]
    assert vector_walk(values, TweakedMa(5)) is None
    scalar = run_engine(monkeypatch, "scalar", values, lambda: TweakedMa(5))
    vector = run_engine(monkeypatch, "vector", values, lambda: TweakedMa(5))
    assert scalar.predictions.tobytes() == vector.predictions.tobytes()


def test_kill_switch(monkeypatch):
    monkeypatch.setenv(ENV_HB_VECTOR, "0")
    assert not hb_vector_enabled()
    monkeypatch.setenv(ENV_HB_VECTOR, "1")
    assert hb_vector_enabled()
    monkeypatch.delenv(ENV_HB_VECTOR)
    assert hb_vector_enabled()


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_nonpositive_sample_named_by_epoch(monkeypatch, engine):
    values = np.array([4.0, 5.0, 6.0, -1.0, 7.0])
    with pytest.raises(DataError, match=r"epoch 3"):
        run_engine(monkeypatch, engine, values, FACTORIES["10-MA"])


# ---------------------------------------------------------------------
# lso_segmentation parity
# ---------------------------------------------------------------------


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("config", [None, LsoConfig(0.2, 0.3)])
def test_segmentation_bit_identical(monkeypatch, trace_name, config):
    values = TRACES[trace_name]
    monkeypatch.setenv(ENV_HB_VECTOR, "0")
    scalar = lso_segmentation(values, config)
    monkeypatch.setenv(ENV_HB_VECTOR, "1")
    fast = lso_segmentation(values, config)
    assert scalar.outlier_indices == fast.outlier_indices
    assert scalar.shift_indices == fast.shift_indices
    assert scalar.segments == fast.segments


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_segmentation_rejects_nonpositive(monkeypatch, engine):
    monkeypatch.setenv(ENV_HB_VECTOR, "1" if engine == "vector" else "0")
    with pytest.raises(DataError, match=r"epoch 2"):
        lso_segmentation([4.0, 5.0, 0.0, 6.0])


# ---------------------------------------------------------------------
# Evaluation memo
# ---------------------------------------------------------------------


def _dataset(*named_values):
    """A one-path dataset holding one trace per value array."""
    traces = []
    for index, values in enumerate(named_values):
        trace = Trace(path_id="p", trace_index=index)
        for k, value in enumerate(values):
            trace.append(
                EpochMeasurement(
                    path_id="p", trace_index=index, epoch_index=k,
                    start_time_s=float(k), ahat_mbps=50.0, phat=0.0,
                    that_s=0.05, throughput_mbps=float(value),
                    ptilde=0.0, ttilde_s=0.05,
                )
            )
        traces.append(trace)
    return Dataset(label="memo", traces=traces)


def test_cache_hit_is_bit_identical_to_cold_walk():
    values = TRACES["adversarial"]
    factory = _lso_variants(FACTORIES["HW"])["lso"]
    cold = evaluate_predictor(series(values), factory, lso_config=LsoConfig())
    dataset = _dataset(values)
    memo = AnalysisMemo(dataset)
    trace = dataset.traces[0]
    recorded = memo.evaluation(trace, factory, lso_config=LsoConfig())
    hit = memo.evaluation(trace, factory, lso_config=LsoConfig())
    for result in (recorded, hit):
        assert result.predictions.tobytes() == cold.predictions.tobytes()
        assert result.errors.tobytes() == cold.errors.tobytes()
        assert result.outlier_indices == cold.outlier_indices
        assert result.predictor_name == cold.predictor_name
    assert memo.evaluation(trace, factory) is memo.evaluation(trace, factory)


def test_cache_key_separates_series_spec_and_config():
    dataset = _dataset(TRACES["noisy"], TRACES["spiky"])
    memo = AnalysisMemo(dataset)
    noisy, spiky = dataset.traces
    a = memo.evaluation(noisy, FACTORIES["10-MA"])
    b = memo.evaluation(spiky, FACTORIES["10-MA"])
    c = memo.evaluation(noisy, FACTORIES["1-MA"])
    d = memo.evaluation(noisy, FACTORIES["10-MA"], downsample=2)
    assert a.predictions.tobytes() != b.predictions.tobytes()
    assert a.predictions.tobytes() != c.predictions.tobytes()
    assert len(d.predictions) < len(a.predictions)
    loose = LsoConfig(level_shift_threshold=0.9, outlier_threshold=0.9)
    strict = LsoConfig(level_shift_threshold=0.05, outlier_threshold=0.05)
    assert (
        memo.evaluation(spiky, FACTORIES["10-MA"], lso_config=loose).outlier_indices
        != memo.evaluation(spiky, FACTORIES["10-MA"], lso_config=strict).outlier_indices
    )


def _from_spec(spec):
    """Build a predictor from a spec's parts (the inverse of derive_spec)."""
    kind = spec[0]
    if kind == "ma":
        return MovingAverage(spec[1])
    if kind == "ewma":
        return Ewma(spec[1])
    if kind == "hw":
        return HoltWinters(spec[1], spec[2])
    if kind == "ar":
        return AutoRegressive(spec[1], spec[2], spec[3])
    assert kind == "lso"
    return LsoPredictor(
        lambda: _from_spec(spec[1]), LsoConfig(spec[2], spec[3]), spec[4]
    )


def test_spec_round_trip():
    """A spec names every constructor parameter: rebuilding a predictor
    from it yields the same spec — what makes it a sound memo key."""
    for factory in FACTORIES.values():
        spec = derive_spec(factory())
        assert spec is not None
        assert derive_spec(_from_spec(spec)) == spec
    wrapped = LsoPredictor(FACTORIES["HW"], LsoConfig(0.2, 0.3), harden=False)
    spec = derive_spec(wrapped)
    assert spec == ("lso", ("hw", 0.8, 0.2), 0.2, 0.3, False)
    assert derive_spec(_from_spec(spec)) == spec


def test_unknown_predictor_type_is_not_cached():
    class Custom(MovingAverage):
        pass

    assert derive_spec(Custom(5)) is None
    assert derive_spec(LsoPredictor(lambda: Custom(5))) is None
    dataset = _dataset(TRACES["noisy"])
    memo = AnalysisMemo(dataset)
    trace = dataset.traces[0]
    first = memo.evaluation(trace, lambda: Custom(5))
    second = memo.evaluation(trace, lambda: Custom(5))
    assert first is not second
    assert first.predictions.tobytes() == second.predictions.tobytes()
