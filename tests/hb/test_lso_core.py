"""Parity of the one incremental LSO core against the quadratic oracle.

:class:`~repro.hb.lso_core.LsoCore` drives three consumers: the serving
predictor :class:`StreamingLso`, the analysis walk replayed over an
:class:`LsoTrajectory`, and the segmentation read from that trajectory.
On generated traces — constant, shorter than five samples, tied values
(the sorted-mirror separation test relies on strict ``<``), single
spikes, increasing and decreasing two-level shifts — and extreme
``(χ, ψ)``, each must reproduce the quadratic detectors of
:mod:`repro.hb.lso` behind :class:`LsoPredictor`: forecasts as bytes,
indices exactly, and the detection counters.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hb.evaluate import _scalar_walk, _segmentation_scalar
from repro.hb.ewma import Ewma
from repro.hb.holt_winters import HoltWinters
from repro.hb.lso import LsoConfig, detect_level_shift, detect_outliers
from repro.hb.lso_core import LsoTrajectory, _level_shift, _median, _outliers
from repro.hb.moving_average import MovingAverage
from repro.hb.streaming import StreamingLso
from repro.hb.vector_eval import vector_walk
from repro.hb.wrappers import LsoPredictor
from repro.obs import get_telemetry

class _TweakedMa(MovingAverage):
    """No array twin: the replay drives real instances of it."""

    def forecast(self):
        return super().forecast() * 1.5


BASES = {
    "1-MA": lambda: MovingAverage(1),
    "5-MA": lambda: MovingAverage(5),
    "EWMA": lambda: Ewma(0.8),
    "HW": lambda: HoltWinters(0.8, 0.2),
    "tweaked-3-MA": lambda: _TweakedMa(3),
}

LEVEL = st.floats(min_value=0.5, max_value=200.0)
THRESHOLD = st.one_of(
    st.sampled_from([1e-9, 0.01, 0.2, 0.3, 0.4, 1.0, 1e6]),
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=1e-6, max_value=100.0),
)


def _spike(level, n, at, factor):
    values = [level] * n
    if n:
        values[at % n] = level * factor
    return values


def _two_level(first, factor, n1, n2, jitter):
    values = [first] * n1 + [first * factor] * n2
    return [v * (1.0 + jitter[k % len(jitter)]) for k, v in enumerate(values)]


TRACES = st.one_of(
    st.lists(LEVEL, max_size=40),
    st.lists(st.sampled_from([8.0, 10.0, 12.5, 30.0]), max_size=40),  # ties
    st.builds(lambda v, n: [v] * n, LEVEL, st.integers(0, 30)),  # constant
    st.builds(
        _spike, LEVEL, st.integers(0, 30), st.integers(0, 29),
        st.sampled_from([0.05, 0.3, 3.0, 20.0]),
    ),
    st.builds(  # increasing (factor > 1) and decreasing two-level shifts
        _two_level, LEVEL, st.sampled_from([0.1, 0.5, 0.8, 1.25, 2.0, 10.0]),
        st.integers(0, 20), st.integers(0, 20),
        st.lists(st.floats(-0.1, 0.1), min_size=1, max_size=5),
    ),
)


def _bits(x):
    return struct.pack("<d", x)


def _counters():
    telemetry = get_telemetry()
    return (
        telemetry.counter("hb.level_shifts").value,
        telemetry.counter("hb.outliers_discarded").value,
    )


def _counted(run):
    """``run()``'s result and the detection counters it bumped."""
    before = _counters()
    result = run()
    after = _counters()
    return result, (after[0] - before[0], after[1] - before[1])


def _oracle_stream(values, factory, config, harden):
    oracle = LsoPredictor(factory, config, harden=harden)
    forecasts = []
    for value in values:
        oracle.update(value)
        forecasts.append(_bits(oracle.forecast()) if oracle.ready else None)
    return oracle, forecasts


def _core_stream(values, factory, config, harden):
    streaming = StreamingLso(factory, config, harden=harden)
    forecasts = []
    for value in values:
        streaming.update(value)
        forecasts.append(_bits(streaming.forecast()) if streaming.ready else None)
    return streaming, forecasts


def check_parity(values, config):
    array = np.asarray(values, dtype=float)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_OBS", "1")
        for factory in BASES.values():
            for harden in (True, False):
                (oracle, expected), oracle_counts = _counted(
                    lambda: _oracle_stream(values, factory, config, harden)
                )
                (streaming, got), core_counts = _counted(
                    lambda: _core_stream(values, factory, config, harden)
                )
                assert got == expected
                assert streaming.clean_history == oracle.clean_history
                assert streaming.n_level_shifts == oracle.n_level_shifts
                assert streaming.n_outliers == oracle.n_outliers
                assert core_counts == oracle_counts

                (scalar, _), scalar_counts = _counted(
                    lambda: _scalar_walk(
                        array, LsoPredictor(factory, config, harden=harden)
                    )
                )
                vector, vector_counts = _counted(
                    lambda: vector_walk(
                        array, LsoPredictor(factory, config, harden=harden)
                    )
                )
                assert vector.tobytes() == scalar.tobytes()
                assert vector_counts == scalar_counts

        (outliers, shifts), scalar_counts = _counted(
            lambda: _segmentation_scalar(array, config)
        )
        trajectory = LsoTrajectory.record(array, config)
        _, core_counts = _counted(trajectory.count)
        assert trajectory.outliers.tolist() == outliers
        assert trajectory.shifts.tolist() == shifts
        assert core_counts == scalar_counts


@given(
    values=TRACES,
    config=st.builds(LsoConfig, THRESHOLD, THRESHOLD),
)
@example(values=[], config=LsoConfig())
@example(values=[5.0, 50.0, 5.0, 5.0], config=LsoConfig())  # n < 5
@example(values=[7.0] * 20, config=LsoConfig(1e-9, 1e-9))  # constant
@example(values=[10.0, 10.0, 12.5, 12.5] * 6, config=LsoConfig(0.01, 0.01))  # ties
@example(values=[10.0] * 6 + [10.0, 30.0] + [30.0] * 6, config=LsoConfig(0.3, 0.4))
@example(values=[10.0] * 8 + [90.0] + [10.0] * 8, config=LsoConfig())  # spike
@example(values=[10.0] * 8 + [25.0] * 8, config=LsoConfig())  # increasing shift
@example(values=[25.0] * 8 + [10.0] * 8, config=LsoConfig())  # decreasing shift
@example(values=[10.0] * 8 + [25.0] * 8, config=LsoConfig(1e6, 1e6))  # extreme
@example(values=[10.0] * 6 + [12.5] * 6, config=LsoConfig(0.2, 0.4))  # range near χ
@settings(max_examples=150, deadline=None)
def test_core_consumers_match_the_oracle(values, config):
    check_parity(values, config)


@given(
    history=st.one_of(
        st.lists(LEVEL, min_size=5, max_size=30),
        st.lists(st.sampled_from([1.0, 3.0, 5.0, 9.0, 9.5]), min_size=5, max_size=30),
    ),
    chi=THRESHOLD,
    psi=THRESHOLD,
)
@example(history=[1.0, 1.0, 5.0, 5.0, 9.0, 9.0, 9.0], chi=1.0, psi=1.0)  # equal gaps
@example(history=[10.0, 10.0, 10.0, 12.5, 12.5, 12.5], chi=0.2, psi=1.0)
@settings(max_examples=300, deadline=None)
def test_detector_scans_match_the_oracle_on_any_history(history, chi, psi):
    """The scans themselves, on histories the incremental pass may never
    hold (e.g. a separable split it would have cut earlier)."""
    config = LsoConfig(chi, psi)
    ordered = sorted(history)
    assert _level_shift(history, ordered, chi) == detect_level_shift(history, config)
    med = _median(ordered, 0, len(ordered))
    assert _outliers(history, med, psi) == detect_outliers(history, config)
