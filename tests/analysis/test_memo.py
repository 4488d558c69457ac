"""The per-dataset analysis memo: each quantity computed once per dataset."""

import numpy as np
import pytest

from repro.analysis import fb_eval, hb_eval, memo as memo_module
from repro.analysis.memo import AnalysisMemo, dataset_memo
from repro.formulas.fb_predictor import FormulaBasedPredictor
from repro.formulas.params import TcpParameters
from repro.hb.evaluate import evaluate_predictor
from repro.hb.lso import LsoConfig
from repro.hb.moving_average import MovingAverage
from repro.paths.records import Dataset


def _subset(dataset, n_traces):
    """A fresh Dataset object (and so a fresh memo) over some traces."""
    return Dataset(label=dataset.label, traces=dataset.traces[:n_traces])


@pytest.fixture
def walks(monkeypatch):
    """Count the HB walks the memo actually computes."""
    calls = []
    real = memo_module.evaluate_predictor

    def counting(series, factory, **kwargs):
        calls.append(series.name)
        return real(series, factory, **kwargs)

    monkeypatch.setattr(memo_module, "evaluate_predictor", counting)
    return calls


def test_memoized_figures_equal_fresh(dataset):
    subset = _subset(dataset, 4)
    family = hb_eval.ma_family((1, 10))
    memoized = hb_eval.predictor_cdfs(subset, family)
    for name, factory in family.items():
        fresh = [hb_eval.trace_rmsre(t, factory) for t in subset]
        expected = np.sort(np.asarray(fresh))
        assert memoized[name].sorted_values.tobytes() == expected.tobytes()


def test_repeat_figure_computes_nothing(dataset, walks):
    subset = _subset(dataset, 4)
    first = hb_eval.predictor_cdfs(subset, hb_eval.ma_family((1, 10)))
    assert len(walks) == 4 * 4
    again = hb_eval.predictor_cdfs(subset, hb_eval.ma_family((1, 10)))
    assert len(walks) == 4 * 4
    for name in first:
        assert first[name].sorted_values.tobytes() == again[name].sorted_values.tobytes()


def test_shared_walk_computed_once(dataset, walks):
    """Figs. 19, 20 and 23 (factor 1) all need the HW-LSO walk of each trace."""
    subset = _subset(dataset, 3)
    hb_eval.fb_vs_hb(subset)
    hb_eval.cov_correlation(subset)
    hb_eval.interval_effect(subset, downsample_factors={"3min": 1})
    assert len(walks) == len(subset.traces)


def test_excluding_outliers_matches_a_fresh_walk(dataset):
    """Fig. 20's outlier-excluded RMSRE, assembled from the shared walk
    and the shared segmentation, equals evaluate_predictor's own."""
    subset = _subset(dataset, 3)
    memo = dataset_memo(subset)
    factory = hb_eval.with_lso(hb_eval.hw())
    for trace in subset:
        fresh = evaluate_predictor(
            trace.throughput_series(), factory, lso_config=LsoConfig()
        )
        shared = memo.evaluation(trace, factory, lso_config=LsoConfig())
        assert shared.outlier_indices == fresh.outlier_indices
        assert shared.errors.tobytes() == fresh.errors.tobytes()
        assert shared.rmsre(exclude_outliers=True) == fresh.rmsre(exclude_outliers=True)


def test_unregistered_predictor_type_is_never_memoized(dataset, walks):
    class Custom(MovingAverage):
        pass

    subset = _subset(dataset, 2)
    for _ in range(2):
        hb_eval.rmsre_per_trace(subset, lambda: Custom(5))
    assert len(walks) == 2 * len(subset.traces)


def test_memo_belongs_to_one_dataset(dataset):
    a, b = _subset(dataset, 2), _subset(dataset, 2)
    assert dataset_memo(a) is dataset_memo(a)
    assert dataset_memo(a) is not dataset_memo(b)
    assert isinstance(a.memo, AnalysisMemo)
    assert a == b  # the memo is not part of a dataset's value


def test_memo_renewed_when_traces_change(dataset):
    subset = _subset(dataset, 2)
    before = dataset_memo(subset)
    assert len(fb_eval.fb_pass(subset).errors) == len(subset.epochs())
    subset.extend(dataset.traces[2:3])
    after = dataset_memo(subset)
    assert after is not before
    assert len(fb_eval.fb_pass(subset).errors) == len(subset.epochs())


def test_fb_pass_matches_predict_epoch(dataset):
    subset = _subset(dataset, 6)
    for predictor in (
        fb_eval.default_predictor(),
        FormulaBasedPredictor(tcp=TcpParameters.window_limited()),
    ):
        scalar = [fb_eval.predict_epoch(e, predictor) for e in subset.epochs()]
        result = fb_eval.fb_pass(subset, predictor)
        assert result.predicted.tobytes() == np.asarray(
            [r.predicted_mbps for r in scalar]
        ).tobytes()
        assert result.errors.tobytes() == np.asarray([r.error for r in scalar]).tobytes()


def test_fb_pass_computed_once_per_predictor(dataset, monkeypatch):
    subset = _subset(dataset, 2)
    passes = []
    real = FormulaBasedPredictor.predict_array

    def counting(self, *args, **kwargs):
        passes.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FormulaBasedPredictor, "predict_array", counting)
    fb_eval.error_cdfs(subset)
    fb_eval.per_path_percentiles(subset)
    fb_eval.throughput_vs_error(subset)
    hb_eval.fb_vs_hb(subset)
    assert passes == [fb_eval.default_predictor()]
