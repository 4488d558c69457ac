"""Formula-Based prediction accuracy: the analysis behind Figs. 2-14.

Every function here evaluates the FB predictor of Eq. (3) (or a variant)
over a dataset and aggregates the relative errors (Eq. 4) the way the
corresponding figure does.

The predictions come from the dataset's memo
(:func:`repro.analysis.memo.dataset_memo`): one
:meth:`~repro.formulas.fb_predictor.FormulaBasedPredictor.predict_array`
pass per distinct predictor over every epoch, shared by all figures and
bit-identical to :func:`predict_epoch` epoch by epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.memo import FbPass, dataset_memo
from repro.core.errors import DataError
from repro.core.metrics import (
    Cdf,
    pearson_correlation,
    relative_error,
    relative_errors,
    rmsre,
)
from repro.formulas.fb_predictor import FormulaBasedPredictor
from repro.formulas.params import TcpParameters
from repro.hb.moving_average import MovingAverage
from repro.paths.records import Dataset, EpochMeasurement


@dataclass(frozen=True)
class FbEpochResult:
    """FB prediction outcome for one epoch."""

    epoch: EpochMeasurement
    predicted_mbps: float
    error: float

    @property
    def lossy(self) -> bool:
        """True when the prediction used the PFTK branch (``phat > 0``)."""
        return not self.epoch.lossless


def predict_epoch(
    epoch: EpochMeasurement, predictor: FormulaBasedPredictor
) -> FbEpochResult:
    """Apply the FB predictor to one epoch's a priori measurements."""
    predicted = predictor.predict_from(epoch.that_s, epoch.phat, epoch.ahat_mbps)
    return FbEpochResult(
        epoch=epoch,
        predicted_mbps=predicted,
        error=relative_error(predicted, epoch.throughput_mbps),
    )


def default_predictor() -> FormulaBasedPredictor:
    """The paper's FB predictor: PFTK with the congestion-limited window."""
    return FormulaBasedPredictor(tcp=TcpParameters.congestion_limited())


def fb_pass(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> FbPass:
    """Predictions and errors of ``predictor`` for every epoch, as
    arrays in ``dataset.epochs()`` order — computed once per dataset."""
    return dataset_memo(dataset).fb(predictor or default_predictor())


def evaluate(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> list[FbEpochResult]:
    """FB predictions for every epoch of the dataset."""
    result = fb_pass(dataset, predictor)
    return [
        FbEpochResult(epoch=epoch, predicted_mbps=predicted, error=error)
        for epoch, predicted, error in zip(
            dataset.epochs(), result.predicted.tolist(), result.errors.tolist()
        )
    ]


# ----------------------------------------------------------------------
# Fig. 2 — CDF of E for all / lossy / lossless predictions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorCdfs:
    """The three error CDFs of Fig. 2."""

    all: Cdf
    lossy: Cdf
    lossless: Cdf

    def summary(self) -> str:
        lines = [
            self.all.summary(),
            self.lossy.summary(),
            self.lossless.summary(),
            f"overestimation fraction: {self.all.fraction_above(0.0):.2f}",
            f"P(E >= 1):  {self.all.fraction_above(1.0 - 1e-12):.2f}",
            f"P(E >= 9):  {self.all.fraction_above(9.0 - 1e-12):.2f}",
            f"P(E <= -1): {self.all.fraction_below(-1.0):.2f}",
        ]
        return "\n".join(lines)


def error_cdfs(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ErrorCdfs:
    """Fig. 2: the error CDFs for all, lossy, and lossless predictions."""
    errors = fb_pass(dataset, predictor).errors
    if not errors.size:
        raise DataError("dataset has no epochs")
    is_lossy = dataset_memo(dataset).columns.phat != 0.0
    lossy = errors[is_lossy]
    lossless = errors[~is_lossy]
    if not lossy.size or not lossless.size:
        raise DataError("dataset lacks lossy or lossless predictions")
    return ErrorCdfs(
        all=Cdf.from_values(errors, label="all predictions"),
        lossy=Cdf.from_values(lossy, label="lossy paths (PFTK)"),
        lossless=Cdf.from_values(lossless, label="lossless paths (avail-bw)"),
    )


# ----------------------------------------------------------------------
# Figs. 3-5 — RTT / loss rate increase during the target flow
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IncreaseCdfs:
    """Fig. 3: absolute increases; Figs. 4-5: relative increases."""

    rtt_absolute_s: Cdf
    loss_absolute: Cdf
    rtt_relative: Cdf
    loss_relative: Cdf
    mean_rtt_ratio: float
    mean_loss_ratio: float

    def summary(self) -> str:
        return "\n".join(
            [
                self.rtt_absolute_s.summary(),
                self.loss_absolute.summary(),
                self.rtt_relative.summary(),
                self.loss_relative.summary(),
                f"mean RTT ratio during/before: {self.mean_rtt_ratio:.2f}",
                f"mean loss ratio during/before: {self.mean_loss_ratio:.2f}",
            ]
        )


def increase_cdfs(dataset: Dataset) -> IncreaseCdfs:
    """Figs. 3-5: how much RTT and loss rose once the flow started.

    Relative loss increases are computed only over epochs that were lossy
    even before the transfer (``phat > 0``), as in the paper.
    """
    columns = dataset_memo(dataset).columns
    if not columns.that_s.size:
        raise DataError("dataset has no epochs")
    rtt_abs = columns.ttilde_s - columns.that_s
    loss_abs = columns.ptilde - columns.phat
    rtt_rel = rtt_abs / columns.that_s
    lossy = columns.phat > 0
    if not lossy.any():
        raise DataError("no lossy epochs for relative loss increase")
    phat, ptilde = columns.phat[lossy], columns.ptilde[lossy]
    loss_rel = (ptilde - phat) / phat
    rtt_ratios = columns.ttilde_s / columns.that_s
    loss_ratios = ptilde / phat
    return IncreaseCdfs(
        rtt_absolute_s=Cdf.from_values(rtt_abs, label="RTT increase (s)"),
        loss_absolute=Cdf.from_values(loss_abs, label="loss increase"),
        rtt_relative=Cdf.from_values(rtt_rel, label="relative RTT increase"),
        loss_relative=Cdf.from_values(loss_rel, label="relative loss increase"),
        mean_rtt_ratio=float(np.mean(rtt_ratios)),
        mean_loss_ratio=float(np.mean(loss_ratios)),
    )


# ----------------------------------------------------------------------
# Fig. 6 — prediction using during-flow (T~, p~) instead of (T^, p^)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DuringFlowComparison:
    """Fig. 6: error CDFs with a priori vs during-flow inputs."""

    with_prior: Cdf
    with_during: Cdf

    def summary(self) -> str:
        return "\n".join(
            [
                self.with_prior.summary(),
                self.with_during.summary(),
                "during-flow |E| median: "
                f"{np.median(np.abs(self.with_during.sorted_values)):.2f} vs "
                f"prior {np.median(np.abs(self.with_prior.sorted_values)):.2f}",
            ]
        )


def during_flow_prediction(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> DuringFlowComparison:
    """Fig. 6: how much better FB would be with during-flow estimates.

    Restricted to epochs that are lossy both before and during the flow,
    as the figure is.
    """
    predictor = predictor or default_predictor()
    columns = dataset_memo(dataset).columns
    both = (columns.phat > 0) & (columns.ptilde > 0)
    if not both.any():
        raise DataError("no epochs lossy both before and during the flow")
    prior_errors = fb_pass(dataset, predictor).errors[both]
    during = predictor.predict_array(
        columns.ttilde_s[both], columns.ptilde[both], columns.ahat_mbps[both]
    )
    during_errors = relative_errors(during, columns.throughput_mbps[both])
    return DuringFlowComparison(
        with_prior=Cdf.from_values(prior_errors, label="using (T^, p^)"),
        with_during=Cdf.from_values(during_errors, label="using (T~, p~)"),
    )


# ----------------------------------------------------------------------
# Fig. 7 — per-path error percentiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PathErrorSummary:
    """Per-path error percentiles (one bar of Fig. 7)."""

    path_id: str
    median: float
    p10: float
    p90: float
    n: int


def per_path_percentiles(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> list[PathErrorSummary]:
    """Fig. 7: median and 10/90th percentiles of E per path."""
    all_errors = fb_pass(dataset, predictor).errors
    memo = dataset_memo(dataset)
    summaries = []
    for path_id in dataset.path_ids:
        arr = all_errors[memo.path_indices(path_id)]
        if not arr.size:
            continue
        summaries.append(
            PathErrorSummary(
                path_id=path_id,
                median=float(np.median(arr)),
                p10=float(np.quantile(arr, 0.10)),
                p90=float(np.quantile(arr, 0.90)),
                n=int(arr.size),
            )
        )
    return summaries


# ----------------------------------------------------------------------
# Figs. 8-10 — scatter relations of E with R, p^, T^
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScatterRelation:
    """A scatter of E against a covariate, with the paper's statistics."""

    x: np.ndarray
    errors: np.ndarray
    x_label: str

    def correlation(self) -> float:
        """Pearson correlation between the covariate and E."""
        return pearson_correlation(self.x, self.errors)

    def fraction_large_error(
        self, x_threshold: float, error_threshold: float = 10.0, below: bool = True
    ) -> float:
        """P(E > error_threshold) among samples with x below/above a cut.

        Fig. 8's headline: 42% of samples with R <= 0.5 Mbps have E > 10.
        """
        mask = self.x <= x_threshold if below else self.x > x_threshold
        if not mask.any():
            raise DataError(f"no samples with {self.x_label} on that side")
        return float((self.errors[mask] > error_threshold).mean())


def throughput_vs_error(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ScatterRelation:
    """Fig. 8: actual throughput versus prediction error."""
    errors = fb_pass(dataset, predictor).errors
    return ScatterRelation(
        x=dataset_memo(dataset).columns.throughput_mbps,
        errors=errors,
        x_label="R (Mbps)",
    )


def loss_vs_error(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ScatterRelation:
    """Fig. 9: a priori loss rate versus error (lossy epochs only)."""
    errors = fb_pass(dataset, predictor).errors
    phat = dataset_memo(dataset).columns.phat
    lossy = phat != 0.0
    if not lossy.any():
        raise DataError("no lossy epochs")
    return ScatterRelation(x=phat[lossy], errors=errors[lossy], x_label="p^")


def rtt_vs_error(
    dataset: Dataset, predictor: FormulaBasedPredictor | None = None
) -> ScatterRelation:
    """Fig. 10: a priori RTT versus error."""
    errors = fb_pass(dataset, predictor).errors
    return ScatterRelation(
        x=dataset_memo(dataset).columns.that_s, errors=errors, x_label="T^ (s)"
    )


# ----------------------------------------------------------------------
# Section 4.2.4 — drill-down into the worst paths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorstPathsAnalysis:
    """The paper's analysis of its 10 highest-median-error paths.

    Attributes:
        worst_path_ids: paths ranked by median error, worst first.
        lossy_fraction_worst: share of PFTK-based (lossy) predictions on
            those paths (the paper: 77%).
        lossy_fraction_all: the same share across all paths (paper: 56%).
        mean_loss_ratio_worst: during/before loss ratio on the worst
            paths — the paper observes the loss rate "increases
            significantly after the target flow starts" there.
        mean_rtt_ratio_worst: during/before RTT ratio on the worst paths
            — the paper observes no significant RTT increase.
    """

    worst_path_ids: tuple[str, ...]
    lossy_fraction_worst: float
    lossy_fraction_all: float
    mean_loss_ratio_worst: float
    mean_rtt_ratio_worst: float

    def summary(self) -> str:
        return (
            f"worst paths: {list(self.worst_path_ids)}\n"
            f"lossy-prediction share: {self.lossy_fraction_worst:.2f} on worst "
            f"paths vs {self.lossy_fraction_all:.2f} overall (paper: 0.77 vs 0.56)\n"
            f"on worst paths, during/before ratios: loss x"
            f"{self.mean_loss_ratio_worst:.1f}, RTT x{self.mean_rtt_ratio_worst:.2f}"
        )


def worst_paths_analysis(
    dataset: Dataset,
    n_worst: int = 10,
    predictor: FormulaBasedPredictor | None = None,
) -> WorstPathsAnalysis:
    """Section 4.2.4: what distinguishes the worst-predicted paths.

    The paper's finding: the largest errors come from paths that were
    congested *before* the target transfer — their predictions are
    disproportionately PFTK-based, and the loss rate (not the RTT)
    climbs once the flow starts.
    """
    summaries = per_path_percentiles(dataset, predictor)
    if len(summaries) < n_worst:
        raise DataError(f"need at least {n_worst} paths, have {len(summaries)}")
    ranked = sorted(summaries, key=lambda s: -s.median)
    worst_ids = tuple(s.path_id for s in ranked[:n_worst])

    all_epochs = dataset.epochs()
    worst_epochs = [e for e in all_epochs if e.path_id in worst_ids]
    lossy_worst = [e for e in worst_epochs if e.phat > 0]
    loss_ratios = [e.ptilde / e.phat for e in lossy_worst]
    rtt_ratios = [e.ttilde_s / e.that_s for e in worst_epochs]
    return WorstPathsAnalysis(
        worst_path_ids=worst_ids,
        lossy_fraction_worst=len(lossy_worst) / len(worst_epochs),
        lossy_fraction_all=sum(e.phat > 0 for e in all_epochs) / len(all_epochs),
        mean_loss_ratio_worst=float(np.mean(loss_ratios)) if loss_ratios else 1.0,
        mean_rtt_ratio_worst=float(np.mean(rtt_ratios)),
    )


# ----------------------------------------------------------------------
# Fig. 11 — prediction accuracy for different transfer lengths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DurationEffect:
    """Fig. 11: error CDFs for each transfer-duration cut."""

    cdfs: dict[str, Cdf] = field(default_factory=dict)

    def summary(self) -> str:
        return "\n".join(cdf.summary() for cdf in self.cdfs.values())


def duration_effect(
    dataset: Dataset,
    cut_labels: tuple[str, ...] = ("30s", "60s", "120s"),
    predictor: FormulaBasedPredictor | None = None,
) -> DurationEffect:
    """Fig. 11: FB error against the first 30/60/120 s of each transfer.

    Requires a dataset collected with checkpoint fractions (the March
    2006 campaign settings).
    """
    epochs = dataset.epochs()
    cut = [
        k
        for k, epoch in enumerate(epochs)
        if len(epoch.duration_throughputs_mbps) == len(cut_labels)
    ]
    if not cut or not cut_labels:
        raise DataError("dataset has no duration checkpoints (need the 2006 set)")
    predicted = fb_pass(dataset, predictor).predicted[cut]
    actual = np.array([epochs[k].duration_throughputs_mbps for k in cut])
    return DurationEffect(
        cdfs={
            label: Cdf.from_values(
                relative_errors(predicted, actual[:, j]), label=f"E at {label}"
            )
            for j, label in enumerate(cut_labels)
        }
    )


# ----------------------------------------------------------------------
# Fig. 12 — window-limited vs congestion-limited RMSRE per path
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WindowLimitedComparison:
    """One path's RMSRE under both window settings (a Fig. 12 pair)."""

    path_id: str
    rmsre_large_window: float
    rmsre_small_window: float
    window_limited: bool
    window_availbw_ratio: float


def window_limited(
    dataset: Dataset,
    large_tcp: TcpParameters | None = None,
    small_tcp: TcpParameters | None = None,
) -> list[WindowLimitedComparison]:
    """Fig. 12: FB RMSRE with W = 1 MB vs W = 20 KB, per path.

    A path counts as window-limited when the median ratio
    ``(W/T^) / A^`` across its epochs is below 1.
    """
    large_tcp = large_tcp or TcpParameters.congestion_limited()
    small_tcp = small_tcp or TcpParameters.window_limited()
    memo = dataset_memo(dataset)
    columns = memo.columns
    has_small = ~np.isnan(columns.smallw_throughput_mbps)
    if not has_small.any():
        raise DataError("dataset has no small-window measurements")
    large = fb_pass(dataset, FormulaBasedPredictor(tcp=large_tcp))
    small = fb_pass(dataset, FormulaBasedPredictor(tcp=small_tcp))

    comparisons = []
    for path_id in dataset.path_ids:
        indices = memo.path_indices(path_id)
        indices = indices[has_small[indices]]
        if not indices.size:
            continue
        small_errors = relative_errors(
            small.predicted[indices], columns.smallw_throughput_mbps[indices]
        )
        window_mbps = small_tcp.max_window_bytes * 8 / columns.that_s[indices] / 1e6
        ratio = float(np.median(window_mbps / columns.ahat_mbps[indices]))
        comparisons.append(
            WindowLimitedComparison(
                path_id=path_id,
                rmsre_large_window=rmsre(large.errors[indices]),
                rmsre_small_window=rmsre(small_errors),
                window_limited=ratio < 1.0,
                window_availbw_ratio=ratio,
            )
        )
    return comparisons


# ----------------------------------------------------------------------
# Fig. 13 — the revised PFTK model
# ----------------------------------------------------------------------


def revised_model_comparison(dataset: Dataset) -> dict[str, Cdf]:
    """Fig. 13: error CDFs of the original vs revised PFTK predictors."""
    tcp = TcpParameters.congestion_limited()
    return {
        name: Cdf.from_values(
            fb_pass(dataset, FormulaBasedPredictor(tcp=tcp, model=model)).errors,
            label=name,
        )
        for name, model in [("original PFTK", "pftk"), ("revised PFTK", "pftk-revised")]
    }


# ----------------------------------------------------------------------
# Fig. 14 — history-smoothed RTT and loss inputs
# ----------------------------------------------------------------------


def smoothed_inputs(dataset: Dataset, ma_order: int = 10) -> dict[str, Cdf]:
    """Fig. 14: FB with MA-smoothed (T^, p^) inputs vs the plain FB.

    The smoothing is a per-trace moving average over the last
    ``ma_order`` epochs' measurements, as in the paper.
    """
    predictor = default_predictor()
    plain_errors = fb_pass(dataset, predictor).errors
    smoothed_errors = []
    for trace in dataset:
        rtt_ma = MovingAverage(ma_order)
        loss_ma = MovingAverage(ma_order)
        for epoch in trace:
            if rtt_ma.ready:
                predicted = predictor.predict_from(
                    rtt_ma.forecast(), max(0.0, loss_ma.forecast()), epoch.ahat_mbps
                )
                smoothed_errors.append(
                    relative_error(predicted, epoch.throughput_mbps)
                )
            rtt_ma.update(epoch.that_s)
            loss_ma.update(epoch.phat)
    if not smoothed_errors:
        raise DataError("traces too short for smoothed inputs")
    return {
        "plain": Cdf.from_values(plain_errors, label="latest measurements"),
        "smoothed": Cdf.from_values(smoothed_errors, label=f"{ma_order}-MA smoothed"),
    }
