"""Measurement records: epochs, traces, datasets.

An :class:`EpochMeasurement` carries exactly what one epoch of the
paper's methodology produces (Fig. 1): the a priori estimates
(``ahat/phat/that``), the actual transfer throughput ``R``, the
during-flow probe estimates (``ptilde/ttilde``), the companion
small-window transfer, and optional sub-duration throughputs for the
second (March 2006) measurement set.

``truth`` holds the hidden simulator state (true utilization, the loss
rate the flow experienced).  It exists for diagnostics and tests; the
predictors never read it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import DataError
from repro.core.timeseries import TimeSeries


@dataclass(frozen=True)
class EpochTruth:
    """Hidden per-epoch simulator state (diagnostics only).

    Attributes:
        utilization_pre: true bottleneck utilization before the transfer.
        utilization_during: true utilization during it (cross traffic
            only, excluding the target flow).
        loss_event_rate: the congestion-event rate the flow experienced.
        regime: 'window', 'loss', or 'congestion' — which constraint
            bound the transfer.
        outlier: whether the epoch carried an injected transient burst.
    """

    utilization_pre: float
    utilization_during: float
    loss_event_rate: float
    regime: str
    outlier: bool


@dataclass(frozen=True)
class EpochMeasurement:
    """One measurement epoch (paper Fig. 1).

    All throughputs are Mbps, times are seconds, loss rates are
    fractions.

    Attributes:
        path_id: which path this epoch belongs to.
        trace_index: which trace on the path (0-based).
        epoch_index: position within the trace (0-based).
        start_time_s: absolute (simulated) epoch start time.
        ahat_mbps: a priori avail-bw estimate (pathload).
        phat: a priori loss rate estimate (ping, 600 probes).
        that_s: a priori RTT estimate (ping).
        throughput_mbps: the target transfer's actual throughput ``R``.
        ptilde: loss rate measured by ping during the transfer.
        ttilde_s: RTT measured by ping during the transfer.
        smallw_throughput_mbps: throughput of the companion W=20 KB
            transfer, or None when not run.
        duration_throughputs_mbps: cumulative throughput after each
            requested checkpoint (the 2006 set's 30/60/120 s cuts).
        truth: hidden simulator state (never used by predictors).
    """

    path_id: str
    trace_index: int
    epoch_index: int
    start_time_s: float
    ahat_mbps: float
    phat: float
    that_s: float
    throughput_mbps: float
    ptilde: float
    ttilde_s: float
    smallw_throughput_mbps: float | None = None
    duration_throughputs_mbps: tuple[float, ...] = ()
    truth: EpochTruth | None = None

    def __post_init__(self) -> None:
        if self.throughput_mbps <= 0:
            raise DataError(
                f"epoch throughput must be positive, got {self.throughput_mbps}"
            )
        if not 0.0 <= self.phat < 1.0 or not 0.0 <= self.ptilde < 1.0:
            raise DataError("loss rates must lie in [0, 1)")

    @property
    def lossless(self) -> bool:
        """True when the a priori probing saw no losses (``phat == 0``)."""
        return self.phat == 0.0


@dataclass
class Trace:
    """One trace: consecutive epochs on one path (the paper's 150)."""

    path_id: str
    trace_index: int
    epochs: list[EpochMeasurement] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.epochs)

    def __iter__(self) -> Iterator[EpochMeasurement]:
        return iter(self.epochs)

    def append(self, epoch: EpochMeasurement) -> None:
        """Add an epoch, validating its identity fields."""
        if epoch.path_id != self.path_id or epoch.trace_index != self.trace_index:
            raise DataError(
                f"epoch ({epoch.path_id}, {epoch.trace_index}) does not belong "
                f"to trace ({self.path_id}, {self.trace_index})"
            )
        self.epochs.append(epoch)

    def throughput_series(self, small_window: bool = False) -> TimeSeries:
        """The trace's throughput time series (for HB prediction).

        Args:
            small_window: use the companion W=20 KB transfers instead of
                the main transfers.

        Raises:
            DataError: if ``small_window`` is requested but the trace has
                no small-window measurements.
        """
        times = [e.start_time_s for e in self.epochs]
        if small_window:
            values = []
            for e in self.epochs:
                if e.smallw_throughput_mbps is None:
                    raise DataError(
                        f"trace ({self.path_id}, {self.trace_index}) has no "
                        "small-window measurements"
                    )
                values.append(e.smallw_throughput_mbps)
        else:
            values = [e.throughput_mbps for e in self.epochs]
        name = f"{self.path_id}/t{self.trace_index}" + ("/W20K" if small_window else "")
        return TimeSeries(times, values, name=name)


@dataclass
class Dataset:
    """A full measurement campaign: traces across paths.

    Attributes:
        label: dataset name (e.g. "may-2004").
        traces: all collected traces.
        memo: quantities the analysis layer derived from this dataset
            (see :mod:`repro.analysis.memo`); never compared, printed,
            or passed to the constructor.
    """

    label: str
    traces: list[Trace] = field(default_factory=list)
    memo: object | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    @property
    def path_ids(self) -> list[str]:
        """Distinct path ids, in first-appearance order."""
        seen: dict[str, None] = {}
        for trace in self.traces:
            seen.setdefault(trace.path_id, None)
        return list(seen)

    def traces_for(self, path_id: str) -> list[Trace]:
        """All traces collected on one path."""
        return [t for t in self.traces if t.path_id == path_id]

    def epochs(self, path_id: str | None = None) -> list[EpochMeasurement]:
        """All epochs, optionally restricted to one path."""
        return [
            e
            for t in self.traces
            if path_id is None or t.path_id == path_id
            for e in t
        ]

    def throughputs(self) -> np.ndarray:
        """All transfer throughputs as one array (Mbps)."""
        return np.asarray([e.throughput_mbps for e in self.epochs()])

    def extend(self, traces: Iterable[Trace]) -> None:
        """Append traces from another run."""
        self.traces.extend(traces)

    def summary(self) -> str:
        """One-line description of the dataset's size."""
        n_epochs = sum(len(t) for t in self.traces)
        return (
            f"Dataset {self.label!r}: {len(self.path_ids)} paths, "
            f"{len(self.traces)} traces, {n_epochs} epochs"
        )


def concat_datasets(label: str, datasets: Sequence[Dataset]) -> Dataset:
    """Merge several datasets into one (traces concatenated)."""
    merged = Dataset(label=label)
    for ds in datasets:
        merged.extend(ds.traces)
    return merged
