"""The one incremental LSO state machine, shared by serving and analysis.

The paper's Level-Shift and Outlier heuristics (Section 5.2) decide
outliers and level shifts from the throughput series and ``(χ, ψ)``
alone; the base predictor never influences them.  :class:`LsoCore`
makes those decisions once per sample, on Python scalars, keeping the
clean history (post-shift samples, outliers removed) and a sorted
mirror of it for exact O(1) medians.  The detector scans run only when an O(1) precheck that any
detection implies fires:

* *outliers*: the deviation from the median is largest at the history
  extremes, so if neither extreme deviates beyond ``ψ`` nothing does;
* *level shifts*: a split ``k`` in ``[2, n-3]`` keeps the first two
  samples in the prefix and the last three in the suffix, so a
  separation needs ``max(first two) < min(last three)`` or the mirror
  image; and no two medians within ``[lo, hi]`` differ by more than
  ``χ`` when ``(hi - lo) / lo`` does not (rounding is monotone).

In the scan the prefix ``history[:k]`` lies below the suffix iff it
holds the ``k`` smallest samples, i.e. iff ``max(history[:k]) <
ordered[k]``, and both medians come straight from the sorted mirror;
the decreasing case mirrors it.  Strict ``<`` keeps ties out, as in the
oracle.

:class:`~repro.hb.streaming.StreamingLso` pushes each ingested sample
through a core.  Analysis records one :class:`LsoTrajectory` per
(series, config), replays each base predictor over it
(:mod:`repro.hb.vector_eval`) and reads its segmentation from it
(:func:`repro.hb.evaluate.lso_segmentation`).  The quadratic detectors
of :mod:`repro.hb.lso` and :class:`~repro.hb.wrappers.LsoPredictor`
stay the oracle all of them match bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np

from repro.core.errors import DataError
from repro.hb.lso import LsoConfig
from repro.obs import get_telemetry


def _median(ordered: list[float], start: int, stop: int) -> float:
    """``statistics.median`` of the sorted run ``ordered[start:stop]``."""
    size = stop - start
    mid = start + (size >> 1)
    if size & 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _deviates(value: float, med: float, psi: float) -> bool:
    """``relative_difference(value, med) > psi``, operation for operation."""
    return abs(value - med) / (value if value < med else med) > psi


def _outliers(history: list[float], med: float, psi: float) -> list[int]:
    """Positions the oracle's ``detect_outliers`` flags, given the median.

    An interior sample deviating from the median by more than ``ψ`` is
    an outlier unless its successor deviates in the same direction
    (a possible level shift).
    """
    deviates = [abs(x - med) / (x if x < med else med) > psi for x in history]
    flagged = []
    for k in range(len(history) - 1):
        if deviates[k] and not (
            deviates[k + 1] and (history[k] > med) == (history[k + 1] > med)
        ):
            flagged.append(k)
    return flagged


def _level_shift(history: list[float], ordered: list[float], chi: float) -> int | None:
    """The split the oracle's ``detect_level_shift`` returns (``len >= 5``).

    Widest separation gap wins; equal gaps go to the later split.
    """
    m = len(history)
    lo = ordered[0]
    if (ordered[-1] - lo) / lo <= chi:
        return None
    best_k = None
    best_gap = 0.0
    pmin = min(history[0], history[1])
    pmax = max(history[0], history[1])
    for k in range(2, m - 2):
        # pmin/pmax span history[:k].
        gap = None
        if pmax < ordered[k]:  # increasing: the prefix is the k smallest
            gap = ordered[k] - pmax
            a, b = _median(ordered, 0, k), _median(ordered, k, m)
        elif pmin > ordered[m - k - 1]:  # decreasing: the k largest
            gap = pmin - ordered[m - k - 1]
            a, b = _median(ordered, m - k, m), _median(ordered, 0, m - k)
        if (
            gap is not None
            and (best_k is None or gap >= best_gap)
            and abs(a - b) / (a if a < b else b) > chi
        ):
            best_gap = gap
            best_k = k
        x = history[k]
        if x < pmin:
            pmin = x
        elif x > pmax:
            pmax = x
    return best_k


def count_detections(n_outliers: int, n_level_shifts: int) -> None:
    """Account detections on the counters the oracle's detectors bump."""
    if n_outliers or n_level_shifts:
        telemetry = get_telemetry()
        if n_outliers:
            telemetry.counter("hb.outliers_discarded").inc(n_outliers)
        if n_level_shifts:
            telemetry.counter("hb.level_shifts").inc(n_level_shifts)


class LsoCore:
    """One series' LSO state, advanced one positive sample at a time.

    After each :meth:`push` the step is described by:

    * ``kept`` — how many leading clean-history samples the step left
      in place (``len(history) - 1`` when it only appended);
    * ``dropped`` — the positions, ascending, of the outliers it
      discarded from the history as it stood after the append;
    * ``shift`` — the position of the level shift it cut in the history
      left after that, or ``None``;
    * ``quarantined`` — the newest sample deviates from the median of
      at least three clean samples beyond ``ψ``.

    ``count`` is the number of samples pushed, and ``n_outliers`` and
    ``n_level_shifts`` tally every detection.  Telemetry is the
    consumer's job (:func:`count_detections`).
    """

    __slots__ = (
        "chi", "psi", "history", "ordered", "count", "kept", "dropped",
        "shift", "quarantined", "n_outliers", "n_level_shifts",
    )

    def __init__(self, config: LsoConfig | None = None) -> None:
        config = config or LsoConfig()
        self.chi = config.level_shift_threshold
        self.psi = config.outlier_threshold
        # load([], 0, 0, 0), spelled out: serving builds a core per new
        # (path, predictor) key.
        self.history: list[float] = []
        self.ordered: list[float] = []
        self.count = self.kept = self.n_level_shifts = self.n_outliers = 0
        self.dropped: list[int] = []
        self.shift: int | None = None
        self.quarantined = False

    def load(
        self, history: list[float], count: int, n_level_shifts: int, n_outliers: int
    ) -> None:
        """Reset to a clean history (the snapshot state of the wrappers)."""
        m = len(history)
        self.history = list(history)
        self.ordered = sorted(history)
        self.count = count
        self.kept = 0
        self.dropped = []
        self.shift = None
        self.quarantined = m >= 3 and _deviates(
            history[-1], _median(self.ordered, 0, m), self.psi
        )
        self.n_level_shifts = n_level_shifts
        self.n_outliers = n_outliers

    def push(self, value: float) -> None:
        """Absorb one sample; the caller has checked it is positive."""
        history = self.history
        ordered = self.ordered
        kept = len(history)
        history.append(value)
        self.count += 1
        insort(ordered, value)
        m = kept + 1
        psi = self.psi
        dropped: list[int] = []
        shift = None
        med = None
        if m >= 2:
            med = _median(ordered, 0, m)
            if _deviates(ordered[0], med, psi) or _deviates(ordered[-1], med, psi):
                dropped = _outliers(history, med, psi)
                if dropped:
                    kept = dropped[0]
                    for k in reversed(dropped):
                        del ordered[bisect_left(ordered, history.pop(k))]
                    m = len(history)
                    med = None
                    self.n_outliers += len(dropped)
        if m >= 5:
            first = history[:2]
            last = history[-3:]
            if max(first) < min(last) or min(first) > max(last):
                shift = _level_shift(history, ordered, self.chi)
                if shift is not None:
                    del history[:shift]
                    ordered = self.ordered = sorted(history)
                    kept = 0
                    m = len(history)
                    med = None
                    self.n_level_shifts += 1
        self.kept = kept
        self.dropped = dropped
        self.shift = shift
        # The newest sample is never discarded: it is history[-1].
        self.quarantined = m >= 3 and _deviates(
            value, _median(ordered, 0, m) if med is None else med, psi
        )


@dataclass(frozen=True)
class LsoTrajectory:
    """One :class:`LsoCore` pass over a series, compact enough to keep.

    Most steps only append their own sample to the clean history; the
    others (*edits*: a step that discarded outliers or cut a level
    shift) are stored sparsely, in flat arrays of original indices.

    Attributes:
        config: the thresholds the pass ran with.
        quarantined: per epoch, the core's ``quarantined`` flag.
        edits: one ``(epoch, kept, tail_end)`` row per edit: the core's
            ``kept``, and the end offset of the edit's tail in
            ``edit_tail``.
        edit_tail: per edit, ``history[kept:]`` after it, concatenated.
        outliers: discarded outliers, in detection order.
        shifts: level-shift points, in order.
    """

    config: LsoConfig
    quarantined: np.ndarray
    edits: np.ndarray
    edit_tail: np.ndarray
    outliers: np.ndarray
    shifts: np.ndarray

    @classmethod
    def record(cls, values: np.ndarray, config: LsoConfig) -> "LsoTrajectory":
        """Run the core over ``values`` once.

        Counts nothing: each consumer accounts the detections it uses.

        Raises:
            DataError: on a non-positive sample, named by epoch.
        """
        core = LsoCore(config)
        indices: list[int] = []  # the epoch of each clean-history sample
        quarantined = []
        edits: list[tuple[int, int, int]] = []
        edit_tail: list[int] = []
        outliers: list[int] = []
        shifts: list[int] = []
        for epoch, value in enumerate(values.tolist()):
            if value <= 0:
                raise DataError(
                    f"throughput must be positive, got {value} at epoch {epoch}"
                )
            size = len(indices)
            indices.append(epoch)
            core.push(value)
            quarantined.append(core.quarantined)
            if core.kept < size:
                outliers += [indices[k] for k in core.dropped]
                for k in reversed(core.dropped):
                    del indices[k]
                if core.shift is not None:
                    shifts.append(indices[core.shift])
                    del indices[: core.shift]
                edit_tail += indices[core.kept :]
                edits.append((epoch, core.kept, len(edit_tail)))
        index = np.int32
        return cls(
            config=config,
            quarantined=np.array(quarantined, dtype=bool),
            edits=np.array(edits, dtype=index).reshape(-1, 3),
            edit_tail=np.array(edit_tail, dtype=index),
            outliers=np.array(outliers, dtype=index),
            shifts=np.array(shifts, dtype=index),
        )

    @classmethod
    def shared(
        cls, values: np.ndarray, config: LsoConfig, trajectory: "LsoTrajectory | None"
    ) -> "LsoTrajectory":
        """``trajectory`` when the caller shares one, else a fresh record.

        Raises:
            ValueError: the shared trajectory ran under another config.
        """
        if trajectory is None:
            return cls.record(values, config)
        if trajectory.config != config:
            raise ValueError(
                f"trajectory recorded under {trajectory.config}, needed {config}"
            )
        return trajectory

    def count(self) -> None:
        """Account this pass's detections once, for one consumer."""
        count_detections(len(self.outliers), len(self.shifts))
