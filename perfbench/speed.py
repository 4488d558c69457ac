"""How fast each CPU ran while an operation ran, and its time at reference speed.

A CPU of a shared host does not run at one speed.  On the 2-vCPU
reference host each vCPU switches, every few seconds and independently
of the other, between a fast state and one about 1.6-1.9x slower, and
the share of time spent slow drifts over minutes.  A wall-clock median
of 1-4 s operations then moves by 20-40% between runs of the same code.

So every timed operation runs pinned to known CPUs, and a probe process
pinned to each of them wakes every ``PERIOD_S`` to run one fixed chunk
of pure-Python work and record its CPU time.  A chunk that takes ``g``
seconds means the CPU ran at ``REF_CHUNK_S / g`` of reference speed at
that moment, so an operation of wall time ``T`` whose samples give that
ratio a mean of ``r`` did ``T * r`` seconds of reference-speed work.
That is the time the benchmark reports.  When an operation keeps two
CPUs busy (the server and its client), each CPU's ratio is weighted by
the CPU seconds spent on it.  The probe takes about 3% of the CPU it
watches, the same share in every run.

Run as a script, this module is the probe:
``python3 speed.py CPU`` samples until SIGTERM, then prints its samples
as JSON on stdout.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Seconds the probe sleeps between chunks.
PERIOD_S = 0.03

#: CPU seconds of one chunk on a fast vCPU of the reference host (an
#: Intel Xeon, family 6 model 143, under KVM): the scale of the
#: reported times.  A constant, so that it never moves with the host.
REF_CHUNK_S = 0.0008

#: Fewest samples an operation must have for its speed to count.
MIN_SAMPLES = 5


def _chunk() -> None:
    """A fixed piece of dict, int and str work, like the program's own."""
    table: dict[int, float] = {}
    total = 0
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        total += len(str(i))


def _probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    while not stop:
        time.sleep(PERIOD_S)
        at = time.perf_counter()
        cpu_start = time.thread_time()
        _chunk()
        samples.append((at, time.thread_time() - cpu_start))
    json.dump(samples, sys.stdout)


def cpus() -> list[int]:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


def pin(cpu: int) -> None:
    """Pin the calling process to one CPU (use as a ``preexec_fn``)."""
    os.sched_setaffinity(0, {cpu})


class SpeedProbe:
    """One probe process per CPU; stop it before asking for speeds."""

    def __init__(self, watched: list[int]) -> None:
        self.samples: dict[int, list[tuple[float, float]]] = {}
        self._procs = {
            cpu: subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(cpu)],
                stdout=subprocess.PIPE,
            )
            for cpu in watched
        }

    def stop(self) -> None:
        """SIGTERM every probe, reap it and keep its samples."""
        for proc in self._procs.values():
            if proc.returncode is None:
                proc.terminate()
        for cpu, proc in self._procs.items():
            try:
                out, _ = proc.communicate(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            try:
                self.samples[cpu] = [tuple(s) for s in json.loads(out or b"[]")]
            except ValueError:
                self.samples[cpu] = []

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def ratio(self, cpu: int, start: float, end: float) -> float | None:
        """Mean speed of ``cpu`` over [start, end], relative to reference."""
        ratios = [
            REF_CHUNK_S / g
            for at, g in self.samples.get(cpu, ())
            if start <= at <= end and g > 0
        ]
        if len(ratios) < MIN_SAMPLES:
            return None
        return sum(ratios) / len(ratios)

    def reference_s(self, start: float, end: float, busy: dict[int, float]) -> float | None:
        """Seconds of reference-speed work in [start, end].

        ``busy`` maps each CPU the operation ran on to the CPU seconds
        spent there (a server and its client); each CPU's speed counts
        in proportion.  None when a CPU has too few samples.
        """
        ratios = {cpu: self.ratio(cpu, start, end) for cpu in busy}
        if None in ratios.values():
            return None
        total = sum(busy.values())
        if total <= 0:
            return (end - start) * sum(ratios.values()) / len(ratios)
        return (end - start) * sum(busy[cpu] * ratios[cpu] for cpu in busy) / total


def busy_on(*pairs: tuple[int, float]) -> dict[int, float]:
    """{cpu: cpu seconds} from (cpu, seconds) pairs; a shared CPU adds up."""
    busy: dict[int, float] = {}
    for cpu, seconds in pairs:
        busy[cpu] = busy.get(cpu, 0.0) + seconds
    return busy


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
