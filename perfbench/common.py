"""Shared plumbing: the hermetic run tree, timed CLI runs, statistics, spans.

Everything the benchmark creates lives under ``.perfbench/`` in the
checkout; each run gets its own temp tree there and deletes it on exit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: The campaign every workload builds: the default may2004 catalog (all
#: 35 paths, both window sizes) at the paper's 150 epochs per trace and
#: 2 traces per path, i.e. 10,500 transfers.
CAMPAIGN_ARGS = ["--catalog", "may2004", "--traces", "2", "--epochs", "150"]

#: sha256 of the CSV that ``CAMPAIGN_ARGS`` writes with ``--seed 0``.
PINNED_CSV_SHA256 = "3a85465787f5386bac662ac4d50d6f862edb04fa50212daa4e46a9246c94108c"

#: sha256 of ``repro-analyze`` stdout on that dataset (all figures).
PINNED_ANALYZE_SHA256 = (
    "b53fa691d4959e310a18229c1a15c60e1acd8d23059ef26bfb442b731c9fd930"
)

#: Figures ``repro-analyze`` renders and skips on a may2004 dataset
#: (Fig. 11 needs the march2006 duration checkpoints).
EXPECTED_RENDERED = [2, 3, 6, 7, 8, 12, 16, 17, 19, 20, 21, 22, 23]
EXPECTED_SKIPPED = [11]

#: Percentiles tried, highest first, when reporting a tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken setup)."""


def import_program() -> None:
    """Make ``import repro`` load the checkout's sources, and only them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")


# -- statistics ------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values) -> tuple[float, float]:
    """``(q, value)``: the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    for q in TAIL_PERCENTILES:
        if len(ordered) * (1.0 - q / 100.0) >= 10:
            return q, percentile(ordered, q)
    return 50.0, percentile(ordered, 50.0)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- outcome bookkeeping ---------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with one line per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one operation; record ``problem`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(problem)
        return ok

    def bulk(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.problems.extend(failures[: max(0, 50 - len(self.problems))])


# -- the hermetic run tree -------------------------------------------------


class RunTree:
    """A fresh temp tree per run; HOME and every REPRO_* dir point inside.

    Subprocesses get the program's defaults: inherited ``REPRO_*``
    variables are dropped, then only the directory variables are set.
    """

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        self.home = self.root / "home"
        self.home.mkdir()
        self._counter = 0
        self._before = _tree_listing()

    def fresh_dir(self, stem: str) -> Path:
        self._counter += 1
        path = self.root / f"{stem}-{self._counter}"
        path.mkdir()
        return path

    def env(self, **overrides: str) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(SRC),
            HOME=str(self.home),
            XDG_CACHE_HOME=str(self.home / ".cache"),
            REPRO_CACHE_DIR=str(self.root / "datasets"),
            REPRO_CHECKPOINT_DIR=str(self.root / "checkpoints"),
            REPRO_EVAL_CACHE_DIR=str(self.root / "evals"),
            TMPDIR=str(self.root),
        )
        env.update(overrides)
        return env

    def stray_files(self) -> list[str]:
        """Files the run left outside its temp tree, or in its own HOME cache."""
        stray = sorted(_tree_listing() - self._before)
        home_cache = self.home / ".cache" / "repro"
        if home_cache.exists():
            stray.append(str(home_cache))
        return stray

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _tree_listing() -> set[str]:
    """Files in the checkout, minus bytecode caches and the benchmark's tree."""
    listing = set()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [
            d for d in dirnames if d not in ("__pycache__", ".perfbench", ".bench_build")
        ]
        for name in filenames:
            listing.add(os.path.relpath(os.path.join(dirpath, name), ROOT))
    return listing


# -- timed CLI runs --------------------------------------------------------


@dataclass
class CliRun:
    argv: list[str]
    returncode: int
    started: float
    ended: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def run_cli(
    module: str,
    args: list[str],
    env: dict[str, str],
    cwd: Path,
    timeout_s: float = 120.0,
    cpu: int | None = None,
) -> CliRun:
    """Run ``python3 -m <module> <args>``; time it and read its peak RSS.

    With ``cpu``, the child runs pinned to that CPU.
    """
    argv = [sys.executable, "-m", module, *args]
    preexec = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=out, stderr=err, preexec_fn=preexec
        )
        try:
            status, rusage = wait_child(proc, timeout_s)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        ended = time.perf_counter()
        out.seek(0)
        err.seek(0)
        return CliRun(
            argv=argv,
            returncode=status,
            started=started,
            ended=ended,
            peak_rss_mb=rusage.ru_maxrss / 1024.0,
            stdout=out.read(),
            stderr=err.read(),
        )


def wait_child(proc: subprocess.Popen, timeout_s: float):
    """``wait4`` with a deadline: (exit code, rusage of that child only).

    Raises BenchError past the deadline; the caller kills the child.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, rusage
        if time.monotonic() > deadline:
            raise BenchError(f"{proc.args!r} exceeded {timeout_s:.0f} s")
        time.sleep(0.002)


def check_cli(tally: Tally, run: CliRun) -> bool:
    """Count one CLI run; it fails unless it exited 0."""
    last = run.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
    return tally.check(
        run.returncode == 0, f"{' '.join(run.argv[2:4])} exited {run.returncode}: {last}"
    )


def manifest(path: Path) -> dict:
    """A run manifest, or {} when the run wrote none."""
    try:
        with path.open() as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


# -- spans -----------------------------------------------------------------


class Tracer:
    """In-memory spans (name, start, end, parent), written once at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_s[index]
        return totals

    def write(self, path: Path) -> None:
        doc = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter(), 0.0, parent])
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()
