"""``make analyze-parity``: prove the analysis pipeline output-identical.

Builds one campaign dataset, then runs ``repro-analyze`` on it three
times: with the scalar HB oracle (the reference), with the vectorized
engine, and with the vectorized engine again.  Every run's rendered
stdout must be *byte-identical* to the reference — the second vector
run proves a rerun reproduces the first exactly, and nothing a run
leaves behind (only its telemetry sidecars) changes the next one.

The default invocation covers the full default catalog (may2004, 35
paths x 7 traces x 150 epochs, seed 0).  ``--paths/--traces/--epochs``
shrink the dataset for quick iteration; the reduced grid is what ``make
test`` runs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.paths.config import expanded_catalog, may_2004_catalog  # noqa: E402
from repro.testbed.campaign import Campaign, CampaignSettings  # noqa: E402
from repro.testbed.io import save_dataset  # noqa: E402


def run_analyze(dataset: Path, engine: str) -> str:
    """One ``repro-analyze`` subprocess; returns its stdout sha256."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli.analyze", str(dataset), "--hb-engine", engine],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff repro-analyze output across HB engines and reruns."
    )
    parser.add_argument(
        "--paths", type=int, default=None, metavar="N",
        help="restrict/expand the catalog to N paths (default: all)",
    )
    parser.add_argument(
        "--traces", type=int, default=7, metavar="N",
        help="traces per path (default: 7, the paper's)",
    )
    parser.add_argument(
        "--epochs", type=int, default=150, metavar="N",
        help="epochs per trace (default: 150, the paper's)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    args = parser.parse_args(argv)

    catalog = may_2004_catalog()
    if args.paths is not None:
        catalog = expanded_catalog(catalog, args.paths)
    settings = CampaignSettings(n_traces=args.traces, epochs_per_trace=args.epochs)
    print(
        f"analyze-parity may2004: {len(catalog)} paths x {args.traces} traces "
        f"x {args.epochs} epochs, seed {args.seed}"
    )

    with tempfile.TemporaryDirectory(prefix="analyze-parity-") as tmp:
        dataset = Path(tmp) / "parity.csv"
        save_dataset(Campaign(catalog, seed=args.seed).run(settings), dataset)
        reference = run_analyze(dataset, "scalar")
        print(f"  scalar          {reference}")
        failed = False
        for leg in ("vector", "vector (rerun)"):
            digest = run_analyze(dataset, "vector")
            match = digest == reference
            print(f"  {leg:<15} {digest}  {'ok' if match else 'MISMATCH'}")
            failed = failed or not match

    if failed:
        print("analyze-parity FAILED: runs disagree", file=sys.stderr)
        return 1
    print("analyze-parity OK: scalar, vector and rerun outputs byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
