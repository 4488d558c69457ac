"""The computations behind every figure of the paper's evaluation.

* :mod:`repro.analysis.fb_eval` — Formula-Based prediction accuracy
  (Figs. 2-14).
* :mod:`repro.analysis.hb_eval` — History-Based prediction accuracy
  (Figs. 15-23).
* :mod:`repro.analysis.report` — plain-text rendering of tables, CDFs
  and scatter summaries for benchmark output.
* :mod:`repro.analysis.stats` — bootstrap confidence intervals for the
  headline statistics.
* :mod:`repro.analysis.memo` — the per-dataset memo through which the
  figures share HB walks, trace series and FB array passes.

Each function takes a :class:`repro.paths.records.Dataset` and returns
plain result objects; nothing here reads the hidden ``truth`` fields.
"""

from repro.analysis import fb_eval, hb_eval, memo, report, stats

__all__ = ["fb_eval", "hb_eval", "memo", "report", "stats"]
