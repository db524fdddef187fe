"""The runtime trust-evaluation framework (paper Fig. 1).

This is the paper's headline contribution, assembled from the
substrates: the on-chip EM sensor streams measurements to a trusted
data-analysis module which holds a golden fingerprint and raises an
alarm when either the time-domain Euclidean detector (Eq. (1)) or the
frequency-domain spot inspector sees the circuit leave its envelope.

* :class:`~repro.framework.evaluator.RuntimeTrustEvaluator` — train on
  a golden chip, evaluate suspect trace sets, produce
  :class:`~repro.framework.report.TrustReport`\\ s;
* :class:`~repro.framework.monitor.RuntimeMonitor` — the streaming
  (window-by-window) alarm logic that makes it *runtime* rather than
  one-shot;
* :class:`~repro.framework.batched.BatchedFleetMonitor` — the same
  alarm logic over a whole fleet at once, held as dense arrays and
  bit-identical to the per-chip monitors.
"""

from repro.framework.report import TrustReport, Verdict
from repro.framework.evaluator import RuntimeTrustEvaluator
from repro.framework.monitor import AlarmEvent, RuntimeMonitor, row_separations
from repro.framework.batched import BatchedFleetMonitor

__all__ = [
    "TrustReport",
    "Verdict",
    "RuntimeTrustEvaluator",
    "AlarmEvent",
    "RuntimeMonitor",
    "BatchedFleetMonitor",
    "row_separations",
]
