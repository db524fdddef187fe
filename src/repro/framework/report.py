"""Trust-evaluation reports."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis.euclidean import DistanceReport


class Verdict(enum.Enum):
    """Outcome of one trust evaluation."""

    TRUSTED = "trusted"
    SUSPECT_TIME_DOMAIN = "suspect-time-domain"
    SUSPECT_SPECTRAL = "suspect-spectral"
    SUSPECT_BOTH = "suspect-both"

    @property
    def is_alarm(self) -> bool:
        """True when the framework would raise the Fig. 1 alarm."""
        return self is not Verdict.TRUSTED


@dataclass
class TrustReport:
    """Everything the analysis module concluded about one trace set."""

    verdict: Verdict
    distance: DistanceReport | None = None
    notes: list[str] = field(default_factory=list)

    def format(self) -> str:
        """Multi-line human-readable report."""
        lines = [f"verdict: {self.verdict.value}"]
        if self.distance is not None:
            d = self.distance
            lines.append(
                f"  time domain: separation {d.separation:.3f} "
                f"(noise floor {d.separation_floor:.3f}, "
                f"EDth {d.threshold:.3f}, "
                f"{100 * d.exceed_fraction:.1f}% traces beyond EDth)"
            )
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def combine_verdicts(time_alarm: bool, spectral_alarm: bool) -> Verdict:
    """Fold the two detector outcomes into one verdict."""
    if time_alarm and spectral_alarm:
        return Verdict.SUSPECT_BOTH
    if time_alarm:
        return Verdict.SUSPECT_TIME_DOMAIN
    if spectral_alarm:
        return Verdict.SUSPECT_SPECTRAL
    return Verdict.TRUSTED
