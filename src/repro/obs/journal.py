"""JSONL event journal for instrumented runs.

Every noteworthy fleet event — an alarm, an early stop
(``early_stop``), a dropped window, a spectral-sweep verdict — is one
JSON object per line.  Events carry **no wall-clock timestamps or
global counters** by design: a journal is a pure function of the
(seeded) run that produced it, so tests can assert that two runs'
journals — dense and per-session scoring, or an early-stopped run
continued against an uninterrupted one — agree byte for byte.
Ordering is the line order.

Flushes follow the :mod:`repro.io.store` write convention — the whole
journal is rewritten through a same-directory temp file and an atomic
rename (:func:`repro.io.store.atomic_write_bytes`), so a concurrent
reader or a crash mid-flush can never observe a torn line.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.errors import ExperimentError
from repro.io.store import _json_default, atomic_write_bytes

#: Event kinds the fleet layer emits (free-form kinds are allowed; this
#: is the documented core vocabulary).
EVENT_KINDS = ("alarm", "drop", "early_stop", "spectral", "campaign")


class EventJournal:
    """Append-only in-memory event log with atomic JSONL persistence."""

    def __init__(self, path: str | Path | None = None) -> None:
        """
        Parameters
        ----------
        path:
            JSONL target; ``None`` keeps the journal in memory only
            (:meth:`flush` then is a no-op).
        """
        self.path = Path(path) if path is not None else None
        self._events: list[dict] = []
        self._lock = threading.Lock()

    def record(self, kind: str, **fields) -> dict:
        """Append one event; returns the event dictionary."""
        if not kind:
            raise ExperimentError("journal event kind must be non-empty")
        event = {"kind": kind, **fields}
        with self._lock:
            self._events.append(event)
        return event

    @property
    def events(self) -> list[dict]:
        """Snapshot of all recorded events (insertion order)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def flush(self) -> Path | None:
        """Persist every event as JSONL via an atomic rename.

        Returns the path written, or ``None`` for in-memory journals.
        Rewriting the whole file keeps the invariant simple: the file
        on disk is always a complete, valid JSONL prefix-free journal.
        """
        if self.path is None:
            return None
        with self._lock:
            events = list(self._events)
        payload = "".join(
            json.dumps(e, sort_keys=True, default=_json_default) + "\n"
            for e in events
        ).encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(self.path, payload)
        return self.path

    @staticmethod
    def load(path: str | Path) -> list[dict]:
        """Parse a flushed journal back into its event list."""
        text = Path(path).read_text(encoding="utf-8")
        return [json.loads(line) for line in text.splitlines() if line]
