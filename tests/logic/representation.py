"""Pin the logic simulator's representation inside a test.

:meth:`~repro.logic.simulator.CompiledNetlist.reset` picks it from the
batch alone: bool below :data:`~repro.logic.simulator.
PACKED_BATCH_THRESHOLD` lanes, packed from there on.  A test that
compares the two at one batch moves the threshold for a block.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator

import pytest

THRESHOLD = "repro.logic.simulator.PACKED_BATCH_THRESHOLD"


@contextlib.contextmanager
def representation(name: str) -> Iterator[None]:
    """Run the block with every reset on ``"bool"`` or ``"packed"``."""
    threshold = {"bool": sys.maxsize, "packed": 1}[name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(THRESHOLD, threshold)
        yield
