"""Salt-bound SHA-256 pins of every trace producer.

Each pin is a digest of float64 trace bytes stored together with the
:data:`repro.io.cache.CACHE_SALT` it was taken under.  The salt is what
keeps the content-addressed trace cache honest: a change that moves any
collector's output bits must bump it, or stale cache entries keep being
served as if nothing changed.  :func:`check_pin` enforces that rule — a
digest that moved while the salt stayed put fails with instructions,
and so does a pin left behind by a salt bump.

The pins cover every :data:`repro.experiments.campaign.CAMPAIGN_PLANNERS`
kind (``tests/test_trace_pins.py``), the channel-group synthesis
layer (``tests/chip/test_group_synthesis.py``) and the journal the
chip-backed fleet campaign flushes (``tests/fleet/test_campaign_pin.py``).

Digests of float64 bytes depend on the numpy/scipy/BLAS build that
produced them (FFT and GEMM rounding).  :data:`PIN_BUILD` names the
build these were taken on; on a different build, re-take the pins from
an unchanged parent commit before judging a change against them.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping

import numpy as np
import pytest

from repro.io import cache

#: The build every pin below was taken on.
PIN_BUILD = (
    "CPython 3.11.7, numpy 2.4.6, scipy 1.17.1, scipy-openblas 0.3.31 "
    "(SkylakeX kernels), x86-64 Linux"
)

#: ``{pin: (CACHE_SALT it was taken under, SHA-256 of the traces)}``.
TRACE_PINS: dict[str, tuple[str, str]] = {
    # CAMPAIGN_PLANNERS kinds on the tiny configs of tests/test_trace_pins.py.
    "collector/ed": ("repro-pipeline-10", "6f68013257f611af3f91173dd236cb5cbf5797f5810de5ad699489017821edae"),
    "collector/spectral": ("repro-pipeline-10", "e31c1c03ff41309a13cf48af951674ae23f7f1b912c7e2d9542ca5e2f064b6a7"),
    "collector/raw": ("repro-pipeline-10", "1bd8bcbd2b29b2746589bf11ad8e5779180068c80b309fc36472efafcee26038"),
    # All 18 receivers of the seed-1 4x4 array chip, per Trojan and batch.
    "acquire/array/golden/1": ("repro-pipeline-10", "99ae6aba3f1b81f341c6cd08eea0880c9e8bff62a9b38d84a3c1f671d9c7a59d"),
    "acquire/array/golden/8": ("repro-pipeline-10", "5d7d56c7fadca1e3c373bd661cc7f514f4c6964f667b60914d0473299495a3b4"),
    "acquire/array/golden/33": ("repro-pipeline-10", "9bf3ad8720fbd5616d0a88fff34081525ebb68c09ffcfe9cbb451e705b674e87"),
    "acquire/array/trojan1/1": ("repro-pipeline-10", "5c9195f6ca463144e576e225ec7c0fcbf04d28a91d42f09b327eb0e97394dc10"),
    "acquire/array/trojan1/8": ("repro-pipeline-10", "16c2a86ab04fd0bc3e9b1e9a6732b5624491705452ecd694a66db6a09f891b1e"),
    "acquire/array/trojan1/33": ("repro-pipeline-10", "508bb22f7979772ee0998e3c47e7ab8a4334c7a85fd7c11e4b2a67655c779fea"),
    "acquire/array/trojan2/1": ("repro-pipeline-10", "096234cf3ded8a129a5b533c481b9fbab5f3e0c3ac1f039b4a67ac0d3f70bad5"),
    "acquire/array/trojan2/8": ("repro-pipeline-10", "6b6585508a5d6af45b98235b1955f0b8797254a41f5bb0930ac5fd91a8ac02e4"),
    "acquire/array/trojan2/33": ("repro-pipeline-10", "af6e0220be44179c664dd835aeb5eca34ab97a61db7af2e5d59942894dcd24b6"),
    "acquire/array/trojan3/1": ("repro-pipeline-10", "ec1e21e009fbe8dbce31555240fe90196209b09c213b46dd9a3af8085bdf910b"),
    "acquire/array/trojan3/8": ("repro-pipeline-10", "ebd4bda7f34f850c9af2f776493fca493ddac881450965c3c54047d48b4c97d6"),
    "acquire/array/trojan3/33": ("repro-pipeline-10", "c7cfe8eafe093d1842d5b5d323ee9a1efdec78dc235ea3b8dbda81b072300d91"),
    "acquire/array/trojan4/1": ("repro-pipeline-10", "462bcc46884e45d5007e40179ff973921af685085256ce653f5ba83b32e21278"),
    "acquire/array/trojan4/8": ("repro-pipeline-10", "385a0c03e16e2bb7da0e3a5f11e211df21e8c6e610a97a193b8a51148de1905e"),
    "acquire/array/trojan4/33": ("repro-pipeline-10", "0912a99e425c1e11b8edb017b3d3b24acaff0dcf1cf5dd66284997e24b25a638"),
    "acquire/array/a2/1": ("repro-pipeline-10", "bbc9f501ee026e7385507988f87b14febebccfdcc70298dfb295ff412bfdc3af"),
    "acquire/array/a2/8": ("repro-pipeline-10", "569d979a9f701d2d79988755c0bc7866dc0b8f46b3d1a3dd79d37402f0e0949c"),
    "acquire/array/a2/33": ("repro-pipeline-10", "32dcbc0e1acb56e6192cb56cbca7a6979da86a19f9711c9fcc04c3e5536b4981"),
    # Noise-off coil subset of the array chip, Trojan 3 at batch 8.
    "acquire/array/subset": ("repro-pipeline-10", "c7ba7ed41eebcb24ebe78595e0266e4ba584ef1f009d3c1762a32ea4ae3aa5cc"),
    # Power-monitor chip, silicon scenario, Trojan 2 at batch 8.
    "acquire/power": ("repro-pipeline-10", "4e8496a966f104a78e102ef9add4d033b5ce1613d0002673a48e040bdd329023"),
    # Flushed journal of the chip-backed fleet campaign in
    # tests/fleet/test_campaign_pin.py (SHA-256 of the JSONL bytes).
    "fleet/campaign-journal": ("repro-pipeline-10", "866aabde7b8f59ca2f1a043b660e9d98dd985a5185266fcf151f63a6a49770c6"),
}


def traces_digest(
    traces: Mapping[str, np.ndarray], names: Iterable[str] | None = None
) -> str:
    """SHA-256 over each named receiver's name, shape and float64 bytes.

    *names* defaults to every receiver in *traces*, sorted.
    """
    h = hashlib.sha256()
    for name in sorted(traces) if names is None else names:
        trace = np.ascontiguousarray(traces[name], dtype=np.float64)
        h.update(name.encode())
        h.update(repr(trace.shape).encode())
        h.update(trace.tobytes())
    return h.hexdigest()


def check_pin(pin: str, digest: str) -> None:
    """Fail unless *digest* and the current salt both match pin *pin*."""
    salt, pinned = TRACE_PINS[pin]
    current = cache.CACHE_SALT
    if salt != current:
        pytest.fail(
            f"pin {pin!r} was taken under CACHE_SALT {salt!r}, but the salt "
            f"is now {current!r}: re-take every pin in tests/trace_pins.py "
            "at this commit and record the new salt beside each digest."
        )
    if digest != pinned:
        pytest.fail(
            f"pin {pin!r}: the traces changed (sha256 {digest}, pinned "
            f"{pinned}) while CACHE_SALT stayed {current!r}.  If the change "
            "is deliberate, bump CACHE_SALT in src/repro/io/cache.py once and "
            "re-take every pin in tests/trace_pins.py in the same commit.  "
            f"If only the build differs from the pinned one ({PIN_BUILD}), "
            "re-take the pins on this build from an unchanged parent commit "
            "first."
        )
