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
    "collector/ed": ("repro-pipeline-9", "e43b272d2cecade7ff99723dce2e8130b173ee85cfed86540a86483d5ee8013f"),
    "collector/spectral": ("repro-pipeline-9", "e31c1c03ff41309a13cf48af951674ae23f7f1b912c7e2d9542ca5e2f064b6a7"),
    "collector/raw": ("repro-pipeline-9", "b7600001e531787d78febfca2fe8fe4320e9a88868fac4e344d04c7a8cbf7845"),
    # All 18 receivers of the seed-1 4x4 array chip, per Trojan and batch.
    "acquire/array/golden/1": ("repro-pipeline-9", "2591c9ef6f4f298102da5ef3b912fc22de655a49040184236c156a89d65bcea0"),
    "acquire/array/golden/8": ("repro-pipeline-9", "b78037e37bb8eb02e59552671d02dc5af6972eb302f3d72886d9e004fd8c993c"),
    "acquire/array/golden/33": ("repro-pipeline-9", "92fd89647de7bf1465d4d71990a59dc2c343d220de50935618a8acf7da098428"),
    "acquire/array/trojan1/1": ("repro-pipeline-9", "b4dd5e63fd9ac8930f38347323e8607c8c6f01e802bf14b85e710afc202b5c09"),
    "acquire/array/trojan1/8": ("repro-pipeline-9", "570255e5280c7a033b81a754dcce112bc88de7cc70280e2920c720f61c1d8101"),
    "acquire/array/trojan1/33": ("repro-pipeline-9", "588e4b1580750acc1bbb6bd4e1d735bd63453c2c6bea101ca6acacd5b32ac4f1"),
    "acquire/array/trojan2/1": ("repro-pipeline-9", "957d5748ab610202e57af310243cd04d87ffbae026baae56f027075e37a6ce08"),
    "acquire/array/trojan2/8": ("repro-pipeline-9", "98e4b4b404b0c55b3709dba30a715ff7aa90ec53027fd80cae30c68a102da96b"),
    "acquire/array/trojan2/33": ("repro-pipeline-9", "6951c447fe1db8deddccdde3f56f95718e0324eec50734ebdaa99c204c560fe2"),
    "acquire/array/trojan3/1": ("repro-pipeline-9", "d41e25cd761cd471679d66781f2e9837b2d6f13c10bf21ef5039d40266bf5d17"),
    "acquire/array/trojan3/8": ("repro-pipeline-9", "f0b24562d5dca7fc97c1e6085236185436624c7acb4fe2eb8841e4f42d2e22b6"),
    "acquire/array/trojan3/33": ("repro-pipeline-9", "5595a1f4b87d048868d0dfb68196dad8fd689b7f983ba157942b6c36a7f343c4"),
    "acquire/array/trojan4/1": ("repro-pipeline-9", "04a494dcea93fcb20f89a99f84978f6dd75a9256c89a3a2fb48eeb92bd571c51"),
    "acquire/array/trojan4/8": ("repro-pipeline-9", "f94c876318b9f2d4db0da415e5e696a65dfafddf524386a6f696c7dec7b71140"),
    "acquire/array/trojan4/33": ("repro-pipeline-9", "5bc3157f9dece48cbd2a00adeee9591958f24026270bac51a0aa2af4aba6394e"),
    "acquire/array/a2/1": ("repro-pipeline-9", "9bdfbb91716f6e12ed76ce8c168c75b6bfa070279b21cc89a7683a2bf19b97dd"),
    "acquire/array/a2/8": ("repro-pipeline-9", "619eb5f69ed83a72206e54d02e11cba26c27b6ec38a262e4fb834414bad8d0cd"),
    "acquire/array/a2/33": ("repro-pipeline-9", "07ba2d09506f07e0ffae263ae9d7aab1c5fb02d1a088e32159576f9be805b65b"),
    # Noise-off coil subset of the array chip, Trojan 3 at batch 8.
    "acquire/array/subset": ("repro-pipeline-9", "c7ba7ed41eebcb24ebe78595e0266e4ba584ef1f009d3c1762a32ea4ae3aa5cc"),
    # Power-monitor chip, silicon scenario, Trojan 2 at batch 8.
    "acquire/power": ("repro-pipeline-9", "9d83a13b1df47817688a9ab745e86b857486c18df48f0699c68182bf1b36e7d3"),
    # Flushed journal of the chip-backed fleet campaign in
    # tests/fleet/test_campaign_pin.py (SHA-256 of the JSONL bytes).
    "fleet/campaign-journal": ("repro-pipeline-9", "866aabde7b8f59ca2f1a043b660e9d98dd985a5185266fcf151f63a6a49770c6"),
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
