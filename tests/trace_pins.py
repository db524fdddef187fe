"""Salt-bound SHA-256 pins of every trace producer.

Each pin is a digest of float64 trace bytes stored together with the
:data:`repro.io.cache.CACHE_SALT` it was taken under.  The salt is what
keeps the content-addressed trace cache honest: a change that moves any
collector's output bits must bump it, or stale cache entries keep being
served as if nothing changed.  :func:`check_pin` enforces that rule — a
digest that moved while the salt stayed put fails with instructions,
and so does a pin left behind by a salt bump.

The pins cover every :data:`repro.experiments.campaign.TRACE_COLLECTORS`
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
    # TRACE_COLLECTORS kinds on the tiny configs of tests/test_trace_pins.py.
    "collector/ed": ("repro-pipeline-7", "c7fffaa1a9b2de0aaa948d1764b3b19f8ac4cf12f81c0c6a862ac2acc376a0c9"),
    "collector/spectral": ("repro-pipeline-7", "7bc04613b41b8e189b4df9deffa2f57deddf2b2922cdc9adcb49b76706fda6a7"),
    "collector/raw": ("repro-pipeline-7", "cf88fb7bfe0dcad2eafbd27d09a539208570cd56a63e8e47827d0915e0554c62"),
    # All 18 receivers of the seed-1 4x4 array chip, per Trojan and batch.
    "acquire/array/golden/1": ("repro-pipeline-7", "2f5d1d0b3f3363ef3bd187c1a82300c9cede399a1ea997268e927f915b45b7f4"),
    "acquire/array/golden/8": ("repro-pipeline-7", "4a2baa44c9179472e25784b95738e8881c14256439e9e8e3e870d04bef2eec3e"),
    "acquire/array/golden/33": ("repro-pipeline-7", "e51a0a86cb45d917512cf71db1792f1e1ba96daa909572cee77864666dfe6b62"),
    "acquire/array/trojan1/1": ("repro-pipeline-7", "5f565314c991118183818731cf58475f12d50bd3ba5a51559222a7ab540b7224"),
    "acquire/array/trojan1/8": ("repro-pipeline-7", "921cae278b0fcf6ec19771058ab2b08b0f0375789e229ea2bdb2155f7b17e7c8"),
    "acquire/array/trojan1/33": ("repro-pipeline-7", "fac4a844a731d6f9107ecb2925c2d177cb47f69fedaf44fa496bfa8bfb2fbf11"),
    "acquire/array/trojan2/1": ("repro-pipeline-7", "3b482304d8ac945ea1201d494fcad3f3c1e12193a696709160b907dca89bcf1b"),
    "acquire/array/trojan2/8": ("repro-pipeline-7", "4abb78ac12db5d231b7acc24462aec6ecef6e4c60003c79344a1fb659bc0163d"),
    "acquire/array/trojan2/33": ("repro-pipeline-7", "bb8a82e398782872922ee77dfa421f114ff6cd9bfe6395f5eaa9502f0e4b7f13"),
    "acquire/array/trojan3/1": ("repro-pipeline-7", "81e75e54390c18f07bfefe024659af7bb4c61673ab7b2a6a20f250db9d3b7988"),
    "acquire/array/trojan3/8": ("repro-pipeline-7", "e6a300b9261fffef5d0f7232a4e3a8d973f99fd468bc3b8cff0ef7e694a3533b"),
    "acquire/array/trojan3/33": ("repro-pipeline-7", "60ba7ecbab1f966dad7f41be2375b38dbdece78471ac3afca33f8b24f4ec640e"),
    "acquire/array/trojan4/1": ("repro-pipeline-7", "2cb9cd9803f6545fa9192ea65e22e25aa2d57c40c5b963f7a71ce512261bfdca"),
    "acquire/array/trojan4/8": ("repro-pipeline-7", "9668ee797e631d82347f0f04074876b0448af2f8fb09b93700fd655e63c6b5e7"),
    "acquire/array/trojan4/33": ("repro-pipeline-7", "9f248dd6605a583e182e483353e651ef25418453a727413cba9146731a264834"),
    "acquire/array/a2/1": ("repro-pipeline-7", "4ef8fd354f58c9732e9bc81e931e822cbfbf5c2d1097bb02a42ccecde3a787bf"),
    "acquire/array/a2/8": ("repro-pipeline-7", "1083f9b331db550087018e20d073fda16ce8e2683b0cb533291af6f4202e8c7f"),
    "acquire/array/a2/33": ("repro-pipeline-7", "ab0ddf10853c46f2d7a2c82c076da74eba03cafe63ac3bff8053a6362246f7f0"),
    # Noise-off coil subset of the array chip, Trojan 3 at batch 8.
    "acquire/array/subset": ("repro-pipeline-7", "3b39da3f7fc24eafe7670258aa052cb658c94df0b67ee795167ce1e8956bfd96"),
    # Power-monitor chip, silicon scenario, Trojan 2 at batch 8.
    "acquire/power": ("repro-pipeline-7", "de97686d22f6d57f8db07b10eea0e518ba18c43fbfb251e5cba97c8855e16dba"),
    # Flushed journal of the chip-backed fleet campaign in
    # tests/fleet/test_campaign_pin.py (SHA-256 of the JSONL bytes).
    "fleet/campaign-journal": ("repro-pipeline-7", "fce132cec2f113646ff34b2f4e9584e87149595f7e1d360dc71458417a8ab878"),
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
