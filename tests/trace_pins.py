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
    "collector/ed": ("repro-pipeline-6", "929aadd367621c3c11a96eae077221a644802409a17f6dede3c1ab2b6291b48a"),
    "collector/spectral": ("repro-pipeline-6", "8b77426ee4b2d4ac56e82a93c09ad9bbce90752d7a5d1cdbe6f03f39bdce2977"),
    "collector/raw": ("repro-pipeline-6", "774a7ae69cbe4ca16ffa42f8f9f46cc2cd3efc0a8ed0ca874b51e2044b70551a"),
    # All 18 receivers of the seed-1 4x4 array chip, per Trojan and batch.
    "acquire/array/golden/1": ("repro-pipeline-6", "2f5d1d0b3f3363ef3bd187c1a82300c9cede399a1ea997268e927f915b45b7f4"),
    "acquire/array/golden/8": ("repro-pipeline-6", "4a2baa44c9179472e25784b95738e8881c14256439e9e8e3e870d04bef2eec3e"),
    "acquire/array/golden/33": ("repro-pipeline-6", "e51a0a86cb45d917512cf71db1792f1e1ba96daa909572cee77864666dfe6b62"),
    "acquire/array/trojan1/1": ("repro-pipeline-6", "fa3df98d6e04640206f07eceb57c9c0d63ca1ec2726f3e427a3b71cf77d75120"),
    "acquire/array/trojan1/8": ("repro-pipeline-6", "9268ab591d37cfd7cf07c6d96a5c172bc3d7368b8c2319e710f0d56b5f86d85b"),
    "acquire/array/trojan1/33": ("repro-pipeline-6", "c0dd9bd543f9dcbad68e01cd2e59fb9f7dd89a3cf75ad5cf497dcf37d16c852f"),
    "acquire/array/trojan2/1": ("repro-pipeline-6", "f6d4cd1a16a79330cbb32ef6a89d7723bd5fed54aa40900d5656927a02b1b5da"),
    "acquire/array/trojan2/8": ("repro-pipeline-6", "75bc0393ead88ead5187f3b2faa31549d1beb5768fcf678c8838bb418fb30adc"),
    "acquire/array/trojan2/33": ("repro-pipeline-6", "83f82aa07a4deb910155a0e84e8c66a2aaa53f3fefd3c2ed159b283e4cd9a167"),
    "acquire/array/trojan3/1": ("repro-pipeline-6", "ecb95bdba5e99645d51266ff7735b7f00b9485ec62b3b2d5957aae5c445ffbce"),
    "acquire/array/trojan3/8": ("repro-pipeline-6", "cc3ac835db08b2c6c86a887844dbfcf383a7ffac5ec81fd92b9931fcc1ad03bd"),
    "acquire/array/trojan3/33": ("repro-pipeline-6", "c8c0632bc59ffc24338f9cebddbdc0cdde1a5b170a0523d848cccbb9f3a32c29"),
    "acquire/array/trojan4/1": ("repro-pipeline-6", "2cb9cd9803f6545fa9192ea65e22e25aa2d57c40c5b963f7a71ce512261bfdca"),
    "acquire/array/trojan4/8": ("repro-pipeline-6", "9668ee797e631d82347f0f04074876b0448af2f8fb09b93700fd655e63c6b5e7"),
    "acquire/array/trojan4/33": ("repro-pipeline-6", "9f248dd6605a583e182e483353e651ef25418453a727413cba9146731a264834"),
    "acquire/array/a2/1": ("repro-pipeline-6", "84ddb663b19554382e037fea1f019dc594d86dde669d6ee29549cbee39c66aef"),
    "acquire/array/a2/8": ("repro-pipeline-6", "728d6bedae5f36f769f433221c39468331a1118cd078e290f61505a73a99f342"),
    "acquire/array/a2/33": ("repro-pipeline-6", "f7329fa17601dde066c164fd8137b4fe50149e4bbc9abc8cc5bd7f99a2e663c1"),
    # Noise-off coil subset of the array chip, Trojan 3 at batch 8.
    "acquire/array/subset": ("repro-pipeline-6", "3b39da3f7fc24eafe7670258aa052cb658c94df0b67ee795167ce1e8956bfd96"),
    # Power-monitor chip, silicon scenario, Trojan 2 at batch 8.
    "acquire/power": ("repro-pipeline-6", "de97686d22f6d57f8db07b10eea0e518ba18c43fbfb251e5cba97c8855e16dba"),
    # Flushed journal of the chip-backed fleet campaign in
    # tests/fleet/test_campaign_pin.py (SHA-256 of the JSONL bytes).
    "fleet/campaign-journal": ("repro-pipeline-6", "fce132cec2f113646ff34b2f4e9584e87149595f7e1d360dc71458417a8ab878"),
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
