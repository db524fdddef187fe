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
    "collector/ed": ("repro-pipeline-5", "bad61461e6ce684e62078f1e76f901e679d742068b7d550c3c358c798d40fb91"),
    "collector/spectral": ("repro-pipeline-5", "df6483d8bef8d12e055da2e7a72031f1d4a5c1f1ba746001c173e80526b7df42"),
    "collector/raw": ("repro-pipeline-5", "f49f44d892f10fdd52967de5ccbee589dec7431acf72927adf3564ccdf56f6d6"),
    # All 18 receivers of the seed-1 4x4 array chip, per Trojan and batch.
    "acquire/array/golden/1": ("repro-pipeline-5", "cbc40c67861596d775ca0b3823b73de1f5ed399b19a2b215ceac00ceb6a4df42"),
    "acquire/array/golden/8": ("repro-pipeline-5", "e45eafd8cf421e3ff0282359907c246ec08b7b6f7f3b12325a204758ef05ee76"),
    "acquire/array/golden/33": ("repro-pipeline-5", "a6efc18d12cce8b16801d5b7d7a430892b3b0b7e223177415a79380c1abfea01"),
    "acquire/array/trojan1/1": ("repro-pipeline-5", "d4df10041ee9d19f3b28123346602561dc7fa250fefd77cd05583222c78b294a"),
    "acquire/array/trojan1/8": ("repro-pipeline-5", "afbeee72fbe4473cffb8280afa9848719d4eb669e598653356900f4db94da882"),
    "acquire/array/trojan1/33": ("repro-pipeline-5", "578116ae5a60ced9654d291c43862c8709630c7fd55e7006b4b9491b0ecac411"),
    "acquire/array/trojan2/1": ("repro-pipeline-5", "ec1ec3629739e1e6f62d414c6242a11bf448febb84afa29b023eec5241aa2a53"),
    "acquire/array/trojan2/8": ("repro-pipeline-5", "5cf9e1b48b2a40585077e5c57446e73ac3166bc508adb7634e5e036741bc204e"),
    "acquire/array/trojan2/33": ("repro-pipeline-5", "21d66564666877b8f5558f4bb86b7e25ceb95a661e5c09e7eb4785a2d6a9a707"),
    "acquire/array/trojan3/1": ("repro-pipeline-5", "8901e0cb67544c1b758508ce7d316ac9918501be4f0c13c8b1438af5ced35136"),
    "acquire/array/trojan3/8": ("repro-pipeline-5", "c02a5af51dc85cc17a7f5aa367abab632f394ffa3b80b6caeba5513e9bbb787f"),
    "acquire/array/trojan3/33": ("repro-pipeline-5", "9f76e2639cede7ee9f087a04f2259465d7d89b7ae86a7970a794e506396e47af"),
    "acquire/array/trojan4/1": ("repro-pipeline-5", "f2793e85dcaf043a61a1a8d5e870071652346b80b4e8c9a205cddca188f763ed"),
    "acquire/array/trojan4/8": ("repro-pipeline-5", "9502e6c7b8cca120a31b6aaf88cf8af2d7b7e7469ee27e1fe6bc1bf5cc4f210d"),
    "acquire/array/trojan4/33": ("repro-pipeline-5", "3b9df0f00f0e16fc9393fdf84c4aece111a0a6c3ece34522237c751ec685fc0b"),
    "acquire/array/a2/1": ("repro-pipeline-5", "696083da4fc3d4653c2e34f4d9063d2e3bb83a3cbae402be5ec54a52feb30c7e"),
    "acquire/array/a2/8": ("repro-pipeline-5", "252ded75790323dd130636e2220abd4b12c35d9211e7fdb300e3f6bf629760bb"),
    "acquire/array/a2/33": ("repro-pipeline-5", "d0a4da6fc9f11525e1b342e52f31747ee64c8029c8b49a564281a766159d6fc8"),
    # Noise-off coil subset of the array chip, Trojan 3 at batch 8.
    "acquire/array/subset": ("repro-pipeline-5", "7a602db7d1b620a8690d6ba22cd88ba94a1a1747ecc615365b93b7171831cfcc"),
    # Power-monitor chip, silicon scenario, Trojan 2 at batch 8.
    "acquire/power": ("repro-pipeline-5", "24ffdec7a6f3ee347be811d271c923be27ec3709616eb82f09d46bee65ad4bed"),
    # Flushed journal of the chip-backed fleet campaign in
    # tests/fleet/test_campaign_pin.py (SHA-256 of the JSONL bytes).
    "fleet/campaign-journal": ("repro-pipeline-5", "9747046073f6c80cc21da8592091c5a5a66c770b63fac268c3b0537e45e8d185"),
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
