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
    "collector/ed": ("repro-pipeline-4", "738836e1bb02eb0634f4da94f66c5a5692cd1ef325aed64652ae623c0dcc82be"),
    "collector/spectral": ("repro-pipeline-4", "defaed927873322df9d8a299b3864264b89919549e8f30af85e3670af97040a8"),
    "collector/raw": ("repro-pipeline-4", "cf743adb71c47b86edd123eac38c24a9c86460cd2b01b3ed1f447a4cfa8af866"),
    # All 18 receivers of the seed-1 4x4 array chip, per Trojan and batch.
    "acquire/array/golden/1": ("repro-pipeline-4", "de1d5c2ada42e72bb934655e443ac43d5d400ebc51b1c103fa41d9b8c24dcddd"),
    "acquire/array/golden/8": ("repro-pipeline-4", "3ce77a7b80dc99d0eac621f67741345af5d8a1e87413cdb6c3cfcd8f80991113"),
    "acquire/array/golden/33": ("repro-pipeline-4", "ca203dff7ad9bbb089f7ddc8da66fc0eafb15b838ec265ef74bc11698dd80795"),
    "acquire/array/trojan1/1": ("repro-pipeline-4", "b39178d3621cb1492234f0c25fd6f1ee060ececd0c5df6fc6ae22dfc279540eb"),
    "acquire/array/trojan1/8": ("repro-pipeline-4", "10ea1cd7d9c807d47e62b2c6c68ee80af040393c6abd0f7f2e7fce13a190bfdd"),
    "acquire/array/trojan1/33": ("repro-pipeline-4", "015ff29c9c597e86e8860060657327d99b9ae20f0380e43c8328917e21f87df4"),
    "acquire/array/trojan2/1": ("repro-pipeline-4", "f6ad2b8402ba8175353279aafb777f12eb7fac44660ae8ec2a352315aded82ab"),
    "acquire/array/trojan2/8": ("repro-pipeline-4", "620ffc8df4f3cdb02cc09b325d83c0ad63d5d18720d96176194a2c6e27afcb8b"),
    "acquire/array/trojan2/33": ("repro-pipeline-4", "e01bc9edd64f594f0f4ffd12519257868dbe4a380e4ee4f11842f55640fbc1c9"),
    "acquire/array/trojan3/1": ("repro-pipeline-4", "1f83e931ed7255f7f1965146d8ec8ae72e911ecd772ef99fcbf22c61b71815cc"),
    "acquire/array/trojan3/8": ("repro-pipeline-4", "bbfdc01c44a5299f48bc5cf8f32d5b74929f3f47b1015dfbde8eed7b9eaada88"),
    "acquire/array/trojan3/33": ("repro-pipeline-4", "16a6b16f23f076fc0d2d0d321f85c5217745c3e7a7460adc14b9cbb77d6debd5"),
    "acquire/array/trojan4/1": ("repro-pipeline-4", "52350eed673c1a182c25b8499ae46ae502f278a7f5c62699c5912b6cac7c55e8"),
    "acquire/array/trojan4/8": ("repro-pipeline-4", "ee465fa31f5668a0a853da1cde857f6def5cdc33a8d0c0950efb023dd1d7ed01"),
    "acquire/array/trojan4/33": ("repro-pipeline-4", "2fcb1564cf8a208d5df54f9fbad70f0e08789bbe0cefc1488bf8358353c479c0"),
    "acquire/array/a2/1": ("repro-pipeline-4", "9a8a51afcb6768d75f01971e0ca6dd0aa21c8ea6bd1b459eedad2693774f9cab"),
    "acquire/array/a2/8": ("repro-pipeline-4", "aa674236a8f7f19241287e2d746a95c4db668223a543a89d9baa48e20544ae63"),
    "acquire/array/a2/33": ("repro-pipeline-4", "135745592f3372185345860dcadb262c3e5fd38b8092419c9c3fb28365b677d8"),
    # Noise-off coil subset of the array chip, Trojan 3 at batch 8.
    "acquire/array/subset": ("repro-pipeline-4", "82cf11ac9664319fbb9077ee47bce33193005651fb457f45491b989d64cb71cd"),
    # Power-monitor chip, silicon scenario, Trojan 2 at batch 8.
    "acquire/power": ("repro-pipeline-4", "069271fef3a2cb03fd88f7e533b17025b0feb22cdbb73f3cda34555415dbe7ab"),
    # Flushed journal of the chip-backed fleet campaign in
    # tests/fleet/test_campaign_pin.py (SHA-256 of the JSONL bytes).
    "fleet/campaign-journal": ("repro-pipeline-4", "fce72258257f393e68fd788d04c3639984f46af3340c819abc509626e07197d0"),
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
