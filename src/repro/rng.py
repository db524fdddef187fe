"""Deterministic random-number management.

Every stochastic component in the library (noise injection, process
variation, plaintext generation, ...) draws from a
:class:`numpy.random.Generator` obtained through :func:`derive`, which
hashes a parent seed together with a textual *role*.  Two benefits:

* experiments are exactly reproducible from a single integer seed, and
* independent subsystems get statistically independent streams even
  though they share that one seed (no accidental stream reuse).
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Seed used by experiment drivers when the caller does not supply one.
DEFAULT_SEED = 20200720  # DAC 2020 week, a fixed arbitrary constant.


def derive(seed: int, role: str) -> np.random.Generator:
    """Return an independent generator for *role* derived from *seed*.

    Parameters
    ----------
    seed:
        Parent integer seed (any Python int, may be large).
    role:
        Free-form label naming the consumer, e.g. ``"env-noise"`` or
        ``"plaintexts/trojan1"``.  Different labels yield independent
        streams; the same ``(seed, role)`` pair always yields the same
        stream.
    """
    digest = hashlib.sha256(f"{seed}:{role}".encode("utf-8")).digest()
    child_seed = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(child_seed)
