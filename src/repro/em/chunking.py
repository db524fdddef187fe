"""Chunk sizing for the vectorised EM kernels.

The Biot–Savart and Neumann solvers broadcast every source segment
against every observation/quadrature point.  At field-map sizes
(thousands of power-grid segments × thousands of surface points) the
naive broadcast would allocate gigabytes, so every kernel walks the
source axis in chunks whose live temporaries fit
:data:`CACHE_CHUNK_BYTES` — large enough that numpy amortises
per-call overhead, small enough to stay resident in the last-level
cache.  Results do not depend on the chunk size (the kernel
equivalence tests shrink it to force many chunks); see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

__all__ = ["CACHE_CHUNK_BYTES", "rows_per_chunk"]

#: Working-set size for one chunk of a kernel's temporaries [bytes].
#: The EM kernels are memory-bandwidth-bound, so chunks that keep all
#: live temporaries resident in the last-level cache beat chunks that
#: merely fit in RAM.
CACHE_CHUNK_BYTES = 4 * 1024 * 1024


def rows_per_chunk(bytes_per_row: int) -> int:
    """How many source rows fit in :data:`CACHE_CHUNK_BYTES` (at least one)."""
    return max(1, CACHE_CHUNK_BYTES // max(1, bytes_per_row))
