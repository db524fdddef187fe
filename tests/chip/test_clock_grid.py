"""Property tests of the exact clock-tree sums.

The acquisition engine rounds each receiver's per-register clock
weights once to a power-of-two grid and sums them by enable net
(:func:`repro.chip.acquire._clock_grid`); a cycle's clock amplitude is
then ``step * (units[0] + units[1:] @ enables)``
(:func:`repro.chip.acquire._clock_sum`).  Every partial sum is an
integer below ``2**53``, so the result must be the exact integer sum
times ``step`` and cannot depend on register order, on which receivers
share the product or on which lanes it covers — the property behind
solo == group and lane group == solo bit-identity.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.chip.acquire import _clock_grid, _clock_sum


def _case(seed, n_regs, n_nets, n_recv, cols, scale):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(n_recv, n_regs)) * 2.0**scale
    # Some exact zeros and one dominant register per receiver.
    weights[rng.random(weights.shape) < 0.1] = 0.0
    weights[:, rng.integers(n_regs)] *= 1e3
    codes = rng.integers(0, n_nets + 1, size=n_regs)
    enables = (rng.random((n_nets, cols)) < 0.5).astype(np.float64)
    return rng, weights, codes, enables


def _sums(weights, codes, enables):
    grids = [_clock_grid(w, codes, enables.shape[0] + 1) for w in weights]
    steps = np.array([step for step, _ in grids])
    units = np.stack([u for _, u in grids])
    return steps, units, _clock_sum(steps, units, enables)


CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_regs=st.integers(1, 600),
    n_nets=st.integers(0, 8),
    n_recv=st.integers(1, 5),
    cols=st.integers(1, 40),
    scale=st.integers(-60, 20),
)


@settings(max_examples=60, deadline=None)
@given(**CASES)
def test_clock_sum_is_the_exact_integer_sum(
    seed, n_regs, n_nets, n_recv, cols, scale
):
    _, weights, codes, enables = _case(
        seed, n_regs, n_nets, n_recv, cols, scale
    )
    steps, units, amps = _sums(weights, codes, enables)
    on = np.vstack([np.ones(cols), enables]).astype(bool)  # code 0: always
    for w, step, row, got in zip(weights, steps, units, amps):
        _, exponent = np.frexp(np.max(np.abs(w)))
        assert step == 2.0 ** (int(exponent) - 52 + n_regs.bit_length())
        q = [int(x) for x in np.rint(w / step)]
        assert np.all(np.abs(w - np.array(q) * step) <= step / 2)
        assert row.tolist() == [
            float(sum(qs for qs, c in zip(q, codes) if c == code))
            for code in range(n_nets + 1)
        ]
        exact = [
            sum(qs for qs, c in zip(q, codes) if on[c, col])
            for col in range(cols)
        ]
        assert max(map(abs, exact)) < 2**53
        expected = np.array([float(e) for e in exact]) * step
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(**CASES)
def test_clock_sum_ignores_register_order_receivers_and_lanes(
    seed, n_regs, n_nets, n_recv, cols, scale
):
    rng, weights, codes, enables = _case(
        seed, n_regs, n_nets, n_recv, cols, scale
    )
    steps, units, amps = _sums(weights, codes, enables)

    perm = rng.permutation(n_regs)
    assert _sums(weights[:, perm], codes[perm], enables)[2].tobytes() == (
        amps.tobytes()
    )

    pick = rng.permutation(n_recv)[: rng.integers(1, n_recv + 1)]
    sub = _clock_sum(steps[pick], units[pick], enables)
    assert sub.tobytes() == amps[pick].tobytes()

    lanes = np.sort(rng.permutation(cols)[: rng.integers(1, cols + 1)])
    part = _clock_sum(steps, units, np.ascontiguousarray(enables[:, lanes]))
    assert part.tobytes() == np.ascontiguousarray(amps[:, lanes]).tobytes()
