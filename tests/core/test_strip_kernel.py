"""The strip-walked functional kernels against whole-grid oracles.

``apply_stack`` of every engine walks its output in cache-sized strips
(row strips in 2D, z-plane chunks in 3D, column strips in 1D).  The
oracles below are the whole-grid kernels the strip walk replaced: one
full-grid temporary per term and per tap.  The strip walk keeps every
output element's operations and their order, so the two must agree
bit for bit, sign of zero included.

The shapes are chosen so the strip budget itself splits the walk into
at least three strips with a shorter last strip; a spy on
``row_strips`` checks that, without any hook that sets the strip
height.
"""

import numpy as np
import pytest

import repro
from repro.core import engine1d, engine2d, engine3d
from repro.core.sweep import _STRIP_BUDGET, row_strips
from repro.stencil.kernels import get_kernel


def _oracle_1d(engine, padded):
    n = padded.shape[-1] - 2 * engine.radius
    out = np.zeros((*padded.shape[:-1], n), dtype=np.float64)
    for t, wt in enumerate(engine.weight_vector):
        out += wt * padded[..., t : t + n]
    return out


def _oracle_2d(engine, padded):
    h = engine.radius
    rows, cols = (s - 2 * h for s in padded.shape[-2:])
    lead = padded.shape[:-2]
    out = np.zeros((*lead, rows, cols), dtype=np.float64)
    for term in engine.decomposition.matrix_terms:
        pd, s = term.pad, term.size
        tmp = np.zeros((*lead, rows, padded.shape[-1]), dtype=np.float64)
        for t in range(s):
            tmp += term.u[t] * padded[..., pd + t : pd + t + rows, :]
        for r in range(s):
            out += term.v[r] * tmp[..., pd + r : pd + r + cols]
    for term in engine.decomposition.scalar_terms:
        out += term.scalar_weight * padded[..., h : h + rows, h : h + cols]
    return out


def _oracle_3d(engine, padded):
    h = engine.radius
    zs, rs, cs = (s - 2 * h for s in padded.shape[-3:])
    out = np.zeros((*padded.shape[:-3], zs, rs, cs), dtype=np.float64)
    for task in engine.planes:
        slabs = padded[..., task.index : task.index + zs, :, :]
        if task.pointwise is not None:
            pi, pj, wt = task.pointwise
            out += wt * slabs[..., pi : pi + rs, pj : pj + cs]
        elif task.engine is not None:
            out += _oracle_2d(task.engine, slabs)
    return out


ORACLES = {1: _oracle_1d, 2: _oracle_2d, 3: _oracle_3d}

KERNELS = {
    1: ["1D5P", "Heat-1D"],
    2: ["Box-2D9P", "Heat-2D", "Star-2D13P", "Box-2D49P"],
    3: ["Heat-3D", "Box-3D27P"],
}

#: Interior shapes (leading batch axes first), per dimensionality.
#: Multi-strip shapes split into >= 3 strips with a shorter last strip.
MULTI_STRIP = {
    1: {"long": (250_001,), "batched": (4, 50_000)},
    2: {"wide-rows": (38, 20_000), "batched": (3, 47, 3_000)},
    3: {
        "tall-z": (130, 40, 40),
        "batched": (2, 59, 40, 40),
        "wide-planes": (5, 11, 30_000),
    },
}
ONE_POINT = {1: (1,), 2: (1, 1), 3: (1, 1, 1)}

CASES = [
    pytest.param(name, ndim, shape, True, id=f"{name}-{label}")
    for ndim, shapes in MULTI_STRIP.items()
    for name in KERNELS[ndim]
    for label, shape in shapes.items()
] + [
    pytest.param(name, ndim, ONE_POINT[ndim], False, id=f"{name}-1x1")
    for ndim in KERNELS
    for name in KERNELS[ndim]
]


def _padded_input(shape, ndim, radius, seed=0):
    """Random padded input with ``-0.0`` and ``+0.0`` scattered through it."""
    pad = [(0, 0)] * (len(shape) - ndim) + [(radius, radius)] * ndim
    x = np.pad(np.random.default_rng(seed).normal(size=shape), pad)
    flat = x.reshape(-1)
    flat[::5] = -0.0
    flat[1::11] = 0.0
    return x


def _spy_strips(monkeypatch):
    """Record every ``(n, strips)`` the engines' strip walks use."""
    calls = []

    def spy(n, bytes_per_row):
        strips = list(row_strips(n, bytes_per_row))
        calls.append(strips)
        return strips

    for module in (engine1d, engine2d, engine3d):
        monkeypatch.setattr(module, "row_strips", spy)
    return calls


@pytest.mark.parametrize("name,ndim,shape,multi", CASES)
def test_strip_walk_matches_whole_grid_oracle(monkeypatch, name, ndim, shape, multi):
    engine = repro.compile(get_kernel(name).weights, cache=None).plan.engine
    padded = _padded_input(shape, ndim, engine.radius)
    calls = _spy_strips(monkeypatch)
    got = engine.apply_stack(padded)
    want = ORACLES[ndim](engine, padded)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    if multi:
        # the budget, not a hook, splits the walk: >= 3 strips, ragged tail
        assert any(
            len(s) >= 3 and s[-1][1] - s[-1][0] < s[0][1] - s[0][0] for s in calls
        ), calls


@pytest.mark.parametrize("name", ["Box-2D9P", "Box-2D49P"])
def test_all_negative_zero_input_keeps_positive_zero_output(name):
    # the oracle accumulates into np.zeros, so 0.0 + (-0.0) gives +0.0
    engine = repro.compile(get_kernel(name).weights, cache=None).plan.engine
    padded = np.full((40 + 2 * engine.radius, 20_000 + 2 * engine.radius), -0.0)
    got = engine.apply_stack(padded)
    want = _oracle_2d(engine, padded)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert not np.signbit(got).any()


@pytest.mark.parametrize(
    "n,bytes_per_row",
    [(1, 1), (7, 1), (38, 480_032), (250_001, 24), (5, 10 * _STRIP_BUDGET)],
)
def test_row_strips_are_equal_and_fit_the_budget(n, bytes_per_row):
    strips = list(row_strips(n, bytes_per_row))
    assert strips[0][0] == 0 and strips[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(strips, strips[1:]))
    heights = [stop - start for start, stop in strips]
    assert all(h == heights[0] for h in heights[:-1])
    assert 0 < heights[-1] <= heights[0]
    assert heights[0] == 1 or heights[0] * bytes_per_row <= _STRIP_BUDGET
    if n * bytes_per_row <= _STRIP_BUDGET:
        assert strips == [(0, n)]
