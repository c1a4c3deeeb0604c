"""Scalar and matrix-valued kernels plus the bandwidth heuristic."""
import inspect
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.distance import cdist, pdist

from kingflow import (
    KernelSpec,
    NtkSpec,
    ParticleSet,
    flows,
    kernel_cross_grad,
    kernel_gram,
    kernel_value,
    kernels,
    median_heuristic,
    ntk_gram_blocks,
)
from kingflow.kernels import (
    DIAGONALIZED_SCALAR,
    EMPIRICAL_NTK,
    RBF_SCALAR,
    PooledMedian,
    _gaussian_gram,
    _pair_distances,
    _select,
)


# -- scalar kernel ------------------------------------------------------------

def test_kernel_value_at_zero_distance_is_one(rng):
    spec = KernelSpec(RBF_SCALAR, bandwidth=0.9)
    x = rng.standard_normal(3)
    assert kernel_value(spec, x, x) == pytest.approx(1.0)


def test_kernel_value_is_symmetric(rng):
    spec = KernelSpec(RBF_SCALAR, bandwidth=1.3)
    for _ in range(5):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        assert kernel_value(spec, x, y) == pytest.approx(kernel_value(spec, y, x))


def test_kernel_value_one_bandwidth_apart():
    sigma = 0.7
    spec = KernelSpec(RBF_SCALAR, bandwidth=sigma)
    assert kernel_value(spec, [0.0], [sigma]) == pytest.approx(np.exp(-0.5))


def test_kernel_gram_matches_entrywise_values(rng):
    spec = KernelSpec(RBF_SCALAR, bandwidth=1.1)
    xs, ys = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
    # far from the origin too: scipy squares the differences, so nothing cancels
    for offset in (0.0, 1e4):
        gram = kernel_gram(spec, xs + offset, ys + offset)
        for i in range(4):
            for j in range(3):
                expected = kernel_value(spec, xs[i] + offset, ys[j] + offset)
                assert gram[i, j] == pytest.approx(expected, rel=1e-12, abs=0)


def direct_gram(bandwidth, xs, ys):
    """The Gaussian Gram from scipy's squared distances, one new array per operation."""
    return np.exp(cdist(xs, ys, "sqeuclidean") / -(2.0 * bandwidth**2))


@pytest.mark.parametrize(
    "n, m, dim",
    [
        (800, 400, 2),
        (200, 100, 10),
        (250, 125, 5),
        (800, 1000, 2),
        (1000, 800, 2),
        (200, 10, 10),
        (5, 1, 3),
        (1, 7, 1),
        (300, 437, 5),
    ],
)
def test_gaussian_gram_is_bitwise_the_direct_squared_distances(n, m, dim, rng):
    # In place and into row strips x[s:e] x x[s:] of one buffer, as the
    # symmetric strips of flows._self_apply are written.
    xs = 3.0 + rng.standard_normal((n, dim))
    ys = 3.0 + rng.standard_normal((m, dim))
    for a, b in ((xs, ys), (xs, xs), (ys, ys)):
        assert np.array_equal(_gaussian_gram(1.3, a, b), direct_gram(1.3, a, b))
    full, rows = direct_gram(1.3, xs, xs), max(1, n // 3)
    buffer = np.empty(rows * n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        strip = buffer[: (stop - start) * (n - start)].reshape(stop - start, n - start)
        _gaussian_gram(1.3, xs[start:stop], xs[start:], out=strip)
        assert np.array_equal(strip, full[start:stop, start:])


def test_gaussian_gram_peaks_near_its_own_size(rng):
    # scipy writes the squared distances into the result's own array, and the
    # Gaussian is finished in it in place.
    pts = rng.standard_normal((800, 2))
    tracemalloc.start()
    try:
        gram = _gaussian_gram(1.0, pts, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * gram.nbytes


def test_kernel_gram_is_psd(rng):
    spec = KernelSpec(RBF_SCALAR, bandwidth=0.8)
    pts = rng.standard_normal((12, 3))
    eigs = np.linalg.eigvalsh(kernel_gram(spec, pts, pts))
    assert eigs.min() > -1e-8 * eigs.max()


def test_unresolved_bandwidth_rejected():
    with pytest.raises(ValueError):
        kernel_value(KernelSpec(RBF_SCALAR), [0.0], [1.0])


# -- cross gradient -----------------------------------------------------------

def test_cross_grad_at_coincidence():
    sigma = 0.6
    grad = kernel_cross_grad(KernelSpec(RBF_SCALAR, bandwidth=sigma), [1.0, 2.0], [1.0, 2.0])
    assert_allclose(grad, np.eye(2) / sigma**2)


def test_cross_grad_matches_double_finite_differences(rng):
    spec = KernelSpec(RBF_SCALAR, bandwidth=0.9)
    h = 1e-4
    for _ in range(5):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        grad = kernel_cross_grad(spec, x, y)
        approx = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                ei, ej = np.zeros(2), np.zeros(2)
                ei[i], ej[j] = h, h
                approx[i, j] = (
                    kernel_value(spec, x + ei, y + ej)
                    - kernel_value(spec, x + ei, y - ej)
                    - kernel_value(spec, x - ei, y + ej)
                    + kernel_value(spec, x - ei, y - ej)
                ) / (4 * h * h)
        assert np.linalg.norm(grad - approx) <= 1e-4 * np.linalg.norm(grad)


def test_cross_grad_transpose_relation(rng):
    spec = KernelSpec(RBF_SCALAR, bandwidth=1.2)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    assert_allclose(
        kernel_cross_grad(spec, x, y), kernel_cross_grad(spec, y, x).T, rtol=1e-12
    )


def test_cross_grad_is_jacobian_of_y_gradient(rng):
    # column j of the cross gradient is d/dx of (dk/dy_j)
    sigma = 0.8
    spec = KernelSpec(RBF_SCALAR, bandwidth=sigma)
    x, y = rng.standard_normal(2), rng.standard_normal(2)

    def grad_y(xp):
        return kernel_value(spec, xp, y) * (xp - y) / sigma**2

    h = 1e-6
    approx = np.zeros((2, 2))
    for i in range(2):
        ei = np.zeros(2)
        ei[i] = h
        approx[i, :] = (grad_y(x + ei) - grad_y(x - ei)) / (2 * h)
    assert_allclose(kernel_cross_grad(spec, x, y), approx, atol=1e-8)


def test_cross_grad_requires_the_differentiable_kind():
    with pytest.raises(ValueError):
        kernel_cross_grad(KernelSpec(DIAGONALIZED_SCALAR, bandwidth=1.0), [0.0], [1.0])
    with pytest.raises(ValueError):
        kernel_cross_grad(KernelSpec(EMPIRICAL_NTK, ntk=NtkSpec(input_dim=1)), [0.0], [1.0])


# -- tangent kernel -----------------------------------------------------------

def network_param_jacobian(spec: NtkSpec, x, h=1e-5):
    """Output Jacobian over all weights and biases by central differences."""
    params = [spec.w1.copy(), spec.b1.copy(), spec.w2.copy(), spec.b2.copy()]

    def forward(w1, b1, w2, b2):
        return w2 @ np.tanh(w1 @ x + b1) + b2

    cols = []
    for idx, arr in enumerate(params):
        flat = arr.ravel()
        for k in range(flat.size):
            bumped = [p.copy() for p in params]
            bumped[idx].ravel()[k] = flat[k] + h
            plus = forward(*bumped)
            bumped[idx].ravel()[k] = flat[k] - h
            minus = forward(*bumped)
            cols.append((plus - minus) / (2 * h))
    return np.stack(cols, axis=1)


def test_ntk_at_coincidence_is_symmetric_psd(rng):
    spec = NtkSpec(input_dim=3, hidden_width=8, seed=2)
    x = rng.standard_normal(3)
    block = ntk_gram_blocks(spec, [x], [x])[0, 0]
    assert_allclose(block, block.T, rtol=1e-12)
    assert np.linalg.eigvalsh(block).min() > -1e-12


@pytest.mark.parametrize("hidden,dim", [(4, 2), (8, 3)])
def test_ntk_equals_parameter_jacobian_outer_product(hidden, dim, rng):
    spec = NtkSpec(input_dim=dim, hidden_width=hidden, seed=5)
    pts = rng.standard_normal((3, dim))
    jacs = [network_param_jacobian(spec, x) for x in pts]
    for i in range(3):
        for j in range(3):
            block = ntk_gram_blocks(spec, [pts[i]], [pts[j]])[0, 0]
            oracle = jacs[i] @ jacs[j].T
            assert np.linalg.norm(block - oracle) <= 1e-4 * np.linalg.norm(oracle)


def test_stacked_ntk_gram_is_psd(rng):
    spec = NtkSpec(input_dim=2, hidden_width=16, seed=1)
    pts = rng.standard_normal((10, 2))
    blocks = ntk_gram_blocks(spec, pts, pts)
    stacked = blocks.transpose(0, 2, 1, 3).reshape(20, 20)
    eigs = np.linalg.eigvalsh(stacked)
    assert eigs.min() > -1e-8 * eigs.max()


def test_ntk_weights_are_frozen():
    spec = NtkSpec(input_dim=2, hidden_width=4, seed=0)
    with pytest.raises(ValueError):
        spec.w1[0, 0] = 1.0


# -- spec validation ----------------------------------------------------------

def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="mystery")
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            KernelSpec(kind="rbf_scalar", bandwidth=bad)
        with pytest.raises(ValueError):
            KernelSpec(kind="diagonalized_scalar", bandwidth=bad)
    with pytest.raises(ValueError):
        KernelSpec(kind="empirical_ntk")  # needs a network spec
    with pytest.raises(ValueError):
        KernelSpec(kind="empirical_ntk", bandwidth=1.0, ntk=NtkSpec(input_dim=1))
    with pytest.raises(ValueError):
        KernelSpec(kind="rbf_scalar", ntk=NtkSpec(input_dim=1))


def test_kernel_spec_config_round_trip(rng):
    for spec in (
        KernelSpec(RBF_SCALAR, bandwidth=0.5),
        KernelSpec(DIAGONALIZED_SCALAR),
        KernelSpec(EMPIRICAL_NTK, ntk=NtkSpec(2, hidden_width=8, seed=4)),
    ):
        rebuilt = KernelSpec.from_config(spec.to_config())
        assert rebuilt.kind == spec.kind
        assert rebuilt.bandwidth == spec.bandwidth
        if spec.ntk is not None:
            pts = rng.standard_normal((2, spec.ntk.input_dim))
            assert_allclose(
                ntk_gram_blocks(rebuilt.ntk, pts, pts),
                ntk_gram_blocks(spec.ntk, pts, pts),
            )


kernel_specs = st.builds(
    KernelSpec,
    kind=st.sampled_from([RBF_SCALAR, DIAGONALIZED_SCALAR]),
    bandwidth=st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
) | st.builds(
    NtkSpec,
    input_dim=st.integers(1, 5),
    hidden_width=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
).map(lambda ntk: KernelSpec(EMPIRICAL_NTK, ntk=ntk))


@settings(max_examples=100, deadline=None, database=None)
@given(spec=kernel_specs)
def test_kernel_spec_config_round_trips_every_kind(spec):
    assert KernelSpec.from_config(json.loads(json.dumps(spec.to_config()))) == spec


@pytest.mark.parametrize(
    "cfg",
    [
        {"kind": "rbf_scalar", "bandwitdh": 1.0},
        {"kind": "diagonalized_scalar", "bandwidth": 1.0, "seed": 0},
        {"kind": "rbf_scalar", "bandwidth": True},
        {"kind": "rbf_scalar", "bandwidth": "2"},
        {"kind": "rbf_scalar", "bandwidth": [1]},
        {"kind": "empirical_ntk", "input_dim": 2, "bandwidth": 1.0},
        {"kind": "empirical_ntk", "input_dim": 2, "hidden_width": 2.7},
        {"kind": "empirical_ntk", "input_dim": 2, "hidden_width": True},
        {"kind": "empirical_ntk", "input_dim": "2"},
        {"kind": "empirical_ntk", "input_dim": 2, "seed": 1.5},
        {"kind": "empirical_ntk", "hidden_width": 8},
        {"kind": "nope"},
        {"bandwidth": 1.0},
    ],
)
def test_kernel_config_takes_exactly_its_kinds_numeric_fields(cfg):
    with pytest.raises(ValueError):
        KernelSpec.from_config(cfg)


def test_kernel_numbers_are_checked_not_cast():
    assert KernelSpec.from_config({"kind": "rbf_scalar", "bandwidth": 2}).bandwidth == 2.0
    ntk = KernelSpec.from_config({"kind": "empirical_ntk", "input_dim": 2, "hidden_width": 8.0}).ntk
    assert ntk == NtkSpec(input_dim=2, hidden_width=8)
    assert type(ntk.hidden_width) is int
    for bad in (True, "2", float("nan"), 0.0):
        with pytest.raises(ValueError):
            KernelSpec(RBF_SCALAR, bandwidth=bad)
    with pytest.raises(ValueError):
        NtkSpec(input_dim=2, hidden_width=2.7)


def test_matrix_kernel_rejected_by_scalar_entry_points():
    spec = KernelSpec(EMPIRICAL_NTK, ntk=NtkSpec(input_dim=2))
    with pytest.raises(ValueError, match="ntk_gram_blocks"):
        kernel_value(spec, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        kernel_gram(spec, np.zeros((2, 2)), np.zeros((2, 2)))


# -- bandwidth heuristic ------------------------------------------------------

def test_median_heuristic_single_pair():
    assert median_heuristic(np.array([[0.0], [2.0]])) == pytest.approx(2.0)


def test_median_heuristic_enumerates_all_pairs():
    # pairwise distances of {0, 1, 2} are {1, 1, 2}
    assert median_heuristic(np.array([[0.0], [1.0], [2.0]])) == pytest.approx(1.0)


def test_median_heuristic_pools_both_sets():
    assert median_heuristic(np.array([[0.0]]), np.array([[2.0]])) == pytest.approx(2.0)


def test_median_heuristic_translation_invariance(rng):
    pts = rng.standard_normal((10, 2))
    assert median_heuristic(pts) == pytest.approx(median_heuristic(pts + 7.5))


def test_median_heuristic_degenerate_fallbacks():
    # all points identical: unit fallback
    assert median_heuristic(np.zeros((4, 1))) == 1.0
    # zero median but one distinct point: smallest nonzero distance
    pts = np.array([[0.0], [0.0], [0.0], [0.0], [3.0]])
    assert median_heuristic(pts) == pytest.approx(3.0)


def test_median_heuristic_needs_two_points():
    with pytest.raises(ValueError):
        median_heuristic(np.zeros((1, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_inputs_must_be_finite(bad):
    rng = np.random.default_rng(0)
    particles, targets = rng.standard_normal((40, 2)), rng.standard_normal((50, 2))
    particles[7, 1] = bad
    spec, ntk = KernelSpec(RBF_SCALAR, bandwidth=1.0), NtkSpec(input_dim=2, hidden_width=4)
    for call in (
        lambda: median_heuristic([[0.0], [bad], [1.0]]),
        lambda: median_heuristic(particles, targets),
        lambda: median_heuristic(targets, particles),
        lambda: PooledMedian(targets)(particles),
        lambda: PooledMedian(particles),
        lambda: kernel_gram(spec, particles, targets),
        lambda: kernel_gram(spec, targets, particles),
        lambda: ntk_gram_blocks(ntk, particles, targets),
        lambda: ntk_gram_blocks(ntk, targets, particles),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            call()


def test_point_inputs_must_not_be_empty():
    empty, points = np.zeros((0, 2)), np.zeros((3, 2))
    for call in (
        lambda: median_heuristic(points, empty),
        lambda: PooledMedian(points)(empty),
        lambda: PooledMedian(empty),
        lambda: kernel_gram(KernelSpec(RBF_SCALAR, bandwidth=1.0), empty, points),
        lambda: ntk_gram_blocks(NtkSpec(input_dim=2, hidden_width=4), points, empty),
    ):
        with pytest.raises(ValueError, match="at least one point"):
            call()


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.integers(2, 40),
    dim=st.integers(1, 3),
    grid=st.sampled_from([0, 1, 3, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_median_heuristic_equals_the_numpy_median_bitwise(n, dim, grid, seed):
    # 2-40 points give odd and even pair counts; integer grids give tied
    # distances, and a one-value grid makes every distance zero.
    rng = np.random.default_rng(seed)
    if grid is None:
        pts = rng.standard_normal((n, dim))
    else:
        pts = rng.integers(0, grid + 1, size=(n, dim)).astype(float)
    dists = pdist(pts)
    nonzero = dists[dists > 0]
    expected = float(np.median(dists))
    if expected == 0.0:
        expected = float(nonzero.min()) if nonzero.size else 1.0
    assert median_heuristic(pts) == expected


# -- pooled median against a fixed target set ------------------------------------

def grid_points(rng, count, dim, grid):
    if grid is None:
        return rng.standard_normal((count, dim))
    return rng.integers(0, grid + 1, size=(count, dim)).astype(float)


@settings(max_examples=150, deadline=None, database=None)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    dim=st.integers(1, 3),
    grid=st.sampled_from([0, 1, 3, None]),
    scales=st.lists(
        st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 8.0]), min_size=1, max_size=6
    ),
    shift=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pooled_median_is_the_median_heuristic_bitwise(n, m, dim, grid, scales, shift, seed):
    # A drifting particle set, scaled up and down so that the bracket around
    # the previous median misses on either side; integer grids give ties,
    # zero medians and, on a one-value grid, all-zero distances.  n + m
    # points give odd and even distance counts.
    rng = np.random.default_rng(seed)
    targets = grid_points(rng, m, dim, grid)
    base = grid_points(rng, n, dim, grid)
    pooled = PooledMedian(targets)
    for scale in scales:
        particles = ParticleSet(scale * base + shift * scale)
        assert pooled(particles) == median_heuristic(particles, targets)


@settings(max_examples=150, deadline=None, database=None)
@given(
    n=st.integers(1, 12),
    m=st.integers(2, 12),
    grid=st.sampled_from([2, 5, None]),
    state=st.lists(st.tuples(st.integers(0, 200), st.integers(1, 4)), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pooled_median_is_exact_from_any_bracket(n, m, grid, state, seed):
    # Whatever the previous median and spread, the bracket only decides how
    # much is selected from.  Centring it on a target distance puts its edges
    # on tied and middle values.
    rng = np.random.default_rng(seed)
    targets = grid_points(rng, m, 1, grid)
    particles = grid_points(rng, n, 1, grid)
    pooled = PooledMedian(targets)
    target_dists = np.sort(pdist(targets))
    for position, spread in state:
        pooled._centre = target_dists[position % target_dists.size]
        pooled._spread = spread
        assert pooled(particles) == median_heuristic(particles, targets)


def test_pooled_median_misses_a_bracket_that_starts_at_the_upper_middle():
    # Pooled distances 1 3 4 6 9 10: the bracket [6, inf) has three values
    # below it, which leaves out the lower middle value 4.
    pooled = PooledMedian([[0.0], [4.0], [10.0]])
    pooled._centre, pooled._spread = 10.0, 1
    assert pooled([[1.0]]) == median_heuristic([[1.0]], [[0.0], [4.0], [10.0]]) == 5.0


def test_pooled_median_recovers_from_bracket_misses_on_both_sides(rng, monkeypatch):
    targets = rng.standard_normal((80, 2))
    base = rng.standard_normal((60, 2))
    pooled = PooledMedian(targets)
    passes = []
    window = PooledMedian._window

    def counting_window(self, pts, lo, hi):
        below, values = window(self, pts, lo, hi)
        passes.append((below, values.size))
        return below, values

    monkeypatch.setattr(PooledMedian, "_window", counting_window)
    total = (60 + 80) * (60 + 80 - 1) // 2  # even: ranks total // 2 - 1 and total // 2
    misses = {"median below": 0, "median above": 0}
    for scale in (1.0, 1.001, 4.0, 4.002, 0.1, 0.1, 1.0):
        passes.clear()
        particles = scale * base
        assert pooled(particles) == median_heuristic(particles, targets)
        for below, _ in passes[:-1]:
            misses["median below" if below > total // 2 - 1 else "median above"] += 1
    assert misses["median below"] > 0 and misses["median above"] > 0


@pytest.mark.parametrize("seed", range(4))
def test_pooled_median_takes_one_pass_on_the_first_two_calls_of_a_moving_flow(seed, monkeypatch):
    # Particles contracting toward the targets move the median several
    # times the first call's seed error.  Call 2's bracket is seeded again,
    # less that error; a spread set from the error alone made call 2 miss
    # and take two or three passes.
    rng = np.random.default_rng(seed)
    targets = rng.standard_normal((200, 5))
    base = rng.standard_normal((200, 5))
    pooled = PooledMedian(targets)
    passes = []
    window = PooledMedian._window

    def counting_window(self, pts, lo, hi):
        passes[-1] += 1
        return window(self, pts, lo, hi)

    monkeypatch.setattr(PooledMedian, "_window", counting_window)
    for scale in (3.0, 2.7):
        passes.append(0)
        particles = scale * base
        assert pooled(particles) == median_heuristic(particles, targets)
    assert passes == [1, 1]


def test_pooled_median_fallbacks_and_edge_sizes():
    # a single particle and a single target: one distance
    assert PooledMedian([[0.0, 0.0]])([[3.0, 4.0]]) == 5.0
    # all distances zero
    assert PooledMedian(np.zeros((3, 2)))(np.zeros((4, 2))) == 1.0
    # a zero median falls back to the smallest nonzero distance
    targets = np.zeros((5, 1))
    particles = np.array([[0.0], [0.0], [2.5], [0.0]])
    assert median_heuristic(particles, targets) == 2.5
    assert PooledMedian(targets)(particles) == 2.5


def test_pooled_median_rejects_mismatched_dimensions():
    pooled = PooledMedian(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        pooled(np.zeros((3, 3)))


def test_pooled_median_call_stays_within_its_memory_budget(rng):
    # The pooled pdist array of 800 particles and 1000 targets is 12.4 MiB;
    # a call holds only a block of rows and the bracket's window.
    targets = 1.0 + rng.standard_normal((1000, 2))
    particles = rng.standard_normal((800, 2))
    pooled = PooledMedian(targets)
    for moved in (particles, 1.02 * particles + 0.01):
        tracemalloc.start()
        try:
            value = pooled(moved)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == median_heuristic(moved, targets)
        assert peak < 6 * 2**20


def test_pooled_median_zero_median_fallback_stays_within_the_memory_budget(rng):
    # With 1500 targets on one point the median is zero; the pooled pdist
    # array of 1800 points is 12.4 MiB, while the fallback holds a block of
    # rows.  The first call builds the band of 1.1 M zero target distances.
    targets = np.ones((1500, 2))
    particles = rng.standard_normal((300, 2))
    pooled = PooledMedian(targets)
    pooled(particles)
    for moved in (particles, 1.02 * particles + 0.01):
        tracemalloc.start()
        try:
            value = pooled(moved)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == median_heuristic(moved, targets)
        assert peak < 6 * 2**20


def test_pooled_median_band_is_rebuilt_on_both_sides(rng, monkeypatch):
    # With no reach past the interval it is built for, the band is a sliver
    # of the 79 800 target distances: shrinking the particles pushes the
    # median below it and growing them above, and each time the band is
    # built again from a pass over the target pairs.
    monkeypatch.setattr(PooledMedian, "_BAND_SHARE", 0.0)
    targets = rng.standard_normal((400, 2))
    base = rng.standard_normal((150, 2))
    pooled = PooledMedian(targets)
    moves = []
    for scale in (1.0, 0.3, 0.31, 1.0, 3.0, 3.02):
        below, rebuilds = pooled._below, pooled.rebuilds
        particles = scale * base
        assert pooled(particles) == median_heuristic(particles, targets)
        if pooled.rebuilds > rebuilds:
            moves.append("down" if pooled._below < below else "up")
    assert "down" in moves and "up" in moves


def test_pooled_median_band_keeps_a_share_of_the_target_distances(rng):
    # 1000 targets have 499 500 distances (3.8 MiB); the band keeps about
    # three times _BAND_SHARE of them, and a particle set moving a little
    # needs no rebuild.
    targets = 1.0 + rng.standard_normal((1000, 2))
    particles = rng.standard_normal((300, 2))
    pooled = PooledMedian(targets)
    for step in range(5):
        moved = (1.0 + 0.01 * step) * particles
        assert pooled(moved) == median_heuristic(moved, targets)
    assert pooled.rebuilds == 0
    assert pooled._band.size < 4 * PooledMedian._BAND_SHARE * pdist(targets).size


@pytest.mark.parametrize("band_share", [PooledMedian._BAND_SHARE, 0.0])
@settings(max_examples=50, deadline=None, database=None)
@given(
    m=st.integers(260, 360),
    n=st.integers(1, 60),
    dim=st.integers(1, 3),
    grid=st.sampled_from([3, 8, None]),
    scales=st.lists(st.sampled_from([0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 8.0]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_pooled_median_band_is_the_target_distances_in_its_interval(
    band_share, m, n, dim, grid, scales, seed
):
    # Over 256 targets the band is not every target distance.  A drifting
    # flow moves the median about; with no reach past the interval asked
    # for, many calls build the band again.  After every call the band is
    # exactly the target distances in [_lo, _hi] and _below counts those
    # under _lo.
    rng = np.random.default_rng(seed)
    targets = grid_points(rng, m, dim, grid)
    base = grid_points(rng, n, dim, grid)
    target_dists = np.sort(pdist(targets))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PooledMedian, "_BAND_SHARE", band_share)
        pooled = PooledMedian(targets)
        for step, scale in enumerate(scales):
            particles = scale * base + 0.1 * step
            assert pooled(particles) == median_heuristic(particles, targets)
            inside = (target_dists >= pooled._lo) & (target_dists <= pooled._hi)
            assert np.array_equal(pooled._band, target_dists[inside])
            assert pooled._below == np.count_nonzero(target_dists < pooled._lo)


def test_pooled_median_cuts_a_wide_bracket_to_the_band(rng):
    # 1000 targets have 499 500 distances and the band holds a share of
    # them.  A bracket wider than the whole sample is cut to the band, and
    # particles that barely moved find their median there: no pass over the
    # target pairs is made.
    targets = 1.0 + rng.standard_normal((1000, 2))
    particles = rng.standard_normal((300, 2))
    pooled = PooledMedian(targets)
    assert pooled(particles) == median_heuristic(particles, targets)
    band, rebuilds = pooled._band, pooled.rebuilds
    assert band.size < pdist(targets).size
    pooled._spread = pooled._sample.size + 1
    moved = 1.001 * particles
    assert pooled(moved) == median_heuristic(moved, targets)
    assert pooled.rebuilds == rebuilds and pooled._band is band


# -- squared distances as the one pairwise primitive -------------------------------

@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("dim", [1, 2, 5, 10])
def test_root_of_scipy_squared_distance_is_its_euclidean_distance_bitwise(dim, offset, rng):
    # The bandwidth passes rank squared distances and root only the ones
    # they keep; that this gives pdist's values is scipy's arithmetic.
    a = offset + rng.standard_normal((120, dim))
    b = offset + rng.standard_normal((90, dim))
    assert np.array_equal(np.sqrt(cdist(a, b, "sqeuclidean")), cdist(a, b))
    assert np.array_equal(np.sqrt(pdist(a, "sqeuclidean")), pdist(a))
    pooled = pdist(np.vstack([a, b]))
    rows, cols = np.triu_indices(a.shape[0] + b.shape[0], k=1)
    across = (rows < a.shape[0]) & (cols >= a.shape[0])
    assert np.array_equal(pooled[across], cdist(a, b).ravel())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pooled_median_is_exact_on_distances_within_an_ulp_of_the_bracket_ends(dim, rng):
    # Grid distances are roots of integers, and the squares of those roots
    # round away from the integers; every sample value is a bracket end in
    # turn.  Particles nudged one ulp off the grid have distances within
    # about an ulp of those ends, on either side.
    targets = rng.integers(0, 4, size=(300, dim)).astype(float)
    base = rng.integers(0, 4, size=(40, dim)).astype(float)
    nudged = np.nextafter(base, base + rng.choice([-1.0, 0.0, 1.0], size=base.shape))
    pooled = PooledMedian(targets)
    ends = np.unique(pooled._sample)
    for centre in ends:
        for particles in (base, nudged):
            pooled._centre, pooled._spread = centre, 1
            assert pooled(particles) == median_heuristic(particles, targets)
    # One window pass on such ends counts and keeps exactly the distances
    # the bracket holds, not just the ones the misses happen to correct.
    rows = np.triu_indices(base.shape[0] + targets.shape[0], k=1)[0]
    for particles in (base, nudged):
        dists = pdist(np.vstack([particles, targets]))[rows < base.shape[0]]
        for lo, hi in zip(ends[:-1], ends[1:]):
            below, inside = _select(_pair_distances(particles, targets), lo, hi)
            assert below == np.count_nonzero(dists < lo)
            assert np.array_equal(inside, np.sort(dists[(dists >= lo) & (dists <= hi)]))


def test_pooled_median_is_exact_where_a_bracket_end_squares_to_inf():
    # Past sqrt(max float), 1.34e154, the squares of distances overflow, and
    # so do scipy's distances themselves: the sample holds inf as a bracket
    # end, and the widened square of the end sqrt(max float) is inf too.
    root = np.sqrt(np.finfo(float).max)
    targets = root * np.array([0.0, 1 / 3, 2 / 3, 1.0, 1.2, 1.5, 2.0])[:, None]
    particles = root * np.linspace(0.0, 1.5, 9)[:, None]
    pooled = PooledMedian(targets)
    assert root in pooled._sample and np.isinf(pooled._sample[-1])
    for centre in np.unique(pooled._sample):
        for moved in (particles, 0.9 * particles, particles + root / 3):
            pooled._centre, pooled._spread = centre, 1
            assert pooled(moved) == median_heuristic(moved, targets)


def test_every_pairwise_distance_is_scipy_sqeuclidean(rng, monkeypatch):
    # One PooledMedian (built and called), one median_heuristic and one
    # rbf_scalar _gram_quadratic ask scipy for squared distances only.
    metrics = []

    def recording(function):
        signature = inspect.signature(function)

        def call(*args, **kwargs):
            metrics.append(signature.bind(*args, **kwargs).arguments.get("metric", "euclidean"))
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(kernels, "cdist", recording(kernels.cdist))
    monkeypatch.setattr(kernels, "pdist", recording(kernels.pdist))
    targets = 1.0 + rng.standard_normal((400, 2))
    particles = rng.standard_normal((300, 2))
    kernel = KernelSpec(RBF_SCALAR, bandwidth=0.8)
    for call in (
        lambda: PooledMedian(targets)(particles),
        lambda: median_heuristic(particles, targets),
        lambda: flows._gram_quadratic(kernel, particles, rng.standard_normal((300, 2, 5))),
    ):
        metrics.clear()
        call()
        assert metrics and set(metrics) == {"sqeuclidean"}
