"""Message-passing simulator tests: layer maps, attention, draw order."""

import math
import mmap
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oversmooth import propagate
from oversmooth.errors import InvalidParameter, ShapeMismatch
from oversmooth.graph import Graph, barabasi_albert, sym_norm_adjacency
from oversmooth.propagate import (
    OVERFLOW_LIMIT,
    Activation,
    PropagationConfig,
    WeightScheme,
    gat_attention,
    gcn_layer,
    identity,
    identity_weights,
    leaky_relu,
    rollout,
    tanh,
    uniform_nonneg,
    uniform_signed,
)
from oversmooth.rng import Xoshiro256pp


def edge2() -> Graph:
    return Graph.from_edges(2, [(0, 1)])


def test_leaky_relu_slopes():
    act = leaky_relu(0.25)
    assert_allclose(act.apply(np.array([2.0, -2.0])), [2.0, -0.5], rtol=0, atol=0)


def test_leaky_relu_positive_homogeneity():
    act = leaky_relu()
    z = Xoshiro256pp(1).fill(50, -3.0, 3.0)
    assert_allclose(act.apply(7.0 * z), 7.0 * act.apply(z), rtol=1e-15)


def test_tanh_matches_numpy():
    z = Xoshiro256pp(2).fill(20, -4.0, 4.0)
    assert np.array_equal(tanh().apply(z), np.tanh(z))


def test_identity_returns_a_copy():
    z = np.array([1.0, 2.0])
    out = identity().apply(z)
    out[0] = 99.0
    assert z[0] == 1.0


def test_activation_validation():
    with pytest.raises(InvalidParameter):
        leaky_relu(0.0)
    with pytest.raises(InvalidParameter):
        leaky_relu(1.0)


@pytest.mark.parametrize("kind, alpha", [("relu", 0.0), ("leaky_relu", 5.0), ("leaky_relu", 0.0)])
def test_activation_checks_itself_at_construction(kind, alpha):
    with pytest.raises(InvalidParameter):
        Activation(kind, alpha)


@pytest.mark.parametrize("kind, scale", [
    ("uniform-nonneg", 0.1), ("uniform_nonneg", -1.0), ("uniform_signed", 0.0),
    ("uniform_signed", float("nan")), ("uniform_signed", float("inf")),
    ("uniform_signed", 1e308),  # the width 2 * scale overflows
    ("uniform_nonneg", 10**400), ("uniform_signed", 10**400),  # beyond the float range
])
def test_weight_scheme_checks_itself_at_construction(kind, scale):
    with pytest.raises(InvalidParameter):
        WeightScheme(kind, scale)


def test_weight_scheme_sampling():
    rng = Xoshiro256pp(3)
    assert np.array_equal(identity_weights().sample_vector(rng, 4), np.zeros(4))
    m = uniform_nonneg(0.05).sample_vector(rng, 16)
    assert m.min() >= 0.0 and m.max() < 0.05
    s = uniform_signed(0.5).sample_vector(rng, 16)
    assert s.min() < 0.0 and abs(s).max() < 0.5
    with pytest.raises(InvalidParameter):
        uniform_nonneg(0.0)
    with pytest.raises(InvalidParameter):
        uniform_signed(-1.0)
    # The widest finite spans still draw finite parameters.
    assert np.all(np.isfinite(uniform_signed(8e307).sample_vector(rng, 16)))
    assert np.all(np.isfinite(uniform_nonneg(1.7e308).sample_vector(rng, 16)))


def test_gcn_layer_averages_single_edge():
    a = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = gcn_layer(a, [[1.0], [3.0]], [[1.0]], identity())
    assert_allclose(out, [[2.0], [2.0]], rtol=0, atol=0)


def test_gcn_layer_bias_and_residual():
    a = np.array([[0.5, 0.5], [0.5, 0.5]])
    x = np.array([[1.0], [3.0]])
    out = gcn_layer(a, x, [[1.0]], identity(), bias=[1.0], residual=(x, [[2.0]]))
    assert_allclose(out, [[5.0], [9.0]], rtol=0, atol=0)


def test_gcn_layer_shape_errors():
    a = np.eye(2)
    with pytest.raises(ShapeMismatch):
        gcn_layer(a, [[1.0], [2.0], [3.0]], [[1.0]], identity())
    with pytest.raises(ShapeMismatch):
        gcn_layer(a, [[1.0, 2.0], [3.0, 4.0]], [[1.0]], identity())
    with pytest.raises(ShapeMismatch):
        gcn_layer(a, [[1.0], [2.0]], [[1.0]], identity(), bias=[1.0, 2.0])
    with pytest.raises(ShapeMismatch):
        gcn_layer(a, [[1.0], [2.0]], [[1.0]], identity(), residual=([[1.0], [2.0]], [[1.0, 2.0]]))


def test_gat_attention_softmax_rows():
    # Score difference ln 3 between the two columns gives rows (3/4, 1/4).
    x = np.array([[math.log(3.0)], [0.0]])
    a = gat_attention(x, [[1.0]], [0.0], [1.0], edge2())
    assert_allclose(a, [[0.75, 0.25], [0.75, 0.25]], rtol=1e-14)


def test_gat_attention_zero_vectors_give_degree_uniform_rows():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    x = Xoshiro256pp(4).matrix(3, 2)
    a = gat_attention(x, np.eye(2), [0.0, 0.0], [0.0, 0.0], g)
    assert_allclose(a[1], [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], rtol=1e-15)
    assert_allclose(a[0], [0.5, 0.5, 0.0], rtol=1e-15)
    # Exactly 1/(1+d_i), also with an isolated vertex and with no edges.
    for g in (barabasi_albert(200, 3, seed=14), Graph.from_edges(4, [(0, 1)]),
              Graph.from_edges(1, [])):
        x = Xoshiro256pp(15).matrix(g.n, 2)
        a = gat_attention(x, np.eye(2), [0.0, 0.0], [0.0, 0.0], g)
        rows, _, cols = g.closed_csr
        want = np.zeros((g.n, g.n))
        want[rows, cols] = (1.0 / (1.0 + g.degrees))[rows]
        assert np.array_equal(a, want)


def test_gat_attention_is_row_stochastic_on_support():
    g = barabasi_albert(8, 2, seed=5)
    rng = Xoshiro256pp(6)
    x = rng.matrix(8, 3, -1.0, 1.0)
    w = rng.matrix(3, 3, -1.0, 1.0)
    a = gat_attention(x, w, rng.fill(3, -1.0, 1.0), rng.fill(3, -1.0, 1.0), g)
    assert a.min() >= 0.0
    assert_allclose(a.sum(axis=1), np.ones(8), rtol=1e-12)
    support = np.zeros((8, 8), dtype=bool)
    ei, ej = g.edge_arrays
    support[ei, ej] = support[ej, ei] = True
    np.fill_diagonal(support, True)
    assert np.all(a[~support] == 0.0)


def dense_gat_attention(x, w, p1, p2, g, leaky_alpha=0.2):
    """Reference: the dense masked softmax gat_attention replaced."""
    z = x @ w
    scores = (z @ p1)[:, None] + (z @ p2)[None, :]
    scores = np.where(scores >= 0.0, scores, leaky_alpha * scores)
    support = np.zeros((g.n, g.n), dtype=bool)
    ei, ej = g.edge_arrays
    support[ei, ej] = True
    support[ej, ei] = True
    np.fill_diagonal(support, True)
    masked = np.where(support, scores, -np.inf)
    shifted = np.exp(masked - masked.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True), support


@pytest.mark.parametrize("spread", [1.0, 400.0])
def test_gat_attention_matches_dense_reference(spread):
    # spread=400 puts scores hundreds apart within a row, so some
    # exponentials underflow to exact zeros inside the support.
    g = barabasi_albert(300, 2, seed=12)
    rng = np.random.default_rng(13)
    x = spread * rng.standard_normal((g.n, 8))
    w = rng.standard_normal((8, 8)) / math.sqrt(8)
    p1, p2 = rng.standard_normal(8), rng.standard_normal(8)
    got = gat_attention(x, w, p1, p2, g, 0.2)
    want, support = dense_gat_attention(x, w, p1, p2, g, 0.2)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.all(got[~support] == 0.0)
    assert np.array_equal(got == 0.0, want == 0.0)
    if spread > 1.0:
        assert np.any(want[support] == 0.0)


def test_gcn_layer_operator_matches_dense_matrix():
    g = barabasi_albert(500, 2, seed=16)
    rng = Xoshiro256pp(17)
    x = rng.matrix(g.n, 4, -1.0, 1.0)
    w = rng.matrix(4, 4, -1.0, 1.0)
    a = sym_norm_adjacency(g)
    got = gcn_layer(a, x, w, tanh(), bias=np.ones(4), residual=(x, w))
    want = gcn_layer(np.asarray(a), x, w, tanh(), bias=np.ones(4), residual=(x, w))
    assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    with pytest.raises(ShapeMismatch):
        gcn_layer(a, x[:-1], w, tanh())


def test_gat_attention_validation():
    with pytest.raises(ShapeMismatch):
        gat_attention(np.ones((3, 1)), [[1.0]], [0.0], [0.0], edge2())
    with pytest.raises(ShapeMismatch):
        gat_attention(np.ones((2, 1)), [[1.0]], [0.0, 0.0], [0.0], edge2())
    with pytest.raises(InvalidParameter):
        gat_attention(np.ones((2, 1)), [[1.0]], [0.0], [0.0], edge2(), leaky_alpha=0.0)


def test_config_validation():
    g = edge2()
    with pytest.raises(InvalidParameter):
        PropagationConfig(graph=g, width=2, depth=1, arch="mlp")
    with pytest.raises(InvalidParameter):
        PropagationConfig(graph=g, width=0, depth=1)
    with pytest.raises(InvalidParameter):
        PropagationConfig(graph=g, width=2, depth=0)
    with pytest.raises(InvalidParameter):
        PropagationConfig(graph=g, width=True, depth=1)
    with pytest.raises(InvalidParameter):
        PropagationConfig(graph=g, width=2, depth=True)
    with pytest.raises(InvalidParameter):
        PropagationConfig(graph=g, width=2, depth=1, gat_leaky_alpha=1.5)
    with pytest.raises(ShapeMismatch):
        PropagationConfig(graph=g, width=2, depth=1, init=np.ones((3, 2)))
    for seed in (2.5, "1", None, True):
        with pytest.raises(InvalidParameter, match="seed"):
            PropagationConfig(graph=g, width=2, depth=1, seed=seed)


def test_numpy_integer_seed_rolls_out_as_the_equal_int():
    g = barabasi_albert(12, 2, seed=np.int64(4))
    assert [a.tobytes() for a in g.edge_arrays] == [
        a.tobytes() for a in barabasi_albert(12, 2, seed=4).edge_arrays]
    traces = [rollout(PropagationConfig(graph=g, width=3, depth=4, weights=uniform_signed(),
                                        seed=seed)).features
              for seed in (np.uint64((1 << 64) - 2), (1 << 64) - 2)]
    assert traces[0].tobytes() == traces[1].tobytes()


def test_rollout_is_deterministic():
    g = barabasi_albert(10, 2, seed=7)
    config = PropagationConfig(
        graph=g, width=4, depth=6, arch="gat", activation=tanh(),
        weights=uniform_nonneg(0.1), seed=42, use_bias=True,
    )
    a = rollout(config)
    b = rollout(config)
    assert len(a.features) == 7
    for fa, fb in zip(a.features, b.features):
        assert np.array_equal(fa, fb)


def test_rollout_gcn_draw_order():
    # One stream: init features row-major, then per layer weights, bias,
    # residual weights. The manual replay must match bitwise.
    g = barabasi_albert(6, 2, seed=8)
    width, depth, lo, hi = 3, 2, 0.0, 0.3
    config = PropagationConfig(
        graph=g, width=width, depth=depth, arch="gcn", activation=tanh(),
        weights=uniform_nonneg(hi), seed=99, use_bias=True, use_residual=True,
    )
    trace = rollout(config)

    rng = Xoshiro256pp(99)
    a = sym_norm_adjacency(g)
    x0 = rng.matrix(g.n, width, 0.0, 1.0)
    x = x0
    states = [x0]
    for _ in range(depth):
        w = rng.matrix(width, width, lo, hi)
        bias = rng.fill(width, lo, hi)
        w_res = rng.matrix(width, width, lo, hi)
        x = np.tanh(a @ x @ w + bias[None, :]) + x0 @ w_res
        states.append(x)
    assert len(trace.features) == len(states)
    for got, want in zip(trace.features, states):
        assert np.array_equal(got, want)


def test_rollout_gat_draw_order():
    # Per layer: weights, then attention vectors p1 and p2.
    g = barabasi_albert(5, 2, seed=9)
    width, depth, scale = 2, 2, 0.2
    config = PropagationConfig(
        graph=g, width=width, depth=depth, arch="gat",
        activation=leaky_relu(), weights=uniform_nonneg(scale), seed=31,
    )
    trace = rollout(config)

    rng = Xoshiro256pp(31)
    x = rng.matrix(g.n, width, 0.0, 1.0)
    states = [x]
    act = leaky_relu()
    for _ in range(depth):
        w = rng.matrix(width, width, 0.0, scale)
        p1 = rng.fill(width, 0.0, scale)
        p2 = rng.fill(width, 0.0, scale)
        a = gat_attention(x, w, p1, p2, g)
        x = act.apply(a @ x @ w)
        states.append(x)
    for got, want in zip(trace.features, states):
        assert np.array_equal(got, want)


def test_rollout_truncates_on_overflow():
    g = edge2()
    config = PropagationConfig(
        graph=g, width=2, depth=5, arch="gcn", activation=identity(),
        weights=identity_weights(), seed=0,
        init=np.full((2, 2), 2.0 * OVERFLOW_LIMIT),
    )
    trace = rollout(config, metric_hook=lambda x: float(np.max(x)))
    assert trace.truncated_at == 1
    assert len(trace.features) == 1
    assert len(trace.reports) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e301])
def test_rollout_truncates_at_the_same_layer_for_nan_inf_and_overflow(bad, monkeypatch):
    real_layer = propagate.gcn_layer
    calls = []

    def layer(*args):
        out = real_layer(*args)
        calls.append(None)
        if len(calls) == 3:
            out[1, 0] = bad
        return out

    monkeypatch.setattr(propagate, "gcn_layer", layer)
    config = PropagationConfig(graph=barabasi_albert(6, 2, seed=12), width=3, depth=6, seed=2)
    trace = rollout(config)
    assert trace.truncated_at == 3
    assert len(trace.features) == 3
    assert np.all(np.isfinite(trace.features))


def test_rollout_releases_each_attention_before_building_the_next(monkeypatch):
    real_attention = propagate.gat_attention
    built = []

    def attention(*args):
        assert all(ref() is None for ref in built), "an earlier attention is still alive"
        out = real_attention(*args)
        built.append(weakref.ref(out))
        return out

    monkeypatch.setattr(propagate, "gat_attention", attention)
    g = barabasi_albert(20, 2, seed=14)
    rollout(PropagationConfig(graph=g, width=3, depth=4, arch="gat", activation=tanh(),
                              weights=uniform_nonneg(0.5), seed=5))
    assert len(built) == 4


def test_rollout_features_are_one_stack():
    g = barabasi_albert(6, 2, seed=13)
    trace = rollout(PropagationConfig(graph=g, width=3, depth=4, seed=3))
    assert trace.features.shape == (5, 6, 3)
    assert trace.features.flags.c_contiguous


def test_rollout_buffer_is_its_own_mapping_and_is_released_with_the_trace():
    # Kept out of the malloc heap, so that peak RSS follows what is alive.
    g = barabasi_albert(6, 2, seed=13)
    trace = rollout(PropagationConfig(graph=g, width=3, depth=4, seed=3))
    owner = trace.features
    while isinstance(owner, np.ndarray):
        owner = owner.base
    owner = owner.obj  # the memoryview np.frombuffer holds
    assert isinstance(owner, mmap.mmap) and len(owner) == 5 * 6 * 3 * 8
    assert trace.features.flags.writeable
    released = weakref.ref(owner)
    del owner, trace
    assert released() is None


def test_rollout_hook_runs_on_every_recorded_state():
    g = barabasi_albert(6, 2, seed=11)
    config = PropagationConfig(graph=g, width=2, depth=4, seed=1)
    trace = rollout(config, metric_hook=lambda x: float(np.sum(x * x)))
    assert len(trace.reports) == len(trace.features) == 5
    assert trace.reports[0] == float(np.sum(trace.features[0] ** 2))


# Block draws: rollout draws the parameters of several layers with one fill.
# Replayed with one draw call per parameter, in the pinned order, every
# layer must come out bit for bit the same.


def per_parameter_replay(config: PropagationConfig) -> np.ndarray:
    g, scheme, width = config.graph, config.weights, config.width
    rng = Xoshiro256pp(config.seed)
    x0 = rng.matrix(g.n, width, 0.0, 1.0)
    states = [x0]
    x = x0

    def square() -> np.ndarray:
        if scheme.kind == "identity":
            return np.eye(width)
        return scheme.sample_vector(rng, width * width).reshape(width, width)

    for _ in range(config.depth):
        w = square()
        bias = scheme.sample_vector(rng, width) if config.use_bias else None
        if config.arch == "gat":
            p1 = scheme.sample_vector(rng, width)
            p2 = scheme.sample_vector(rng, width)
        if config.use_residual:
            w_res = square()
        if config.arch == "gat":
            a = gat_attention(x, w, p1, p2, g, config.gat_leaky_alpha)
        else:
            a = sym_norm_adjacency(g)
        residual = (x0, w_res) if config.use_residual else None
        x = gcn_layer(a, x, w, config.activation, bias, residual)
        if not np.max(np.abs(x)) <= OVERFLOW_LIMIT:
            break
        states.append(x)
    return np.array(states)


def layers_per_block(width: int, arch: str, use_bias: bool, use_residual: bool) -> int:
    draws = width * width * (1 + use_residual) + width * (use_bias + 2 * (arch == "gat"))
    return max(1, propagate._BLOCK_DRAWS // draws)


@pytest.mark.parametrize("scheme", [identity_weights(), uniform_nonneg(0.1), uniform_signed(0.2)],
                         ids=["identity", "nonneg", "signed"])
@pytest.mark.parametrize("use_residual", [False, True], ids=["no-residual", "residual"])
@pytest.mark.parametrize("use_bias", [False, True], ids=["no-bias", "bias"])
@pytest.mark.parametrize("arch", ["gcn", "gat"])
def test_block_draws_equal_per_parameter_draws(arch, use_bias, use_residual, scheme):
    g = barabasi_albert(10, 2, seed=51)
    block = layers_per_block(32, arch, use_bias, use_residual)
    assert 1 < block < 10
    for depth in (1, block, block + 1):
        config = PropagationConfig(
            graph=g, width=32, depth=depth, arch=arch, activation=tanh(), weights=scheme,
            seed=52, use_bias=use_bias, use_residual=use_residual,
        )
        got = rollout(config).features
        want = per_parameter_replay(config)
        assert got.shape == want.shape == (depth + 1, 10, 32)
        assert got.tobytes() == want.tobytes(), depth


def test_block_draws_equal_per_parameter_draws_when_truncated_mid_block():
    g = barabasi_albert(10, 2, seed=53)
    block = layers_per_block(32, "gcn", False, False)
    config = PropagationConfig(graph=g, width=32, depth=60, activation=identity(),
                               weights=uniform_nonneg(1e9), seed=54)
    trace = rollout(config)
    # The overflowing layer is neither the first nor the last of its block.
    assert trace.truncated_at is not None and (trace.truncated_at - 1) % block not in (0, block - 1)
    assert trace.features.tobytes() == per_parameter_replay(config).tobytes()


@pytest.mark.parametrize("arch, depth, scheme, fills", [
    ("gat", 15, uniform_nonneg(0.1), 1 + 3),  # 7 layers of 1088 draws per fill
    ("gcn", 16, uniform_nonneg(0.1), 1 + 2),  # 8 layers of 1024 draws
    ("gat", 15, identity_weights(), 1),
])
def test_rollout_draws_in_blocks_of_at_most_the_block_size(arch, depth, scheme, fills,
                                                           monkeypatch):
    real_fill = Xoshiro256pp.fill
    counts = []

    def fill(self, count, low=0.0, high=1.0):
        counts.append(count)
        return real_fill(self, count, low, high)

    monkeypatch.setattr(Xoshiro256pp, "fill", fill)
    g = barabasi_albert(10, 2, seed=55)
    rollout(PropagationConfig(graph=g, width=32, depth=depth, arch=arch, activation=tanh(),
                              weights=scheme, seed=56))
    assert len(counts) == fills
    assert max(counts[1:], default=0) <= propagate._BLOCK_DRAWS
    per_layer = 32 * 32 + (64 if arch == "gat" else 0)
    drawn_layers = 0 if scheme.kind == "identity" else depth
    assert sum(counts) == 10 * 32 + drawn_layers * per_layer
