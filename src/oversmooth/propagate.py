"""Deterministic message-passing simulators.

A rollout repeatedly applies ``x -> activation(A x W)`` (optionally with a
bias row and a residual tap back to the input features) and records every
intermediate feature matrix. ``A`` is either the fixed symmetrically
normalized adjacency or a per-layer attention matrix built from the current
features. All randomness flows through one xoshiro256++ stream seeded from
the config seed, with a pinned draw order: initial features first (row
major), then per layer the weight matrix, bias, attention vectors, and
residual matrix, in that order, each only when its feature is enabled.
Consecutive layers' parameters are drawn by one ``fill`` per block of
layers; ``fill`` maps each draw alone to its value, so a block holds the
bits of one fill per parameter.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import InvalidParameter, ShapeMismatch
from .graph import (
    CsrOperator,
    Graph,
    constant_unit_vector,
    gcn_dominant_eigenvector,
    sym_norm_adjacency,
)
from .rng import Xoshiro256pp, _uniform_span
from .validation import as_matrix, as_square_matrix, as_vector, require_positive_int

# Feature magnitudes above this truncate a rollout.
OVERFLOW_LIMIT = 1e300

# Most draws one block of layer parameters holds: 64 KiB of float64, under
# glibc's initial 128 KiB mmap threshold, so a block comes from the heap.
_BLOCK_DRAWS = 8192


@dataclass(frozen=True)
class Activation:
    """Elementwise nonlinearity: 'leaky_relu' (slope ``alpha`` in (0, 1) on
    the negative axis), 'tanh', or 'identity'."""

    kind: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("leaky_relu", "tanh", "identity"):
            raise InvalidParameter(
                f"activation must be 'leaky_relu', 'tanh' or 'identity', got {self.kind!r}"
            )
        if self.kind == "leaky_relu" and not 0.0 < self.alpha < 1.0:
            raise InvalidParameter(f"leaky slope must lie in (0, 1), got {self.alpha}")

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "leaky_relu":
            return np.where(z >= 0.0, z, self.alpha * z)
        if self.kind == "tanh":
            return np.tanh(z)
        return z.copy()


def leaky_relu(alpha: float = 0.01) -> Activation:
    """Slope 1 on the nonnegative axis, ``alpha`` on the negative one."""
    return Activation("leaky_relu", alpha)


def tanh() -> Activation:
    return Activation("tanh")


def identity() -> Activation:
    return Activation("identity")


@dataclass(frozen=True)
class WeightScheme:
    """How layer parameters are drawn, fresh at every layer: 'identity',
    'uniform_nonneg' over ``[0, scale)``, or 'uniform_signed' over
    ``[-scale, scale)``. The uniform kinds need a finite ``scale > 0``, and
    the signed one a finite width ``2 * scale``.
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("identity", "uniform_nonneg", "uniform_signed"):
            raise InvalidParameter(
                "weight scheme must be 'identity', 'uniform_nonneg' or 'uniform_signed', "
                f"got {self.kind!r}"
            )
        if self.kind != "identity":
            _uniform_span(self._low(), self.scale)

    def _low(self):
        # The lower bound of every draw; the upper one is ``scale``.
        return 0.0 if self.kind == "uniform_nonneg" else -self.scale

    def sample_vector(self, rng: Xoshiro256pp, length: int) -> np.ndarray:
        # The identity scheme has no distribution to draw from; vector
        # parameters (bias, attention) degrade to zero.
        if self.kind == "identity":
            return np.zeros(length)
        return rng.fill(length, self._low(), self.scale)


def identity_weights() -> WeightScheme:
    return WeightScheme("identity")


def uniform_nonneg(scale: float = 1.0) -> WeightScheme:
    return WeightScheme("uniform_nonneg", scale)


def uniform_signed(scale: float = 1.0) -> WeightScheme:
    return WeightScheme("uniform_signed", scale)


@dataclass(frozen=True)
class PropagationConfig:
    """Full description of one deterministic rollout. GAT scores use the
    fixed slope ``gat_leaky_alpha`` of Veličković et al. (ICLR 2018)."""

    graph: Graph
    width: int
    depth: int
    arch: str = "gcn"
    activation: Activation = field(default_factory=leaky_relu)
    weights: WeightScheme = field(default_factory=identity_weights)
    seed: int = 0
    use_bias: bool = False
    use_residual: bool = False
    init: np.ndarray | None = None
    gat_leaky_alpha: ClassVar[float] = 0.2

    def __post_init__(self):
        if self.arch not in ("gcn", "gat"):
            raise InvalidParameter(f"arch must be 'gcn' or 'gat', got {self.arch!r}")
        require_positive_int(self.depth, "depth")
        require_positive_int(self.width, "width")
        require_positive_int(self.seed, "seed", None)
        if self.init is not None:
            x0 = as_matrix(self.init, "init features")
            if x0.shape != (self.graph.n, self.width):
                raise ShapeMismatch(
                    f"init features must be {self.graph.n}x{self.width}, "
                    f"got {x0.shape[0]}x{x0.shape[1]}"
                )
            object.__setattr__(self, "init", x0.copy())


@dataclass(frozen=True)
class LayerTrace:
    """Feature matrices (and optional per-layer reports) of one rollout.

    ``features`` is one ``(k+1, n, w)`` array holding the input and the
    states after each of the ``k`` recorded layers: ``features[l]`` is the
    state after ``l`` layers. It is the leading slice of the buffer the
    rollout wrote into, so ``metric_suite(features, g, u)`` evaluates the
    whole rollout in one call, with no copy. ``truncated_at`` is the first
    layer whose output overflowed; that layer's features are not recorded.
    """

    config: PropagationConfig
    features: np.ndarray
    reports: tuple | None
    truncated_at: int | None


def gcn_layer(a, x, w, activation: Activation, bias=None, residual=None) -> np.ndarray:
    """One propagation step ``activation(a x w + bias)``, plus the residual
    tap ``x0 w2`` (``residual=(x0, w2)``) added outside the nonlinearity.

    ``a`` is a dense matrix, checked here, or a ``CsrOperator``, which is
    finite and square by construction and is used as it is.
    """
    if not isinstance(a, CsrOperator):
        a = as_square_matrix(a, "propagation matrix")
    x = as_matrix(x, "features")
    w = as_matrix(w, "weights")
    if a.shape[1] != x.shape[0]:
        raise ShapeMismatch(
            f"propagation matrix is {a.shape[0]}x{a.shape[1]} but features have "
            f"{x.shape[0]} rows"
        )
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatch(
            f"features have {x.shape[1]} columns but weights have {w.shape[0]} rows"
        )
    z = a @ x @ w
    if bias is not None:
        z = z + as_vector(bias, "bias", w.shape[1])[None, :]
    h = activation.apply(z)
    if residual is not None:
        x0, w2 = residual
        x0 = as_matrix(x0, "residual features")
        w2 = as_matrix(w2, "residual weights")
        if x0.shape[0] != h.shape[0] or x0.shape[1] != w2.shape[0] or w2.shape[1] != h.shape[1]:
            raise ShapeMismatch("residual tap shapes do not compose")
        h = h + x0 @ w2
    return h


def gat_attention(x, w, p1, p2, g: Graph,
                  leaky_alpha: float = PropagationConfig.gat_leaky_alpha) -> np.ndarray:
    """Row-stochastic attention over closed neighborhoods, as a dense matrix.

    Scores are ``leaky_relu(p1 . z_i + p2 . z_j)`` with ``z = x w``, computed
    only on the closed-neighborhood entries of ``g.closed_csr`` and turned
    into rows by a max-shifted softmax over each neighborhood (segment max,
    exp, segment sum), then made dense by ``CsrOperator``'s scatter into
    zeros. Zero attention vectors give uniform rows ``1/(1+d_i)``.
    """
    x = as_matrix(x, "features")
    w = as_matrix(w, "weights")
    if x.shape[0] != g.n:
        raise ShapeMismatch(f"features have {x.shape[0]} rows for n={g.n}")
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatch(
            f"features have {x.shape[1]} columns but weights have {w.shape[0]} rows"
        )
    p1 = as_vector(p1, "attention vector p1", w.shape[1])
    p2 = as_vector(p2, "attention vector p2", w.shape[1])
    score_activation = Activation("leaky_relu", leaky_alpha)
    rows, indptr, cols = g.closed_csr
    z = x @ w
    scores = score_activation.apply((z @ p1)[rows] + (z @ p2)[cols])
    starts = indptr[:-1]
    shifted = np.exp(scores - np.maximum.reduceat(scores, starts)[rows])
    weights = shifted / np.add.reduceat(shifted, starts)[rows]
    return np.asarray(CsrOperator(rows, indptr, cols, weights))


def _direction(arch: str, g: Graph) -> np.ndarray:
    # The unit direction a rollout of ``arch`` collapses toward: the GCN
    # operator's dominant eigenvector, or the constant vector that every
    # row-stochastic attention matrix fixes.
    return gcn_dominant_eigenvector(g) if arch == "gcn" else constant_unit_vector(g.n)


def _layer_shapes(config: PropagationConfig) -> tuple:
    # The shape of each layer parameter in draw order (weights, bias, p1,
    # p2, residual weights), None where disabled.
    width, gat = config.width, config.arch == "gat"
    return (
        (width, width),
        (width,) if config.use_bias else None,
        (width,) if gat else None,
        (width,) if gat else None,
        (width, width) if config.use_residual else None,
    )


def _slice_layer(block: np.ndarray, start: int, shapes: tuple) -> tuple[list, int]:
    # One layer's parameters as views of block[start:], and where the next begins.
    params = []
    for shape in shapes:
        if shape is None:
            params.append(None)
        else:
            stop = start + math.prod(shape)
            params.append(block[start:stop].reshape(shape))
            start = stop
    return params, start


def rollout(config: PropagationConfig, metric_hook=None) -> LayerTrace:
    """Run a configured propagation and record every layer.

    Every state is written into one preallocated ``(depth+1, n, w)``
    buffer. A layer output with an entry above ``OVERFLOW_LIMIT`` (or
    non-finite), or a GAT attention that is not finite, truncates the
    rollout. After the loop, ``metric_hook`` runs once per recorded layer,
    input first, into ``LayerTrace.reports``.
    """
    g = config.graph
    rng = Xoshiro256pp(config.seed)
    # In a mapping of its own, unmapped with its last view: in the heap, the
    # holes this long-lived buffer leaves made peak RSS vary by megabytes.
    count = (config.depth + 1) * g.n * config.width
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    buf = mmap.mmap(-1, max(8 * count, 1), flags=flags)
    features = np.frombuffer(buf, np.float64, count).reshape(config.depth + 1, g.n, config.width)
    if config.init is None:
        features[0] = rng.matrix(g.n, config.width, 0.0, 1.0)
    else:
        features[0] = config.init
    x = features[0]
    fixed_a = sym_norm_adjacency(g) if config.arch == "gcn" else None
    scheme, shapes = config.weights, _layer_shapes(config)
    if scheme.kind == "identity":
        # Nothing to draw: identity weights and zero vectors at every layer.
        params = [None if shape is None else np.eye(shape[0]) if len(shape) == 2
                  else np.zeros(shape[0]) for shape in shapes]
    per_layer = sum(math.prod(shape) for shape in shapes if shape is not None)
    block, start = np.empty(0), 0
    truncated_at = None
    for layer in range(config.depth):
        if scheme.kind != "identity":
            if start == block.size:
                layers = min(config.depth - layer, max(1, _BLOCK_DRAWS // per_layer))
                block, start = scheme.sample_vector(rng, layers * per_layer), 0
            params, start = _slice_layer(block, start, shapes)
        w, bias, p1, p2, w_res = params
        if config.arch == "gat":
            with np.errstate(over="ignore", invalid="ignore"):
                a = gat_attention(x, w, p1, p2, g)
        else:
            a = fixed_a
        residual = (features[0], w_res) if config.use_residual else None
        try:
            x_next = gcn_layer(a, x, w, config.activation, bias, residual)
        except InvalidParameter:  # only a GAT attention can be non-finite: its scores overflowed
            x_next = None
        # Released here, so that the next layer's n x n attention is not
        # built while this one is still alive.
        del a
        # NaN fails the comparison and inf exceeds the limit: one reduction.
        if x_next is None or not np.maximum.reduce(np.abs(x_next), axis=None) <= OVERFLOW_LIMIT:
            truncated_at = layer + 1
            break
        x = features[layer + 1] = x_next
    features = features[: truncated_at or config.depth + 1]
    reports = None if metric_hook is None else tuple(map(metric_hook, features))
    return LayerTrace(config, features, reports, truncated_at)
