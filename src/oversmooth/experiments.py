"""Reproducible experiment harnesses built on the simulators and metrics.

The synthetic grid runs twelve architecture/activation/weight-regime
combinations over several seeds, classifies each metric's layer series as
decayed or persistent, and majority-votes the verdicts. The toy scenarios
pin down metric behavior on four hand-built feature patterns. The rate
check measures the empirical geometric decay of the off-direction mass of a
linear propagation and compares it against the spectral gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DisconnectedGraph,
    InvalidParameter,
    RatioUnderflow,
    SeriesTooShort,
)
from .graph import (
    Graph,
    barabasi_albert,
    is_connected,
    sym_norm_adjacency,
)
from .linalg import _dominant_eigenpair, _spectral_gap, _spectrum, pow2_scale
from .metrics import (_RANK_METRICS, CANONICAL_METRICS, MetricReport, _e_proj, metric_series,
                      metric_suite)
from .propagate import (
    Activation,
    PropagationConfig,
    WeightScheme,
    _direction,
    identity_weights,
    leaky_relu,
    rollout,
    tanh,
    uniform_nonneg,
)
from .rng import Xoshiro256pp, subseed
from .validation import as_square_matrix, require_positive_int

# Decay thresholds. An energy-like series decays when it reaches a millionth
# of its layer-1 value (with an absolute floor); a rank-minus-one series
# decays when it reaches 1e-2.
ENERGY_FLOOR = 1e-12
ENERGY_RELATIVE = 1e-6
RANK_THRESHOLD = 1e-2
MIN_SERIES_LENGTH = 20
DECAY_WINDOW = 10

ENERGY_KIND = "energy"
RANK_KIND = "rank_minus_one"


@dataclass(frozen=True)
class DecayVerdict:
    """Outcome of classifying one layer series.

    ``crossed_at`` is the first layer at or below the threshold (None when
    the series never reaches it); ``window_min`` is the smallest finite
    value among the last ``DECAY_WINDOW`` entries (NaN if none is finite).
    """

    kind: str
    threshold: float
    decayed: bool
    crossed_at: int | None
    window_min: float


def decay_classify(series, kind: str) -> DecayVerdict:
    """Classify a per-layer metric series as decayed or persistent.

    ``kind`` is ``"energy"`` (threshold relative to the layer-1 entry) or
    ``"rank_minus_one"`` (fixed threshold). Non-finite entries mark layers
    where the metric was undefined; they never count as decayed. Series
    shorter than ``MIN_SERIES_LENGTH`` raise SeriesTooShort.
    """
    values = np.asarray([float(v) for v in series], dtype=np.float64)
    if values.shape[0] < MIN_SERIES_LENGTH:
        raise SeriesTooShort(
            f"need at least {MIN_SERIES_LENGTH} layers, got {values.shape[0]}"
        )
    if kind == ENERGY_KIND:
        ref = values[1]
        threshold = max(ENERGY_FLOOR, ENERGY_RELATIVE * ref) if math.isfinite(ref) else ENERGY_FLOOR
    elif kind == RANK_KIND:
        threshold = RANK_THRESHOLD
    else:
        raise InvalidParameter(f"kind must be '{ENERGY_KIND}' or '{RANK_KIND}', got {kind!r}")
    window = values[-DECAY_WINDOW:]
    finite = window[np.isfinite(window)]
    window_min = float(np.minimum.reduce(finite)) if finite.size else float("nan")
    decayed = bool(finite.size) and window_min <= threshold
    crossed_at = None
    if decayed:
        hits = np.nonzero(np.isfinite(values) & (values <= threshold))[0]
        crossed_at = int(hits[0])
    return DecayVerdict(
        kind=kind,
        threshold=float(threshold),
        decayed=decayed,
        crossed_at=crossed_at,
        window_min=window_min,
    )


@dataclass(frozen=True)
class SynthRow:
    """One grid row: architecture, activation, and weight regime."""

    name: str
    arch: str
    activation: Activation
    weights: WeightScheme


def _grid_rows() -> tuple[SynthRow, ...]:
    regimes = (
        ("identity", identity_weights()),
        ("small", uniform_nonneg(0.05)),
        ("large", uniform_nonneg(0.1)),
    )
    rows = []
    for regime_name, scheme in regimes:
        for arch in ("gcn", "gat"):
            for act_name, act in (("lrelu", leaky_relu()), ("tanh", tanh())):
                rows.append(
                    SynthRow(f"{arch}_{act_name}_{regime_name}", arch, act, scheme)
                )
    return tuple(rows)


GRID_ROWS = _grid_rows()
GRID_ROW_NAMES = tuple(r.name for r in GRID_ROWS)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic grid run."""

    n: int = 10
    m: int = 2
    width: int = 32
    depth: int = 300
    seeds: int = 5
    base_seed: int = 17
    rows: tuple[str, ...] = GRID_ROW_NAMES

    def __post_init__(self):
        unknown = [r for r in self.rows if r not in GRID_ROW_NAMES]
        if unknown:
            raise InvalidParameter(f"unknown grid rows: {unknown}")
        for name in ("n", "m", "width", "depth", "seeds"):
            require_positive_int(getattr(self, name), name)
        require_positive_int(self.base_seed, "base_seed", None)
        if self.depth + 1 < MIN_SERIES_LENGTH:
            raise InvalidParameter(
                f"depth must give at least {MIN_SERIES_LENGTH} layers"
            )


@dataclass(frozen=True)
class SynthGrid:
    """Majority-voted decay verdicts plus the underlying per-seed data."""

    config: SynthConfig
    verdicts: dict  # (row_name, metric) -> bool
    votes: dict  # (row_name, metric) -> tuple[DecayVerdict, ...]
    traces: dict  # (row_name, seed_index) -> tuple[MetricReport, ...]


def run_grid_cell(row: SynthRow, config: SynthConfig, seed_index: int) -> tuple[MetricReport, ...]:
    """One rollout of one grid row; returns the per-layer metric reports.

    Seeds are derived per (row, seed_index) so any cell can be reproduced in
    isolation; the graph is regenerated per seed so the vote spans graph
    realizations as well as weight draws.
    """
    row_index = GRID_ROW_NAMES.index(row.name)
    cell_seed = subseed(subseed(config.base_seed, row_index), seed_index)
    g = barabasi_albert(config.n, config.m, subseed(cell_seed, 0))
    prop = PropagationConfig(
        graph=g,
        width=config.width,
        depth=config.depth,
        arch=row.arch,
        activation=row.activation,
        weights=row.weights,
        seed=subseed(cell_seed, 1),
    )
    return metric_suite(rollout(prop).features, g, _direction(row.arch, g))


def synth_table(config: SynthConfig | None = None) -> SynthGrid:
    """Run the full grid and majority-vote each (row, metric) verdict."""
    config = config or SynthConfig()
    verdicts: dict = {}
    votes: dict = {}
    traces: dict = {}
    for name in config.rows:
        row = GRID_ROWS[GRID_ROW_NAMES.index(name)]
        per_seed = []
        for k in range(config.seeds):
            reports = run_grid_cell(row, config, k)
            traces[(name, k)] = reports
            per_seed.append(reports)
        for metric in CANONICAL_METRICS:
            kind = RANK_KIND if metric in _RANK_METRICS else ENERGY_KIND
            cell_votes = tuple(
                decay_classify(metric_series(reports, metric), kind)
                for reports in per_seed
            )
            votes[(name, metric)] = cell_votes
            yes = sum(1 for v in cell_votes if v.decayed)
            verdicts[(name, metric)] = yes * 2 > config.seeds
    return SynthGrid(config=config, verdicts=verdicts, votes=votes, traces=traces)


@dataclass(frozen=True)
class ToyScenario:
    name: str
    features: np.ndarray
    direction: np.ndarray
    report: MetricReport


TOY_NAMES = ("identical_rows", "aligned_rows", "aligned_plus_outlier", "independent_rows")


def toy_scenarios(seed: int = 0) -> tuple[Graph, tuple[ToyScenario, ...]]:
    """Four hand-built feature patterns on one preferential-attachment graph
    with 50 vertices (two edges per new vertex).

    1. every row is the same vector: all energies and angles vanish, ranks 1;
    2. rows are sign-mixed multiples of one vector (both signs forced
       present): energies and ranks still collapse but the angular distance
       sees the opposed rays;
    3. scenario 2 with one resampled outlier row: every metric leaves zero;
    4. independent uniform rows: nothing collapses.

    The measurement direction is the normalized first feature column of each
    scenario. Draw order per scenario is documented inline.
    """
    n = 50
    g = barabasi_albert(n, 2, subseed(seed, 0))
    rng = Xoshiro256pp(subseed(seed, 1))

    def mixed_signs(count: int) -> np.ndarray:
        signs = np.where(rng.fill(count) < 0.5, -1.0, 1.0)
        if np.all(signs == signs[0]):
            signs[1] = -signs[0]
        return signs

    scenarios = []
    # identical_rows: 2 draws (the shared row).
    base = rng.fill(2, 0.1, 1.0)
    scenarios.append(("identical_rows", np.tile(base, (n, 1))))
    # aligned_rows: 2 draws (direction) + n magnitudes + n sign draws.
    v = rng.fill(2, 0.1, 1.0)
    coef = rng.fill(n, 0.1, 1.0) * mixed_signs(n)
    scenarios.append(("aligned_rows", np.outer(coef, v)))
    # aligned_plus_outlier: as above + row index + 2 magnitudes + 2 signs.
    v3 = rng.fill(2, 0.1, 1.0)
    coef3 = rng.fill(n, 0.1, 1.0) * mixed_signs(n)
    x3 = np.outer(coef3, v3)
    idx = rng.randbelow(n)
    x3[idx] = rng.fill(2, 0.1, 1.0) * mixed_signs(2)
    scenarios.append(("aligned_plus_outlier", x3))
    # independent_rows: n*2 signed draws, row-major. Signed entries keep the
    # two sample directions near-isotropic, so the rank proxies sit close to
    # 2 and stay above the single-outlier scenario for every draw.
    scenarios.append(("independent_rows", rng.matrix(n, 2, -1.0, 1.0)))

    out = []
    for name, x in scenarios:
        u = x[:, 0] / math.sqrt(float(x[:, 0] @ x[:, 0]))
        out.append(
            ToyScenario(name=name, features=x, direction=u, report=metric_suite(x, g, u))
        )
    return g, tuple(out)


@dataclass(frozen=True)
class RateReport:
    """Measured vs. predicted geometric decay of the off-direction ratio."""

    measured_rate: float
    predicted_rate: float
    ratios: tuple[float, ...]
    fit_start: int
    fit_stop: int


def rate_check_matrix(
    a,
    width: int = 32,
    depth: int = 200,
    seed: int = 0,
) -> RateReport:
    """Core of the rate check for an arbitrary propagation matrix.

    Runs a linear rollout ``x -> a x w`` (features renormalized each layer;
    the tracked ratio ignores scale), records
    ``r_l = ||x - u u^T x||_F / ||u u^T x||_F`` against the dominant unit
    direction ``u`` of ``a`` until it falls below 1e-12, the precision of
    ``u``, and fits ``log r_l`` by least squares over the last half of the
    recorded layers; ``depth`` is only an upper bound. The fitted
    ``exp(slope)`` should match the spectral gap of ``a`` at any scale of
    ``a``; an exact zero ratio is instant alignment, rate 0. Weights are
    uniform on ``[-1, 1)``, redrawn while ``|det| < 1e-8`` so no layer
    loses rank. The loop runs on ``a`` divided by ``pow2_scale(a)``, an
    exact division that cancels in the renormalization and keeps every
    layer in range at any magnitude of ``a``.
    """
    a = as_square_matrix(a, "propagation matrix")
    require_positive_int(width, "width")
    require_positive_int(depth, "depth", 4)
    vals, vecs = _spectrum(a)
    _, u = _dominant_eigenpair(vals, vecs)
    predicted = _spectral_gap(vals)
    a_loop = a / pow2_scale(a)
    rng = Xoshiro256pp(seed)
    n = a.shape[0]
    x = rng.matrix(n, width, 0.0, 1.0)

    def off_ratio(mat: np.ndarray) -> float:
        # Rescaled exactly, as in ``_unit``, so that no square underflows.
        coef = u @ mat
        scale = pow2_scale(coef)
        coef = coef / scale
        denom = math.sqrt(float(coef @ coef)) * scale
        if denom == 0.0:
            raise DegenerateSpectrum("features are orthogonal to the dominant direction")
        return math.sqrt(_e_proj(mat, u)) / denom

    def draw_weights() -> np.ndarray:
        # A draw is refused with probability of order 1e-8 (exactly 1e-8 at
        # width 1), so the loop ends after one draw but for such odds.
        while True:
            w = rng.matrix(width, width, -1.0, 1.0)
            sign, logdet = np.linalg.slogdet(w)
            if sign != 0.0 and logdet >= math.log(1e-8):
                return w

    ratios = [off_ratio(x)]
    for _ in range(depth):
        x = a_loop @ x @ draw_weights()
        norm = math.sqrt(float(np.sum(x * x)))
        if norm == 0.0:
            ratios.append(0.0)
            break
        x = x / norm
        r = off_ratio(x)
        if r == 0.0:
            ratios.append(0.0)
            break
        if r < 1e-12:
            # Below the precision of u the ratio is rounding noise, not decay.
            break
        ratios.append(r)
    fit_stop = len(ratios) - 1
    if ratios[-1] == 0.0:
        # Perfect alignment: the decay is instantaneous, not geometric.
        return RateReport(0.0, predicted, tuple(ratios), fit_stop, fit_stop)
    if fit_stop == 0:
        raise RatioUnderflow("off-direction ratio fell below 1e-12 by layer 1; nothing to fit")
    fit_start = fit_stop // 2
    ls = np.arange(fit_start, fit_stop + 1, dtype=np.float64)
    ys = np.log(np.asarray(ratios[fit_start : fit_stop + 1]))
    lc = ls - ls.mean()
    slope = float(lc @ (ys - ys.mean())) / float(lc @ lc)
    return RateReport(math.exp(slope), predicted, tuple(ratios), fit_start, fit_stop)


def rate_check(
    g: Graph,
    width: int = 32,
    depth: int = 200,
    seed: int = 0,
) -> RateReport:
    """Rate check on a graph's symmetrically normalized adjacency. Requires a
    connected graph: otherwise eigenvalue 1 is repeated and the direction is
    an arbitrary vector of its eigenspace."""
    if not is_connected(g):
        raise DisconnectedGraph("rate check needs a connected graph")
    return rate_check_matrix(sym_norm_adjacency(g), width, depth, seed)
