"""Output checks the benchmark applies to the program's results.

Every check recomputes what it compares against from first principles or
tests a property the method must have; none compares against stored output.
Each returns a list of problems, empty when the result passes.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

# Relative noise floor below which the program drops singular values before
# forming the entropy- and sum-based rank proxies (README, Metrics).
SV_NOISE_FLOOR = 1e-7
# Half-width, relative to s_1, of the band around that floor in which the
# program's cut may differ from an SVD's (see recomputed_metrics).
SV_FLOOR_BAND = 2e-8
# Slack allowed on the rank bound num_rank * (1 - e_proj_norm) <= 1: a few
# float64 ulps of the product, which holds with equality on rank-one rows.
RANK_BOUND_SLACK = 8 * 2.0 ** -52


# --- reference generators -------------------------------------------------

def splitmix64_words(seed: int, count: int) -> list[int]:
    """First ``count`` outputs of splitmix64 (Steele, Lea, Flood; Vigna's C
    reference) started at ``seed``."""
    x = seed & _MASK64
    out = []
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def derive(seed: int, *path: int) -> int:
    """Seed tree: word ``i`` of the splitmix64 stream of ``seed``, nested
    along ``path``. Same rule as the program's documented ``subseed``."""
    for index in path:
        seed = splitmix64_words(seed, index + 1)[index]
    return seed


def xoshiro_uniforms(seed: int, count: int) -> list[float]:
    """First ``count`` floats in [0, 1) of xoshiro256++ (Blackman and Vigna)
    seeded by four splitmix64 words, each float the top 53 bits of a word."""
    s = splitmix64_words(seed, 4)

    def rotl(v: int, k: int) -> int:
        return ((v << k) | (v >> (64 - k))) & _MASK64

    out = []
    for _ in range(count):
        result = (rotl((s[0] + s[3]) & _MASK64, 23) + s[0]) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        out.append((result >> 11) * 2.0 ** -53)
    return out


def uniforms_match(values, seed: int) -> list[str]:
    """``values`` must be the leading draws of the reference stream."""
    values = [float(v) for v in values]
    ref = xoshiro_uniforms(seed, len(values))
    bad = [i for i, (a, b) in enumerate(zip(values, ref)) if a != b]
    if bad:
        return [f"draw {bad[0]} of seed {seed} is {values[bad[0]]!r}, reference {ref[bad[0]]!r}"]
    return []


# --- per-layer reports ----------------------------------------------------

def report_bounds(rep, bound: int) -> list[str]:
    """Ranges every metric report must respect, plus the rank bound
    ``num_rank <= 1 / (1 - e_proj_norm)``: ``||u^T x||^2 <= s_1^2``."""
    fields = ("num_rank", "stable_rank", "erank", "mad", "e_proj_norm")
    missing = [f for f in fields if getattr(rep, f) is None]
    if missing:
        return [f"undefined {', '.join(missing)}"]
    problems = []
    for name in ("num_rank", "stable_rank", "erank"):
        v = getattr(rep, name)
        if not 1.0 <= v <= bound:
            problems.append(f"{name}={v!r} outside [1, {bound}]")
    if not 0.0 <= rep.mad <= 2.0:
        problems.append(f"mad={rep.mad!r} outside [0, 2]")
    if not 0.0 <= rep.e_proj_norm <= 1.0:
        problems.append(f"e_proj_norm={rep.e_proj_norm!r} outside [0, 1]")
    product = rep.num_rank * (1.0 - rep.e_proj_norm)
    if product > 1.0 + RANK_BOUND_SLACK:
        problems.append(f"num_rank*(1-e_proj_norm)={product!r} > 1")
    return problems


def _close(name: str, got, want: float, rtol: float, atol: float = 0.0) -> list[str]:
    if got is None or not abs(got - want) <= atol + rtol * abs(want):
        return [f"{name}={got!r}, recomputed {want!r}"]
    return []


def _rank_proxies(s: np.ndarray, bound: int) -> tuple[float, float, float]:
    p = s / s.sum()
    return (
        min(max(float(s @ s) / float(s[0]) ** 2, 1.0), bound),
        min(max(float(s.sum()) ** 2 / float(s @ s), 1.0), bound),
        min(max(math.exp(-float(np.sum(p * np.log(p)))), 1.0), bound),
    )


def recomputed_metrics(x: np.ndarray, u: np.ndarray) -> dict:
    """Rank proxies, projection energy and Frobenius norm of ``x`` from a
    full SVD and the defining formulas.

    The program takes singular values from the Gram matrix, which resolves
    one near the noise floor only to about ``eps * s_1 / floor`` (2e-9 s_1),
    so a value within ``SV_FLOOR_BAND * s_1`` of the floor may fall on
    either side of it. ``"ranks"`` lists ``(num_rank, stable_rank, erank)``
    for every such cut.
    """
    sv = np.linalg.svd(x, compute_uv=False)
    floor, band = SV_NOISE_FLOOR * sv[0], SV_FLOOR_BAND * sv[0]
    sure = max(int(np.count_nonzero(sv >= floor + band)), 1)
    maybe = max(int(np.count_nonzero(sv >= floor - band)), sure)
    resid = x - np.outer(u, u @ x)
    return {
        "ranks": [_rank_proxies(sv[:k], min(x.shape)) for k in range(sure, maybe + 1)],
        "e_proj": float(np.sum(resid * resid)),
        "frob_norm": float(np.linalg.norm(x)),
    }


def report_matches(rep, x: np.ndarray, u: np.ndarray) -> list[str]:
    """A metric report agrees with the values recomputed from ``x``.

    ``num_rank`` weighs singular values squared and is held to 1e-9; the
    sum- and entropy-based proxies, which feel the Gram route's error on the
    smallest kept values, to 1e-6.
    """
    want = recomputed_metrics(x, u)
    f2 = want["frob_norm"] ** 2
    rank_problems = []
    for num, stable, erank in want["ranks"]:
        rank_problems = (
            _close("num_rank", rep.num_rank, num, 1e-9)
            + _close("stable_rank", rep.stable_rank, stable, 1e-6)
            + _close("erank", rep.erank, erank, 1e-6)
        )
        if not rank_problems:
            break
    return (
        rank_problems
        + _close("e_proj", rep.e_proj, want["e_proj"], 1e-9, 1e-12 * f2)
        + _close("frob_norm", rep.frob_norm, want["frob_norm"], 1e-12)
    )


# --- propagation operators ------------------------------------------------

def attention_matches(att: np.ndarray, g, x, w, p1, p2, alpha: float) -> list[str]:
    """A GAT attention matrix is row-stochastic, nonnegative, zero outside
    closed neighbourhoods, and equal to a per-edge softmax of
    ``leaky_relu(p1 . z_i + p2 . z_j)`` computed from the edge list."""
    n = g.n
    heads, tails = g.edge_arrays
    loops = np.arange(n)
    # Every closed-neighbourhood entry: both directions of each edge, and i -> i.
    rows = np.concatenate([heads, tails, loops])
    cols = np.concatenate([tails, heads, loops])
    z = x @ w
    score = (z @ p1)[rows] + (z @ p2)[cols]
    score = np.where(score >= 0.0, score, alpha * score)
    peak = np.full(n, -np.inf)
    np.maximum.at(peak, rows, score)
    e = np.exp(score - peak[rows])
    ref = e / np.bincount(rows, weights=e, minlength=n)[rows]
    problems = []
    if att.shape != (n, n):
        return [f"attention has shape {att.shape}, expected {(n, n)}"]
    if not np.all(att >= 0.0):
        problems.append("attention has negative entries")
    row_err = np.max(np.abs(att.sum(axis=1) - 1.0))
    if not row_err <= 1e-12:
        problems.append(f"attention rows sum to 1 only within {row_err:.3g}")
    outside = att.copy()
    outside[rows, cols] = 0.0
    if np.any(outside != 0.0):
        problems.append("attention is nonzero outside closed neighbourhoods")
    err = np.max(np.abs(att[rows, cols] - ref))
    if not err <= 1e-12:
        problems.append(f"attention differs from the per-edge softmax by {err:.3g}")
    return problems


def eigenvector_fixed(a: np.ndarray, u: np.ndarray) -> list[str]:
    """``a @ u == u`` to rounding, and ``u`` is a unit vector."""
    err = float(np.max(np.abs(a @ u - u)))
    norm_err = abs(float(u @ u) - 1.0)
    if not (err <= 1e-12 and norm_err <= 1e-12):
        return [f"dominant eigenvector: |A u - u| = {err:.3g}, |u.u - 1| = {norm_err:.3g}"]
    return []


# --- correlation pipeline -------------------------------------------------

def hand_pearson(xs, ys) -> float:
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = math.fsum((a - mx) ** 2 for a in xs)
    syy = math.fsum((b - my) ** 2 for b in ys)
    return sxy / math.sqrt(sxx * syy)


def correlation_matches(rep, t, b_norm2: float, depths, accuracies) -> list[str]:
    """Check a CorrelationReport over runs whose final features are
    ``outer(u, a) + t_k * outer(w, b)`` with unit ``w`` orthogonal to ``u``.

    Then ``e_proj = t_k^2 * |b|^2`` exactly in real arithmetic, so its
    correlation with accuracy is a Pearson of known numbers; the accuracy
    ratio (deepest over shallowest run) is one float division.
    """
    problems = []
    if rep.run_count != len(t):
        problems.append(f"run_count={rep.run_count}, expected {len(t)}")
    logs = [math.log(tk * tk * b_norm2) for tk in t]
    want = hand_pearson(logs, accuracies)
    problems += _close("e_proj correlation", rep.correlations.get("e_proj"), want, 0.0, 1e-9)
    deep = max(range(len(depths)), key=lambda i: depths[i])
    shallow = min(range(len(depths)), key=lambda i: depths[i])
    ratio = accuracies[deep] / accuracies[shallow]
    if rep.accuracy_ratio != ratio:
        problems.append(f"accuracy_ratio={rep.accuracy_ratio!r}, expected {ratio!r}")
    return problems


def bits_equal(got: np.ndarray, want: np.ndarray, label: str) -> list[str]:
    """Two float64 arrays hold the same bits."""
    got = np.ascontiguousarray(got, dtype=np.float64)
    want = np.ascontiguousarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    diff = np.count_nonzero(got.view(np.uint64) != want.view(np.uint64))
    return [f"{label}: {diff} entries differ from the written array"] if diff else []


def csv_rows(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()]
