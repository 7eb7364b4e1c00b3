"""Constructors and fast statistics for two analytically tractable design
families: exchangeable designs (equal pairwise column angles) and the
one-primary-predictor family whose single-predictor constant grows at the
sqrt(p) rate.

Both families come with closed-form adjusted-predictor formulas, so they
serve as desk-scale oracles for the generic direction machinery and let the
worst-case single-predictor statistic be evaluated in O(p log p) per draw at
dimensions where enumeration is hopeless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .constants import _mc_standard_error, conservative_quantile_index, posi_constant
from .design import SYMMETRIC, UPPER_TRIANGULAR, CanonicalDesign, Direction, ModelId


# ---------------------------------------------------------------------------
# Exchangeable designs
# ---------------------------------------------------------------------------


def _check_exchangeable(p: int, a: float):
    if p < 1:
        raise ValueError("p must be >= 1")
    if not a > -1.0 / p:
        raise ValueError(f"a must exceed -1/p = {-1.0 / p:g} for positive definiteness")


def exchangeable_design(p: int, a: float) -> CanonicalDesign:
    """Identity plus a times the all-ones matrix; symmetric canonical form."""
    _check_exchangeable(p, a)
    values = np.eye(p) + a * np.ones((p, p))
    return CanonicalDesign.from_canonical(values, form=SYMMETRIC)


def exchangeable_inverse_param(p: int, a: float) -> float:
    """c with X_p(a)^{-1} = X_p(c): the parameter duality -a / (1 + p a)."""
    _check_exchangeable(p, a)
    return -a / (1.0 + p * a)


def exchangeable_cosine(p: int, a: float) -> float:
    """Pairwise cosine between distinct columns: a(2 + pa) / (pa^2 + 2a + 1).

    At the lower boundary a -> -1/p this tends to -1/(p-1), and to +1 as
    a -> infinity; both collinear extremes have the same constant by duality.
    """
    _check_exchangeable(p, a)
    if p < 2:
        raise ValueError("pairwise cosine needs p >= 2")
    return a * (2.0 + p * a) / (p * a * a + 2.0 * a + 1.0)


def exchangeable_adjustment_coefficient(p: int, a: float, m: int) -> float:
    """The scalar governing the closed-form adjusted predictor for |M| = m >= 2."""
    if m < 2:
        raise ValueError("adjustment coefficient is defined for |M| >= 2")
    inv = 1.0 / (m - 1)
    return inv / (p * a * a + 2.0 * a + inv)


def exchangeable_direction_formula(
    p: int, a: float, model: ModelId, predictor: int
) -> Direction:
    """Closed-form adjusted-predictor direction for the exchangeable family.

    For |M| = 1 this is the normalized column. For |M| = m >= 2 the adjusted
    predictor has entry 1 + d a at the predictor, d a - (1 - d)/(m - 1) on
    the other model members, and d a elsewhere, with
    d = (1/(m-1)) / (p a^2 + 2 a + 1/(m-1)).
    """
    _check_exchangeable(p, a)
    if predictor not in model:
        raise ValueError(f"predictor {predictor} not in {model}")
    members = model.members
    if members[-1] > p:
        raise ValueError(f"model {model} exceeds dimension p={p}")
    m = len(members)
    if m == 1:
        vec = a * np.ones(p)
        vec[predictor - 1] += 1.0
        norm = float(np.linalg.norm(vec))
        return Direction(vec / norm, predictor, model, norm)
    dcoef = exchangeable_adjustment_coefficient(p, a, m)
    vec = np.full(p, dcoef * a)
    for k in members:
        if k != predictor:
            vec[k - 1] = dcoef * a - (1.0 - dcoef) / (m - 1)
    vec[predictor - 1] = 1.0 + dcoef * a
    norm = float(np.linalg.norm(vec))
    return Direction(vec / norm, predictor, model, norm)


@dataclass(frozen=True)
class RatioRow:
    p: int
    best_a: float
    k: float
    mc_standard_error: float
    ratio: float


def default_a_grid(p: int) -> tuple[float, ...]:
    """Nonnegative a values; the a < 0 side is covered through the parameter
    duality a <-> -a/(1+pa), which leaves the constant unchanged."""
    base = [0.0, 0.25 / math.sqrt(p), 1.0 / math.sqrt(p), 0.5, 1.0, 2.0,
            4.0, 16.0, 64.0, 256.0]
    return tuple(base)


def exchangeable_ratio_table(
    p_list,
    alpha: float = 0.05,
    n_samples: int = 50_000,
    seed: int = 0,
    a_grid=None,
) -> list[RatioRow]:
    """sup over the a-grid of K(X_p(a)) / sqrt(2 log p), per p."""
    rows = []
    for p in p_list:
        grid = tuple(a_grid) if a_grid is not None else default_a_grid(p)
        best: tuple[float, float, float] | None = None
        for a in grid:
            est = posi_constant(
                exchangeable_design(p, a),
                alpha=alpha,
                n_samples=n_samples,
                seed=seed,
            )
            if best is None or est.k > best[1]:
                best = (a, est.k, est.mc_standard_error)
        assert best is not None
        denom = math.sqrt(2.0 * math.log(p))
        rows.append(RatioRow(p, best[0], best[1], best[2], best[1] / denom))
    return rows


# ---------------------------------------------------------------------------
# Worst-case single-predictor designs
# ---------------------------------------------------------------------------


def _check_worst(p: int, c: float):
    if p < 2:
        raise ValueError("p must be >= 2")
    if not c * c < 1.0 / (p - 1):
        raise ValueError(f"need c^2 < 1/(p-1) = {1.0 / (p - 1):g} for full rank")


def worst_posi1_design(p: int, c: float) -> CanonicalDesign:
    """Columns e_1 .. e_{p-1} plus a unit primary column (c, .., c, sqrt(1-(p-1)c^2))."""
    _check_worst(p, c)
    values = np.eye(p)
    values[:, p - 1] = c
    values[p - 1, p - 1] = math.sqrt(1.0 - (p - 1) * c * c)
    return CanonicalDesign.from_canonical(values, form=UPPER_TRIANGULAR)


def _worst_coefficients(p: int, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Per model size m = 1..p: the weight on z_p and the weight on the sum of
    the complement's coordinates, from the closed-form direction."""
    ms = np.arange(1, p + 1)
    denom = np.sqrt(1.0 - (ms - 1) * c * c)
    on_zp = math.sqrt(1.0 - (p - 1) * c * c) / denom
    on_rest = c / denom
    return on_zp, on_rest


def fast_worst_posi1_stat(p: int, c: float, z: np.ndarray) -> float:
    """max over models M containing the primary predictor of the primary
    coefficient's |z-statistic|, in O(p log p).

    For each model size the best complement is a tail of the order statistics
    of z_1..z_{p-1}; |linear score| is convex in the complement sum, so
    checking the top and bottom tails is exact. Matches exhaustive
    enumeration at small p.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (p,):
        raise ValueError(f"draw must have length p={p}")
    _check_worst(p, c)
    return float(_fast_worst_posi1_batch(p, (c,), z[None, :])[0, 0])


# Draws per evaluation sub-block: its two (rows, p) scratch arrays take
# 800 KB at p = 100.
_WORST_SUB_BLOCK = 512


def _fast_worst_posi1_batch(p: int, cs, z_block: np.ndarray) -> np.ndarray:
    """Vectorized fast statistic for each c in cs over a (b, p) block of
    draws, shaped (len(cs), b). The tail sums of the order statistics do not
    depend on c, so the block is sorted once for all of them.

    The sum of the k largest is never below the sum of the k smallest, so
    for c >= 0 the top tail's score is never below the bottom tail's (and
    the reverse for c < 0): max |score| over both tails is the larger of the
    upper tail's max and minus the lower tail's min."""
    b = z_block.shape[0]
    zp = z_block[:, p - 1]
    # Column i holds the sum of the i smallest of z_1..z_{p-1}.
    prefix = np.zeros((b, p))
    prefix[:, 1:] = np.sort(z_block[:, : p - 1], axis=1)
    np.cumsum(prefix[:, 1:], axis=1, out=prefix[:, 1:])
    # Column m - 1: the sums of the p - m smallest and of the p - m largest.
    bottom, top = prefix[:, ::-1], prefix[:, -1:] - prefix
    best = np.zeros((len(cs), b))
    for out_c, c in zip(best, cs):
        on_zp, on_rest = _worst_coefficients(p, c)
        upper, lower = (top, bottom) if c >= 0 else (bottom, top)
        for lo in range(0, b, _WORST_SUB_BLOCK):
            rows = slice(lo, lo + _WORST_SUB_BLOCK)
            base = on_zp * zp[rows, None]
            out = out_c[rows]
            value = on_rest * upper[rows]
            value += base
            np.maximum(out, value.max(axis=1), out=out)
            value = on_rest * lower[rows]
            value += base
            np.maximum(out, -value.min(axis=1), out=out)
    return best


def exhaustive_worst_posi1_stat(p: int, c: float, z: np.ndarray) -> float:
    """Brute-force max over all 2^{p-1} models containing the primary predictor."""
    z = np.asarray(z, dtype=float)
    _check_worst(p, c)
    zp = float(z[p - 1])
    on_zp, on_rest = _worst_coefficients(p, c)
    best = 0.0
    for comp_mask in range(1 << (p - 1)):
        k = comp_mask.bit_count()
        m = p - k
        s = sum(float(z[i]) for i in range(p - 1) if comp_mask >> i & 1)
        val = abs(on_zp[m - 1] * zp + on_rest[m - 1] * s)
        if val > best:
            best = val
    return best


def default_c_grid(p: int, points: int = 6) -> tuple[float, ...]:
    """c values whose squares approach the full-rank boundary geometrically."""
    bound = 1.0 / (p - 1)
    fracs = [1.0 - 0.5 ** (i + 1) for i in range(points - 1)] + [1.0 - 1e-4]
    return tuple(math.sqrt(bound * f) for f in fracs)


@dataclass(frozen=True)
class WorstPosi1Row:
    p: int
    c: float
    k1: float
    mc_standard_error: float
    ratio: float


def worst_posi1_table(
    p: int,
    alpha: float = 0.05,
    n_samples: int = 20_000,
    seed: int = 0,
    c_grid=None,
) -> list[WorstPosi1Row]:
    """Quantile of the fast statistic per c on the grid; draws are shared
    across grid points so the sup over c is a smooth comparison."""
    grid = tuple(c_grid) if c_grid is not None else default_c_grid(p)
    idx = conservative_quantile_index(alpha, n_samples)
    nblocks = _rng.block_count(n_samples)
    values = {c: np.empty(n_samples) for c in grid}
    for b in range(nblocks):
        z, _ = _rng.gaussian_block(seed, _rng.PURPOSE_MAX_T, b, n_samples, p)
        sl = _rng.block_slice(b, n_samples)
        for c, stat in zip(grid, _fast_worst_posi1_batch(p, grid, z)):
            values[c][sl] = stat
    rows = []
    for c in grid:
        draws = values[c]
        k1 = float(np.partition(draws, idx - 1)[idx - 1])
        se = _mc_standard_error(draws, alpha)
        rows.append(WorstPosi1Row(p, c, k1, se, k1 / math.sqrt(p)))
    return rows


# ---------------------------------------------------------------------------
# The sqrt(p)-rate function
# ---------------------------------------------------------------------------


def rate_function(r: float) -> float:
    """phi(Phi^{-1}(r)) / sqrt(1 - r) on (0, 1)."""
    from scipy import special

    if not 0.0 < r < 1.0:
        raise ValueError("r must lie strictly between 0 and 1")
    x = special.ndtri(r)
    return float(np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi) / math.sqrt(1.0 - r))


def rate_function_max(xtol: float = 1e-10) -> tuple[float, float]:
    """(argmax, max) of the rate function, by golden-section search."""
    from scipy import optimize

    res = optimize.minimize_scalar(
        lambda r: -rate_function(r),
        bracket=(0.5, 0.73, 0.95),
        method="golden",
        options={"xtol": xtol},
    )
    return float(res.x), rate_function(float(res.x))
