"""Constructors and fast statistics for two analytically tractable design
families: exchangeable designs (equal pairwise column angles) and the
one-primary-predictor family whose single-predictor constant grows at the
sqrt(p) rate.

Both families come with closed-form adjusted-predictor formulas, so they
serve as desk-scale oracles for the generic direction machinery and let the
worst-case single-predictor statistic be evaluated in O(p log p) per draw at
dimensions where enumeration is hopeless. That evaluation scores, per draw,
only the model sizes whose complement sums can still rise: sizes past the
count of positive (top tail) or non-positive (bottom tail) coordinates are
skipped, and a rounding-safe bound on the skipped scores sends the rare
draws where they might win back to a full scan, so every value is the full
scan's, bit for bit. Blocks of draws are held size-major: the running sums
are built by adding row k-1 into row k (the additions np.cumsum makes, in
its order), only the rows up to the longer scored tail are formed, and the
broadcast products run through np.einsum, which writes +0 where np.multiply
writes -0. A zero's sign reaches only a result that is exactly 0, and such
results are scored again in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .constants import _order_statistic, conservative_quantile_index, posi_constant
from .design import SYMMETRIC, UPPER_TRIANGULAR, CanonicalDesign
from .lattice import Direction, ModelId


# ---------------------------------------------------------------------------
# Exchangeable designs
# ---------------------------------------------------------------------------


def _check_exchangeable(p: int, a: float):
    if p < 1:
        raise ValueError("p must be >= 1")
    if not -1.0 / p < a < math.inf:
        raise ValueError(f"a must be finite and exceed -1/p = {-1.0 / p:g} "
                         "for positive definiteness")


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
    """sup over the a-grid of K(X_p(a)) / sqrt(2 log p), per p >= 2."""
    p_list = list(p_list)
    if any(p < 2 for p in p_list):
        raise ValueError("p must be >= 2")
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


# Draws per evaluation sub-block, and the float64 elements of one scoring
# tile (sizes x draws, 512 KB): at p = 100 one tile spans every scored size;
# at p = 2000 a sub-block scores about 1 000 sizes per tail in tiles of 128,
# so each product and reduction stays in the 2 MB per-core L2 cache.
_WORST_SUB_BLOCK = 512
_WORST_TILE = 1 << 16


def _size_tables(p: int, cs) -> tuple[np.ndarray, np.ndarray]:
    """Per c, indexed by the complement size k = p - m: rho = |c| /
    sqrt(1 - (m-1) c^2), the weight on a tail sum, and alpha = sign(c) times
    the weight on z_p. Both are the closed-form weights up to a sign, which
    is exact in floating point; shapes (len(cs), p)."""
    rho = np.empty((len(cs), p))
    alpha = np.empty((len(cs), p))
    for row_rho, row_alpha, c in zip(rho, alpha, cs):
        on_zp, on_rest = _worst_coefficients(p, c)
        sign = 1.0 if c >= 0 else -1.0
        np.multiply(on_rest[::-1], sign, out=row_rho)
        np.multiply(on_zp[::-1], sign, out=row_alpha)
    return rho, alpha


def _pruned_envelope(pick, rho, alpha, k: int, tail, zp) -> np.ndarray:
    """pick(fl(rho_lo S), fl(rho_hi S)) + pick(fl(alpha_lo z_p), fl(alpha_hi z_p)),
    shaped (len(cs), draws), with S = tail and the ranges of rho and alpha
    taken over the sizes k' > k.

    rho >= 0, so with pick = np.maximum this bounds fl(fl(rho_k' S_k') +
    fl(alpha_k' z_p)) from above at every k' > k where S_k' <= S, and with
    np.minimum from below where S_k' >= S: rho_k' S_k' lies on the same side
    of rho_k' S, which lies between rho_lo S and rho_hi S whatever the sign
    of S, alpha_k' z_p lies between its two ends, and rounding to nearest
    keeps every one of these orders."""
    r, a = rho[:, k + 1:], alpha[:, k + 1:]
    envelope = pick(r.min(axis=1, keepdims=True) * tail,
                    r.max(axis=1, keepdims=True) * tail)
    envelope += pick(a.min(axis=1, keepdims=True) * zp,
                     a.max(axis=1, keepdims=True) * zp)
    return envelope


def _score_every_size(p: int, c: float, z_rows: np.ndarray) -> np.ndarray:
    """The fast statistic for one c, scoring every model size of both tails;
    the kernel's fallback for draws whose pruned sizes might hold the max."""
    zp = z_rows[:, p - 1]
    prefix = np.zeros((z_rows.shape[0], p))
    prefix[:, 1:] = np.sort(z_rows[:, : p - 1], axis=1)
    np.cumsum(prefix[:, 1:], axis=1, out=prefix[:, 1:])
    bottom, top = prefix[:, ::-1], prefix[:, -1:] - prefix
    on_zp, on_rest = _worst_coefficients(p, c)
    upper, lower = (top, bottom) if c >= 0 else (bottom, top)
    base = on_zp * zp[:, None]
    out = np.zeros(z_rows.shape[0])
    value = on_rest * upper
    value += base
    np.maximum(out, value.max(axis=1), out=out)
    value = on_rest * lower
    value += base
    np.maximum(out, -value.min(axis=1), out=out)
    return out


def _fast_worst_posi1_batch(p: int, cs, z_block: np.ndarray) -> np.ndarray:
    """Vectorized fast statistic for each c in cs over a (b, p) block of
    draws, shaped (len(cs), b), scoring only the model sizes that can hold
    each draw's maximum. Every value is bitwise what the full scan of both
    tails (_score_every_size) gives.

    Candidates. Let C be the running sums of the sorted z_1..z_{p-1}, S =
    C_{p-1}, and for a complement of k predictors (model size m = p - k)
    let T_k = fl(S - C_{p-1-k}) and B_k = C_k be the sums of the k largest
    and the k smallest, and rho_k, alpha_k the weights of _size_tables. The
    statistic is the largest of 0, fl(fl(rho_k T_k) + fl(alpha_k z_p)) and
    -fl(fl(rho_k B_k) + fl(alpha_k z_p)) over k. These are the full scan's
    candidates, whose tail signs depend on the sign of c, moved into rho and
    alpha; negation is exact, so each candidate has the full scan's bits.

    Pruning. Let P count the strictly positive z_1..z_{p-1}. Past P the top
    sums only fall, and past p - 1 - P (at least the count of strictly
    negative ones) the bottom sums only rise. Both hold after rounding,
    because the running sum and S - C_j round monotonically. So the top
    tail is scored for k <= P and the bottom tail for k <= p - 1 - P. The
    draws are ordered by P and cut into sub-blocks of _WORST_SUB_BLOCK
    draws; each sub-block scores the union of its draws' ranges k-major
    (row k holds size k for all its draws), in tiles of at most _WORST_TILE
    elements, in buffers allocated once per call.

    Layout and arithmetic. The sorted rows are copied transposed into the
    bottom sums and row k-1 is added into row k for k = 2..p-1: these are
    the additions np.cumsum makes along a row, in the same order, so B_k
    and T_k carry its bits. The shift fl(alpha_k z_p) and the scores are
    formed only for k up to the larger of the two ranges, since no tail
    reads past it. Both broadcast products are np.einsum sums of one
    product each: every element is one rounded product, except that
    einsum's zero start turns a product of -0 into +0. A sign of zero can
    reach a draw's result only when that result is exactly 0, and those
    draws are scored again below.

    Bound and fallback. Past a sub-block's top range K the sums are at most
    T_K, so every unscored top candidate is at most
    _pruned_envelope(np.maximum, ..., K, T_K, z_p); past its bottom range
    K' every unscored bottom candidate is at most minus
    _pruned_envelope(np.minimum, ..., K', B_K', z_p). Where neither bound
    exceeds a draw's result, the unscored candidates cannot beat it, so the
    result is the full maximum, bit for bit. The other draws, and those
    whose result is exactly 0 (z_p = 0 with c = 0 or an all-zero draw, so
    that the zero also carries the full scan's sign), are scored again for
    that c by _score_every_size. At p = 100 on the default grid about 1.5%
    of draws are scored again at the smallest c, 0.2% at the next and
    almost none at the others."""
    b = z_block.shape[0]
    best = np.zeros((len(cs), b))
    if b == 0:
        return best
    rho, alpha = _size_tables(p, cs)
    positive = np.count_nonzero(z_block[:, : p - 1] > 0, axis=1)
    order = np.argsort(positive, kind="stable")
    rescore = np.zeros((len(cs), b), dtype=bool)
    g = min(_WORST_SUB_BLOCK, b)
    tile = max(1, _WORST_TILE // g)
    draws = np.empty((g, p))
    zp_buf = np.empty(g)
    low = np.empty((p, g))  # row k: B_k, the sum of the k smallest
    low[0] = 0.0
    high = np.empty((p, g))  # row k: T_k, the sum of the k largest
    base = np.empty((min(tile, p), g))
    work = np.empty_like(base)
    reduced = np.empty(g)
    acc = np.empty((len(cs), g))
    for lo in range(0, b, g):
        rows = order[lo:lo + g]
        n = rows.size
        k_top = int(positive[rows[-1]])
        k_bottom = p - 1 - int(positive[rows[0]])
        sub = draws[:n]
        # mode="clip" writes straight into sub; the default mode buffers.
        np.take(z_block, rows, axis=0, out=sub, mode="clip")
        zp = zp_buf[:n]
        np.copyto(zp, sub[:, p - 1])
        sums = sub[:, : p - 1]
        sums.sort(axis=1)
        np.copyto(low[1:, :n], sums.T)
        for k in range(2, p):
            np.add(low[k, :n], low[k - 1, :n], out=low[k, :n])
        top = high[: k_top + 1, :n]
        np.subtract(low[p - 1, :n], low[p - 1 - k_top:, :n][::-1], out=top)
        bottom = low[: k_bottom + 1, :n]
        tails = ((top, np.maximum, False), (bottom, np.minimum, True))
        red = reduced[:n]
        acc_n = acc[:, :n]
        acc_n.fill(0.0)
        k_end_all = max(k_top, k_bottom) + 1
        for out, rho_c, alpha_c in zip(acc_n, rho, alpha):
            for k0 in range(0, k_end_all, tile):
                k1 = min(k0 + tile, k_end_all)
                shift = base[: k1 - k0, :n]
                np.einsum("i,j->ij", alpha_c[k0:k1], zp, out=shift)
                for tail, reduce, negate in tails:
                    k_end = min(k1, tail.shape[0])
                    if k0 >= k_end:
                        continue
                    value = work[: k_end - k0, :n]
                    np.einsum("i,ij->ij", rho_c[k0:k_end], tail[k0:k_end], out=value)
                    value += shift[: k_end - k0]
                    reduce.reduce(value, axis=0, out=red)
                    if negate:
                        np.negative(red, out=red)
                    np.maximum(out, red, out=out)
        flag = acc_n == 0.0
        if k_top < p - 1:
            flag |= _pruned_envelope(np.maximum, rho, alpha, k_top,
                                     top[k_top], zp) > acc_n
        if k_bottom < p - 1:
            flag |= -_pruned_envelope(np.minimum, rho, alpha, k_bottom,
                                      bottom[k_bottom], zp) > acc_n
        best[:, rows] = acc_n
        rescore[:, rows] = flag
    for out, c, flags in zip(best, cs, rescore):
        rows = np.flatnonzero(flags)
        if rows.size:
            out[rows] = _score_every_size(p, c, z_block[rows])
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
    across grid points so the sup over c is a smooth comparison. Every c
    must satisfy c^2 < 1/(p-1); they, alpha and n_samples are checked
    before any draw."""
    if p < 2:
        raise ValueError("p must be >= 2")
    grid = tuple(c_grid) if c_grid is not None else default_c_grid(p)
    for c in grid:
        _check_worst(p, c)
    conservative_quantile_index(alpha, n_samples)
    nblocks = _rng.block_count(n_samples)
    values = {c: np.empty(n_samples) for c in grid}
    for b in range(nblocks):
        z, _ = _rng.gaussian_block(seed, _rng.PURPOSE_MAX_T, b, n_samples, p)
        sl = _rng.block_slice(b, n_samples)
        for c, stat in zip(grid, _fast_worst_posi1_batch(p, grid, z)):
            values[c][sl] = stat
    rows = []
    for c in grid:
        k1, se = _order_statistic(values[c], alpha)
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
