"""Simultaneous max-|t| constants: Monte Carlo estimates and closed forms.

The central quantity is the (1 - alpha) quantile of

    max over directions l of |l' Z| / sigma_hat,

with Z standard d-dimensional Gaussian and sigma_hat an independent
sqrt(chi2_r / r) variate (sigma_hat = 1 when the error variance is known).
Calibrating confidence intervals with this constant makes them
simultaneously valid for every coefficient of every submodel in the
universe, hence valid after any model selection rule.

Reference constants: the Scheffe constant (protects all linear
combinations, an upper bound), the orthogonal-design constant (the lower
bound over designs whose universe contains a maximal nested chain), a
Bonferroni-style sphere-cap upper bound driven only by the direction count,
and its asymptotic limit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import _blas, _rng
from .design import (
    CanonicalDesign,
    DirectionSet,
    ModelUniverse,
    _candidate_pair_count,
    direction_stream,
)
from .errors import InfeasibleError

_DIRECTION_CHUNK = 512
# Draws per fold tile: a 512 x 384 product tile (1.5 MB) stays in a core's
# 2 MB L2 cache while it is reduced. Fold speed was flat from 128 to 3072 in
# a measured sweep (see CHANGES.md). The draws are padded to whole groups of
# _DRAW_GROUP columns (see max_abs_t_draws); _FOLD_DRAWS is a multiple of
# _DRAW_GROUP, so no tile is one column wide (a matrix-vector product) unless
# the width is changed.
_FOLD_DRAWS = 384
_DRAW_GROUP = 16
# Folds of fewer directions x draw columns than this run on one worker:
# starting the workers and pinning BLAS costs about what they save. Two
# workers against one on a 2-core Xeon KVM guest with OpenBLAS on 2
# threads, counting nominal pairs (before the rank rule) x padded draws:
# the unscreened fold was even at 38-51 million and faster from 64 million;
# the two-stage screened fold (posi_constant, calls alternating in one
# process) was even at 41 million (+2%) and faster from 61 million (-2% at
# 61, -7% at 82 and 102 million), with an earlier sweep even up to 82
# million (see CHANGES.md).
_PARALLEL_FOLD_MIN = 60_000_000

MONTE_CARLO = "monte_carlo"
CLOSED_FORM = "closed_form"
BOUND = "bound"


@dataclass(frozen=True)
class ErrorModel:
    """Degrees of freedom r of the independent variance estimate; inf = known sigma."""

    df: float = math.inf

    def __post_init__(self):
        if math.isinf(self.df):
            return
        if self.df < 1 or self.df != int(self.df):
            raise ValueError("df must be a positive integer or infinity")

    @property
    def sigma_known(self) -> bool:
        return math.isinf(self.df)

    @classmethod
    def known_sigma(cls) -> "ErrorModel":
        return cls(math.inf)

    @classmethod
    def with_df(cls, r: int) -> "ErrorModel":
        return cls(float(r))


@dataclass(frozen=True)
class ConstantEstimate:
    """A calibrated constant together with how it was obtained."""

    k: float
    alpha: float
    error_model: ErrorModel
    mc_samples: int
    mc_standard_error: float
    seed: int
    direction_count: int
    method: str
    name: str
    universe: ModelUniverse | None = None

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("constant must be positive")
        if (self.mc_standard_error == 0.0) != (self.method != MONTE_CARLO):
            raise ValueError("standard error must be zero exactly for non-MC methods")


def _validate_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def conservative_quantile_index(alpha: float, n: int) -> int:
    """1-based order-statistic index ceil((1-alpha)(n+1))."""
    idx = math.ceil((1.0 - alpha) * (n + 1))
    if idx > n:
        raise ValueError(
            f"n={n} draws cannot pin the {1 - alpha:g} quantile conservatively; "
            f"need n >= {idx}"
        )
    return idx


def _spacing_ranks(alpha: float, n: int) -> tuple[int, int]:
    """1-based ranks (lo, hi) of the order statistics that bracket the
    conservative index idx: idx - m and idx + m with m = ceil(2 sqrt(N alpha
    (1 - alpha))), clipped to 1..N."""
    idx = conservative_quantile_index(alpha, n)
    m = math.ceil(2.0 * math.sqrt(n * alpha * (1.0 - alpha)))
    return idx - min(m, idx - 1), idx + min(m, n - idx)


def _mc_standard_error(draws: np.ndarray, alpha: float) -> float:
    """Monte Carlo standard error of the order statistic K.

    Order-statistic asymptotics give se = sqrt(alpha (1 - alpha) / N) / f(K).
    The density f(K) is read off the spacing of the order statistics ranked
    lo..hi around K (see _spacing_ranks): f ~ (hi - lo) / (N (X_hi - X_lo)),
    so se = (X_hi - X_lo) sqrt(N alpha (1 - alpha)) / (hi - lo). Only the
    draws ranked lo and above enter it, so draws screened below X_lo may
    hold any smaller value. When the spacing is zero (tied draws, or N = 1) the
    standard error is one ulp of X_hi, so that it stays positive.
    """
    n = draws.size
    lo, hi = _spacing_ranks(alpha, n)
    x = np.partition(draws, [lo - 1, hi - 1])
    x_lo, x_hi = float(x[lo - 1]), float(x[hi - 1])
    se = (x_hi - x_lo) * math.sqrt(n * alpha * (1.0 - alpha)) / max(hi - lo, 1)
    return max(se, math.ulp(x_hi))


def _fold_chunk_max(chunk: np.ndarray, zt: np.ndarray, best: np.ndarray,
                    buf: np.ndarray) -> None:
    """best[i] = max(best[i], max_j |chunk_j . zt[:, i]|), reusing a scratch buffer.

    The product is direction-major, so the reductions run down its columns:
    an elementwise max of contiguous rows. max |x| is folded as
    max(max x, -min x) to avoid an extra elementwise pass; both routes give
    bitwise-identical values.
    """
    out = buf[: chunk.shape[0], : zt.shape[1]]
    np.matmul(chunk, zt, out=out)
    hi = out.max(axis=0)
    lo = out.min(axis=0)
    np.negative(lo, out=lo)
    np.maximum(best, hi, out=best)
    np.maximum(best, lo, out=best)


def _float32_slack(d: int) -> float:
    """c_d with |m32 - m64| <= c_d ||z|| for a unit direction l and a draw z
    in d dimensions, where m32 and m64 are |l'z| computed from float32 and
    from float64 operands: the rounding of l and z to float32 (2 u32), gamma_d
    for the float32 dot product (d u32) and gamma_d for the float64 one
    (d u64), in the first order (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1), and a factor 2 on top for safety."""
    return 2 * (d + 2) * (2.0 ** -24 + 2.0 ** -53)


@contextmanager
def _fold_workers(workers: int):
    """Yield run(fn, calls), which calls fn(*args) for each args in calls and
    returns once every call has returned, re-raising the first error in call
    order. With one worker the calls run inline, in the caller's thread.
    With more, the last call runs in the caller's thread and the others on a
    pool of workers - 1 threads, while numpy's BLAS is pinned to one thread;
    the pool is joined and the BLAS count restored on the way out, also when
    the block raises."""
    if workers == 1:
        def run_inline(fn, calls):
            for args in calls:
                fn(*args)
        yield run_inline
        return
    from concurrent.futures import ThreadPoolExecutor, wait

    def run_pooled(fn, calls):
        futures = [pool.submit(fn, *args) for args in calls[:-1]]
        try:
            fn(*calls[-1])
        finally:
            wait(futures)
            for future in futures:
                future.result()

    with _blas.pinned_to_one_thread(), ThreadPoolExecutor(workers - 1) as pool:
        yield run_pooled


def _fold_shares(cols: int, workers: int) -> list[list[tuple[int, int]]]:
    """The fold tiles of ``cols`` draw columns, split into ``workers``
    contiguous shares."""
    tiles = [(lo, min(lo + _FOLD_DRAWS, cols)) for lo in range(0, cols, _FOLD_DRAWS)]
    if tiles[-1][1] - tiles[-1][0] == 1 < len(tiles):
        # A tile width that is not a multiple of _DRAW_GROUP can leave one
        # column over; it joins the tile before it.
        tiles[-2:] = [(tiles[-2][0], cols)]
    return [tiles[w * len(tiles) // workers:(w + 1) * len(tiles) // workers]
            for w in range(workers)]


def _fold(
    directions: DirectionSet,
    error_model: ErrorModel,
    n_samples: int,
    seed: int,
    threads: int,
    screen_rank: int | None,
) -> np.ndarray:
    """The max-|t| draws (see max_abs_t_draws), folded exactly at and above
    the order statistic of 1-based rank ``screen_rank``.

    With ``screen_rank`` None every chunk is folded over every draw, in
    float64, and every draw is exact. Otherwise each chunk is folded in two
    stages, and the next chunk is enumerated once both are done.

    Bound stage. The chunk is folded over a float32 copy of the live draws.
    Draw i's float32 chunk maximum m_i lies within c_d ||z_i|| of the
    float64 one (see _float32_slack). With e_i = c_d ||z_i|| / sigma_hat_i,
    draw i keeps the running lower bound max(m_i / sigma_hat_i - e_i) over
    the chunks so far, and u_i = m_i / sigma_hat_i + e_i bounds what this
    chunk can give it. The floor L is the order statistic of rank
    ``screen_rank`` of the lower bounds (less the draws screened so far,
    which all lie below it), so it never exceeds the exact order statistic
    X_(screen_rank).

    Exact stage. The draws with u_i >= L and u_i at or above their lower
    bound are gathered, in float64, into whole 16-column groups, and the
    chunk is folded over them; their exact chunk maximum over sigma_hat_i
    raises their lower bound. A draw whose exact value reaches
    X_(screen_rank) passes both tests at the chunk that gives its maximum,
    so it ends exact: division by sigma_hat_i rounds monotonically, so the
    largest quotient is the quotient of the largest maximum. Every other
    draw keeps a value at most its exact one, below X_(screen_rank).

    Norm screen. Every direction has unit norm, so draw i never exceeds
    ||z_i|| / sigma_hat_i, and a draw with ||z_i|| / sigma_hat_i
    (1 + 1e-9) < L ends below X_(screen_rank) whatever the remaining
    directions give (the margin covers the rounding of unit directions and
    of the products). Such draws keep their lower bound and leave the float32
    copy once the live draws have fallen by 20% since the last rebuild: the
    live columns then move, in place, to its front, padded to whole 16-column
    groups.

    A column's product does not depend on its position among the columns,
    so every exact draw, and with it every order statistic of rank
    ``screen_rank`` and above, is bitwise the value of the unscreened fold.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    d = directions.design.d
    # numpy multiplies by a single row or column with a matrix-vector kernel,
    # and OpenBLAS multiplies the last few columns of a wide product that is
    # not a whole number of 16-column groups with edge kernels; both round
    # differently from the bulk of a product. A zero direction pads a one-row
    # chunk, and zero draws pad the draws to whole 16-column groups, so draw i
    # is folded the same way for every n.
    cols = -(-n_samples // _DRAW_GROUP) * _DRAW_GROUP
    zt = np.zeros((d, cols))
    sigma = np.empty(n_samples)
    bound = np.empty(n_samples)
    for b in range(_rng.block_count(n_samples)):
        z, s = _rng.gaussian_block(seed, _rng.PURPOSE_MAX_T, b, n_samples, d,
                                   error_model.df)
        sl = _rng.block_slice(b, n_samples)
        zt[:, sl] = z.T
        sigma[sl] = s
        bound[sl] = np.linalg.norm(z, axis=1) / s
    tiles = _fold_shares(cols, 1)[0]
    workers = 1
    if _candidate_pair_count(directions.design, directions.universe,
                             directions.predictor) * cols >= _PARALLEL_FOLD_MIN:
        workers = min(_blas.blas_threads() or 1, len(tiles))
    width = max(hi - lo for lo, hi in tiles)
    # Every fold below covers at most cols columns, and _FOLD_DRAWS is a
    # multiple of _DRAW_GROUP, so no tile is wider than these buffers.
    bufs = [np.empty((_DIRECTION_CHUNK, width)) for _ in range(workers)]
    if screen_rank is None:
        best = np.full(cols, -1.0)
    else:
        # The float32 stage reuses the tile buffers' memory.
        bufs32 = [buf.view(np.float32) for buf in bufs]
        zt32 = zt.astype(np.float32)
        chunk_max = np.empty(cols, dtype=np.float32)
        slack = _float32_slack(d) * bound
        # live[c] is the draw held in column c of zt32, low[c] its lower
        # bound; columns live.size and on are zero padding.
        live = np.arange(n_samples)
        low = np.full(n_samples, -np.inf)
        draws = np.empty(n_samples)

    def fold_share(chunk, zt, best, share, buf):
        for lo, hi in share:
            _fold_chunk_max(chunk, zt[:, lo:hi], best[lo:hi], buf)

    with _fold_workers(workers) as run:
        def fold(chunk, zt, best, bufs):
            # Folds chunk over every column of zt, whole 16-column groups,
            # split into the workers' shares of whole tiles.
            shares = _fold_shares(zt.shape[1], workers)
            run(fold_share, [(chunk, zt, best, share, buf)
                             for share, buf in zip(shares, bufs) if share])

        for chunk, _ in directions.chunks(_DIRECTION_CHUNK):
            if chunk.shape[0] == 1:
                chunk = np.vstack([chunk, np.zeros((1, d))])
            if screen_rank is None:
                fold(chunk, zt, best, bufs)
                continue
            n_live = live.size
            used = -(-n_live // _DRAW_GROUP) * _DRAW_GROUP
            chunk_max[:used] = 0.0
            fold(chunk.astype(np.float32), zt32[:, :used], chunk_max[:used], bufs32)
            m = chunk_max[:n_live] / sigma
            np.maximum(low, m - slack, out=low)
            # The draws screened so far all lie below the floor, so its rank
            # among the live ones is screen_rank less their number.
            rank = screen_rank - (n_samples - n_live)
            floor = np.partition(low, rank - 1)[rank - 1]
            upper = m + slack
            exact = np.flatnonzero((upper >= floor) & (upper >= low))
            if exact.size:
                group = -(-exact.size // _DRAW_GROUP) * _DRAW_GROUP
                zg = np.zeros((d, group))
                zg[:, :exact.size] = zt[:, live[exact]]
                bg = np.full(group, -1.0)
                fold(chunk, zg, bg, bufs)
                low[exact] = np.maximum(low[exact], bg[:exact.size] / sigma[exact])
            alive = bound * (1.0 + 1e-9) >= floor
            keep = np.flatnonzero(alive)
            if keep.size <= 0.8 * n_live:
                draws[live[~alive]] = low[~alive]
                live, sigma, bound, slack, low = (
                    a[keep] for a in (live, sigma, bound, slack, low))
                used = -(-keep.size // _DRAW_GROUP) * _DRAW_GROUP
                zt32[:, :keep.size] = zt32[:, keep]
                zt32[:, keep.size:used] = 0.0
    if screen_rank is None:
        draws = best[:n_samples] / sigma
    else:
        draws[live] = low
    if draws.max() < 0:
        raise InfeasibleError("direction set is empty")
    return draws


def max_abs_t_draws(
    directions: DirectionSet,
    error_model: ErrorModel = ErrorModel.known_sigma(),
    n_samples: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """N Monte Carlo draws of max_l |l' Z| / sigma_hat over the direction set.

    Every chunk is folded over every draw in float64, and every draw is
    returned exactly. posi_constant and posi1_constant run the same fold
    with a float32 bound stage and a norm screen in front of it, and compute
    exactly only the draws that can reach the order statistics they read
    (see _fold).

    Draw i is a pure function of (seed, i): Gaussian vectors and sigma-hat
    variates come from a counter-based generator in fixed-size blocks, so a
    run's draws are a prefix of any longer run's. The Gaussian draws are held
    at once as a d x n array; the directions are streamed once, in chunks,
    and each chunk is folded into a running per-draw maximum one cache-sized
    tile of draws at a time.

    ``threads`` must be at least 1 and does not change work or output. The
    fold picks its worker count from what it is given: one worker below
    _PARALLEL_FOLD_MIN directions x draws (the pairs counted before the rank
    rule, see design._candidate_pair_count), and otherwise as many as numpy's
    BLAS has threads, at most one per tile. The tiles are split into
    contiguous shares, and each worker folds every chunk over its own share
    into its own tile buffer: the calling thread folds the last share and a
    pool of workers - 1 threads the others. The next chunk is enumerated
    once every share is folded. While the workers run, numpy's BLAS
    is pinned to one thread for the whole process, other Python threads
    included, and its thread count is restored afterwards. Every product
    keeps its shape, so the draws are bitwise the same for every worker
    count. Where numpy's BLAS thread count cannot be controlled, the fold
    runs on one worker.
    """
    return _fold(directions, error_model, n_samples, seed, threads, None)


def _estimate_from_draws(
    draws: np.ndarray,
    alpha: float,
    error_model: ErrorModel,
    seed: int,
    direction_count: int,
    name: str,
    universe: ModelUniverse | None,
) -> ConstantEstimate:
    n = draws.size
    idx = conservative_quantile_index(alpha, n)
    k = float(np.partition(draws, idx - 1)[idx - 1])
    se = _mc_standard_error(draws, alpha)
    return ConstantEstimate(
        k=k,
        alpha=alpha,
        error_model=error_model,
        mc_samples=n,
        mc_standard_error=se,
        seed=seed,
        direction_count=direction_count,
        method=MONTE_CARLO,
        name=name,
        universe=universe,
    )


def posi_constant(
    design: CanonicalDesign,
    universe: ModelUniverse | None = None,
    alpha: float = 0.05,
    error_model: ErrorModel = ErrorModel.known_sigma(),
    n_samples: int = 100_000,
    seed: int = 0,
    threads: int = 1,
    dedup: str | None = None,
) -> ConstantEstimate:
    """Monte Carlo estimate of the simultaneous max-|t| constant K.

    K is the conservative empirical (1 - alpha) quantile (order statistic
    ceil((1-alpha)(N+1))) of the max-|t| draws over every coefficient of
    every full-rank model in the universe. The fold bounds every draw from
    float32 products, screens out draws whose norm bound proves them below
    the order statistics that K and its standard error read, and redoes in
    float64 only the draws whose bound can reach them (see _fold); those
    order statistics, and K with them, are bitwise those of the exact draws
    of max_abs_t_draws.
    ``mc_standard_error`` is the order-statistic spacing estimator (see
    _mc_standard_error). ``threads`` must be at least 1 and does not change
    work or output; the fold picks its own workers, and while they run
    numpy's BLAS is on one thread for the whole process (see
    max_abs_t_draws).
    """
    _validate_alpha(alpha)
    if universe is None:
        universe = ModelUniverse.all()
    conservative_quantile_index(alpha, n_samples)
    directions = direction_stream(design, universe, dedup=dedup)
    draws = _fold(directions, error_model, n_samples, seed, threads,
                  _spacing_ranks(alpha, n_samples)[0])
    return _estimate_from_draws(
        draws, alpha, error_model, seed, directions.count, "posi", universe
    )


def posi1_constant(
    design: CanonicalDesign,
    universe: ModelUniverse | None = None,
    predictor: int = 1,
    alpha: float = 0.05,
    error_model: ErrorModel = ErrorModel.known_sigma(),
    n_samples: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> ConstantEstimate:
    """Constant protecting a single designated predictor across all models
    that contain it: the quantile runs over directions of (predictor, M) pairs
    only, for M in the universe restricted to models containing the predictor.
    K, its standard error, the float32 bound stage and the screen are as in
    posi_constant.
    ``threads`` must be at least 1 and does not change work or output; the
    fold picks its own workers, and while they run numpy's BLAS is on one
    thread for the whole process (see max_abs_t_draws).
    """
    _validate_alpha(alpha)
    if universe is None:
        universe = ModelUniverse.all()
    if not 1 <= predictor <= design.p:
        raise ValueError(f"predictor {predictor} out of range 1..{design.p}")
    conservative_quantile_index(alpha, n_samples)
    restricted = universe & ModelUniverse.forcing(predictor)
    directions = DirectionSet(design, restricted, predictor=predictor)
    try:
        draws = _fold(directions, error_model, n_samples, seed, threads,
                      _spacing_ranks(alpha, n_samples)[0])
    except InfeasibleError:
        raise InfeasibleError(
            f"no model in the universe contains predictor {predictor}"
        ) from None
    return _estimate_from_draws(
        draws, alpha, error_model, seed, directions.count, "posi1", restricted
    )


def scheffe_constant(
    alpha: float, d: int, error_model: ErrorModel = ErrorModel.known_sigma()
) -> ConstantEstimate:
    """sqrt(d F_{d,r,1-alpha}); protects all linear combinations in the
    d-dimensional column space and upper-bounds every simultaneous constant."""
    from scipy import special

    _validate_alpha(alpha)
    if d < 1:
        raise ValueError("d must be >= 1")
    if error_model.sigma_known:
        k = math.sqrt(special.chdtri(d, alpha))
    else:
        k = math.sqrt(d * special.fdtri(d, error_model.df, 1.0 - alpha))
    return ConstantEstimate(
        k=k,
        alpha=alpha,
        error_model=error_model,
        mc_samples=0,
        mc_standard_error=0.0,
        seed=0,
        direction_count=0,
        method=CLOSED_FORM,
        name="scheffe",
    )


def orth_constant(
    alpha: float, d: int, error_model: ErrorModel = ErrorModel.known_sigma()
) -> ConstantEstimate:
    """Constant of an orthogonal design with d columns.

    Known sigma solves (2 Phi(K) - 1)^d = 1 - alpha (computed by exact
    quantile inversion). Finite df solves E[(2 Phi(K sigma_hat) - 1)^d] =
    1 - alpha with the expectation taken by adaptive quadrature over the
    density of sigma_hat = sqrt(chi2_r / r).
    """
    from scipy import integrate, optimize, special

    _validate_alpha(alpha)
    if d < 1:
        raise ValueError("d must be >= 1")
    if error_model.sigma_known:
        k = float(special.ndtri(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / d))))
    else:
        r = error_model.df
        # Density of sigma_hat = chi_r / sqrt(r): exp(log_norm) s^(r-1) e^(-r s^2 / 2).
        log_norm = (0.5 * r * math.log(r) - (0.5 * r - 1.0) * math.log(2.0)
                    - special.gammaln(0.5 * r))

        def coverage(k: float) -> float:
            val, _ = integrate.quad(
                lambda s: (2.0 * special.ndtr(k * s) - 1.0) ** d
                * math.exp(log_norm + special.xlogy(r - 1.0, s) - 0.5 * r * s * s),
                0.0,
                np.inf,
                epsabs=1e-12,
                epsrel=1e-11,
                limit=200,
            )
            return val

        hi = math.sqrt(d * special.fdtri(d, r, 1.0 - alpha)) + 1.0
        k = float(
            optimize.brentq(lambda x: coverage(x) - (1.0 - alpha), 1e-8, hi, xtol=1e-10)
        )
    return ConstantEstimate(
        k=k,
        alpha=alpha,
        error_model=error_model,
        mc_samples=0,
        mc_standard_error=0.0,
        seed=0,
        direction_count=d,
        method=CLOSED_FORM,
        name="orth",
    )


def cap_bonferroni_bound(direction_count: int, d: int, alpha: float) -> ConstantEstimate:
    """Sphere-cap union bound on the known-sigma max-|l'Z| quantile.

    Decomposing Z = R U with R the chi_d radius and U uniform on the sphere,
    the bound spends alpha/2 on the cap union (solving
    direction_count * P[|U| > K'] = alpha/2 with U^2 ~ Beta(1/2, (d-1)/2))
    and alpha/2 on the radius (the 1 - alpha/2 chi quantile), returning their
    product. Always conservative for any direction set of the given size.
    """
    from scipy import optimize, special

    _validate_alpha(alpha)
    if direction_count < 1:
        raise ValueError("direction_count must be >= 1")
    if d < 2:
        raise ValueError("cap bound requires dimension d >= 2")
    target = math.log(alpha / 2.0) - math.log(direction_count)

    def log_tail_gap(u: float) -> float:
        with np.errstate(divide="ignore"):
            return np.log(special.betaincc(0.5, (d - 1) / 2.0, u * u)) - target

    lo, hi = 1e-12, 1.0 - 1e-14
    if log_tail_gap(lo) < 0.0:
        # Requested alpha cannot be met by any cap in (0, 1); Scheffe fallback.
        return scheffe_constant(alpha, d)
    k_prime = optimize.brentq(log_tail_gap, lo, hi, xtol=1e-14)
    radius = math.sqrt(special.chdtri(d, alpha / 2.0))
    return ConstantEstimate(
        k=float(k_prime * radius),
        alpha=alpha,
        error_model=ErrorModel.known_sigma(),
        mc_samples=0,
        mc_standard_error=0.0,
        seed=0,
        direction_count=direction_count,
        method=BOUND,
        name="cap_bound",
    )


def asymptotic_cap_constant(a: float) -> float:
    """Limit of K / sqrt(d) for direction sets of size a^d: sqrt(1 - 1/a^2)."""
    if not a > 1.0:
        raise ValueError("a must exceed 1")
    return math.sqrt(1.0 - 1.0 / (a * a))
