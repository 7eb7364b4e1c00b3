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
from dataclasses import dataclass, replace

import numpy as np

from . import _rng
from .design import CanonicalDesign
from .errors import InfeasibleError
from .lattice import DirectionSet, ModelUniverse, direction_stream

_DIRECTION_CHUNK = 512
# Draws per fold tile: a 512 x 384 product tile (1.5 MB) stays in a core's
# 2 MB L2 cache while it is reduced. Fold speed was flat from 128 to 3072 in
# a measured sweep (see CHANGES.md). The draws are padded to whole groups of
# _DRAW_GROUP columns (see max_abs_t_draws); _FOLD_DRAWS is a multiple of
# _DRAW_GROUP, so no tile is one column wide (a matrix-vector product) unless
# the width is changed.
_FOLD_DRAWS = 384
_DRAW_GROUP = 16
# The screened fold folds a chunk of fewer rows x live draws than this
# whole, in float32, and larger ones through their cones (see
# _Screen.bound): below it the cones' fit, test, gathers and per-group calls
# cost more than they save. posi_constant on two Gaussian (p+4) x p designs per call, calls
# alternating in one process, 16 rounds, 2-core Xeon KVM guest: cones in
# every chunk were 28% slower than none at p = 10 with 1 000 draws, 7-11%
# slower with 2 500 and 14% and 39% faster with 5 000 and 10 000. Against
# no cones, a floor of 0.5 million was even at 1 000 draws (31.3 against
# 32.4 ms), -4% at 2 500 and -8% at p = 11 with 2 500 (df 10); floors of
# 0.25 million (+17% there) and 1 to 3 million were no better.
_CONE_FOLD_MIN = 500_000
# Byte budget for the direction rows and keys that the screened fold holds
# at once (see _screened_draws), at (d + 2) 8 bytes a direction. A full lattice is one
# window up to p = d = 14 (0.5 MB at p = 10, 14.7 MB at p = 14); at
# p = d = 16 it takes 75 MB, in five windows.
_WINDOW_BYTES = 16 << 20

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
    """A calibrated constant together with how it was obtained. ``d`` is the
    rank of the design (or the dimension) it was computed for, when known."""

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
    d: int | None = None

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("constant must be positive")
        if (self.mc_standard_error == 0.0) != (self.method != MONTE_CARLO):
            raise ValueError("standard error must be zero exactly for non-MC methods")


def _validate_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def conservative_quantile_index(alpha: float, n: int) -> int:
    """1-based order-statistic index ceil((1-alpha)(n+1)), for alpha in
    (0, 1) and at least n >= 1 draws."""
    _validate_alpha(alpha)
    if n < 1:
        raise ValueError("n_samples must be >= 1")
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


def _order_statistic(draws: np.ndarray, alpha: float) -> tuple[float, float]:
    """K, the draws' order statistic of rank conservative_quantile_index,
    and its standard error (see _mc_standard_error)."""
    idx = conservative_quantile_index(alpha, draws.size)
    return float(np.partition(draws, idx - 1)[idx - 1]), _mc_standard_error(draws, alpha)


def _fold_chunk_max(chunk: np.ndarray, zt: np.ndarray, best: np.ndarray,
                    buf: np.ndarray) -> None:
    """best[i] = max(best[i], max_j |chunk_j . zt[:, i]|), reusing a scratch buffer.

    The product is direction-major, so the reduction runs down its columns:
    an elementwise max of contiguous rows. |x| is taken in place on the tile
    and reduced once; that is one elementwise pass fewer than folding
    max(max x, -min x), whose max and min each read the whole tile, and the
    values are bitwise the same.
    """
    out = buf[: chunk.shape[0], : zt.shape[1]]
    np.matmul(chunk, zt, out=out)
    np.abs(out, out=out)
    np.maximum(best, out.max(axis=0), out=best)


def _float32_slack(d: int) -> float:
    """c_d with |m32 - m64| <= c_d ||z|| for a unit direction l and a draw z
    in d dimensions, where m32 and m64 are |l'z| computed from float32 and
    from float64 operands: the rounding of l and z to float32 (2 u32), gamma_d
    for the float32 dot product (d u32) and gamma_d for the float64 one
    (d u64), in the first order (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1), and a factor 2 on top for safety."""
    return 2 * (d + 2) * (2.0 ** -24 + 2.0 ** -53)


def _gemv_margin(d: int, row_norm: float, y_norm: float) -> float:
    """m with |g - e| <= m / 2 for a row l of norm at most row_norm and a
    response y of norm y_norm in d dimensions, where g is l'y computed in a
    matrix-vector product (BLAS gemv) and e is l'y from np.vecdot (one BLAS
    ddot per row). Each is a sum of d products in some order, with or
    without fused multiply-adds, so each lies within
    gamma_d sum_k |l_k y_k| + d eta of l'y, where gamma_d = d u / (1 - d u),
    u = 2^-53, and eta = 2^-1075 bounds the absolute error of a product that
    underflows (a sum that underflows is exact) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.1). Cauchy-Schwarz gives
    sum_k |l_k y_k| <= row_norm y_norm, so |g - e| <= 2 (gamma_d row_norm
    y_norm + d eta), and m is twice that for safety: the factor covers the
    rounding of row_norm, y_norm and m itself. Not finite when y_norm is
    not."""
    u = 2.0 ** -53
    gamma = d * u / (1.0 - d * u)
    return 4.0 * (gamma * row_norm * y_norm + d * 2.0 ** -1075)


# Added to each cone's half-angle. arccos loses half the digits near 1: a
# cosine off by delta moves the angle by up to sqrt(2 delta), and 2^-20
# covers a float64 cosine off by up to 4e-13.
_CONE_ANGLE_MARGIN = 2.0 ** -20


def _cone_tests(rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The (2G, d + 3) float32 rows of the cone test for the G groups of a
    chunk's unit rows, group g in rows[starts[g]:starts[g + 1]].

    Group g's cone has center c_g, the normalized sum of its rows with each
    sign-aligned to the group's first row, and half-angle theta_g, the
    largest angle between a member and +-c_g plus _CONE_ANGLE_MARGIN (at most
    pi/2, which bounds nothing). A member l then has (Ram and Gray, Maximum
    inner-product search using cone trees, KDD 2012)

        |l'z| <= ||z|| cos(max(0, phi - theta_g)),  cos phi = |c_g'z| / ||z||.

    That bound reaches t in [0, ||z||] exactly when phi <= theta_g + psi with
    cos psi = t / ||z||, that is when

        |c_g'z| - cos(theta_g) t + sin(theta_g) sqrt(||z||^2 - t^2) >= 0.

    Rows g and G + g are (+-c_g, -cos theta_g, sin theta_g, 1); their product
    with a draw's column (z, t, sqrt(||z||^2 - t^2), e) (see _cone_reach)
    is this left side, plus the rounding margin e, for each sign of c_g.
    """
    sizes = np.diff(starts, append=rows.shape[0])
    flip = np.einsum("ij,ij->i", rows, np.repeat(rows[starts], sizes, axis=0)) < 0
    centers = np.add.reduceat(np.where(flip[:, None], -rows, rows), starts, axis=0)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    cos = np.abs(np.einsum("ij,ij->i", rows, np.repeat(centers, sizes, axis=0)))
    cos /= np.linalg.norm(rows, axis=1)
    theta = np.arccos(np.minimum(np.minimum.reduceat(cos, starts), 1.0))
    theta = np.minimum(theta + _CONE_ANGLE_MARGIN, math.pi / 2)
    groups, d = centers.shape
    tests = np.empty((2, groups, d + 3), dtype=np.float32)
    tests[0, :, :d] = centers
    tests[1, :, :d] = -centers
    tests[:, :, d] = -np.cos(theta)
    tests[:, :, d + 1] = np.sin(theta)
    tests[:, :, d + 2] = 1.0
    return tests.reshape(2 * groups, d + 3)


def _cone_margin(d: int) -> float:
    """eta_d with the float32 cone test (see _cone_tests) within eta_d ||z|| / 2
    of its exact value wherever a direction of the group reaches t (so that t
    <= ||z||): the rounding of both operands to float32 (2 u32) and
    gamma_{d+3} for the dot product, in the first order, times a sum of
    absolute terms of at most (2 + eta_d) ||z|| (|c'z| <= ||z||, and
    cos(theta) t + sin(theta) sqrt(||z||^2 - t^2) <= ||z||), and a factor 2
    for safety. Where no direction reaches t, any test value prunes rightly."""
    return 4 * (d + 5) * 2.0 ** -24


def _cone_reach(rows: np.ndarray, starts: np.ndarray, zt32: np.ndarray,
                norm: np.ndarray, sigma: np.ndarray, slack: np.ndarray,
                floor) -> np.ndarray:
    """The (G, n) cone-test values (see _cone_tests) of the groups of rows for
    the draws in the first d rows of the (d + 3, n) float32 ``zt32``: negative
    where a group holds no direction with |l'z| / sigma_hat at or above
    floor - slack. Each draw's column tail (t, sqrt(||z||^2 - t^2), e) is
    written into the last three rows of ``zt32`` first, with t = sigma_hat
    (floor - slack), at least 0, the root 0 where t exceeds ||z||, and
    e = eta_d ||z|| (see _cone_margin)."""
    d = zt32.shape[0] - 3
    t = np.subtract(floor, slack)
    t *= sigma
    np.maximum(t, 0.0, out=t)
    zt32[d] = t
    s = norm - t
    t += norm
    s *= t
    np.maximum(s, 0.0, out=s)
    zt32[d + 1] = np.sqrt(s, out=s)
    zt32[d + 2] = _cone_margin(d) * norm
    reach = _cone_tests(rows, starts) @ zt32
    groups = starts.size
    return np.maximum(reach[:groups], reach[groups:], out=reach[:groups])


def _fold_tiles(cols: int) -> list[tuple[int, int]]:
    """The (lo, hi) column ranges of the fold tiles of ``cols`` draw columns."""
    tiles = [(lo, min(lo + _FOLD_DRAWS, cols)) for lo in range(0, cols, _FOLD_DRAWS)]
    if tiles[-1][1] - tiles[-1][0] == 1 < len(tiles):
        # A tile width that is not a multiple of _DRAW_GROUP can leave one
        # column over; it joins the tile before it.
        tiles[-2:] = [(tiles[-2][0], cols)]
    return tiles


def _windows(chunks):
    """The (chunk, keys) pairs of ``chunks`` in lists, each closed by the
    chunk that brings its rows and keys to _WINDOW_BYTES or more."""
    window, held = [], 0
    for chunk, keys in chunks:
        window.append((chunk, keys))
        held += chunk.nbytes + keys.nbytes
        if held >= _WINDOW_BYTES:
            yield window
            window, held = [], 0
    if window:
        yield window


def _fold_rows(chunk: np.ndarray, zt: np.ndarray, best: np.ndarray,
               buf: np.ndarray) -> None:
    """Folds chunk over every column of zt (whole _DRAW_GROUP groups) into
    best, one tile at a time. A one-row chunk gets a zero direction below
    it: numpy multiplies by a single row with a matrix-vector kernel, which
    rounds otherwise (see _Draws)."""
    if chunk.shape[0] == 1:
        chunk = np.vstack([chunk, np.zeros_like(chunk)])
    for lo, hi in _fold_tiles(zt.shape[1]):
        _fold_chunk_max(chunk, zt[:, lo:hi], best[lo:hi], buf)


class _Draws:
    """The n Gaussian draws of a fold as the columns of the (d, cols)
    float64 ``zt``, with their sigma_hat and norms, and the fold's tile
    buffer. OpenBLAS multiplies the last few columns of a wide product that
    is not a whole number of 16-column groups with edge kernels, which round
    differently from the bulk of a product; so zero draws pad the columns to
    whole _DRAW_GROUP groups, and draw i is folded the same way for every n."""

    def __init__(self, d: int, error_model: ErrorModel, n_samples: int, seed: int):
        self.n = n_samples
        cols = -(-n_samples // _DRAW_GROUP) * _DRAW_GROUP
        self.zt = np.zeros((d, cols))
        self.sigma = np.empty(n_samples)
        self.norm = np.empty(n_samples)
        for b in range(_rng.block_count(n_samples)):
            z, s = _rng.gaussian_block(seed, _rng.PURPOSE_MAX_T, b, n_samples, d,
                                       error_model.df)
            sl = _rng.block_slice(b, n_samples)
            self.zt[:, sl] = z.T
            self.sigma[sl] = s
            self.norm[sl] = np.linalg.norm(z, axis=1)
        # Every fold covers at most cols columns, and _FOLD_DRAWS is a
        # multiple of _DRAW_GROUP, so no tile is wider than this buffer.
        width = max(hi - lo for lo, hi in _fold_tiles(cols))
        self.buf = np.empty((_DIRECTION_CHUNK, width))


class _Screen:
    """The live draws of a screened fold, and the floor L below which a
    draw needs no exact value.

    Column c of the float32 ``zt32`` holds draw live[c] and, in its last
    three rows, its cone-test column tail (see _cone_reach); columns
    live.size and on are zero padding. sigma, norm, slack (e_i = c_d
    ||z_i|| / sigma_hat_i, see _float32_slack) and low (the running lower
    bound) follow the same columns. L is the order statistic of rank
    ``rank`` of the lower bounds, less the draws screened so far, which all
    lie below it; so it never exceeds the exact order statistic X_(rank),
    and it only rises. ``out`` holds each screened draw's lower bound."""

    def __init__(self, draws: _Draws, rank: int):
        d, cols = draws.zt.shape
        self.draws = draws
        self.rank = rank
        self.zt32 = np.zeros((d + 3, cols), dtype=np.float32)
        self.zt32[:d] = draws.zt
        # The float32 stage reuses the tile buffer's memory.
        self.buf32 = draws.buf.view(np.float32)
        self.chunk_max = np.empty(cols, dtype=np.float32)
        self.sigma = draws.sigma
        self.norm = draws.norm
        self.slack = _float32_slack(d) * (draws.norm / draws.sigma)
        self.live = np.arange(draws.n)
        self.low = np.full(draws.n, -np.inf)
        self.out = np.empty(draws.n)
        self.floor = None

    def bound(self, chunk: np.ndarray, keys: np.ndarray):
        """Bound stage of one chunk: its (chunk, draws, upper bounds) record
        for the exact stage.

        The chunk is folded over the live draws in float32. Draw i's float32
        chunk maximum m_i lies within c_d ||z_i|| of the float64 one (see
        _float32_slack), so m_i / sigma_hat_i - e_i raises its lower bound,
        and u_i = m_i / sigma_hat_i + e_i bounds what the chunk can give it;
        u_i is recorded for the draws where it reaches both that lower bound
        and L. Both only rise, so a draw left unrecorded could not qualify
        later.

        Cones. A chunk of at least _CONE_FOLD_MIN rows x live draws is split
        into groups by predictor, and each group is folded only over the
        draws that its cone can bring to L (see _cone_tests and _cone_reach):
        one float32 product tests every live draw against every cone. A
        pruned group holds no direction with |l'z_i| / sigma_hat_i >= L -
        e_i, so it could raise neither the lower bound nor, past L, the
        upper one; m_i is then the maximum over the groups folded for draw
        i. The first such chunk starts with a pilot: the first direction of
        each group is folded over every live draw and sets the first floor."""
        d = chunk.shape[1]
        used = -(-self.live.size // _DRAW_GROUP) * _DRAW_GROUP
        self.chunk_max[:used] = 0.0
        if chunk.shape[0] * used < _CONE_FOLD_MIN:
            _fold_rows(chunk.astype(np.float32), self.zt32[:d, :used],
                       self.chunk_max[:used], self.buf32)
        else:
            # The chunk's rows grouped by predictor, one cone per group.
            order = np.argsort(keys[:, 1], kind="stable")
            rows = chunk[order]
            starts = np.flatnonzero(np.diff(keys[order, 1], prepend=-1))
            rows32 = rows.astype(np.float32)
            if self.floor is None:
                _fold_rows(rows32[starts], self.zt32[:d, :used],
                           self.chunk_max[:used], self.buf32)
                self._raise_floor()
            self._fold_cones(rows, rows32, starts)
        upper = self._raise_floor() + self.slack
        kept = np.flatnonzero((upper >= self.floor) & (upper >= self.low))
        return chunk, self.live[kept], upper[kept]

    def _fold_cones(self, rows: np.ndarray, rows32: np.ndarray, starts: np.ndarray):
        """Folds each group of rows over the live draws that its cone test
        passes, in group tiles of at most a quarter of a whole tile's
        products (and at least _FOLD_DRAWS draws), each gathered into the
        tile buffer, and raises chunk_max by the result."""
        n_live = self.live.size
        d = rows.shape[1]
        reach = _cone_reach(rows, starts, self.zt32[:, :n_live], self.norm, self.sigma,
                            self.slack, self.floor)
        flat = np.flatnonzero(reach >= 0)
        if not flat.size:
            return
        ends = np.searchsorted(flat, np.arange(starts.size + 1) * n_live).tolist()
        group_max = np.zeros(flat.size, dtype=np.float32)
        scratch = self.buf32.reshape(-1)
        for g, (rows_g, lo_g, hi_g) in enumerate(
                zip(np.split(rows32, starts[1:]), ends, ends[1:])):
            k = rows_g.shape[0]
            step = min(scratch.size // (k + d),
                       max(_FOLD_DRAWS, _DIRECTION_CHUNK * _FOLD_DRAWS // (4 * k)))
            for lo in range(lo_g, hi_g, step):
                # flat[lo:hi] - g n_live are the draws of a group tile. They
                # are gathered into the tail of the tile buffer, and the
                # product is written to its head.
                hi = min(lo + step, hi_g)
                w = hi - lo
                zg = scratch[k * w:(k + d) * w].reshape(d, w)
                np.take(self.zt32[:d], flat[lo:hi] - g * n_live, axis=1, out=zg,
                        mode="clip")
                _fold_chunk_max(rows_g, zg, group_max[lo:hi], scratch[:k * w].reshape(k, w))
        # A draw's test values are negative where it is pruned.
        reach.reshape(-1)[flat] = group_max
        np.maximum(self.chunk_max[:n_live], reach.max(axis=0),
                   out=self.chunk_max[:n_live])

    def _raise_floor(self) -> np.ndarray:
        """Raises each live draw's lower bound by the chunk's float32 maximum
        over sigma_hat, less the slack, and L with them; returns that
        quotient. The draws screened so far all lie below L, so its rank
        among the live ones is ``rank`` less their number."""
        m = self.chunk_max[:self.live.size] / self.sigma
        np.maximum(self.low, m - self.slack, out=self.low)
        rank = self.rank - (self.draws.n - self.live.size)
        self.floor = np.partition(self.low, rank - 1)[rank - 1]
        return m

    def norm_screen(self):
        """Norm screen, after a chunk's bound stage. Every direction has unit
        norm, so draw i never exceeds ||z_i|| / sigma_hat_i, and a draw with
        ||z_i|| / sigma_hat_i (1 + 1e-9) < L ends below X_(rank) whatever
        the remaining directions give (the margin covers the rounding of
        unit directions and of the products). Once the live draws would fall
        by 20% or more, such draws leave with their lower bound: the live
        columns move, in place, to the front of zt32, padded to whole
        16-column groups."""
        alive = self.norm / self.sigma * (1.0 + 1e-9) >= self.floor
        keep = np.flatnonzero(alive)
        if keep.size <= 0.8 * self.live.size:
            used = -(-self.live.size // _DRAW_GROUP) * _DRAW_GROUP
            self.out[self.live[~alive]] = self.low[~alive]
            self.live, self.sigma, self.norm, self.slack, self.low = (
                a[keep] for a in (self.live, self.sigma, self.norm, self.slack, self.low))
            self.zt32[:, :keep.size] = self.zt32[:, keep]
            self.zt32[:, keep.size:used] = 0.0

    def exact(self, recorded: list):
        """Exact stage of a window, once its bound stage is done: each
        recorded chunk is refolded in float64, in the same order, over the
        live draws whose recorded u_i reaches max(L, the draw's lower
        bound), gathered into whole 16-column groups; a draw's exact chunk
        maximum over sigma_hat_i raises its lower bound, and so prunes its
        later chunks. Each draw is refolded once per chunk at most, and
        mostly once per window.

        The chunk that holds the maximum of a draw always qualifies: its
        u_i is at least the exact maximum, which is at least the draw's
        lower bound (division by sigma_hat_i rounds monotonically, so the
        largest quotient is the quotient of the largest maximum). Whenever
        that maximum is at or above L, the chunk also clears L. So every
        draw at or above X_(rank) ends exact, and every other draw keeps a
        value at most its exact one, below X_(rank)."""
        # column[i] is draw i's column in zt32, or -1 once it is screened.
        column = np.full(self.draws.n, -1)
        column[self.live] = np.arange(self.live.size)
        for chunk, who, upper in recorded:
            c = column[who]
            exact = np.flatnonzero(c >= 0)
            u = upper[exact]
            exact = exact[(u >= self.floor) & (u >= self.low[c[exact]])]
            if exact.size:
                c = c[exact]
                group = -(-exact.size // _DRAW_GROUP) * _DRAW_GROUP
                zg = np.zeros((chunk.shape[1], group))
                zg[:, :exact.size] = self.draws.zt[:, who[exact]]
                bg = np.full(group, -1.0)
                _fold_rows(chunk, zg, bg, self.draws.buf)
                self.low[c] = np.maximum(self.low[c], bg[:exact.size] / self.sigma[c])


def max_abs_t_draws(
    directions: DirectionSet,
    error_model: ErrorModel = ErrorModel.known_sigma(),
    n_samples: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """N Monte Carlo draws of max_l |l' Z| / sigma_hat over the direction set.

    Every chunk is folded over every draw in float64, and every draw is
    returned exactly. posi_constant and posi1_constant run the screened
    fold instead, which computes exactly only the draws that can reach the
    order statistics they read (see _screened_draws).

    Draw i is a pure function of (seed, i): Gaussian vectors and sigma-hat
    variates come from a counter-based generator in fixed-size blocks, so a
    run's draws are a prefix of any longer run's. The Gaussian draws are held
    at once as a d x n array; the directions are streamed once, in chunks,
    and each chunk is folded into a running per-draw maximum one cache-sized
    tile of draws at a time.

    The fold runs in the calling thread. ``threads`` must be at least 1 and
    does not change work or output.
    """
    _check_threads(threads)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    draws = _Draws(directions.design.d, error_model, n_samples, seed)
    best = np.full(draws.zt.shape[1], -1.0)
    for chunk, _ in directions.chunks(_DIRECTION_CHUNK):
        _fold_rows(chunk, draws.zt, best, draws.buf)
    best = best[:n_samples] / draws.sigma
    if best.max() < 0:
        raise InfeasibleError("direction set is empty")
    return best


def _screened_draws(directions: DirectionSet, error_model: ErrorModel,
                    n_samples: int, seed: int, rank: int) -> np.ndarray:
    """The max-|t| draws (see max_abs_t_draws), folded exactly at and above
    the order statistic of 1-based rank ``rank``.

    The chunks are held in windows of up to _WINDOW_BYTES of rows and keys
    (plus the chunk that closes the window). Each window's chunks go through
    the float32 bound stage (_Screen.bound), largest models first (the walk
    emits models by size, so the window's last chunk first: they hold most
    of the large draws, and the floor rises soonest from them), each
    followed by the norm screen (_Screen.norm_screen); then through the
    float64 exact stage (_Screen.exact). The walk makes the next window once
    both are done.

    A column's product does not depend on its position among the columns,
    and a maximum does not depend on the order of its terms, so every exact
    draw, and with it every order statistic of rank ``rank`` and above, is
    bitwise the value of max_abs_t_draws. The float32 products need no such
    care, since only their bound is used. Empty sets give draws below 0.
    """
    screen = _Screen(_Draws(directions.design.d, error_model, n_samples, seed), rank)
    for window in _windows(directions.chunks(_DIRECTION_CHUNK)):
        recorded = []
        for chunk, keys in reversed(window):
            recorded.append(screen.bound(chunk, keys))
            screen.norm_screen()
        screen.exact(recorded)
        # Free the window's chunks before the walk makes the next window.
        del window, recorded
    screen.out[screen.live] = screen.low
    return screen.out


def _check_threads(threads: int):
    if threads < 1:
        raise ValueError("threads must be >= 1")


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
    every full-rank model in the universe. The fold holds the walked
    directions in windows of up to _WINDOW_BYTES (a full lattice up to
    p = d = 14 is one window). Over each window, largest models first, it
    bounds every draw from float32 products, screens out draws whose norm
    bound proves them below the order statistics that K and its standard
    error read, and folds each predictor's directions in float32 only over
    the draws that their cone can bring to those order statistics; then it
    redoes in float64 only the draws whose bound over a chunk can reach
    them (see _screened_draws). Those order statistics, and K with them,
    are bitwise those of the exact draws of max_abs_t_draws.
    ``mc_standard_error`` is the order-statistic spacing estimator (see
    _mc_standard_error). ``threads`` must be at least 1 and does not change
    work or output (see max_abs_t_draws).
    """
    _check_threads(threads)
    return _posi_from(direction_stream(design, universe, dedup=dedup), alpha,
                      error_model, n_samples, seed)


def _posi_from(directions: DirectionSet, alpha: float, error_model: ErrorModel,
               n_samples: int, seed: int, name: str = "posi",
               empty: str = "direction set is empty") -> ConstantEstimate:
    """The screened estimate named ``name`` over the directions of a set the
    caller made, which it may hold to read again (see DirectionSet._hold).
    An empty set raises InfeasibleError(empty). alpha and n_samples are
    checked before the set is read."""
    draws = _screened_draws(directions, error_model, n_samples, seed,
                            _spacing_ranks(alpha, n_samples)[0])
    if draws.max() < 0:
        raise InfeasibleError(empty)
    k, se = _order_statistic(draws, alpha)
    return ConstantEstimate(
        k=k,
        alpha=alpha,
        error_model=error_model,
        mc_samples=n_samples,
        mc_standard_error=se,
        seed=seed,
        direction_count=directions.count,
        method=MONTE_CARLO,
        name=name,
        universe=directions.universe,
        d=directions.design.d,
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
    K, its standard error, the float32 bound stage, its cone (one group per
    chunk here) and the screen are as in posi_constant.
    ``threads`` must be at least 1 and does not change work or output (see
    max_abs_t_draws).
    """
    _check_threads(threads)
    return _posi_from(DirectionSet(design, universe, predictor=predictor), alpha,
                      error_model, n_samples, seed, "posi1",
                      f"no model in the universe contains predictor {predictor}")


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
        d=d,
    )


def _orth_cdf(k: float, d: int, error_model: ErrorModel) -> float:
    """The exact law of max_j |Z_j| / sigma_hat over d orthonormal
    directions at k: (2 Phi(k) - 1)^d with known sigma, and with r error
    degrees of freedom E[(2 Phi(k sigma_hat) - 1)^d], taken by adaptive
    quadrature over the density of sigma_hat = sqrt(chi2_r / r). The
    integrand is a scalar function of scalars, so it is evaluated with the
    ``math`` module, using 2 Phi(x) - 1 = erf(x / sqrt(2))."""
    scale = k / math.sqrt(2.0)
    if error_model.sigma_known:
        return math.erf(scale) ** d
    from scipy import integrate, special

    r = error_model.df
    # Density of sigma_hat = chi_r / sqrt(r): exp(log_norm) s^(r-1) e^(-r s^2 / 2).
    log_norm = (0.5 * r * math.log(r) - (0.5 * r - 1.0) * math.log(2.0)
                - special.gammaln(0.5 * r))

    def integrand(s: float) -> float:
        if s == 0.0:  # erf(0) = 0; math.log(0) would raise
            return 0.0
        return math.erf(scale * s) ** d * math.exp(
            log_norm + (r - 1.0) * math.log(s) - 0.5 * r * s * s)

    val, _ = integrate.quad(
        integrand,
        0.0,
        np.inf,
        epsabs=1e-12,
        epsrel=1e-11,
        limit=200,
    )
    return val


def orth_constant(
    alpha: float, d: int, error_model: ErrorModel = ErrorModel.known_sigma()
) -> ConstantEstimate:
    """Constant of an orthogonal design with d columns.

    Known sigma solves (2 Phi(K) - 1)^d = 1 - alpha (computed by exact
    quantile inversion). Finite df solves E[(2 Phi(K sigma_hat) - 1)^d] =
    1 - alpha, the expectation by _orth_cdf's quadrature; an alpha or df
    that the quadrature cannot resolve is a ValueError.
    """
    from scipy import optimize, special

    _validate_alpha(alpha)
    if d < 1:
        raise ValueError("d must be >= 1")
    if error_model.sigma_known:
        k = float(special.ndtri(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / d))))
    else:
        r = error_model.df
        hi = math.sqrt(d * special.fdtri(d, r, 1.0 - alpha)) + 1.0
        try:
            k = float(optimize.brentq(
                lambda x: _orth_cdf(x, d, error_model) - (1.0 - alpha), 1e-8, hi,
                xtol=1e-10))
        except (ValueError, OverflowError):
            # The quadrature cannot bracket K: 1 - alpha lies within its
            # error of 1 (alpha below about 1e-12), or sigma_hat's density
            # is too narrow to find (from about 10**6 df) or to normalize
            # (from about 10**18 df).
            raise ValueError(f"orth cannot resolve alpha={alpha!r} at df={r:.0f}; "
                             "use a larger alpha, or df=inf") from None
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
        d=d,
    )


def cap_bonferroni_bound(direction_count: int, d: int, alpha: float) -> ConstantEstimate:
    """Sphere-cap union bound on the known-sigma max-|l'Z| quantile.

    Decomposing Z = R U with R the chi_d radius and U uniform on the sphere,
    the bound spends alpha/2 on the cap union (solving
    direction_count * P[|U| > K'] = alpha/2 with U^2 ~ Beta(1/2, (d-1)/2))
    and alpha/2 on the radius (the 1 - alpha/2 chi quantile), returning their
    product. Always conservative for any direction set of the given size.
    When the cap it needs lies beyond 1 - 1e-14 (about 3e5 directions at
    d = 2), Scheffe's K is smaller, and it is returned with this
    direction_count. An alpha whose half is 0 is a ValueError.
    """
    from scipy import optimize, special

    _validate_alpha(alpha)
    if direction_count < 1:
        raise ValueError("direction_count must be >= 1")
    if d < 2:
        raise ValueError("cap bound requires dimension d >= 2")
    if alpha / 2.0 == 0.0:
        raise ValueError(f"alpha {alpha!r} is too small for the cap bound: alpha/2 is 0")
    target = math.log(alpha / 2.0) - math.log(direction_count)

    def log_tail_gap(u: float) -> float:
        with np.errstate(divide="ignore"):
            return np.log(special.betaincc(0.5, (d - 1) / 2.0, u * u)) - target

    lo, hi = 1e-12, 1.0 - 1e-14
    if log_tail_gap(hi) > 0.0:
        # Too many directions for any cap below hi: the bound would exceed
        # the 1 - alpha/2 chi quantile, and Scheffe's K, which holds for any
        # direction set, is smaller.
        return replace(scheffe_constant(alpha, d), direction_count=direction_count)
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
        d=d,
    )


def asymptotic_cap_constant(a: float) -> float:
    """Limit of K / sqrt(d) for direction sets of size a^d: sqrt(1 - 1/a^2)."""
    if not a > 1.0:
        raise ValueError("a must exceed 1")
    return math.sqrt(1.0 - 1.0 / (a * a))
