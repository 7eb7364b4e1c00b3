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
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, stats

from . import _rng
from .design import CanonicalDesign, DirectionSet, ModelUniverse, direction_stream
from .errors import InfeasibleError

_DIRECTION_CHUNK = 512

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


def _mc_standard_error(draws: np.ndarray, k: float, alpha: float) -> float:
    # Order-statistic asymptotics: se = sqrt(alpha(1-alpha)/N) / f(K), with the
    # density estimated by a Gaussian kernel and Silverman bandwidth.
    n = draws.size
    std = float(np.std(draws))
    q75, q25 = np.percentile(draws, [75.0, 25.0])
    spread = min(std, (q75 - q25) / 1.34) or std or 1.0
    h = 0.9 * spread * n ** (-0.2)
    u = (k - draws) / h
    fhat = float(np.exp(-0.5 * u * u).sum() / (n * h * math.sqrt(2.0 * math.pi)))
    fhat = max(fhat, 1e-300)
    return math.sqrt(alpha * (1.0 - alpha) / n) / fhat


def _fold_chunk_max(z: np.ndarray, chunk: np.ndarray, best: np.ndarray,
                    buf: np.ndarray) -> None:
    """best[i] = max(best[i], max_j |z_i . chunk_j|), reusing a scratch buffer.

    max |x| is folded as max(max x, -min x) to avoid an extra elementwise
    pass; both routes give bitwise-identical values.
    """
    out = buf[: z.shape[0], : chunk.shape[0]]
    np.matmul(z, chunk.T, out=out)
    hi = out.max(axis=1)
    lo = out.min(axis=1)
    np.negative(lo, out=lo)
    np.maximum(best, hi, out=best)
    np.maximum(best, lo, out=best)


def _nominal_pair_count(universe: ModelUniverse, p: int) -> int | None:
    """Cheap upper bound on the number of (j, M) pairs, ignoring rank filtering."""
    if universe.explicit_masks is not None:
        return sum(m.bit_count() for m in universe.explicit_masks)
    if universe.nested:
        return p * (p + 1) // 2
    lo = universe.min_size or 1
    hi = min(universe.max_size or p, p)
    free = p - len(universe.forced)
    if free < 0:
        return 0
    total = 0
    for m in range(lo, hi + 1):
        k = m - len(universe.forced)
        if k < 0 or k > free:
            continue
        total += m * math.comb(free, k)
        if total > 1 << 40:
            return total
    return total


def max_abs_t_draws(
    directions: DirectionSet,
    error_model: ErrorModel = ErrorModel.known_sigma(),
    n_samples: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """N Monte Carlo draws of max_l |l' Z| / sigma_hat over the direction set.

    Draw i is a pure function of (seed, i): Gaussian vectors and sigma-hat
    variates come from a counter-based generator in fixed-size blocks, so a
    run's draws are a prefix of any longer run's. All n x d Gaussian draws
    are held at once; the directions are streamed once, in chunks, against a
    running per-draw maximum. ``threads`` is accepted for compatibility and
    has no effect on work or output.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = directions.design.d
    blocks = [
        _rng.gaussian_block(seed, _rng.PURPOSE_MAX_T, b, n_samples, d, error_model.df)
        for b in range(_rng.block_count(n_samples))
    ]
    # numpy multiplies by a single row or column with a matrix-vector kernel
    # whose rounding depends on the other operand's size. A spare zero draw
    # and a zero direction keep every product matrix-matrix, so draw i does
    # not depend on n.
    Z = np.concatenate([z for z, _ in blocks] + [np.zeros((1, d))], axis=0)
    sigma = np.concatenate([s for _, s in blocks])
    best = np.full(n_samples + 1, -1.0)
    buf = np.empty((_rng.BLOCK, _DIRECTION_CHUNK))
    for chunk, _ in directions.chunks(_DIRECTION_CHUNK):
        if chunk.shape[0] == 1:
            chunk = np.vstack([chunk, np.zeros((1, d))])
        for lo in range(0, n_samples, _rng.BLOCK):
            _fold_chunk_max(Z[lo:lo + _rng.BLOCK], chunk, best[lo:lo + _rng.BLOCK], buf)
    if best.max() < 0:
        raise InfeasibleError("direction set is empty")
    return best[:n_samples] / sigma


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
    se = _mc_standard_error(draws, k, alpha)
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
    every full-rank model in the universe. ``threads`` has no effect on work
    or output.
    """
    _validate_alpha(alpha)
    if universe is None:
        universe = ModelUniverse.all()
    conservative_quantile_index(alpha, n_samples)
    directions = direction_stream(design, universe, dedup=dedup)
    draws = max_abs_t_draws(directions, error_model, n_samples, seed)
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
    ``threads`` has no effect on work or output.
    """
    _validate_alpha(alpha)
    if universe is None:
        universe = ModelUniverse.all()
    if not 1 <= predictor <= design.p:
        raise ValueError(f"predictor {predictor} out of range 1..{design.p}")
    conservative_quantile_index(alpha, n_samples)
    restricted = universe & ModelUniverse.forcing(predictor)
    directions = DirectionSet(design, restricted, predictor=predictor)
    if directions.count == 0:
        raise InfeasibleError(f"no model in the universe contains predictor {predictor}")
    draws = max_abs_t_draws(directions, error_model, n_samples, seed)
    return _estimate_from_draws(
        draws, alpha, error_model, seed, directions.count, "posi1", restricted
    )


def scheffe_constant(
    alpha: float, d: int, error_model: ErrorModel = ErrorModel.known_sigma()
) -> ConstantEstimate:
    """sqrt(d F_{d,r,1-alpha}); protects all linear combinations in the
    d-dimensional column space and upper-bounds every simultaneous constant."""
    _validate_alpha(alpha)
    if d < 1:
        raise ValueError("d must be >= 1")
    if error_model.sigma_known:
        k = math.sqrt(stats.chi2.ppf(1.0 - alpha, d))
    else:
        k = math.sqrt(d * stats.f.ppf(1.0 - alpha, d, error_model.df))
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


def _orth_coverage_known(k: float, d: int) -> float:
    return (2.0 * stats.norm.cdf(k) - 1.0) ** d


def orth_constant(
    alpha: float, d: int, error_model: ErrorModel = ErrorModel.known_sigma()
) -> ConstantEstimate:
    """Constant of an orthogonal design with d columns.

    Known sigma solves (2 Phi(K) - 1)^d = 1 - alpha (computed by exact
    quantile inversion). Finite df solves E[(2 Phi(K sigma_hat) - 1)^d] =
    1 - alpha with the expectation taken by adaptive quadrature over the
    density of sigma_hat = sqrt(chi2_r / r).
    """
    _validate_alpha(alpha)
    if d < 1:
        raise ValueError("d must be >= 1")
    if error_model.sigma_known:
        k = float(stats.norm.ppf(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / d))))
    else:
        r = error_model.df
        sigma_dist = stats.chi(r, scale=1.0 / math.sqrt(r))

        def coverage(k: float) -> float:
            val, _ = integrate.quad(
                lambda s: _orth_coverage_known(k * s, d) * sigma_dist.pdf(s),
                0.0,
                np.inf,
                epsabs=1e-12,
                epsrel=1e-11,
                limit=200,
            )
            return val

        hi = math.sqrt(d * stats.f.ppf(1.0 - alpha, d, r)) + 1.0
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
    _validate_alpha(alpha)
    if direction_count < 1:
        raise ValueError("direction_count must be >= 1")
    if d < 2:
        raise ValueError("cap bound requires dimension d >= 2")
    target = math.log(alpha / 2.0) - math.log(direction_count)

    def log_tail_gap(u: float) -> float:
        return stats.beta.logsf(u * u, 0.5, (d - 1) / 2.0) - target

    lo, hi = 1e-12, 1.0 - 1e-14
    if log_tail_gap(lo) < 0.0:
        # Requested alpha cannot be met by any cap in (0, 1); Scheffe fallback.
        return scheffe_constant(alpha, d)
    k_prime = optimize.brentq(log_tail_gap, lo, hi, xtol=1e-14)
    radius = math.sqrt(stats.chi2.ppf(1.0 - alpha / 2.0, d))
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
