"""Per-submodel least squares, simultaneous confidence intervals, worst-case
selectors, and a coverage simulator for the universal guarantee.

Every quantity lives in canonical coordinates. The coefficient target of a
submodel M is defined through unbiasedness: beta_M = argmin_b ||mu - X_M b||,
which exists for arbitrary mean vectors mu, so nothing here assumes any model
(including the full one) is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import _rng
from .constants import _DIRECTION_CHUNK, ConstantEstimate, ErrorModel
from .design import (CanonicalDesign, DirectionSet, ModelId, ModelUniverse,
                     direction_stream, enumerate_models)
from .errors import InfeasibleError


@dataclass(frozen=True)
class FitResult:
    """Least-squares estimates in one submodel, with adjusted-predictor norms."""

    model: ModelId
    estimates: np.ndarray
    adjusted_norms: np.ndarray
    sigma_hat: float
    error_model: ErrorModel

    def estimate_for(self, predictor: int) -> float:
        return float(self.estimates[self.model.members.index(predictor)])

    def adjusted_norm_for(self, predictor: int) -> float:
        return float(self.adjusted_norms[self.model.members.index(predictor)])


@dataclass(frozen=True)
class TargetSpec:
    """Mean vector in canonical coordinates; the source of coefficient targets."""

    mu: np.ndarray

    @classmethod
    def zero(cls, design: CanonicalDesign) -> "TargetSpec":
        return cls(np.zeros(design.d))

    @classmethod
    def from_canonical_mean(cls, mu: np.ndarray) -> "TargetSpec":
        mu = np.asarray(mu, dtype=float)
        if not np.all(np.isfinite(mu)):
            raise ValueError("mean vector must be finite")
        return cls(mu)

    @classmethod
    def from_mean(cls, design: CanonicalDesign, mu_full: np.ndarray) -> "TargetSpec":
        """Reduce an n-space mean vector through the stored basis."""
        return cls(design.reduce_response(mu_full))

    @classmethod
    def from_coefficients(cls, design: CanonicalDesign, beta: np.ndarray) -> "TargetSpec":
        beta = np.asarray(beta, dtype=float)
        return cls(design.values @ beta)


@dataclass(frozen=True)
class IntervalRow:
    predictor: int
    name: str
    estimate: float
    lower: float
    upper: float
    t_observed: float
    k_used: float
    covers_target: bool | None


@dataclass(frozen=True)
class IntervalReport:
    model: ModelId
    sigma_hat: float
    rows: tuple[IntervalRow, ...]


def _solve_submodel(design: CanonicalDesign, model: ModelId, rhs: np.ndarray):
    A = design.submatrix(model)
    m = model.size
    coef, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < m:
        raise InfeasibleError(f"submodel {model} is rank deficient")
    return A, coef


def fit_submodel(
    design: CanonicalDesign,
    y: np.ndarray,
    model: ModelId,
    sigma_hat: float,
    error_model: ErrorModel = ErrorModel.known_sigma(),
) -> FitResult:
    """Least squares in one submodel; sigma_hat comes from outside the fit.

    The residual is orthogonal to the model's span, and the adjusted-predictor
    norms are read off the inverse Gram diagonal:
    ||x_{j.M}|| = 1 / sqrt[(X_M' X_M)^{-1}_{jj}].
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (design.d,):
        raise ValueError(f"response must be a length-{design.d} canonical vector")
    if sigma_hat <= 0:
        raise ValueError("sigma_hat must be positive")
    A, coef = _solve_submodel(design, model, y)
    gram_inv = np.linalg.inv(A.T @ A)
    norms = 1.0 / np.sqrt(np.diag(gram_inv))
    return FitResult(model, coef, norms, float(sigma_hat), error_model)


def submodel_target(
    design: CanonicalDesign, model: ModelId, target: TargetSpec
) -> np.ndarray:
    """Coefficient target of the submodel: the projection coefficients of mu."""
    mu = np.asarray(target.mu, dtype=float)
    if mu.shape != (design.d,):
        raise ValueError(f"target mean must be a length-{design.d} canonical vector")
    _, coef = _solve_submodel(design, model, mu)
    return coef


def t_ratio(fit: FitResult, predictor: int, target_value: float = 0.0) -> float:
    """(estimate - target) / (sigma_hat / adjusted norm)."""
    if predictor not in fit.model:
        raise ValueError(f"predictor {predictor} is not in {fit.model}")
    est = fit.estimate_for(predictor)
    norm = fit.adjusted_norm_for(predictor)
    return (est - target_value) / (fit.sigma_hat / norm)


def _check_constant_applies(k: ConstantEstimate, model: ModelId):
    if k.name == "scheffe":
        return
    if k.name == "posi1":
        raise InfeasibleError(
            "a single-predictor constant does not cover joint intervals"
        )
    if k.universe is None or not k.universe.contains(model):
        raise InfeasibleError(
            f"constant was not computed for a universe containing {model}; "
            "the simultaneous guarantee would be void"
        )


def posi_intervals(
    design: CanonicalDesign,
    y: np.ndarray,
    sigma_hat: float,
    error_model: ErrorModel,
    model: ModelId,
    k: ConstantEstimate,
    target: TargetSpec | None = None,
) -> IntervalReport:
    """Simultaneous intervals estimate +- K sigma_hat / ||x_{j.M}|| for j in M."""
    _check_constant_applies(k, model)
    fit = fit_submodel(design, y, model, sigma_hat, error_model)
    beta = submodel_target(design, model, target) if target is not None else None
    rows = []
    for i, j in enumerate(model.members):
        est = float(fit.estimates[i])
        half = k.k * sigma_hat / float(fit.adjusted_norms[i])
        covers = None
        if beta is not None:
            covers = bool(abs(est - beta[i]) <= half)
        rows.append(
            IntervalRow(
                predictor=j,
                name=design.column_names[j - 1],
                estimate=est,
                lower=est - half,
                upper=est + half,
                t_observed=t_ratio(fit, j, 0.0),
                k_used=k.k,
                covers_target=covers,
            )
        )
    return IntervalReport(model=model, sigma_hat=float(sigma_hat), rows=tuple(rows))


# ---------------------------------------------------------------------------
# Worst-case selectors
# ---------------------------------------------------------------------------


def _argmax_over_directions(
    chunks: Iterable, y: np.ndarray, sigma_hat: float
) -> tuple[ModelId, int, float]:
    """Max |l' y| / sigma_hat over the (vectors, keys) chunks of a direction
    set, with deterministic tie-breaking: the smallest (mask, j) key wins."""
    if not sigma_hat > 0:
        raise ValueError("sigma_hat must be positive")
    if not np.all(np.isfinite(y)):
        raise ValueError("response must be finite")
    best: tuple[float, tuple[int, int]] | None = None
    for vectors, keys in chunks:
        # vecdot rounds each row as np.dot(row, y) does; vectors @ y does not.
        stats = np.abs(np.vecdot(vectors, y)) / sigma_hat
        stat = float(stats.max())
        candidate = (-stat, min(keys[i] for i in np.flatnonzero(stats == stat)))
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise InfeasibleError("no directions to select over")
    stat, (mask, j) = -best[0], best[1]
    return ModelId.from_mask(mask), j, stat


def _spar1_directions(
    design: CanonicalDesign, universe: ModelUniverse | None, predictor: int
) -> DirectionSet:
    if universe is None:
        universe = ModelUniverse.all()
    restricted = universe & ModelUniverse.forcing(predictor)
    return DirectionSet(design, restricted, predictor=predictor)


def spar_select(
    design: CanonicalDesign,
    y: np.ndarray,
    sigma_hat: float,
    universe: ModelUniverse | None = None,
) -> tuple[ModelId, float]:
    """Significance-hunting selection: the model holding the largest |t| over
    all (j, M) pairs. Attains the simultaneous max-|t| bound by construction."""
    chunks = direction_stream(design, universe).chunks(_DIRECTION_CHUNK)
    model, _, stat = _argmax_over_directions(chunks, y, sigma_hat)
    return model, stat


def spar1_select(
    design: CanonicalDesign,
    y: np.ndarray,
    sigma_hat: float,
    universe: ModelUniverse | None = None,
    predictor: int = 1,
) -> tuple[ModelId, float]:
    """Best-adjustment selection for one primary predictor: maximizes its |t|
    over the models that contain it."""
    chunks = _spar1_directions(design, universe, predictor).chunks(_DIRECTION_CHUNK)
    model, _, stat = _argmax_over_directions(chunks, y, sigma_hat)
    return model, stat


Selector = Callable[[CanonicalDesign, np.ndarray, float], ModelId]


def _last_design(build: Callable[[CanonicalDesign], list]) -> Callable:
    """build(design), recomputed only when another design comes in. The design
    object is kept and compared by identity: an id() can be reused once its
    object dies."""
    last_design, last_value = None, []

    def get(design: CanonicalDesign) -> list:
        nonlocal last_design, last_value
        if design is not last_design:
            last_value, last_design = build(design), design
        return last_value

    return get


def _direction_selector(
    directions: Callable[[CanonicalDesign], DirectionSet]
) -> Selector:
    """Argmax selector over directions(design), walked once per design."""
    chunks = _last_design(
        lambda design: list(directions(design).chunks(_DIRECTION_CHUNK)))

    def select(design: CanonicalDesign, y: np.ndarray, sigma_hat: float) -> ModelId:
        return _argmax_over_directions(chunks(design), y, sigma_hat)[0]

    return select


def make_spar_selector(universe: ModelUniverse | None = None) -> Selector:
    return _direction_selector(lambda design: direction_stream(design, universe))


def make_spar1_selector(
    predictor: int, universe: ModelUniverse | None = None
) -> Selector:
    return _direction_selector(
        lambda design: _spar1_directions(design, universe, predictor)
    )


def make_stepwise_selector(
    universe: ModelUniverse | None = None, t_enter: float = 2.0
) -> Selector:
    """Forward stepwise by largest |t| on entry; stops when nothing clears
    t_enter or no admissible extension remains. Always returns at least one
    predictor (the first step ignores the threshold)."""

    def select(design: CanonicalDesign, y: np.ndarray, sigma_hat: float) -> ModelId:
        u = universe if universe is not None else ModelUniverse.all()
        current: list[int] = []
        while True:
            best_j, best_t = None, -1.0
            for j in range(1, design.p + 1):
                if j in current:
                    continue
                candidate = ModelId(current + [j])
                if not u.contains(candidate):
                    continue
                try:
                    fit = fit_submodel(design, y, candidate, sigma_hat)
                except (InfeasibleError, ValueError):
                    continue
                t = abs(t_ratio(fit, j))
                if t > best_t:
                    best_j, best_t = j, t
            if best_j is None:
                break
            if current and best_t < t_enter:
                break
            current.append(best_j)
            if len(current) >= design.d:
                break
        if not current:
            raise InfeasibleError("stepwise selector found no admissible model")
        return ModelId(current)

    return select


def make_best_r2_selector(size: int, universe: ModelUniverse | None = None) -> Selector:
    """Largest-R^2 model of a fixed size (exhaustive; deterministic ties)."""
    u = universe if universe is not None else ModelUniverse.all()
    u = u & ModelUniverse.of_max_size(size)
    # The design's models of this size, enumerated once per design.
    models = _last_design(
        lambda design: [m for m in enumerate_models(design, u) if m.size == size]
    )

    def select(design: CanonicalDesign, y: np.ndarray, sigma_hat: float) -> ModelId:
        best_key, best_model = None, None
        for model in models(design):
            A = design.submatrix(model)
            coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
            fitted = A @ coef
            key = (-float(fitted @ fitted), model.mask)
            if best_key is None or key < best_key:
                best_key, best_model = key, model
        if best_model is None:
            raise InfeasibleError(f"universe has no full-rank model of size {size}")
        return best_model

    return select


# ---------------------------------------------------------------------------
# Coverage experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageResult:
    coverage: float
    binomial_se: float
    replications: int
    covered: np.ndarray
    models: tuple[ModelId, ...]


def coverage_experiment(
    design: CanonicalDesign,
    universe: ModelUniverse | None,
    selector: Selector | str | tuple,
    alpha: float,
    error_model: ErrorModel,
    k: ConstantEstimate | float,
    replications: int,
    seed: int = 0,
    target: TargetSpec | None = None,
) -> CoverageResult:
    """Simulate y = mu + eps, select a model, and check that the intervals
    calibrated by k cover every selected coefficient target simultaneously.

    eps is standard Gaussian in canonical coordinates and sigma_hat is drawn
    fresh each replication from the error model, independent of eps.
    Selectors must be pure functions of (design, y, sigma_hat); the named
    selectors "spar" and ("spar1", j) are built against the given universe.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if universe is None:
        universe = ModelUniverse.all()
    if selector == "spar":
        select = make_spar_selector(universe)
    elif isinstance(selector, tuple) and len(selector) == 2 and selector[0] == "spar1":
        select = make_spar1_selector(int(selector[1]), universe)
    elif isinstance(selector, (str, tuple)):
        raise ValueError(f"unknown selector {selector!r}")
    else:
        select = selector

    k_value = k.k if isinstance(k, ConstantEstimate) else float(k)
    mu = target.mu if target is not None else np.zeros(design.d)

    covered = np.zeros(replications, dtype=bool)
    models: list[ModelId] = []
    nblocks = _rng.block_count(replications)
    i = 0
    for b in range(nblocks):
        eps, sigma = _rng.gaussian_block(
            seed, _rng.PURPOSE_COVERAGE, b, replications, design.d, error_model.df
        )
        for row in range(eps.shape[0]):
            y = mu + eps[row]
            sigma_hat = float(sigma[row])
            model = select(design, y, sigma_hat)
            fit = fit_submodel(design, y, model, sigma_hat, error_model)
            beta = submodel_target(design, model, TargetSpec(mu))
            half = k_value * sigma_hat / fit.adjusted_norms
            covered[i] = bool(np.all(np.abs(fit.estimates - beta) <= half))
            models.append(model)
            i += 1
    coverage = float(covered.mean())
    se = math.sqrt(max(coverage * (1.0 - coverage), 0.0) / replications)
    return CoverageResult(
        coverage=coverage,
        binomial_se=se,
        replications=replications,
        covered=covered,
        models=tuple(models),
    )
