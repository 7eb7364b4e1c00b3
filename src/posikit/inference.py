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
                     _full_rank_blocks, _model_directions, _models_directions,
                     direction_stream)
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


def _check_response(y: np.ndarray, sigma_hat: float):
    if not sigma_hat > 0:
        raise ValueError("sigma_hat must be positive")
    if not np.all(np.isfinite(y)):
        raise ValueError("response must be finite")


def fit_submodel(
    design: CanonicalDesign,
    y: np.ndarray,
    model: ModelId,
    sigma_hat: float,
    error_model: ErrorModel = ErrorModel.known_sigma(),
) -> FitResult:
    """Least squares in one submodel; sigma_hat comes from outside the fit.

    The estimates are beta_j = l_j'y / ||x_{j.M}||, with the unit directions
    l_j and adjusted norms ||x_{j.M}|| bitwise those the enumeration emits
    for the model's pairs. Raises InfeasibleError when it does not emit them
    all (rank deficient under the rank tolerance, or more columns than d).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (design.d,):
        raise ValueError(f"response must be a length-{design.d} canonical vector")
    _check_response(y, sigma_hat)
    vectors, norms = _model_directions(design, model)
    return FitResult(model, np.vecdot(vectors, y) / norms, norms, float(sigma_hat),
                     error_model)


def submodel_target(
    design: CanonicalDesign, model: ModelId, target: TargetSpec
) -> np.ndarray:
    """Coefficient target of the submodel: the projection coefficients of mu."""
    mu = np.asarray(target.mu, dtype=float)
    if mu.shape != (design.d,):
        raise ValueError(f"target mean must be a length-{design.d} canonical vector")
    vectors, norms = _model_directions(design, model)
    return np.vecdot(vectors, mu) / norms


def t_ratio(fit: FitResult, predictor: int, target_value: float = 0.0) -> float:
    """(estimate - target) / (sigma_hat / adjusted norm)."""
    if predictor not in fit.model:
        raise ValueError(f"predictor {predictor} is not in {fit.model}")
    est = fit.estimate_for(predictor)
    norm = fit.adjusted_norm_for(predictor)
    return (est - target_value) / (fit.sigma_hat / norm)


def _check_constant_applies(k: ConstantEstimate, model: ModelId,
                            error_model: ErrorModel):
    if k.error_model != error_model:
        raise InfeasibleError(
            f"constant was computed for {k.error_model}, not {error_model}; "
            "the simultaneous guarantee would be void"
        )
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
    """Simultaneous intervals estimate +- K sigma_hat / ||x_{j.M}|| for j in M.

    K must have been computed for ``error_model`` and, unless it is the
    Scheffe constant, for a universe containing ``model``; otherwise the
    guarantee would be void and InfeasibleError is raised.
    """
    _check_constant_applies(k, model, error_model)
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
    _check_response(y, sigma_hat)
    best: tuple[float, tuple[int, int]] | None = None
    for vectors, keys in chunks:
        # vecdot rounds each row as np.dot(row, y) does; vectors @ y does not.
        stats = np.abs(np.vecdot(vectors, y)) / sigma_hat
        stat = float(stats.max())
        candidate = (-stat, min(map(tuple, keys[stats == stat].tolist())))
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


def _last_design(build: Callable[[CanonicalDesign], object]) -> Callable:
    """build(design), recomputed only when another design comes in. The design
    object is kept and compared by identity: an id() can be reused once its
    object dies."""
    last_design, last_value = None, None

    def get(design: CanonicalDesign):
        nonlocal last_design, last_value
        if design is not last_design:
            last_value, last_design = build(design), design
        return last_value

    return get


def _direction_selector(
    directions: Callable[[CanonicalDesign], DirectionSet]
) -> Selector:
    """Argmax selector over directions(design), walked once per design and
    held as one block."""
    chunks = _last_design(lambda design: list(directions(design).chunks()))

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
    predictor (the first step ignores the threshold).

    Each step scores every admissible candidate j in one pass: its residual
    r_j against an orthonormal basis of the current model gives
    t_j = |r_j'y| / (||r_j|| sigma_hat), and the smallest j wins a tie. A
    candidate is skipped when ||r_j|| <= tau ||x_j||, with tau the design's
    rank tolerance, as in the enumerator. The entering residual grows the
    basis by Gram-Schmidt with one re-orthogonalization.
    """

    def select(design: CanonicalDesign, y: np.ndarray, sigma_hat: float) -> ModelId:
        _check_response(y, sigma_hat)
        u = universe if universe is not None else ModelUniverse.all()
        X = design.values
        basis = np.empty((design.d, 0))
        mask = 0
        while True:
            cols = np.array([j for j in range(design.p) if not mask >> j & 1
                             and u.admits(mask | 1 << j)], dtype=np.intp)
            candidates = X[:, cols]
            residuals = candidates - basis @ (basis.T @ candidates)
            norms = np.linalg.norm(residuals, axis=0)
            keep = norms > design.rank_limits[cols]
            if not keep.any():
                break
            residuals, norms, cols = residuals[:, keep], norms[keep], cols[keep]
            t = np.abs(y @ residuals) / (norms * sigma_hat)
            best = int(np.argmax(t))
            if mask and t[best] < t_enter:
                break
            mask |= 1 << int(cols[best])
            if mask.bit_count() >= design.d:
                break
            r = residuals[:, best]
            r = r - basis @ (basis.T @ r)
            basis = np.column_stack([basis, r / np.linalg.norm(r)])
        if not mask:
            raise InfeasibleError("stepwise selector found no admissible model")
        return ModelId.from_mask(mask)

    return select


def _size_projectors(design: CanonicalDesign, universe: ModelUniverse, size: int):
    """The full-rank models of a universe that admits only this size, and
    the stacked (B, size, d) orthonormal rows of their bases."""
    blocks = [(masks, Q) for masks, Q in _full_rank_blocks(design, universe) if masks.size]
    if not blocks:
        raise InfeasibleError(f"universe has no full-rank model of size {size}")
    masks, Q = (np.concatenate(parts) for parts in zip(*blocks))
    return [ModelId.from_mask(mask) for mask in masks.tolist()], Q


def make_best_r2_selector(size: int, universe: ModelUniverse | None = None) -> Selector:
    """Largest-R^2 model of a fixed size (exhaustive; deterministic ties).

    The design's full-rank models of this size are enumerated once per
    design, and the orthonormal rows Q_M of their bases are kept from the
    enumeration's Gram-Schmidt; these hold d * size * 8 bytes per model. Each
    call then scores every model by ||Q_M y||^2 in one pass, and on an exact
    tie the smallest mask wins (ModelId orders by mask).
    """
    u = universe if universe is not None else ModelUniverse.all()
    u = u & ModelUniverse(min_size=size, max_size=size)
    factors = _last_design(lambda design: _size_projectors(design, u, size))

    def select(design: CanonicalDesign, y: np.ndarray, sigma_hat: float) -> ModelId:
        _check_response(y, sigma_hat)
        models, Q = factors(design)
        proj = Q @ y
        scores = np.vecdot(proj, proj)
        return min(models[i] for i in np.flatnonzero(scores == scores.max()))

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

    covered: list[bool] = []
    models: list[ModelId] = []
    for b in range(_rng.block_count(replications)):
        eps, sigma = _rng.gaussian_block(
            seed, _rng.PURPOSE_COVERAGE, b, replications, design.d, error_model.df
        )
        selected = [select(design, mu + e, sigma_hat)
                    for e, sigma_hat in zip(eps, sigma.tolist())]
        # The block's refits, one factorization per distinct model.
        directions = _models_directions(design, selected)
        for model, e, sigma_hat in zip(selected, eps, sigma.tolist()):
            # |beta_j - target_j| = |l_j'e| / ||x_{j.M}|| <= K sigma_hat / ||x_{j.M}||
            t = np.abs(np.vecdot(directions[model.mask][0], e))
            covered.append(bool(t.max() <= k_value * sigma_hat))
        models.extend(selected)
    coverage = float(np.mean(covered))
    se = math.sqrt(max(coverage * (1.0 - coverage), 0.0) / replications)
    return CoverageResult(
        coverage=coverage,
        binomial_se=se,
        replications=replications,
        covered=np.array(covered),
        models=tuple(models),
    )
