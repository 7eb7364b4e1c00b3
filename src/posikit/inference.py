"""Per-submodel least squares, simultaneous confidence intervals, worst-case
selectors, and a coverage simulator for the universal guarantee.

Every quantity lives in canonical coordinates. The coefficient target of a
submodel M is defined through unbiasedness: beta_M = argmin_b ||mu - X_M b||,
which exists for arbitrary mean vectors mu, so nothing here assumes any model
(including the full one) is correct.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import _rng
from .constants import ConstantEstimate, ErrorModel, _gemv_margin, _validate_alpha
from .design import CanonicalDesign
from .errors import InfeasibleError
from .lattice import (DirectionSet, ModelId, ModelUniverse, _check_fit, _full_rank_blocks,
                      _model_directions, direction_stream)


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
    """sigma_hat must be positive and finite, and y finite. Every statistic
    |l'y| / sigma_hat of a unit l is at most sqrt(d) max|y_i| / sigma_hat,
    so that bound must be finite too: a sigma_hat too small for the response
    (a subnormal one, say) is refused rather than turned into an infinite t."""
    if not 0.0 < sigma_hat < math.inf:
        raise ValueError(f"sigma_hat must be positive and finite, got {sigma_hat!r}")
    top = float(np.abs(y).max())
    if not math.isfinite(top):
        raise ValueError("response must be finite")
    if not math.isfinite(math.sqrt(np.size(y)) * top / sigma_hat):
        raise ValueError(f"sigma_hat {sigma_hat!r} is too small for the response")


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
    return _fit(design, y, model, sigma_hat, error_model)[0]


def _fit(design: CanonicalDesign, y: np.ndarray, model: ModelId, sigma_hat: float,
         error_model: ErrorModel) -> tuple[FitResult, np.ndarray]:
    """fit_submodel, with the model's unit directions (k, d)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (design.d,):
        raise ValueError(f"response must be a length-{design.d} canonical vector")
    _check_response(y, sigma_hat)
    vectors, norms = _model_directions(design, model)
    return FitResult(model, np.vecdot(vectors, y) / norms, norms, float(sigma_hat),
                     error_model), vectors


def _target_mean(design: CanonicalDesign, target: TargetSpec) -> np.ndarray:
    mu = np.asarray(target.mu, dtype=float)
    if mu.shape != (design.d,):
        raise ValueError(f"target mean must be a length-{design.d} canonical vector")
    return mu


def submodel_target(
    design: CanonicalDesign, model: ModelId, target: TargetSpec
) -> np.ndarray:
    """Coefficient target of the submodel: the projection coefficients of mu."""
    mu = _target_mean(design, target)
    vectors, norms = _model_directions(design, model)
    return np.vecdot(vectors, mu) / norms


def t_ratio(fit: FitResult, predictor: int, target_value: float = 0.0) -> float:
    """(estimate - target) / (sigma_hat / adjusted norm)."""
    if predictor not in fit.model:
        raise ValueError(f"predictor {predictor} is not in {fit.model}")
    est = fit.estimate_for(predictor)
    norm = fit.adjusted_norm_for(predictor)
    return (est - target_value) / (fit.sigma_hat / norm)


def _check_constant_applies(k: ConstantEstimate, design: CanonicalDesign,
                            model: ModelId, error_model: ErrorModel):
    if k.error_model != error_model:
        raise InfeasibleError(
            f"constant was computed for {k.error_model}, not {error_model}; "
            "the simultaneous guarantee would be void"
        )
    if k.d is not None and k.d != design.d:
        raise InfeasibleError(
            f"constant was computed for d={k.d}, not d={design.d}; "
            "the simultaneous guarantee would be void"
        )
    if k.name == "scheffe":
        return
    if k.name == "posi1":
        raise InfeasibleError(
            "a single-predictor constant does not cover joint intervals"
        )
    _check_in_universe(k.universe, model)


def _check_in_universe(universe: ModelUniverse | None, model: ModelId):
    if universe is None or not universe.contains(model):
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

    K must have been computed for ``error_model``, for a design of this
    rank d (when K records its d) and, unless it is the Scheffe constant,
    for a universe containing ``model``; otherwise the guarantee would be
    void and InfeasibleError is raised. The model is factored once, for the
    fit and the target alike.
    """
    _check_constant_applies(k, design, model, error_model)
    fit, vectors = _fit(design, y, model, sigma_hat, error_model)
    beta = None
    if target is not None:
        beta = np.vecdot(vectors, _target_mean(design, target)) / fit.adjusted_norms
    rows = []
    for i, j in enumerate(model.members):
        est = float(fit.estimates[i])
        norm = float(fit.adjusted_norms[i])
        half = k.k * sigma_hat / norm
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
                t_observed=est / (fit.sigma_hat / norm),
                k_used=k.k,
                covers_target=covers,
            )
        )
    return IntervalReport(model=model, sigma_hat=float(sigma_hat), rows=tuple(rows))


# ---------------------------------------------------------------------------
# Worst-case selectors
# ---------------------------------------------------------------------------


# Rows per block that one-shot selection streams (at d = 16, 1 MB): the
# screen costs a few numpy calls per block whatever its size, so over the
# fold's 512-row chunks it saved nothing against a row-by-row scan.
_SELECT_CHUNK = 8192


def _argmax_over_directions(
    chunks: Iterable, y: np.ndarray, sigma_hat: float
) -> tuple[ModelId, int, float]:
    """Max |l' y| / sigma_hat over the (vectors, keys) chunks of a direction
    set, with deterministic tie-breaking: the smallest (mask, j) key wins.
    See _argmax_over_blocks."""
    return _argmax_over_blocks(_normed(chunks), y, sigma_hat)


def _normed(chunks: Iterable) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """Each (vectors, keys) chunk with a bound on the norms of its rows,
    sqrt(d) max |l_k|: two reductions, where the norms themselves take a
    pass that costs about as much as the screen saves."""
    for vectors, keys in chunks:
        largest = max(vectors.max(), -vectors.min())
        yield vectors, keys, math.sqrt(vectors.shape[1]) * largest


def _argmax_over_blocks(
    blocks: Iterable, y: np.ndarray, sigma_hat: float
) -> tuple[ModelId, int, float]:
    """_argmax_over_directions over (vectors, keys, row norm bound) blocks.

    The stat of row i is s_i = |e_i| / sigma_hat, with e_i = l_i'y from
    np.vecdot, which rounds each row as np.dot(row, y) does. A block is
    screened with one product, r = |vectors @ y|, which rounds otherwise,
    and only rows with r_i >= (max r - 2m)(1 - 4u) are rescored by vecdot,
    where u = 2^-53 and m is constants._gemv_margin, so that
    |r_i - |e_i|| <= m / 2. Every row whose s_i reaches the block's maximum
    S is among them, so the model, predictor and stat are the full scan's,
    bit for bit, ties included. Proof: let k hold the largest |e_k|; the
    rounded division is monotone, so s_k = S. If s_i = S and S is a normal
    number, both quotients round to S with a relative error of at most u,
    so |e_i| >= |e_k| (1 - u) / (1 + u) >= |e_k| (1 - 2u), and
    |e_k| >= max r - m / 2. Hence r_i >= |e_i| - m / 2
    >= (max r - m)(1 - 2u), and the floor, rounded three times, stays below
    that with a factor 2 to spare on m and on u. If S is zero, subnormal
    or infinite, the division may merge quotients further apart, and the
    block is rescored whole; so is a block whose floor is not finite
    (||y|| or a product overflows).
    """
    _check_response(y, sigma_hat)
    y = np.asarray(y, dtype=float)
    y_norm = math.hypot(*y.tolist())
    best: tuple[float, tuple[int, int]] | None = None
    for vectors, keys, row_bound in blocks:
        stat, tied = _block_max(vectors, keys, row_bound, y, y_norm, sigma_hat)
        candidate = (-stat, min(map(tuple, tied.tolist())))
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise InfeasibleError("no directions to select over")
    stat, (mask, j) = -best[0], best[1]
    return ModelId.from_mask(mask), j, stat


def _block_max(vectors: np.ndarray, keys: np.ndarray, row_bound: float,
               y: np.ndarray, y_norm: float, sigma_hat: float
               ) -> tuple[float, np.ndarray]:
    """The block's largest stat and the keys of the rows that reach it, by
    the screen of _argmax_over_blocks."""
    r = np.abs(vectors @ y)
    margin = _gemv_margin(vectors.shape[1], row_bound, y_norm)
    floor = (r.max() - 2.0 * margin) * (1.0 - 4.0 * 2.0 ** -53)
    if math.isfinite(floor):
        stat, tied = _rows_max(vectors, keys, np.flatnonzero(r >= floor), y, sigma_hat)
        if sys.float_info.min <= stat < math.inf:
            return stat, tied
    return _rows_max(vectors, keys, np.arange(r.size), y, sigma_hat)


def _rows_max(vectors: np.ndarray, keys: np.ndarray, rows: np.ndarray,
              y: np.ndarray, sigma_hat: float) -> tuple[float, np.ndarray]:
    """The largest stat over these rows and the keys of the rows that reach
    it. The rows are gathered into a C-ordered copy, whose vecdot rounds
    each row as np.dot(row, y) does, whatever the block's layout."""
    stats = np.abs(np.vecdot(vectors[rows], y)) / sigma_hat
    stat = float(stats.max())
    return stat, keys[rows[stats == stat]]


def spar_select(
    design: CanonicalDesign,
    y: np.ndarray,
    sigma_hat: float,
    universe: ModelUniverse | None = None,
) -> tuple[ModelId, float]:
    """Significance-hunting selection: the model holding the largest |t| over
    all (j, M) pairs. Attains the simultaneous max-|t| bound by construction."""
    chunks = direction_stream(design, universe).chunks(_SELECT_CHUNK)
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
    chunks = DirectionSet(design, universe, predictor=predictor).chunks(_SELECT_CHUNK)
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


class _DirectionSelector:
    """Argmax selector over directions(design), walked once per design and
    held as one block. When the set holds every pair of its models (no
    single predictor), the refits of the models it selects read their rows
    from the block (see _refit_directions)."""

    def __init__(self, directions: Callable[[CanonicalDesign], DirectionSet]):
        self.held = _last_design(
            lambda design: _held_block(directions(design)))

    def __call__(self, design: CanonicalDesign, y: np.ndarray,
                 sigma_hat: float) -> ModelId:
        return _argmax_over_blocks(self.held(design)[0], y, sigma_hat)[0]


def _held_block(directions: DirectionSet) -> tuple[list, tuple | None]:
    """The set as one held block of _normed (none when the set is empty),
    and, when the block holds every pair of its models, its _mask_index for
    _held_refits. The vectors are held in Fortran order: their product with
    y is then a column-major gemv, which at d = 10 takes half the time of
    the row-major one, a dot product per row."""
    blocks = [(np.asfortranarray(vectors), keys, bound)
              for vectors, keys, bound in _normed(directions.chunks())]
    if not blocks or directions.predictor is not None:
        return blocks, None
    return blocks, _mask_index(blocks[0][1][:, 0])


def _mask_index(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows' stable argsort by mask, and the sorted masks."""
    order = np.argsort(masks, kind="stable")
    return order, masks[order]


def _held_refits(vectors: np.ndarray, index: tuple[np.ndarray, np.ndarray],
                 models: Iterable[ModelId]) -> dict[int, np.ndarray]:
    """Unit directions (k, d) of each distinct model's members, by mask, read
    from a block that holds, in enumeration order, every pair the
    enumeration emits for the models, with the block's _mask_index. A
    model's rows are found by binary search, in block order. They are the
    enumeration's, so they are bitwise _model_directions' by its contract;
    so is the InfeasibleError for the first model, by size and then
    members, that the block does not hold whole. Every model's rows are
    gathered at once, and each model's directions are a slice of them."""
    order, masks = index
    models = list(dict.fromkeys(models))
    wanted = np.array([model.mask for model in models], dtype=masks.dtype)
    starts = np.searchsorted(masks, wanted)
    sizes = np.array([model.size for model in models], dtype=np.intp)
    short = np.flatnonzero(np.searchsorted(masks, wanted, side="right") - starts != sizes)
    if short.size:
        first = min((models[i] for i in short), key=lambda m: (m.size, m.members))
        raise InfeasibleError(f"submodel {first} is rank deficient")
    # One gather of every model's rows: the i-th row of a model is order[start + i].
    ends = np.cumsum(sizes)
    block = vectors[order[np.repeat(starts - ends + sizes, sizes) + np.arange(sizes.sum())]]
    return {model.mask: block[end - model.size:end]
            for model, end in zip(models, ends.tolist())}


def _refit_directions(select: Selector, design: CanonicalDesign,
                      models: list[ModelId]) -> dict[int, np.ndarray]:
    """Unit directions (k, d) of each distinct selected model's members, by
    mask, read by _held_refits: from the selector's held block when it holds
    whole models, else from the direction stream of the models' explicit
    universe, after _check_fit of each model in turn."""
    if isinstance(select, _DirectionSelector):
        blocks, index = select.held(design)
        if index is not None:
            return _held_refits(blocks[0][0], index, models)
    for model in models:
        _check_fit(design, model)
    whole = direction_stream(design, ModelUniverse.explicit(models)).whole()
    return _held_refits(whole.vectors, _mask_index(whole.masks), models)


def make_spar_selector(universe: ModelUniverse | None = None) -> Selector:
    return _DirectionSelector(lambda design: direction_stream(design, universe))


def make_spar1_selector(
    predictor: int, universe: ModelUniverse | None = None
) -> Selector:
    return _DirectionSelector(
        lambda design: DirectionSet(design, universe, predictor=predictor)
    )


# Bytes of node arrays one stepwise selector keeps per design, so that
# responses taking ever more distinct paths cannot grow it without bound. A
# node holds under 2 d p float64 (its candidates' residuals and its basis).
# On a 24 x 20 Gaussian design, 10^4 replications with mu = 0 (mean model
# size 1.6) reach 3 264 nodes, all kept in 10.9 MB; with a signal that
# enters 6 to 16 columns on average, about 5 100 nodes fill the budget and
# later ones are built per call. The coverage benchmark's runs of 100
# replications at p = 10 keep 27 to 39 nodes, 23 to 34 kB.
_STEP_TREE_BYTES = 16 << 20


class _StepNode:
    """One step of forward stepwise after a fixed sequence of entries: the
    model's mask and orthonormal basis, and the admissible candidates that
    clear tau, with their residuals against the basis and the residuals'
    norms. A kept node holds its kept children by entering position; a node
    past the budget holds none (children is None)."""

    __slots__ = ("mask", "basis", "cols", "residuals", "norms", "children")

    def __init__(self, mask, basis, cols, residuals, norms):
        self.mask, self.basis, self.cols = mask, basis, cols
        self.residuals, self.norms = residuals, norms
        self.children: dict[int, _StepNode] | None = None

    @property
    def nbytes(self) -> int:
        return self.basis.nbytes + self.residuals.nbytes + self.norms.nbytes


def _step_node(design: CanonicalDesign, universe: ModelUniverse,
               parent: _StepNode | None, best: int) -> _StepNode:
    """The root (parent None), or the node after parent's candidate at
    position best enters: the entering residual grows the basis by
    Gram-Schmidt with one re-orthogonalization."""
    if parent is None:
        mask, basis = 0, np.empty((design.d, 0))
    else:
        mask = parent.mask | 1 << parent.cols[best]
        r = parent.residuals[:, best]
        r = r - parent.basis @ (parent.basis.T @ r)
        basis = np.column_stack([parent.basis, r / np.linalg.norm(r)])
    cols = np.array([j for j in range(design.p) if not mask >> j & 1
                     and universe.admits(mask | 1 << j)], dtype=np.intp)
    candidates = design.values[:, cols]
    residuals = candidates - basis @ (basis.T @ candidates)
    norms = np.linalg.norm(residuals, axis=0)
    keep = norms > design.rank_limits[cols]
    return _StepNode(mask, basis, cols[keep].tolist(), residuals[:, keep], norms[keep])


class _StepTree:
    """The stepwise nodes of one design, keyed by the entered members in
    entry order, each built once and kept while _STEP_TREE_BYTES allows."""

    def __init__(self, design: CanonicalDesign, universe: ModelUniverse):
        self.design, self.universe = design, universe
        self.root: _StepNode | None = None
        self.nbytes = 0

    def step(self, parent: _StepNode | None, best: int) -> _StepNode:
        """The root (parent None), or parent's child at position best."""
        node = self.root if parent is None else (parent.children or {}).get(best)
        if node is not None:
            return node
        node = _step_node(self.design, self.universe, parent, best)
        if ((parent is None or parent.children is not None)
                and self.nbytes + node.nbytes <= _STEP_TREE_BYTES):
            self.nbytes += node.nbytes
            node.children = {}
            if parent is None:
                self.root = node
            else:
                parent.children[best] = node
        return node


def make_stepwise_selector(
    universe: ModelUniverse | None = None, t_enter: float = 2.0
) -> Selector:
    """Forward stepwise by largest |t| on entry; stops when nothing clears
    t_enter or no admissible extension remains. Always returns at least one
    predictor (the first step ignores the threshold). A NaN t_enter is a
    ValueError.

    Each step scores every admissible candidate j in one pass: its residual
    r_j against an orthonormal basis of the current model gives
    t_j = |r_j'y| / (||r_j|| sigma_hat), and the smallest j wins a tie. A
    candidate is skipped when ||r_j|| <= tau ||x_j||, with tau the design's
    rank tolerance, as in the enumerator. The entering residual grows the
    basis by Gram-Schmidt with one re-orthogonalization.

    All of a step but the product with y is fixed by the design and the
    members entered so far, in order: the admissible candidates, their
    residuals and norms, the tau-kept subset and the next basis. These are
    nodes of a per-design tree (_StepTree), built once each and kept up to
    _STEP_TREE_BYTES; the tree is dropped when another design comes in. A
    call costs, per step, one product of y with the node's residuals, an
    argmax and the threshold test.
    """
    if math.isnan(t_enter):
        raise ValueError("t_enter must not be NaN")
    u = universe if universe is not None else ModelUniverse.all()
    trees = _last_design(lambda design: _StepTree(design, u))

    def select(design: CanonicalDesign, y: np.ndarray, sigma_hat: float) -> ModelId:
        _check_response(y, sigma_hat)
        tree = trees(design)
        node = tree.step(None, 0)
        while node.cols:
            t = np.abs(y @ node.residuals) / (node.norms * sigma_hat)
            best = int(t.argmax())
            if node.mask and t[best] < t_enter:
                break
            if node.mask.bit_count() + 1 >= design.d:
                return ModelId.from_mask(node.mask | 1 << node.cols[best])
            node = tree.step(node, best)
        if not node.mask:
            raise InfeasibleError("stepwise selector found no admissible model")
        return ModelId.from_mask(node.mask)

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
    A ConstantEstimate k must apply to every model selected, as in
    posi_intervals, else InfeasibleError is raised; a float k (say, the
    naive normal quantile) is used as given, and must be positive and
    finite. alpha must lie in (0, 1).
    """
    _validate_alpha(alpha)
    if replications < 1:
        raise ValueError("replications must be >= 1")
    k_value = k.k if isinstance(k, ConstantEstimate) else float(k)
    if not 0.0 < k_value < math.inf:
        raise ValueError(f"k must be positive and finite, got {k_value}")
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

    mu = _target_mean(design, target) if target is not None else np.zeros(design.d)

    covered: list[bool] = []
    models: list[ModelId] = []
    checked: set[int] = set()
    for b in range(_rng.block_count(replications)):
        eps, sigma = _rng.gaussian_block(
            seed, _rng.PURPOSE_COVERAGE, b, replications, design.d, error_model.df
        )
        selected = [select(design, mu + e, sigma_hat)
                    for e, sigma_hat in zip(eps, sigma.tolist())]
        if isinstance(k, ConstantEstimate):
            for model in selected:
                if model.mask not in checked:
                    _check_constant_applies(k, design, model, error_model)
                    checked.add(model.mask)
        directions = _refit_directions(select, design, selected)
        for model, e, sigma_hat in zip(selected, eps, sigma.tolist()):
            # |beta_j - target_j| = |l_j'e| / ||x_{j.M}|| <= K sigma_hat / ||x_{j.M}||
            t = np.abs(np.vecdot(directions[model.mask], e))
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
