"""Property tests: the lattice walker against brute-force subset enumeration,
universe membership and spec round-trips, selection against a brute-force
argmax, and prefix-stable Monte Carlo draws."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posikit import (
    CanonicalDesign,
    DesignMatrix,
    ErrorModel,
    InfeasibleError,
    ModelId,
    ModelUniverse,
    canonicalize,
    direction_stream,
    enumerate_models,
    make_spar1_selector,
    make_spar_selector,
    max_abs_t_draws,
    spar1_select,
    spar_select,
)
from posikit import _rng
from posikit.inference import _argmax_over_directions

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def designs(draw) -> CanonicalDesign:
    """Generic Gaussian columns, plus exact rank deficiencies: a column may be
    a power-of-two multiple of an earlier one or the sum of two earlier ones."""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(max(1, p - 2), p + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols: list[np.ndarray] = []
    for j in range(p):
        kind = draw(st.sampled_from(["fresh", "fresh", "scaled", "sum"])) if j else "fresh"
        if kind == "scaled":
            factor = draw(st.sampled_from([-1.0, 2.0, 0.5]))
            cols.append(factor * cols[draw(st.integers(0, j - 1))])
        elif kind == "sum" and j >= 2:
            a, b = draw(st.lists(st.integers(0, j - 1), min_size=2, max_size=2,
                                 unique=True))
            cols.append(cols[a] + cols[b])
        else:
            cols.append(rng.standard_normal(n))
    X = np.column_stack(cols)
    return canonicalize(DesignMatrix(X, tuple(f"x{j}" for j in range(1, p + 1))))


@st.composite
def universe_parts(draw, p: int) -> dict:
    """Constructor arguments of one universe; the brute-force predicate below
    reads these, never the universe object."""
    index = st.integers(1, p)
    explicit = draw(st.none() | st.lists(
        st.frozensets(index, min_size=1), min_size=1, max_size=6))
    return {
        "max_size": draw(st.none() | index),
        "min_size": draw(st.none() | index),
        "forced": tuple(draw(st.frozensets(index, max_size=2))),
        "nested": draw(st.booleans()),
        "explicit": None if explicit is None else frozenset(explicit),
    }


def build_universe(parts: dict) -> ModelUniverse:
    u = ModelUniverse(max_size=parts["max_size"], min_size=parts["min_size"],
                      forced=parts["forced"], nested=parts["nested"])
    if parts["explicit"] is not None:
        u = u & ModelUniverse.explicit(parts["explicit"])
    return u


def brute_admits(parts: dict, members: frozenset) -> bool:
    size = len(members)
    return (
        (parts["max_size"] is None or size <= parts["max_size"])
        and (parts["min_size"] is None or size >= parts["min_size"])
        and set(parts["forced"]) <= members
        and (not parts["nested"] or members == frozenset(range(1, size + 1)))
        and (parts["explicit"] is None or members in parts["explicit"])
    )


@st.composite
def design_and_universe(draw):
    cd = draw(designs())
    all_parts = draw(st.lists(universe_parts(cd.p), min_size=1, max_size=2))
    universe = build_universe(all_parts[0])
    for parts in all_parts[1:]:
        universe = universe & build_universe(parts)
    return cd, all_parts, universe


def full_rank(X: np.ndarray, members: frozenset) -> bool:
    if len(members) > X.shape[0]:
        return False
    svals = np.linalg.svd(X[:, [j - 1 for j in sorted(members)]], compute_uv=False)
    return bool(svals[-1] > 1e-8 * svals[0])


def all_subsets(p: int):
    for r in range(1, p + 1):
        for cols in itertools.combinations(range(1, p + 1), r):
            yield frozenset(cols)


# ---------------------------------------------------------------------------
# Walker, membership and spec strings against brute force
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(design_and_universe())
def test_walker_matches_brute_force(case):
    cd, all_parts, universe = case
    admitted = [m for m in all_subsets(cd.p)
                if all(brute_admits(parts, m) for parts in all_parts)]
    for m in all_subsets(cd.p):
        assert universe.contains(ModelId(m)) == (m in admitted)

    models = {m for m in admitted if full_rank(cd.values, m)}
    pairs = [(d.predictor, frozenset(d.model.members))
             for d in direction_stream(cd, universe)]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == {(j, m) for m in models for j in m}

    if not models:
        with pytest.raises(InfeasibleError):
            list(enumerate_models(cd, universe))
        return
    enumerated = [frozenset(m.members) for m in enumerate_models(cd, universe)]
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == models == {m for _, m in pairs}


@PROPERTY_SETTINGS
@given(design_and_universe())
def test_spec_string_round_trips(case):
    cd, _, universe = case
    assert ModelUniverse.from_spec(universe.spec_string(), p=cd.p) == universe


# ---------------------------------------------------------------------------
# Selection against a brute-force np.dot loop over the stream
# ---------------------------------------------------------------------------


@st.composite
def orthogonal_designs(draw) -> CanonicalDesign:
    """Each column a signed power-of-two multiple of a unit vector. Columns on
    the same axis make the design rank deficient; either way directions
    coincide up to sign, so |t| ties are exact."""
    p = draw(st.integers(1, 6))
    d = draw(st.integers(1, p))
    values = np.zeros((d, p))
    for j in range(p):
        values[draw(st.integers(0, d - 1)), j] = draw(
            st.sampled_from([-2.0, -1.0, 0.5, 1.0, 4.0]))
    return CanonicalDesign.from_canonical(values)


@st.composite
def selection_cases(draw):
    cd = draw(designs() | orthogonal_designs())
    universe = build_universe(draw(universe_parts(cd.p)))
    if draw(st.booleans()):
        # small integers tie often, on orthogonal designs exactly
        y = np.array(draw(st.lists(st.integers(-2, 2), min_size=cd.d,
                                   max_size=cd.d)), dtype=float)
    else:
        y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(cd.d)
    sigma_hat = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 100.0))
    return cd, universe, y, sigma_hat, draw(st.integers(1, cd.p))


def brute_force_argmax(directions, y, sigma_hat):
    """(model, stat) of the largest |l' y| / sigma_hat; ties to the smallest
    (mask, j). None for an empty direction set."""
    best = None
    for direction in directions:
        stat = abs(float(np.dot(direction.vector, y))) / sigma_hat
        key = (-stat, direction.model.mask, direction.predictor)
        if best is None or key < best:
            best = key
    return None if best is None else (ModelId.from_mask(best[1]), -best[0])


@PROPERTY_SETTINGS
@given(selection_cases(), st.sampled_from([1, 2, 3, 7]))
def test_selection_matches_brute_force_argmax(case, chunk):
    cd, universe, y, sigma_hat, j = case
    restricted = universe & ModelUniverse.forcing(j)
    spar = brute_force_argmax(direction_stream(cd, universe), y, sigma_hat)
    spar1 = brute_force_argmax(
        [d for d in direction_stream(cd, restricted) if d.predictor == j], y, sigma_hat)
    checks = [
        (spar, lambda: spar_select(cd, y, sigma_hat, universe),
         make_spar_selector(universe)),
        (spar1, lambda: spar1_select(cd, y, sigma_hat, universe, j),
         make_spar1_selector(j, universe)),
    ]
    for want, one_shot, select in checks:
        if want is None:
            with pytest.raises(InfeasibleError):
                one_shot()
            with pytest.raises(InfeasibleError):
                select(cd, y, sigma_hat)
            continue
        assert one_shot() == want
        for _ in range(2):  # the second call is served from the selector's cache
            assert select(cd, y, sigma_hat) == want[0]
    # Small chunks carry the running best across chunk boundaries.
    if spar is not None:
        model, _, stat = _argmax_over_directions(
            direction_stream(cd, universe).chunks(chunk), y, sigma_hat)
        assert (model, stat) == spar


# ---------------------------------------------------------------------------
# Draw i depends only on (seed, i)
# ---------------------------------------------------------------------------

DFS = st.sampled_from([math.inf, 1, 5, 20])


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**64 - 1), df=DFS, dim=st.integers(1, 4),
       n=st.integers(1, 2 * _rng.BLOCK), extra=st.integers(1, 2 * _rng.BLOCK))
def test_gaussian_blocks_are_prefix_stable(seed, df, dim, n, extra):
    for b in range(_rng.block_count(n)):
        z, sigma = _rng.gaussian_block(seed, _rng.PURPOSE_MAX_T, b, n, dim, df)
        z_long, sigma_long = _rng.gaussian_block(seed, _rng.PURPOSE_MAX_T, b, n + extra,
                                                 dim, df)
        rows = z.shape[0]
        assert np.array_equal(z, z_long[:rows])
        assert np.array_equal(sigma, sigma_long[:rows])


PREFIX_DESIGN = CanonicalDesign.from_canonical(
    np.triu(np.random.default_rng(5).standard_normal((10, 10))) + 3 * np.eye(10))


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), df=DFS,
       n=st.integers(1, 2 * _rng.BLOCK), extra=st.integers(1, 2 * _rng.BLOCK),
       spec=st.sampled_from(["size<=2", "models=10"]))
def test_max_abs_t_draws_are_prefix_stable(seed, df, n, extra, spec):
    # 100 directions, or a single one (a one-row direction chunk)
    universe = ModelUniverse.from_spec(spec)
    em = ErrorModel(df)
    short = max_abs_t_draws(direction_stream(PREFIX_DESIGN, universe), em, n, seed)
    long = max_abs_t_draws(direction_stream(PREFIX_DESIGN, universe), em, n + extra, seed)
    assert np.array_equal(short, long[:n])
