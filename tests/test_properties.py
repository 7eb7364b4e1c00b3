"""Property tests: the level-wise enumerator against brute-force subset
enumeration and against a Householder QR and triangular solve per model,
near-collinear models against exact rationals, submodel fits and
adjusted_predictor that read the enumerator's directions bitwise, factors
that are the same bits alone, in a block, from held prefixes and by the
recurrence, held prefixes under their byte cap, universe membership and
spec round-trips, a pair count that matches the
walk without walking, duality on symmetric designs, selection against a
brute-force argmax, a screened selection argmax that is bitwise the full
row-by-row scan, the batched stepwise and best-R^2 selectors against
per-candidate least squares, the stepwise tree against the selector it
replaced, refits read from a held set against the walk's, prefix-stable
Monte Carlo draws, draws that
do not depend on the fold's tile width, a float32 chunk maximum within the
fold's bound of the float64 one, a cone test that bounds every member of its
group and never prunes a group that reaches the floor, also at zero slack,
and a screened fold, held in windows of any size, whose K and order
statistics around it are bitwise the unscreened ones."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posikit import (
    CanonicalDesign,
    DesignMatrix,
    DirectionSet,
    ErrorModel,
    InfeasibleError,
    ModelId,
    ModelUniverse,
    adjusted_predictor,
    canonicalize,
    direction_stream,
    enumerate_models,
    exchangeable_design,
    fit_submodel,
    make_best_r2_selector,
    make_spar1_selector,
    make_spar_selector,
    make_stepwise_selector,
    max_abs_t_draws,
    posi1_constant,
    posi_constant,
    spar1_select,
    spar_select,
    verify_duality,
)
import posikit.lattice
from posikit import _rng, constants, inference
from posikit.design import DEFAULT_RANK_TOLERANCE
from posikit.lattice import _candidate_pair_count, _model_directions, _models_pairs
from posikit.inference import _argmax_over_directions, _check_response

# 1 in tier-1, 10 under the deep profile (see conftest.py).
DEPTH = settings.default.max_examples // settings.get_profile("default").max_examples
PROPERTY_SETTINGS = settings(
    max_examples=60 * DEPTH, deadline=None, suppress_health_check=[HealthCheck.too_slow]
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


def draw_universe(draw, p: int):
    """The parts of one or two universes and their intersection."""
    all_parts = draw(st.lists(universe_parts(p), min_size=1, max_size=2))
    universe = build_universe(all_parts[0])
    for parts in all_parts[1:]:
        universe = universe & build_universe(parts)
    return all_parts, universe


@st.composite
def design_and_universe(draw):
    cd = draw(designs())
    return (cd, *draw_universe(draw, cd.p))


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
        assert universe.admits(ModelId(m).mask) == (m in admitted)

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


def _householder(cd, cols):
    """Householder QR (LAPACK) of the columns, in order, and the rank test
    |R_ii| > tau ||x_i|| of each against those before it."""
    Q, R = np.linalg.qr(cd.values[:, cols])
    return Q, R, np.abs(np.diagonal(R)) > cd.rank_limits[cols]


def lapack_model_pairs(cd, members):
    """The pairs (j, M) of one model by the rank rule of _level_batches, from
    a Householder QR and a triangular solve per model (not the enumerator's
    Gram-Schmidt): {j: (unit vector, norm) or None when degenerate} for the
    counted pairs. A model whose ascending prefixes all pass reads its
    directions off the dual design Q R^-T; otherwise each member j of its
    first failing prefix is factored last, after M \\ {j}."""
    cols = [j - 1 for j in members]
    Q, R, ok = _householder(cd, cols)
    if ok.all():
        dual = np.linalg.solve(R, Q.T)
        norms = 1.0 / np.linalg.norm(dual, axis=1)
        return {j: (dual[i] * norms[i], norms[i]) if norms[i] > cd.rank_limits[j - 1]
                else None for i, j in enumerate(members)}
    found = {}
    for t in range(int(np.argmin(ok)) + 1):
        Q, R, ok = _householder(cd, cols[:t] + cols[t + 1:] + [cols[t]])
        if ok[:-1].all():
            last = R[-1, -1]
            found[members[t]] = ((Q[:, -1] * np.sign(last), abs(last)) if ok[-1]
                                 else None)
    return found


def adjusted_predictor_oracle(cd, admitted, predictor=None):
    """{(mask, j): (unit vector, norm)} of the emitted pairs and the number
    of degenerate skips, model by model from lapack_model_pairs."""
    emitted, skips = {}, 0
    for m in admitted:
        members = sorted(m)
        if len(members) > cd.d:
            continue
        for j, found in lapack_model_pairs(cd, members).items():
            if predictor not in (None, j):
                continue
            if found is None:
                skips += 1
            else:
                emitted[ModelId(members).mask, j] = found
    return emitted, skips


@st.composite
def oracle_cases(draw):
    cd = draw(designs() | orthogonal_designs())
    all_parts, universe = draw_universe(draw, cd.p)
    admitted = [m for m in all_subsets(cd.p)
                if all(brute_admits(parts, m) for parts in all_parts)]
    return cd, universe, admitted, draw(st.integers(1, cd.p))


@PROPERTY_SETTINGS
@given(oracle_cases())
def test_level_batches_match_adjusted_predictor(case):
    cd, universe, admitted, j = case
    for predictor in (None, j):
        want, want_skips = adjusted_predictor_oracle(cd, admitted, predictor)
        ds = DirectionSet(cd, universe, predictor=predictor)
        got = {(d.model.mask, d.predictor): (d.vector, d.raw_norm) for d in ds}
        assert got.keys() == want.keys()
        assert ds.degenerate_skips == want_skips
        assert ds.count == len(want)
        for key, (vector, norm) in got.items():
            # Both factorizations are backward stable; the tolerance grows
            # with the pair's conditioning ||x_j|| / ||x_{j.M}||.
            tol = 1e-13 * max(1.0, np.linalg.norm(cd.column(key[1])) / want[key][1])
            assert np.max(np.abs(vector - want[key][0])) <= tol, key
            assert abs(norm - want[key][1]) <= tol * want[key][1], key
        if predictor is None:
            every = got
            # A fit reads every pair of its model bitwise as emitted, and
            # refuses a model with a pair that is not emitted.
            y = np.arange(1.0, cd.d + 1)
            for m in admitted:
                model = ModelId(m)
                keys = [(model.mask, k) for k in model.members]
                if all(key in got for key in keys):
                    vectors, norms = _model_directions(cd, model)
                    assert np.array_equal(vectors, [got[key][0] for key in keys])
                    assert np.array_equal(norms, [got[key][1] for key in keys])
                    for k, key in zip(model.members, keys):
                        residual, norm = adjusted_predictor(cd, model, k)
                        assert norm == got[key][1]
                        assert np.array_equal(residual, norm * got[key][0])
                else:
                    with pytest.raises(InfeasibleError):
                        fit_submodel(cd, y, model, 1.0)
        else:
            # The predictor form rounds each of its pairs as the full set does.
            for key, (vector, norm) in got.items():
                assert np.array_equal(vector, every[key][0]) and norm == every[key][1]


def exact_dual_rows(A: np.ndarray) -> list[list[Fraction]]:
    """Rows of the dual design A (A'A)^-1 of a d x k matrix of full column
    rank, in rational arithmetic: Gauss-Jordan on the Gram matrix, which is
    positive definite, so no pivot is zero."""
    A = [[Fraction(v) for v in row] for row in A.tolist()]
    d, k = len(A), len(A[0])
    G = [[sum(A[r][i] * A[r][j] for r in range(d)) for j in range(k)]
         + [Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for c in range(k):
        G[c] = [v / G[c][c] for v in G[c]]
        for r in range(k):
            if r != c:
                G[r] = [a - G[r][c] * b for a, b in zip(G[r], G[c])]
    return [[sum(A[r][j] * G[j][k + i] for j in range(k)) for r in range(d)]
            for i in range(k)]


@pytest.mark.parametrize("members", [(2, 4), (1, 2, 4)])
def test_near_collinear_models_off_the_axes_match_exact_rationals(members):
    # x4 = x2 + 1e-9 e: neither column lies on a canonical axis, and the
    # models clear the rank rule. Directions and norms must be within
    # kappa_M eps of the rational ones, kappa_M = max_i ||x_i|| / ||x_{i.M}||:
    # the error that any backward-stable factorization leaves.
    model = ModelId(members)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((6, 4))
        X[:, 3] = X[:, 1] + 1e-9 * rng.standard_normal(6)
        cd = canonicalize(DesignMatrix(X, ("x1", "x2", "x3", "x4")))
        vectors, norms = _model_directions(cd, model)
        dual = exact_dual_rows(cd.submatrix(model))
        exact_norms = np.array([1.0 / math.sqrt(sum(v * v for v in row)) for row in dual])
        kappa = max(np.linalg.norm(cd.column(j)) / n
                    for j, n in zip(members, exact_norms))
        assert kappa > 1e8
        tol = kappa * np.finfo(float).eps
        for i, row in enumerate(dual):
            exact = np.array([float(v) for v in row]) * exact_norms[i]
            assert np.max(np.abs(vectors[i] - exact)) <= tol, (seed, i)
            assert abs(norms[i] - exact_norms[i]) <= tol * exact_norms[i], (seed, i)


# ---------------------------------------------------------------------------
# The prefix recurrence gives one set of bits along every path
# ---------------------------------------------------------------------------


def walk_pairs(cd, universe=None, predictor=None):
    """{(mask, j): (unit vector, norm)} of a walk, and its skip count."""
    ds = DirectionSet(cd, universe, predictor=predictor)
    pairs = {(d.model.mask, d.predictor): (d.vector, d.raw_norm) for d in ds}
    return pairs, ds.degenerate_skips


def assert_same_bits(got, want):
    assert got.keys() == want.keys()
    for key, (vector, norm) in got.items():
        assert np.array_equal(vector, want[key][0]) and norm == want[key][1], key


@st.composite
def gaussian_designs(draw) -> CanonicalDesign:
    """Generic designs with up to 9 rows in canonical form, so a model's
    factor rows start at every alignment in a block."""
    p = draw(st.integers(1, 7))
    n = draw(st.integers(1, 9))
    return gaussian_design(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, p)


@st.composite
def factor_designs(draw) -> CanonicalDesign:
    return draw(designs() | orthogonal_designs() | gaussian_designs())


@PROPERTY_SETTINGS
@given(factor_designs())
def test_factors_are_the_same_bits_along_every_path(cd):
    want, skips = walk_pairs(cd)
    # Every prefix by the recurrence, in blocks of three models.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(posikit.lattice, "_HELD_BYTES", 0)
        patch.setattr(posikit.lattice, "_LEVEL_BLOCK", 3)
        got, got_skips = walk_pairs(cd)
    assert_same_bits(got, want)
    assert got_skips == skips
    # Each model in one block with every model of its size, and alone.
    for k in range(1, min(cd.d, cd.p) + 1):
        rows = np.array(list(itertools.combinations(range(cd.p), k)), dtype=np.intp)
        block = _models_pairs(cd, rows)
        for i, row in enumerate(rows):
            alone = _models_pairs(cd, row[None, :])
            counted, emitted = block[0][i], block[1][i]
            assert np.array_equal(alone[0][0], counted)
            assert np.array_equal(alone[1][0], emitted)
            mask = ModelId(row + 1).mask
            for t in np.flatnonzero(emitted):
                pair = (block[3][i, t], block[2][i, t])
                assert np.array_equal(alone[3][0, t], pair[0])
                assert alone[2][0, t] == pair[1]
                assert np.array_equal(want[mask, row[t] + 1][0], pair[0])
                assert want[mask, row[t] + 1][1] == pair[1]


def rank_deficient_design(seed: int, n: int, p: int) -> CanonicalDesign:
    """A Gaussian design with exact deficiencies: x4 = 2 x2, x8 = x1 + x6
    and x_p = -x3."""
    X = np.random.default_rng(seed).standard_normal((n, p))
    X[:, 3], X[:, 7], X[:, p - 1] = 2.0 * X[:, 1], X[:, 0] + X[:, 5], -X[:, 2]
    return canonicalize(DesignMatrix(X, tuple(f"x{j}" for j in range(1, p + 1))))


def test_capped_walk_is_bitwise_the_default_walk(monkeypatch):
    """A byte cap on the held factors that leaves some levels, or some
    blocks of a level, to the recurrence changes no bit of any batch. Under
    the default cap no parent block falls back to the recurrence."""
    generic = gaussian_design(np.random.default_rng(10), 14, 10)
    deficient = rank_deficient_design(10, 14, 10)
    kept, fallbacks, depth = [], [], [0]
    keep = posikit.lattice._HeldLevel.keep
    prefix_factors = posikit.lattice._prefix_factors

    def recording_keep(self, rows, masks, factors):
        blocks = len(self.blocks)
        keep(self, rows, masks, factors)
        kept.append((self.k, rows.nbytes + factors.Q.nbytes + factors.Rinv.nbytes
                     + 3 * masks.nbytes, len(self.blocks) > blocks))

    def recording_prefix_factors(design, rows, held=None):
        # The recurrence's call for a block whose parent block the walk does
        # not hold; the M \ {j} refactorizations of _pairs pass the held level.
        if not depth[0] and held is None and rows.shape[1]:
            fallbacks.append(rows.shape[0])
        depth[0] += 1
        try:
            return prefix_factors(design, rows, held)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(posikit.lattice._HeldLevel, "keep", recording_keep)
    monkeypatch.setattr(posikit.lattice, "_prefix_factors", recording_prefix_factors)
    explicit = ModelUniverse.from_spec("models=1,2,3;1,2,5,9;2,4,6,8,10;1,2,3,4,5,6;7")
    cases = [(cd, universe, predictor) for cd in (generic, deficient)
             for universe, predictor in [
                 (ModelUniverse.all(), None),
                 (ModelUniverse.from_spec("size<=6&forced=4"), None),
                 (ModelUniverse.all() & ModelUniverse.forcing(3), 3),
                 (ModelUniverse.forcing(10), 10),
                 # size>=p-2 on the generic design; the deficient one has d = 7.
                 (ModelUniverse.of_min_size(cd.d - 2), None),
                 (ModelUniverse.nested_chain(), None),
                 (explicit, None)]]
    for block in (posikit.lattice._LEVEL_BLOCK, 40):
        monkeypatch.setattr(posikit.lattice, "_LEVEL_BLOCK", block)
        for cd, universe, predictor in cases:
            kept.clear(), fallbacks.clear()
            want = list(posikit.lattice._level_batches(cd, universe, predictor))
            assert not fallbacks and all(held for _, _, held in kept)
            # Half the bytes of the largest level that has a level above it.
            levels = {}
            for k, size, _ in kept:
                levels[k] = levels.get(k, 0) + size
            cap = max(levels[k] for k in levels if k + 1 in levels) // 2
            kept.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(posikit.lattice, "_HELD_BYTES", cap)
                got = list(posikit.lattice._level_batches(cd, universe, predictor))
            held = [held for _, _, held in kept]
            assert fallbacks and any(held) and not all(held), (universe, block)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                for name in ("masks", "predictors", "vectors", "norms"):
                    assert np.array_equal(getattr(g, name), getattr(w, name))
                assert g.skips == w.skips


def test_walk_extends_each_block_once(monkeypatch):
    """Under the default cap every row's prefix is its held parent: the walk
    makes one _extend call per block, on a design whose models of at most d
    columns are all full rank (so no pair is refactored). forcing(10) with
    its predictor walks the ten levels of the p = 10 lattice as ten blocks;
    a walk that looked each row's prefix up by mask and factored the missing
    ones again made 55 calls. A universe whose minimum size is above its
    size cap walks nothing."""
    cd = gaussian_design(np.random.default_rng(10), 14, 10)
    wide = gaussian_design(np.random.default_rng(10), 6, 10)  # d = 6 < p
    extends = []
    extend = posikit.lattice._extend
    monkeypatch.setattr(posikit.lattice, "_extend",
                        lambda *args: extends.append(1) or extend(*args))
    for universe, predictor, count in [
            (ModelUniverse.from_spec("size>=8&size<=3"), None, 0),
            (ModelUniverse.from_spec("size<=3&forced=1,2,3,4"), 2, 0),
            (ModelUniverse.from_spec("nested&forced=9&size<=5"), None, 0),
            (ModelUniverse.forcing(10), 10, 10),
            (ModelUniverse.forcing(3), 3, 10),
            (ModelUniverse.all(), None, 10),
            (ModelUniverse.from_spec("size<=3&forced=2,7"), None, 3),
            (ModelUniverse.from_spec("size>=p-2", p=10), None, 10),
            (ModelUniverse.nested_chain(), None, 10),
            (ModelUniverse.from_spec("models=1,2,3;1,2,5,9;2,4,6,8,10"), None, 5)]:
        extends.clear()
        for _ in posikit.lattice._level_batches(cd, universe, predictor):
            pass
        assert len(extends) == count, universe
    for spec in ("size>=7", "forced=1,2,3,4,5,6,7"):
        extends.clear()
        for _ in posikit.lattice._level_batches(wide, ModelUniverse.from_spec(spec)):
            pass
        assert not extends, spec


def test_level_batches_need_a_universe_that_forces_the_predictor():
    cd = gaussian_design(np.random.default_rng(3), 6, 4)
    with pytest.raises(ValueError, match="the universe must force predictor 2"):
        next(posikit.lattice._level_batches(cd, ModelUniverse.all(), 2))
    forced = posikit.lattice._level_batches(cd, ModelUniverse.forcing(2), 2)
    assert sum(batch.predictors.size for batch in forced) == 2 ** 3


def test_held_prefixes_stay_under_the_cap(monkeypatch):
    """Between batches, a walk holds at most the cap in traced memory over a
    walk that holds no prefixes; at p = 12 whole levels would take more. The
    blocks are of 64 models, so a level spans many of them: a walk that holds
    none factors one parent block at a time, as a capped walk does past its
    cap."""
    cd = gaussian_design(np.random.default_rng(12), 16, 12)
    monkeypatch.setattr(posikit.lattice, "_LEVEL_BLOCK", 64)

    def traced(cap):
        monkeypatch.setattr(posikit.lattice, "_HELD_BYTES", cap)
        tracemalloc.start()
        try:
            return np.array([tracemalloc.get_traced_memory()[0] for _ in
                             posikit.lattice._level_batches(cd, ModelUniverse.all())])
        finally:
            tracemalloc.stop()

    cap = 200_000
    traced(0)  # first-call allocations that persist
    bare = traced(0)
    assert np.max(traced(cap) - bare) <= cap
    assert np.max(traced(64 << 20) - bare) > 4 * cap


@st.composite
def symmetric_designs(draw) -> CanonicalDesign:
    p = draw(st.integers(1, 6))
    n = draw(st.integers(p, p + 4))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, p))
    return canonicalize(DesignMatrix(X, tuple(f"x{j}" for j in range(1, p + 1))),
                        form="symmetric")


@PROPERTY_SETTINGS
@given(symmetric_designs())
def test_duality_holds_on_random_symmetric_designs(cd):
    report = verify_duality(cd)
    assert report.matched_pairs == cd.p * 2 ** (cd.p - 1)
    assert report.max_direction_mismatch <= 1e-8
    assert report.max_norm_product_error <= 1e-8


@PROPERTY_SETTINGS
@given(design_and_universe())
def test_spec_string_round_trips(case):
    cd, _, universe = case
    assert ModelUniverse.from_spec(universe.spec_string(), p=cd.p) == universe


def gaussian_design(rng, n: int, p: int) -> CanonicalDesign:
    X = rng.standard_normal((n, p))
    return canonicalize(DesignMatrix(X, tuple(f"x{j}" for j in range(1, p + 1))))


@st.composite
def count_cases(draw):
    """A generic Gaussian design, with fewer rows than columns (p > d) or not,
    or a design with exact rank deficiencies; one or two universes whose
    sizes, forced members and explicit models reach two past p; with or
    without a predictor."""
    generic = draw(st.booleans())
    if generic:
        p = draw(st.integers(1, 8))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cd = gaussian_design(rng, draw(st.integers(1, p + 2)), p)
    else:
        cd = draw(designs())
    _, universe = draw_universe(draw, cd.p + 2)
    return cd, universe, draw(st.none() | st.integers(1, cd.p)), generic


def walked_pairs(cd, universe, predictor) -> int:
    """The pairs of the rows the prefix tree admits: every member, or the
    predictor alone."""
    return sum(rows.shape[0] * (1 if predictor is not None else rows.shape[1])
               for rows, *_ in posikit.lattice._walk_factors(cd, universe))

@PROPERTY_SETTINGS
@given(count_cases())
def test_walk_keeps_only_prefixes_of_admitted_models(case):
    """Every row the walk keeps for the next level is a model it admits or
    the prefix of one."""
    cd, universe, _, _ = case
    kept, models = set(), set()
    keep = posikit.lattice._HeldLevel.keep

    def recording_keep(self, rows, *args):
        kept.update(map(tuple, rows.tolist()))
        keep(self, rows, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(posikit.lattice._HeldLevel, "keep", recording_keep)
        for rows, *_ in posikit.lattice._walk_factors(cd, universe):
            models.update(map(tuple, rows.tolist()))
    assert kept <= {model[:i] for model in models for i in range(1, len(model) + 1)}


@PROPERTY_SETTINGS
@given(count_cases())
def test_candidate_pair_count_matches_the_walk(case):
    cd, universe, predictor, generic = case
    # With a predictor, the universe restricted to the models that contain it.
    walked = DirectionSet(cd, universe, predictor=predictor).universe
    count = _candidate_pair_count(cd, walked, predictor)
    assert count == walked_pairs(cd, walked, predictor)
    if generic:
        # Every model of at most d columns is full rank: each pair the walk
        # considers is emitted or a degenerate skip.
        directions = DirectionSet(cd, universe, predictor=predictor)
        assert count == directions.count + directions.degenerate_skips


@pytest.mark.parametrize("shape, spec, predictor, count", [
    ((10, 20), "all", None, 20 * 2 ** 18),  # models of at most d = 10 columns
    ((12, 10), "nested&size<=3", None, 1 + 2 + 3),
    ((12, 10), "forced=12", None, 0),  # a forced member beyond p
    ((12, 8), "models=1,2;1,2,3;2,9&size<=2", None, 2),  # {2, 9} lies beyond p
    ((12, 10), "forced=11", 2, 0),
    ((12, 10), "size<=3&forced=1", 4, 1 + 8),
])
def test_candidate_pair_count_cases(shape, spec, predictor, count):
    cd = gaussian_design(np.random.default_rng(0), *shape)
    # Parsed without p, so the universe is the one the API constructors build
    # (the forced= rows are ModelUniverse.forcing(12) and forcing(11), the
    # models= row ModelUniverse.explicit(...) & of_max_size(2)); with p known
    # the spec grammar refuses members beyond p.
    universe = DirectionSet(cd, ModelUniverse.from_spec(spec), predictor=predictor).universe
    assert _candidate_pair_count(cd, universe, predictor) == count
    assert walked_pairs(cd, universe, predictor) == count


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


def full_scan_argmax(chunks, y, sigma_hat):
    """The unscreened scan that the screened _argmax_over_directions
    replaced, kept verbatim as its oracle."""
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


def array_chunks(vectors, keys):
    """chunks(size) of a hand-built block, like DirectionSet.chunks."""
    def chunks(size=None):
        step = size or vectors.shape[0]
        for start in range(0, vectors.shape[0], step):
            yield vectors[start:start + step].copy(), keys[start:start + step].copy()
    return chunks


@st.composite
def design_screen_cases(draw):
    """The spar and spar1 sets of a generic or orthogonal design (exact
    ties), with y zero, integer or Gaussian, scaled by 1e-150 to 1e150, and
    sometimes a sigma_hat that makes the stats subnormal, near 1e-322, where
    the division rounds stats a few percent apart together."""
    cd, universe, y, sigma_hat, j = draw(selection_cases())
    if draw(st.integers(0, 5)) == 0:
        y = np.zeros(cd.d)
    if draw(st.booleans()):
        y = y * 10.0 ** draw(st.integers(-150, 150))
    else:
        power = draw(st.integers(-150, -20))
        y, sigma_hat = y * 10.0 ** power, sigma_hat * 10.0 ** (power + 322)
    sets = [direction_stream(cd, universe), DirectionSet(cd, universe, predictor=j)]
    assert sets[1].universe == universe & ModelUniverse.forcing(j)
    held = [make_spar_selector(universe), make_spar1_selector(j, universe)]
    return [(s.chunks, select.held, cd) for s, select in zip(sets, held)], y, sigma_hat


@st.composite
def near_tie_screen_cases(draw):
    """Random rows, which may be large against y's normal plane so that
    their products cancel, and a first row on the first axis whose product
    with y is exactly the row-wise |l'y| of the row that the matrix-vector
    product ranks highest, over the rows in C order (as one-shot selection
    streams them) or in Fortran order (as selectors hold them). y's first
    entry is a power of two from 2^-500 to 2^500, so the first row's
    product is exact in any order. The two tie in the full scan, and the
    first row holds the smallest key, unless sigma_hat makes the stats
    subnormal, near 2^-1071, where the division rounds rows within about a
    tenth of each other together."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subnormal = draw(st.booleans())
    power = draw(st.integers(-500, -50) if subnormal else st.integers(-500, 500))
    scale = 2.0 ** power
    y = rng.standard_normal(d) * scale
    y[0] = scale
    big = rng.standard_normal((n, d))
    w = y / scale
    big -= np.outer(big @ w, w) / (w @ w)
    rows = rng.standard_normal((n, d)) + draw(st.sampled_from([0.0, 1e3])) * big
    vectors = np.vstack([np.zeros(d), rows])
    order = draw(st.sampled_from("CF"))
    a = int(np.abs(np.asarray(vectors, order=order) @ y).argmax())
    vectors[0, 0] = np.vecdot(vectors[a], y) / y[0]
    keys = np.column_stack([np.arange(1, n + 2), rng.integers(1, 4, n + 1)])
    # Subnormal stats also tie rows the screen leaves out, so any row may
    # hold the smallest key there.
    first = 0 if subnormal else 1
    keys[first:] = keys[first:][rng.permutation(n + 1 - first)]
    chunks = array_chunks(vectors, keys)
    held = lambda cd: ([(np.asarray(v, order=order), k, bound)
                        for v, k, bound in inference._normed(chunks())], False)
    sigma_hat = draw(st.sampled_from([1.0, 0.5, 3.0]))
    if subnormal:
        sigma_hat *= 2.0 ** (power + 1071)
    return [(chunks, held, None)], y, sigma_hat


# More examples than elsewhere: a rounding tie that a weaker screen would
# miss turns up in only some of the drawn cases.
@settings(PROPERTY_SETTINGS, max_examples=200 * DEPTH)
@given(design_screen_cases() | near_tie_screen_cases(),
       st.sampled_from([1, 2, 3, 7, 512]))
def test_screened_argmax_is_the_full_scan(case, chunk):
    sets, y, sigma_hat = case

    def key(run):
        try:
            model, j, stat = run()
        except InfeasibleError:
            return None
        return model, j, stat.hex()

    for chunks, held, cd in sets:
        want = key(lambda: full_scan_argmax(chunks(), y, sigma_hat))
        assert key(lambda: _argmax_over_directions(chunks(chunk), y, sigma_hat)) == want
        blocks = lambda: inference._argmax_over_blocks(held(cd)[0], y, sigma_hat)
        assert key(blocks) == want


# ---------------------------------------------------------------------------
# Batched stepwise and best-R^2 against per-candidate least squares
# ---------------------------------------------------------------------------

# Scores within this relative distance count as tied: the oracle's lstsq and
# the batched factorizations round differently, and columns that are exact
# multiples or sums of others tie in exact arithmetic.
TIE_RTOL = 1e-9


@st.composite
def batched_selection_cases(draw):
    """Generic, exactly rank-deficient or orthogonal designs, a universe of
    one or two intersected parts, and an integer or Gaussian response. On an
    orthogonal design an integer response makes every score exact, so ties
    are exact and must go by the tie-break rule."""
    orthogonal = draw(st.booleans())
    cd = draw(orthogonal_designs() if orthogonal else designs())
    all_parts, universe = draw_universe(draw, cd.p)
    integer = draw(st.booleans())
    if integer:
        y = np.array(draw(st.lists(st.integers(-2, 2), min_size=cd.d,
                                   max_size=cd.d)), dtype=float)
    else:
        y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(cd.d)
    sigma_hat = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 100.0))
    admits = lambda members: all(brute_admits(p, frozenset(members)) for p in all_parts)
    return (cd, universe, admits, y, sigma_hat, orthogonal and integer,
            draw(st.integers(1, cd.p)))


def lstsq_residual(cd, others, j):
    x = cd.column(j)
    if not others:
        return x
    A = cd.values[:, [k - 1 for k in others]]
    return x - A @ np.linalg.lstsq(A, x, rcond=None)[0]


def clears_tau(cd, others, j) -> bool:
    return bool(np.linalg.norm(lstsq_residual(cd, others, j))
                > cd.rank_tolerance * np.linalg.norm(cd.column(j)))


def lstsq_fit(cd, members, y):
    A = cd.values[:, [k - 1 for k in members]]
    return A, np.linalg.lstsq(A, y, rcond=None)[0]


def near_ties(scores: dict, exact: bool) -> list:
    """Keys whose score is tied with the largest, ascending; only the
    smallest when ties are exact."""
    top = max(scores.values())
    tied = sorted(k for k, v in scores.items() if v >= top - TIE_RTOL * top)
    return tied[:1] if exact else tied


def best_r2_oracle(cd, admits, size, y, exact):
    """Masks the selector may return: every model of the size that is full
    rank by the tau rule on its ascending prefixes, scored by ||P_M y||^2."""
    scores = {}
    for cols in itertools.combinations(range(1, cd.p + 1), size):
        if size > cd.d or not admits(cols):
            continue
        if not all(clears_tau(cd, cols[:i], cols[i]) for i in range(size)):
            continue
        A, coef = lstsq_fit(cd, cols, y)
        fitted = A @ coef
        scores[ModelId(cols).mask] = float(fitted @ fitted)
    return near_ties(scores, exact) if scores else []


def stepwise_oracle(cd, admits, y, sigma_hat, exact, t_enter=2.0) -> set:
    """Models forward stepwise may return, following every near tie (and both
    sides of a t that is tied with t_enter) unless ties are exact."""
    found = set()

    def walk(current):
        scores = {}
        for j in range(1, cd.p + 1):
            if j in current or not admits(current + [j]):
                continue
            if not clears_tau(cd, current, j):
                continue
            _, coef = lstsq_fit(cd, current + [j], y)
            norm = np.linalg.norm(lstsq_residual(cd, current, j))
            scores[j] = abs(coef[-1]) * norm / sigma_hat
        if not scores:
            found.add(ModelId(current) if current else None)
            return
        for j in near_ties(scores, exact):
            t = scores[j]
            if current and t < t_enter * (1 + TIE_RTOL):
                found.add(ModelId(current))
                if t < t_enter * (1 - TIE_RTOL):
                    continue
            if len(current) + 1 >= cd.d:
                found.add(ModelId(current + [j]))
            else:
                walk(current + [j])

    walk([])
    return found


# Exact ties and exactly degenerate candidates are rare among the cases: at
# 60 examples a selector that broke ties the wrong way, or skipped no
# degenerate candidate, often passed.
@settings(PROPERTY_SETTINGS, max_examples=400 * DEPTH)
@given(batched_selection_cases())
def test_batched_selectors_match_lstsq_oracle(case):
    cd, universe, admits, y, sigma_hat, exact, size = case
    want = best_r2_oracle(cd, admits, size, y, exact)
    select = make_best_r2_selector(size, universe)
    for _ in range(2):  # the second call is served from the selector's cache
        if not want:
            with pytest.raises(InfeasibleError):
                select(cd, y, sigma_hat)
        else:
            assert select(cd, y, sigma_hat).mask in want
    want = stepwise_oracle(cd, admits, y, sigma_hat, exact)
    select = make_stepwise_selector(universe)
    if want == {None}:
        with pytest.raises(InfeasibleError):
            select(cd, y, sigma_hat)
    else:
        assert select(cd, y, sigma_hat) in want


# ---------------------------------------------------------------------------
# The stepwise tree against the selector it replaced
# ---------------------------------------------------------------------------


def reference_stepwise_selector(universe=None, t_enter=2.0):
    """make_stepwise_selector before its per-design tree, verbatim: every
    step recomputed from the design on every call. The tree computes the
    same arrays by the same operations, so selections must be identical."""

    def select(design, y, sigma_hat):
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


@st.composite
def stepwise_tree_cases(draw):
    """One design, or two called in turn, each given many responses: small
    integers (exact ties on orthogonal designs), Gaussian noise, or a strong
    signal that enters most columns. Designs are generic, exactly rank
    deficient or orthogonal; the universe has one or two intersected parts
    of every form; the tree's budget is the default, 0 or one node."""
    cds = [draw(designs() | orthogonal_designs()) for _ in range(draw(st.integers(1, 2)))]
    _, universe = draw_universe(draw, cds[0].p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    calls = []
    for i in range(draw(st.integers(1, 40))):
        cd = cds[i % len(cds)]
        kind = draw(st.sampled_from(["integer", "noise", "signal"]))
        if kind == "integer":
            y = rng.integers(-2, 3, cd.d).astype(float)
        elif kind == "noise":
            y = rng.standard_normal(cd.d)
        else:
            y = cd.values @ (4.0 * rng.standard_normal(cd.p)) + rng.standard_normal(cd.d)
        calls.append((cd, y, draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 100.0))))
    t_enter = draw(st.sampled_from([2.0, 1.0, 0.0]))
    return universe, t_enter, calls, draw(st.sampled_from([None, 0, "one node"]))


def result_or_error(call):
    try:
        return call()
    except InfeasibleError as exc:
        return str(exc)


def kept_nodes(node, entered=()):
    """(0-based entries in order, node) for every kept node under node."""
    yield entered, node
    for best, child in node.children.items():
        yield from kept_nodes(child, entered + (node.cols[best],))


def reference_step(cd, universe, entered):
    """The arrays the reference computes at the step after the 0-based
    entries, by its operations: the kept candidates, their residuals and
    norms, and the basis."""
    basis, mask = np.empty((cd.d, 0)), 0
    for j in (None, *entered):
        if j is not None:
            best = cols.tolist().index(j)
            mask |= 1 << j
            r = residuals[:, best]
            r = r - basis @ (basis.T @ r)
            basis = np.column_stack([basis, r / np.linalg.norm(r)])
        cols = np.array([k for k in range(cd.p) if not mask >> k & 1
                         and universe.admits(mask | 1 << k)], dtype=np.intp)
        candidates = cd.values[:, cols]
        residuals = candidates - basis @ (basis.T @ candidates)
        norms = np.linalg.norm(residuals, axis=0)
        keep = norms > cd.rank_limits[cols]
        residuals, norms, cols = residuals[:, keep], norms[keep], cols[keep]
    return cols, residuals, norms, basis


@settings(PROPERTY_SETTINGS, max_examples=200 * DEPTH)
@given(stepwise_tree_cases())
def test_stepwise_tree_selects_as_the_reference(case):
    universe, t_enter, calls, budget = case
    if budget == "one node":
        budget = inference._step_node(calls[0][0], universe, None, 0).nbytes
    trees = []

    class Recording(inference._StepTree):
        def __init__(self, *args):
            super().__init__(*args)
            trees.append(self)

    want = reference_stepwise_selector(universe, t_enter)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "_StepTree", Recording)
        if budget is not None:
            mp.setattr(inference, "_STEP_TREE_BYTES", budget)
        select = make_stepwise_selector(universe, t_enter)
        for cd, y, sigma_hat in calls:
            assert result_or_error(lambda: select(cd, y, sigma_hat)) == \
                result_or_error(lambda: want(cd, y, sigma_hat))
        cap = inference._STEP_TREE_BYTES
    # One tree per change of design, each within its budget, and every node
    # kept holds the reference's arrays bitwise.
    assert len(trees) == 1 + sum(a[0] is not b[0] for a, b in zip(calls, calls[1:]))
    for tree in trees:
        nodes = list(kept_nodes(tree.root)) if tree.root else []
        assert tree.nbytes == sum(node.nbytes for _, node in nodes) <= cap
        for entered, node in nodes:
            cols, residuals, norms, basis = reference_step(tree.design, universe, entered)
            assert node.cols == cols.tolist()
            for got, want in ((node.residuals, residuals), (node.norms, norms),
                              (node.basis, basis)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Refits read from a held direction set
# ---------------------------------------------------------------------------


@st.composite
def near_threshold_designs(draw) -> CanonicalDesign:
    """Columns e1, e2, e3 and one or two more, each x = a e_i + b e_k + eps e
    on a fresh axis e with eps near the rank tolerance: x4 on e1, e3 and x5
    on e1, e2. The enumeration then often emits some of the pairs of
    {1, 3, 4} or {1, 2, 5} and skips the others; by mask {1, 3, 4} comes
    first, by size and members {1, 2, 5}."""
    extra = draw(st.integers(1, 2))
    values = np.zeros((3 + extra, 3 + extra))
    values[[0, 1, 2], [0, 1, 2]] = 1.0
    for col, (i, k) in zip((3, 4), ((0, 2), (0, 1))[:extra]):
        for row in (i, k):
            values[row, col] = draw(st.floats(0.1, 10.0)) * draw(
                st.sampled_from([-100.0, -1.0, 0.01, 1.0]))
        values[col, col] = DEFAULT_RANK_TOLERANCE * 10 ** draw(st.floats(-1.0, 3.0))
    return CanonicalDesign.from_canonical(values)


@st.composite
def refit_cases(draw):
    cd = draw(near_threshold_designs() if draw(st.booleans()) else designs())
    return cd, draw_universe(draw, cd.p)[1] if draw(st.booleans()) else None


@settings(PROPERTY_SETTINGS, max_examples=150 * DEPTH)
@given(refit_cases())
def test_held_refits_are_the_models_directions(case):
    # Every model of a held set whose pairs are whole gives bitwise its own
    # factorization's directions, and the first model, by size and then
    # members, that is not gives that factorization's error.
    cd, universe = case
    blocks, index = inference._held_block(direction_stream(cd, universe)._hold())
    if not blocks:
        return
    vectors, keys, _ = blocks[0]
    models = [ModelId.from_mask(m) for m in dict.fromkeys(keys[:, 0].tolist())]
    models = models[::-1] + models  # repeated, and out of order
    want = result_or_error(lambda: {
        model.mask: _model_directions(cd, model)[0]
        for model in sorted(set(models), key=lambda m: (m.size, m.members))})
    held = result_or_error(lambda: inference._held_refits(vectors, index, models))
    # A selector that holds no block refits through the models' own stream.
    streamed = result_or_error(lambda: inference._refit_directions(None, cd, models))
    for got in (held, streamed):
        if isinstance(want, str):
            assert got == want
        else:
            assert got.keys() == want.keys()
            for mask, v in want.items():
                assert got[mask].tobytes() == v.tobytes()


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


FOLD_DRAWS = constants._FOLD_DRAWS
# Tile edges of the default fold and of tiles 2, 3 and 7 wide, 16-column
# group edges, and the generator's block edges.
TILE_EDGE_NS = sorted({1, 2, 3, 4, 6, 7, 8, 15, 16, 17, 33, FOLD_DRAWS - 1, FOLD_DRAWS,
                       FOLD_DRAWS + 1, 2 * FOLD_DRAWS + 1, _rng.BLOCK - 1,
                       _rng.BLOCK + 1})


@PROPERTY_SETTINGS
@given(cd=designs(), seed=st.integers(0, 2**32 - 1),
       df=st.sampled_from([math.inf, 1, 5]), n=st.sampled_from(TILE_EDGE_NS))
def test_fold_tile_width_does_not_change_draws(cd, seed, df, n):
    em = ErrorModel(df)
    draws = {}
    for tile in (2, 3, 7, FOLD_DRAWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constants, "_FOLD_DRAWS", tile)
            draws[tile] = max_abs_t_draws(direction_stream(cd), em, n, seed)
    for tile in (2, 3, 7):
        assert np.array_equal(draws[tile], draws[FOLD_DRAWS]), tile
    blocks = [_rng.gaussian_block(seed, _rng.PURPOSE_MAX_T, b, n, cd.d, df)
              for b in range(_rng.block_count(n))]
    Z = np.concatenate([z for z, _ in blocks])
    sigma = np.concatenate([s for _, s in blocks])
    L = direction_stream(cd).matrix()
    brute = np.abs(Z @ L.T).max(axis=1) / sigma
    # Relative to |z_i| / sigma_i, the scale of draw i: a one-direction set
    # can cancel |l'z| far below it, and the rounding with it.
    scale = np.maximum(brute, np.linalg.norm(Z, axis=1) / sigma)
    assert np.all(np.abs(draws[FOLD_DRAWS] - brute) <= 1e-13 * scale)


# ---------------------------------------------------------------------------
# The screened fold keeps K and the order statistics around it exact
# ---------------------------------------------------------------------------

# Tile and 16-column group edges and the generator's block edges, all large
# enough for alpha = 0.05.
SCREEN_NS = sorted({20, 31, 32, 33, 47, 48, 49, FOLD_DRAWS - 1, FOLD_DRAWS,
                    FOLD_DRAWS + 1, 2 * FOLD_DRAWS + 1, _rng.BLOCK - 1, _rng.BLOCK,
                    _rng.BLOCK + 1})


@st.composite
def screen_cases(draw):
    """A generic or rank-deficient design with a universe; a Gaussian
    (p + 2) x p design or the identity (whose directions tie in every
    chunk), each with a universe; a one-row design (d = 1, where
    |l'z| = ||z|| for every direction, so the screen's bound is tight); or a
    two-row design of up to 8 columns, whose many directions in the plane
    bring the maxima close to the bound. The universes include size bounds
    and explicit model lists. With or without a designated predictor."""
    kind = draw(st.sampled_from(["design", "gaussian", "identity", "row", "plane"]))
    if kind == "design":
        cd, _, universe = draw(design_and_universe())
    elif kind in ("gaussian", "identity"):
        p = draw(st.integers(1, 7))
        if kind == "identity":
            X = np.eye(p)
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            X = rng.standard_normal((p + 2, p))
        cd = canonicalize(DesignMatrix(X, tuple(f"x{j}" for j in range(1, p + 1))))
        _, universe = draw_universe(draw, p)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        d = 1 if kind == "row" else 2
        p = draw(st.integers(1, 4) if d == 1 else st.integers(3, 8))
        cd = CanonicalDesign.from_canonical(rng.standard_normal((d, p)))
        universe = ModelUniverse.all()
    return cd, universe, draw(st.none() | st.integers(1, cd.p))


@PROPERTY_SETTINGS
@given(case=screen_cases(), seed=st.integers(0, 2**32 - 1),
       df=st.sampled_from([math.inf, 5]), n=st.sampled_from(SCREEN_NS),
       alpha=st.sampled_from([0.05, 0.2, 0.5]),
       chunk=st.sampled_from([2, 3, 7, constants._DIRECTION_CHUNK]),
       window=st.sampled_from([1, 2, None]), cones=st.booleans())
def test_screened_constant_is_bitwise_unscreened(case, seed, df, n, alpha, chunk,
                                                 window, cones):
    # The screened fold holds its chunks in windows of one or two chunks (or
    # the whole set, None), folds each window top down, through cones or
    # whole, and reads the same from a set held whole.
    cd, universe, predictor = case
    em = ErrorModel(df)
    if predictor is None:
        def make_set():
            return direction_stream(cd, universe)

        def constant():
            return posi_constant(cd, universe, alpha, em, n, seed)
    else:
        def make_set():
            return DirectionSet(cd, universe & ModelUniverse.forcing(predictor),
                                predictor=predictor)

        def constant():
            return posi1_constant(cd, universe, predictor, alpha, em, n, seed)
    lo, hi = constants._spacing_ranks(alpha, n)
    budget = (constants._WINDOW_BYTES if window is None
              else window * chunk * (cd.d + 2) * 8)
    windows = []
    real_windows = constants._windows

    def noting(chunks):
        for held in real_windows(chunks):
            windows.append([c.nbytes + k.nbytes for c, k in held])
            yield held

    with pytest.MonkeyPatch.context() as mp:
        # Small direction chunks screen small sets many times over.
        mp.setattr(constants, "_DIRECTION_CHUNK", chunk)
        mp.setattr(constants, "_WINDOW_BYTES", budget)
        mp.setattr(constants, "_windows", noting)
        if cones:
            mp.setattr(constants, "_CONE_FOLD_MIN", 0)
        try:
            exact = max_abs_t_draws(make_set(), em, n, seed)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                constant()
            return
        assert not windows  # the unscreened fold streams
        est = constant()
        windows.clear()
        screened = constants._screened_draws(make_set(), em, n, seed, lo)
        walked = list(windows)
        held = constants._screened_draws(make_set()._hold(), em, n, seed, lo)
    # A screened draw keeps its partial maximum; every draw ranked lo or
    # above, X_(lo) ... X_(hi) included, is exact.
    assert np.array_equal(held, screened)
    assert np.all(screened <= exact)
    assert np.array_equal(np.sort(screened)[lo - 1:], np.sort(exact)[lo - 1:])
    idx = constants.conservative_quantile_index(alpha, n)
    assert est.k == np.sort(exact)[idx - 1]
    assert est.mc_standard_error == constants._mc_standard_error(exact, alpha)
    # Each window stays under its byte budget but for the chunk that closes
    # it.
    chunks = -(-make_set().count // chunk)
    assert sum(map(len, walked)) == chunks
    assert len(walked) == (1 if window is None else -(-chunks // window))
    for sizes in walked:
        assert sum(sizes[:-1]) < budget


# ---------------------------------------------------------------------------
# The float32 bound stage of the screened fold
# ---------------------------------------------------------------------------


@st.composite
def bound_designs(draw) -> CanonicalDesign:
    """Generic and rank-deficient designs, orthogonal ones, and exchangeable
    designs from near-orthogonal to near-collinear (a close to -1/p, where
    the design is near singular, or large, where the columns nearly
    coincide)."""
    kind = draw(st.sampled_from(["designs", "orthogonal", "exchangeable"]))
    if kind == "designs":
        return draw(designs())
    if kind == "orthogonal":
        return draw(orthogonal_designs())
    p = draw(st.integers(2, 8))
    a = draw(st.sampled_from([-1.0 / p + 1e-6, -1.0 / p + 1e-3, 0.01, 0.5, 1e3, 1e6]))
    return exchangeable_design(p, a)


@PROPERTY_SETTINGS
@given(cd=bound_designs(), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-3.0, 3.0), n=st.integers(1, 100))
def test_float32_chunk_maximum_is_within_the_bound(cd, seed, scale, n):
    # Each draw's chunk maximum of |l'z| from float32 operands lies within
    # c_d ||z_i|| of the float64 one, for draws scaled by 1e-3 to 1e3.
    d = cd.d
    z = np.random.default_rng(seed).standard_normal((n, d)) * 10.0 ** scale
    cols = -(-n // constants._DRAW_GROUP) * constants._DRAW_GROUP
    zt = np.zeros((d, cols))
    zt[:, :n] = z.T
    slack = constants._float32_slack(d) * np.linalg.norm(z, axis=1)
    directions = direction_stream(cd)
    for chunk, _ in directions.chunks(7):
        if chunk.shape[0] == 1:
            chunk = np.vstack([chunk, np.zeros((1, d))])
        m64, m32 = np.zeros(cols), np.zeros(cols, dtype=np.float32)
        constants._fold_chunk_max(chunk, zt, m64, np.empty((chunk.shape[0], cols)))
        constants._fold_chunk_max(chunk.astype(np.float32), zt.astype(np.float32), m32,
                                  np.empty((chunk.shape[0], cols), dtype=np.float32))
        assert np.all(np.abs(m32[:n] - m64[:n]) <= slack)


# ---------------------------------------------------------------------------
# The cone test of the float32 bound stage
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(cd=bound_designs(), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-3.0, 3.0), n=st.integers(1, 60),
       df=st.one_of(st.just(math.inf), st.integers(5, 20)),
       chunk=st.sampled_from([1, 7, constants._DIRECTION_CHUNK]))
def test_cone_test_keeps_every_group_that_reaches_the_floor(cd, seed, scale, n, df,
                                                            chunk):
    # For every (chunk, predictor) group, each member's float64 |l'z| / sigma
    # lies within the cone bound plus the slack and the margin that the fold
    # tests against, and a floor at the group's exact maximum never prunes
    # the group, for draws scaled by 1e-3 to 1e3. At zero slack the rounding
    # margins alone must keep it.
    d = cd.d
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d)) * 10.0 ** scale
    sigma = np.ones(n) if math.isinf(df) else np.sqrt(rng.chisquare(df, n) / df)
    norm = np.linalg.norm(z, axis=1)
    slack = constants._float32_slack(d) * norm / sigma
    margin = constants._cone_margin(d) * norm / sigma
    zt32 = np.zeros((d + 3, n), dtype=np.float32)
    zt32[:d] = z.T
    for chunk_rows, keys in direction_stream(cd).chunks(chunk):
        order = np.argsort(keys[:, 1], kind="stable")
        rows = chunk_rows[order]
        starts = np.flatnonzero(np.diff(keys[order, 1], prepend=-1))
        tests = constants._cone_tests(rows, starts).astype(np.float64)
        for g, members in enumerate(np.split(rows, starts[1:])):
            exact = np.abs(members @ z.T).max(axis=0) / sigma
            theta = math.atan2(tests[g, d + 1], -tests[g, d])
            phi = np.arccos(np.minimum(np.abs(z @ tests[g, :d]) / norm, 1.0))
            bound = norm * np.cos(np.maximum(0.0, phi - theta)) / sigma
            assert np.all(exact <= bound + slack + margin)
            for s in (slack, np.zeros(n)):
                reach = constants._cone_reach(rows, starts, zt32, norm, sigma, s, exact)
                assert np.all(reach[g] >= 0)


# ---------------------------------------------------------------------------
# Pathwise validity: intervals after selection hold on the simultaneous event
# ---------------------------------------------------------------------------


@st.composite
def coverage_cases(draw):
    """A generic design with p <= 6, an error model, a selector of one of the
    five kinds over the universe of all models, and a seed. The adversary's
    selector is built by the test, which knows mu."""
    p = draw(st.integers(1, 6))
    cd = gaussian_design(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                         draw(st.integers(1, 9)), p)
    kind = draw(st.sampled_from(["spar", "spar1", "stepwise", "best-r2", "adversary"]))
    if kind in ("spar", "adversary"):
        selector = "spar"
    elif kind == "spar1":
        selector = ("spar1", draw(st.integers(1, p)))
    elif kind == "stepwise":
        selector = make_stepwise_selector()
    else:
        selector = make_best_r2_selector(draw(st.integers(1, min(cd.d, p))))
    return cd, ErrorModel(draw(DFS)), kind, selector, draw(st.integers(0, 2**32 - 1))


@settings(PROPERTY_SETTINGS, max_examples=40 * DEPTH)
@given(case=coverage_cases(), mean_scale=st.sampled_from([0.0, 1.0, 5.0]))
def test_coverage_holds_on_the_simultaneous_event(case, mean_scale):
    # When every direction l of the universe has |l'eps| <= K sigma_hat, every
    # interval of every model covers its target, whatever was selected and
    # whatever mu is. At mu = 0 spar selects the model holding the largest
    # |l'eps| / sigma_hat, so its coverage indicator is that event exactly;
    # so is that of the adversary, spar on y - mu, for any mu.
    cd, em, kind, selector, seed = case
    replications = 100
    est = posi_constant(cd, alpha=0.3, error_model=em, n_samples=300, seed=seed)
    if kind == "spar":
        mean_scale = 0.0
    mu = mean_scale * np.random.default_rng(seed).standard_normal(cd.d)
    if kind == "adversary":
        spar = make_spar_selector()
        selector = lambda design, y, sigma_hat: spar(design, y - mu, sigma_hat)
    result = inference.coverage_experiment(
        cd, None, selector, 0.3, em, est, replications, seed=seed,
        target=inference.TargetSpec(mu))
    eps, sigma = _rng.gaussian_block(seed, _rng.PURPOSE_COVERAGE, 0, replications,
                                     cd.d, em.df)
    # Scored as the selectors and the coverage check score rows: np.vecdot on
    # C-ordered rows.
    vectors = np.ascontiguousarray(direction_stream(cd).whole().vectors)
    largest = np.array([np.abs(np.vecdot(vectors, e)).max() for e in eps])
    limit = est.k * sigma
    event = largest <= limit
    clear = np.abs(largest - limit) > 4 * np.spacing(limit)
    if kind in ("spar", "adversary"):
        assert np.array_equal(result.covered[clear], event[clear])
    else:
        assert result.covered[event & clear].all()
