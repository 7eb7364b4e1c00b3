import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from posikit import (
    ModelId,
    adjusted_predictor,
    direction_stream,
    exchangeable_cosine,
    exchangeable_design,
    exchangeable_direction_formula,
    exchangeable_inverse_param,
    exchangeable_ratio_table,
    exhaustive_worst_posi1_stat,
    fast_worst_posi1_stat,
    orth_constant,
    posi1_constant,
    posi_constant,
    rate_function,
    rate_function_max,
    worst_posi1_design,
    worst_posi1_table,
)
from posikit import _rng, families
from posikit.constants import _mc_standard_error, conservative_quantile_index
from posikit.families import (
    _fast_worst_posi1_batch,
    _pruned_envelope,
    _size_tables,
    _worst_coefficients,
    default_c_grid,
    exchangeable_adjustment_coefficient,
)

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# exchangeable designs
# ---------------------------------------------------------------------------


def test_exchangeable_zero_is_identity():
    np.testing.assert_allclose(exchangeable_design(4, 0.0).values, np.eye(4))


def test_exchangeable_range_validation():
    with pytest.raises(ValueError):
        exchangeable_design(4, -0.25)
    exchangeable_design(4, -0.249)  # just inside


def test_exchangeable_inverse_parameter_map():
    for p, a in [(3, 0.5), (4, 0.7), (6, 5.0), (5, -0.15)]:
        c = exchangeable_inverse_param(p, a)
        XA = exchangeable_design(p, a).values
        XC = exchangeable_design(p, c).values
        np.testing.assert_allclose(np.linalg.inv(XA), XC, atol=1e-10)
        # the map is an involution
        assert exchangeable_inverse_param(p, c) == pytest.approx(a, rel=1e-12)


def test_exchangeable_cosine_matches_gram():
    # Direct Gram-matrix oracle; at the boundary a -> -1/p the cosine tends
    # to -1/(p-1). (The printed closed form in the source text has a
    # different denominator, which its own design definition contradicts.)
    for p, a in [(2, 1.0), (4, 1.0), (4, -0.2), (6, 0.3), (3, 25.0)]:
        X = exchangeable_design(p, a).values
        g = X.T @ X
        oracle = g[0, 1] / math.sqrt(g[0, 0] * g[1, 1])
        assert exchangeable_cosine(p, a) == pytest.approx(oracle, abs=1e-12)
    p = 4
    assert exchangeable_cosine(p, -1 / p + 1e-12) == pytest.approx(
        -1.0 / (p - 1), abs=1e-9
    )


def test_exchangeable_direction_orthogonal_case():
    for j in (1, 3):
        d = exchangeable_direction_formula(4, 0.0, ModelId([1, 3]), j)
        expected = np.zeros(4)
        expected[j - 1] = 1.0
        np.testing.assert_allclose(d.vector, expected, atol=1e-12)


def test_exchangeable_direction_matches_engine_single_case():
    cd = exchangeable_design(4, 1.0)
    model = ModelId([1, 2])
    formula = exchangeable_direction_formula(4, 1.0, model, 1)
    vec, norm = adjusted_predictor(cd, model, 1)
    unit = vec / norm
    dist = min(np.linalg.norm(unit - formula.vector),
               np.linalg.norm(unit + formula.vector))
    assert dist < 1e-10
    assert formula.raw_norm == pytest.approx(norm, rel=1e-10)


@pytest.mark.parametrize("p", [3, 5, 8])
def test_exchangeable_formula_vs_engine_full_grid(p):
    for a in (0.0, 0.3, 1.0, 7.5):
        cd = exchangeable_design(p, a)
        for direction in direction_stream(cd):
            formula = exchangeable_direction_formula(
                p, a, direction.model, direction.predictor
            )
            dist = min(
                np.linalg.norm(direction.vector - formula.vector),
                np.linalg.norm(direction.vector + formula.vector),
            )
            assert dist < 1e-10
            assert formula.raw_norm == pytest.approx(direction.raw_norm, rel=1e-10)


def _direction_gram(cd, max_column):
    """Gram matrix of the unit directions over models inside the first
    max_column columns, rows ordered by (model, predictor)."""
    rows = {(d.model.members, d.predictor): d.vector
            for d in direction_stream(cd) if d.model.members[-1] <= max_column}
    keys = sorted(rows)
    L = np.array([rows[k] for k in keys])
    return keys, L @ L.T


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exchangeable_directions_embed_one_size_down(p):
    # The first p-1 columns of X_p(a) have Gram matrix I + (2a + p a^2)E,
    # which is that of X_{p-1}(a') for 2a' + (p-1)a'^2 = 2a + p a^2. Their
    # directions therefore carry the same Gram matrix, so sup over a of K
    # cannot decrease in p.
    for a in (0.0, 0.3, 1.0, 4.0, 16.0):
        c = 2 * a + p * a * a
        a_prime = c / (1.0 + math.sqrt(1.0 + (p - 1) * c))
        assert 2 * a_prime + (p - 1) * a_prime ** 2 == pytest.approx(c, rel=1e-12)
        keys, big = _direction_gram(exchangeable_design(p, a), p - 1)
        small_keys, small = _direction_gram(exchangeable_design(p - 1, a_prime), p - 1)
        assert keys == small_keys
        assert len(keys) == (p - 1) * 2 ** (p - 2)
        np.testing.assert_allclose(big, small, rtol=0, atol=1e-12)


def test_exchangeable_adjustment_bound():
    # 0 <= d*a < 1/(2 sqrt(p)), over a >= 0 and m >= 2
    for p in (3, 6, 12, 30):
        bound = 1.0 / (2.0 * math.sqrt(p))
        for a in np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 25)]):
            for m in range(2, p + 1):
                da = exchangeable_adjustment_coefficient(p, a, m) * a
                assert 0.0 <= da < bound


def test_exchangeable_ratio_at_zero_matches_orth():
    rows = exchangeable_ratio_table([4], n_samples=40_000, seed=0, a_grid=[0.0])
    row = rows[0]
    expected = orth_constant(0.05, 4).k / math.sqrt(2 * math.log(4))
    assert row.ratio == pytest.approx(expected, abs=3 * row.mc_standard_error)


def test_exchangeable_duality_of_constants():
    p, a = 4, 2.0
    c = exchangeable_inverse_param(p, a)
    ka = posi_constant(exchangeable_design(p, a), n_samples=40_000, seed=31)
    kc = posi_constant(exchangeable_design(p, c), n_samples=40_000, seed=77)
    tol = 3 * math.hypot(ka.mc_standard_error, kc.mc_standard_error)
    assert abs(ka.k - kc.k) < tol


# ---------------------------------------------------------------------------
# worst-case single-predictor designs
# ---------------------------------------------------------------------------


def test_worst_design_c_zero_is_identity():
    np.testing.assert_allclose(worst_posi1_design(4, 0.0).values, np.eye(4))


def test_worst_design_unit_primary_column():
    for p, c in [(3, 0.5), (6, 0.4), (10, 0.3)]:
        X = worst_posi1_design(p, c).values
        assert np.linalg.norm(X[:, -1]) == pytest.approx(1.0, abs=1e-12)


def test_worst_design_gram_pattern():
    p, c = 5, 0.35
    X = worst_posi1_design(p, c).values
    g = X.T @ X
    off = g - np.diag(np.diag(g))
    assert np.allclose(np.diag(g), 1.0)
    for i in range(p - 1):
        assert off[i, p - 1] == pytest.approx(c, abs=1e-12)
        for j in range(p - 1):
            if i != j:
                assert off[i, j] == 0.0


def test_worst_design_range_validation():
    with pytest.raises(ValueError):
        worst_posi1_design(5, 0.5)  # c^2 = 0.25 = 1/(p-1): singular


def test_fast_stat_equals_exhaustive():
    rng = np.random.default_rng(50)
    for p in range(2, 11):
        c = 0.8 / math.sqrt(p - 1) if p > 1 else 0.0
        for _ in range(12):
            z = rng.standard_normal(p)
            fast = fast_worst_posi1_stat(p, c, z)
            slow = exhaustive_worst_posi1_stat(p, c, z)
            assert abs(fast - slow) < 1e-12


def test_fast_stat_negative_c():
    rng = np.random.default_rng(51)
    p, c = 6, -0.35
    for _ in range(10):
        z = rng.standard_normal(p)
        assert abs(fast_worst_posi1_stat(p, c, z)
                   - exhaustive_worst_posi1_stat(p, c, z)) < 1e-12


def test_fast_stat_c_zero_reduces_to_marginal():
    rng = np.random.default_rng(52)
    for _ in range(5):
        z = rng.standard_normal(7)
        assert fast_worst_posi1_stat(7, 0.0, z) == pytest.approx(abs(z[-1]), abs=1e-14)


def test_fast_stat_matches_direction_enumeration():
    # independent oracle: score every model's direction explicitly
    p, c = 5, 0.4
    cd = worst_posi1_design(p, c)
    rng = np.random.default_rng(53)
    others = list(range(1, p))
    for _ in range(5):
        z = rng.standard_normal(p)
        best = 0.0
        for r in range(p):
            for extra in itertools.combinations(others, r):
                model = ModelId(list(extra) + [p])
                vec, norm = adjusted_predictor(cd, model, p)
                best = max(best, abs(float(vec @ z)) / norm)
        assert fast_worst_posi1_stat(p, c, z) == pytest.approx(best, abs=1e-10)


def test_worst_posi1_table_shares_draws():
    rows = worst_posi1_table(50, n_samples=4_000, seed=0, c_grid=[0.1, 0.14])
    assert len(rows) == 2
    assert all(r.k1 > 0 for r in rows)


def per_size_worst_posi1_batch(p, c, z_block):
    """The fast statistic as a loop over model sizes, re-sorting the block for
    each c: the reference the table's evaluation must equal bitwise."""
    zp = z_block[:, p - 1]
    rest = np.sort(z_block[:, : p - 1], axis=1)
    prefix = np.concatenate(
        [np.zeros((z_block.shape[0], 1)), np.cumsum(rest, axis=1)], axis=1
    )
    total = prefix[:, -1]
    on_zp, on_rest = _worst_coefficients(p, c)
    best = np.zeros(z_block.shape[0])
    for m in range(1, p + 1):
        k = p - m
        bottom = prefix[:, k]
        top = total - prefix[:, p - 1 - k]
        base = on_zp[m - 1] * zp
        np.maximum(best, np.abs(base + on_rest[m - 1] * bottom), out=best)
        np.maximum(best, np.abs(base + on_rest[m - 1] * top), out=best)
    return best


@pytest.mark.parametrize("p, n", [(2, 700), (7, 9_000), (100, 1_300)])
def test_worst_posi1_table_matches_per_size_loop(p, n):
    # n = 9 000 spans two draw blocks and a partial evaluation sub-block.
    seed, alpha = 11, 0.05
    grid = default_c_grid(p) + (-0.5 / math.sqrt(p - 1),)
    rows = worst_posi1_table(p, alpha=alpha, n_samples=n, seed=seed, c_grid=grid)
    z = np.concatenate([_rng.gaussian_block(seed, _rng.PURPOSE_MAX_T, b, n, p)[0]
                        for b in range(_rng.block_count(n))])
    idx = conservative_quantile_index(alpha, n)
    batched = _fast_worst_posi1_batch(p, grid, z)
    for row, c, got in zip(rows, grid, batched, strict=True):
        draws = per_size_worst_posi1_batch(p, c, z)
        assert np.array_equal(got, draws)
        k1 = float(np.partition(draws, idx - 1)[idx - 1])
        assert row.c == c and row.k1 == k1
        assert row.mc_standard_error == _mc_standard_error(draws, alpha)


def four_reduction_worst_posi1_batch(p, c, z_block):
    """The batched statistic with max and min taken over both tails."""
    zp = z_block[:, p - 1]
    prefix = np.zeros((z_block.shape[0], p))
    prefix[:, 1:] = np.cumsum(np.sort(z_block[:, : p - 1], axis=1), axis=1)
    bottom, top = prefix[:, ::-1], prefix[:, -1:] - prefix
    on_zp, on_rest = _worst_coefficients(p, c)
    base = on_zp * zp[:, None]
    best = np.zeros(z_block.shape[0])
    for tail in (bottom, top):
        value = on_rest * tail + base
        np.maximum(best, value.max(axis=1), out=best)
        np.maximum(best, -value.min(axis=1), out=best)
    return best


@pytest.mark.parametrize("p, n", [(2, 700), (9, 1_000), (100, 8_192)])
def test_worst_posi1_two_reductions_match_four(p, n):
    # For c >= 0 the top tail's score is never below the bottom tail's, and
    # the reverse for c < 0, so one max and one min give the same values.
    z = _rng.gaussian_block(5, _rng.PURPOSE_MAX_T, 0, n, p)[0]
    grid = default_c_grid(p) + (0.0, -0.5 / math.sqrt(p - 1),
                                -math.sqrt(0.99 / (p - 1)))
    for c, got in zip(grid, _fast_worst_posi1_batch(p, grid, z), strict=True):
        assert np.array_equal(got, four_reduction_worst_posi1_batch(p, c, z)), c


def full_scan_worst_posi1_batch(p: int, cs, z_block: np.ndarray) -> np.ndarray:
    """The kernel before size pruning, kept verbatim as the oracle: every
    model size of both tails, in sub-blocks of 512 draws."""
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
        for lo in range(0, b, 512):
            rows = slice(lo, lo + 512)
            base = on_zp * zp[rows, None]
            out = out_c[rows]
            value = on_rest * upper[rows]
            value += base
            np.maximum(out, value.max(axis=1), out=out)
            value = on_rest * lower[rows]
            value += base
            np.maximum(out, -value.min(axis=1), out=out)
    return best


def grid_values(p: int):
    """c values inside the full-rank range: 0 and -0, both extremes of the
    default grid and their negatives, and arbitrary values between."""
    edge = math.sqrt(1.0 / (p - 1))
    grid = default_c_grid(p)
    special = [0.0, -0.0, grid[0], grid[-1], -grid[0], -grid[-1]]
    return st.one_of(st.sampled_from(special),
                     st.floats(-0.999 * edge, 0.999 * edge))


# Values that make ties, exact zeros, and running sums that rounding leaves
# unchanged or cancels.
SPECIAL_ENTRIES = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-20, -1e-20, 3.0,
                   -5e4, 1e20, -1e20)


@st.composite
def worst_rows(draw, p: int) -> np.ndarray:
    """A (rows, p) block mixing Gaussian rows with adversarial ones: all
    positive, all negative, with exact zeros, with ties, with z_p = 0."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, p))
    for row in z:
        kind = draw(st.sampled_from(
            ["gaussian", "positive", "negative", "zeros", "ties", "zp0", "mixed"]))
        if kind == "positive":
            row[:] = np.abs(row)
        elif kind == "negative":
            row[:] = -np.abs(row)
        elif kind == "zeros":
            row[rng.random(p) < 0.5] = 0.0
        elif kind == "ties":
            row[:] = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], p)
        elif kind == "mixed":
            row[:] = rng.choice(SPECIAL_ENTRIES, p)
        if draw(st.booleans()):
            row[p - 1] = draw(st.sampled_from([0.0, -0.0]))
    return z


@st.composite
def kernel_cases(draw):
    p = draw(st.integers(2, 40))
    cs = draw(st.lists(grid_values(p), min_size=1, max_size=4))
    return p, cs, draw(worst_rows(p))


def zero_rows(p: int, seed: int) -> np.ndarray:
    """Rows whose candidates are exactly +0 or -0 at c = +-0, or whose z_p
    is +-0: all +0, all -0, z_1..z_{p-1} of mixed-sign zeros, Gaussian,
    ties around zero, all positive and all negative, each with z_p = +-0."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((8, p))
    z[0] = 0.0
    z[1] = -0.0
    z[2] = rng.choice([0.0, -0.0], p)
    z[5] = rng.choice([0.0, -0.0, 1.0, -1.0], p)
    z[6] = np.abs(z[6])
    z[7] = -np.abs(z[7])
    z[2:, p - 1] = [-0.0, 0.0, -0.0, -0.0, 0.0, -0.0]
    return z


@PROPERTY_SETTINGS
@given(kernel_cases(), st.sampled_from([1, 3, 8, 512]),
       st.sampled_from([1, 5, 64, 1 << 16]))
@example((2, [0.0, -0.0], zero_rows(2, 0)), 512, 1 << 16)
@example((5, [0.0, -0.0, 0.3], zero_rows(5, 1)), 1, 1)
@example((40, [-0.0, 0.1, 0.0], zero_rows(40, 2)), 3, 5)
@example((40, [0.0, -default_c_grid(40)[-1]], np.zeros((4, 40))), 8, 64)
def test_pruned_kernel_is_bitwise_the_full_scan(case, sub_block, tile):
    # Small sub-blocks and tiles exercise many sub-blocks, ragged last
    # ones and sizes split over several tiles; the bits are compared, so a
    # zero must carry the full scan's sign too.
    p, cs, z = case
    saved = families._WORST_SUB_BLOCK, families._WORST_TILE
    families._WORST_SUB_BLOCK, families._WORST_TILE = sub_block, tile
    try:
        got = _fast_worst_posi1_batch(p, cs, z)
    finally:
        families._WORST_SUB_BLOCK, families._WORST_TILE = saved
    assert got.tobytes() == full_scan_worst_posi1_batch(p, cs, z).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pruned_kernel_is_bitwise_the_full_scan_at_p100(seed):
    # Whole Gaussian blocks, with an adversarial tail of rows appended, on
    # the default grid plus c = 0 and negative c.
    p = 100
    z = _rng.gaussian_block(seed, _rng.PURPOSE_MAX_T, 0, 3_000, p)[0]
    rng = np.random.default_rng(seed)
    odd = rng.standard_normal((64, p))
    odd[:16] = np.abs(odd[:16])
    odd[16:32] = -np.abs(odd[16:32])
    odd[32:48, ::3] = 0.0
    odd[48:] = rng.choice(SPECIAL_ENTRIES, (16, p))
    odd[::5, p - 1] = 0.0
    z = np.concatenate([z, odd])
    grid = default_c_grid(p) + (0.0, -0.0, -default_c_grid(p)[0],
                                -default_c_grid(p)[-1])
    got = _fast_worst_posi1_batch(p, grid, z)
    assert got.tobytes() == full_scan_worst_posi1_batch(p, grid, z).tobytes()


def test_pruned_kernel_keeps_the_sign_of_zero_results_at_p100():
    # At c = +-0 with z_p = +-0 every candidate is exactly +0 or -0, and
    # the full scan's results carry either sign. np.einsum writes +0 where
    # np.multiply writes -0, so the kernel is bitwise right only because it
    # scores every exact-zero result again in full.
    p = 100
    z = np.concatenate([zero_rows(p, seed) for seed in range(4)])
    grid = (0.0, -0.0, default_c_grid(p)[0], -default_c_grid(p)[0])
    want = full_scan_worst_posi1_batch(p, grid, z)
    zeros = np.signbit(want[want == 0.0])
    assert zeros.any() and not zeros.all()
    got = _fast_worst_posi1_batch(p, grid, z)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("positive", [0, 30, 49, 99])
@pytest.mark.parametrize("tile_rows", ["wider", "exact", "narrower", "several"])
def test_pruned_kernel_is_bitwise_whatever_tiles_the_scored_rows(
        monkeypatch, positive, tile_rows):
    # Every draw has `positive` strictly positive z_1..z_{p-1}, so each
    # sub-block scores the rows k = 0..max(positive, p-1-positive). A tile
    # holds more rows than that, exactly that many, one fewer, or 7, so the
    # scored rows fit in one tile or spill into several, ragged ones.
    p, sub_block = 100, 16
    rng = np.random.default_rng(positive)
    z = np.abs(rng.standard_normal((40, p))) + 1e-3
    z[:, positive:p - 1] *= -1.0
    z[:, : p - 1] = rng.permuted(z[:, : p - 1], axis=1)
    assert np.all(np.count_nonzero(z[:, : p - 1] > 0, axis=1) == positive)
    span = max(positive, p - 1 - positive) + 1
    rows = {"wider": span + 13, "exact": span, "narrower": span - 1,
            "several": 7}[tile_rows]
    monkeypatch.setattr(families, "_WORST_SUB_BLOCK", sub_block)
    monkeypatch.setattr(families, "_WORST_TILE", sub_block * rows)
    grid = default_c_grid(p) + (0.0, -0.05)
    got = _fast_worst_posi1_batch(p, grid, z)
    assert got.tobytes() == full_scan_worst_posi1_batch(p, grid, z).tobytes()


def tail_scores(p, cs, z):
    """Per c, row and complement size k: fl(fl(rho_k S_k) + fl(alpha_k z_p))
    for the top sums S = T and for the bottom sums S = B, formed as the
    kernel forms them, with T_k = fl(S - C_{p-1-k}) and B_k = C_k."""
    low = np.zeros((z.shape[0], p))
    low[:, 1:] = np.cumsum(np.sort(z[:, : p - 1], axis=1), axis=1)
    high = low[:, -1:] - low[:, ::-1]
    rho, alpha = _size_tables(p, cs)
    shift = alpha[:, None, :] * z[None, :, p - 1, None]
    return (rho[:, None, :] * high + shift, rho[:, None, :] * low + shift,
            high, low, rho, alpha)


def assert_envelopes_bound(p, cs, z):
    """Check every boundary at or past P (the count of positive
    z_1..z_{p-1}) for the top sums, and at or past p - 1 - P for the bottom
    sums: the envelope must bound the score of every size beyond it."""
    top, bottom, high, low, rho, alpha = tail_scores(p, cs, z)
    zp = z[:, p - 1]
    positive = np.count_nonzero(z[:, : p - 1] > 0, axis=1)
    for i, p_i in enumerate(positive):
        for k in range(p_i, p - 1):
            bound = _pruned_envelope(np.maximum, rho, alpha, k, high[i, k], zp[i])
            assert np.all(bound[:, 0] >= top[:, i, k + 1:].max(axis=1)), (i, k)
        for k in range(p - 1 - p_i, p - 1):
            bound = _pruned_envelope(np.minimum, rho, alpha, k, low[i, k], zp[i])
            assert np.all(bound[:, 0] <= bottom[:, i, k + 1:].min(axis=1)), (i, k)


@PROPERTY_SETTINGS
@given(kernel_cases())
def test_pruned_envelope_bounds_every_pruned_score(case):
    assert_envelopes_bound(*case)


@st.composite
def monotone_tails(draw):
    """A grid, a boundary k, a boundary sum S of either sign, z_p, and
    non-negative steps for the sizes past k, often zero so that the sums
    stay at S."""
    p = draw(st.integers(2, 40))
    cs = draw(st.lists(grid_values(p), min_size=1, max_size=4))
    k = draw(st.integers(0, p - 2))
    s = draw(st.sampled_from([-3.5, -1.0, 0.0, 2.0]) | st.floats(-1e3, 1e3))
    zp = draw(st.sampled_from([0.0, -1.25, 2.0]) | st.floats(-5.0, 5.0))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-3, 0.5]) | st.floats(0.0, 10.0),
                          min_size=p - 1 - k, max_size=p - 1 - k))
    return p, cs, k, s, zp, steps


@PROPERTY_SETTINGS
@given(monotone_tails())
@example((8, [0.3], 2, -1.0, 0.0, [0.0] * 5))
@example((40, [default_c_grid(40)[-1], -0.01], 0, -2.0, 1.0, [0.0] * 39))
def test_pruned_envelope_bounds_any_monotone_tail(case):
    # The kernel relies only on the sums past a boundary being no larger
    # (top tail) or no smaller (bottom tail) than the boundary sum S, so the
    # envelope must bound every such tail. When S < 0 and the sums stay at
    # S while rho falls, rho_hi S lies below the scores; the envelope takes
    # the larger of rho_lo S and rho_hi S.
    p, cs, k, s, zp, steps = case
    rho, alpha = _size_tables(p, cs)
    shift = alpha[:, k + 1:] * zp
    drop = np.cumsum(steps)
    top = rho[:, k + 1:] * (s - drop) + shift
    bound = _pruned_envelope(np.maximum, rho, alpha, k, s, zp)
    assert np.all(bound[:, 0] >= top.max(axis=1))
    bottom = rho[:, k + 1:] * (s + drop) + shift
    bound = _pruned_envelope(np.minimum, rho, alpha, k, s, zp)
    assert np.all(bound[:, 0] <= bottom.min(axis=1))


def test_fallback_rescores_draws_at_the_smallest_c(monkeypatch):
    # At p = 100 the envelope exceeds about 1.5% of results at the smallest
    # default c, whose sizes are the least separated, and those draws are
    # scored again in full.
    p = 100
    grid = default_c_grid(p)
    z = _rng.gaussian_block(3, _rng.PURPOSE_MAX_T, 0, 8_192, p)[0]
    calls = []
    score_every_size = families._score_every_size

    def counted(p_, c, rows):
        calls.append((c, rows.shape[0]))
        return score_every_size(p_, c, rows)

    monkeypatch.setattr(families, "_score_every_size", counted)
    got = _fast_worst_posi1_batch(p, grid, z)
    rescored = {c: n for c, n in calls}
    assert rescored.get(grid[0], 0) > 0
    assert sum(rescored.values()) < 0.05 * z.shape[0] * len(grid)
    assert got.tobytes() == full_scan_worst_posi1_batch(p, grid, z).tobytes()


def test_worst_posi1_table_checks_its_grid_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the grid")

    monkeypatch.setattr(_rng, "gaussian_block", no_draws)
    with pytest.raises(ValueError, match=r"need c\^2 < 1/\(p-1\)"):
        worst_posi1_table(10, n_samples=100, c_grid=[0.1, 0.5])
    with pytest.raises(ValueError, match=r"need c\^2"):
        worst_posi1_table(10, n_samples=100, c_grid=[-1.0 / 3.0])
    with pytest.raises(ValueError, match=r"need c\^2"):
        worst_posi1_table(10, n_samples=100, c_grid=[float("nan")])


@pytest.mark.parametrize("p", [1, 0, -3])
def test_family_tables_reject_p_below_two(p):
    with pytest.raises(ValueError, match="p must be >= 2"):
        worst_posi1_table(p, n_samples=100)
    with pytest.raises(ValueError, match="p must be >= 2"):
        exchangeable_ratio_table([4, p], n_samples=100)


@pytest.mark.parametrize("n", [0, -5])
def test_family_tables_reject_draw_counts_below_one(n):
    with pytest.raises(ValueError, match="^n_samples must be >= 1$"):
        worst_posi1_table(10, n_samples=n)
    with pytest.raises(ValueError, match="^n_samples must be >= 1$"):
        exchangeable_ratio_table([4], n_samples=n)


def test_posi1_dominance_on_worst_design():
    p, c = 5, 0.45
    cd = worst_posi1_design(p, c)
    k1 = posi1_constant(cd, predictor=p, n_samples=20_000, seed=3)
    k = posi_constant(cd, n_samples=20_000, seed=3)
    assert k1.k <= k.k + 1e-12


# ---------------------------------------------------------------------------
# rate function
# ---------------------------------------------------------------------------


def test_rate_function_values():
    # f(1/2) = phi(0) / sqrt(1/2)
    expected = stats.norm.pdf(0.0) * math.sqrt(2.0)
    assert rate_function(0.5) == pytest.approx(expected, abs=1e-12)


def test_rate_function_maximum():
    r_star, f_star = rate_function_max()
    assert r_star == pytest.approx(0.72972, abs=1e-4)
    assert f_star == pytest.approx(0.6363277, abs=1e-5)
    # first-order condition 2 q (1-r) = phi(q), q = Phi^{-1}(r)
    q = stats.norm.ppf(r_star)
    assert 2 * q * (1 - r_star) == pytest.approx(stats.norm.pdf(q), abs=1e-6)


def test_rate_function_vanishes_at_right_edge():
    assert rate_function(1 - 1e-9) < 1e-3
    with pytest.raises(ValueError):
        rate_function(1.0)
    with pytest.raises(ValueError):
        rate_function(0.0)
