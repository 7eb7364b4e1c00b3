import itertools
import math

import numpy as np
import pytest
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
from posikit import _rng
from posikit.constants import _mc_standard_error, conservative_quantile_index
from posikit.families import (
    _fast_worst_posi1_batch,
    _worst_coefficients,
    default_c_grid,
    exchangeable_adjustment_coefficient,
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
