import math

import numpy as np
import pytest
from scipy import stats

from posikit import (
    CanonicalDesign,
    ErrorModel,
    InfeasibleError,
    ModelUniverse,
    asymptotic_cap_constant,
    cap_bonferroni_bound,
    canonicalize,
    direction_stream,
    max_abs_t_draws,
    orth_constant,
    posi1_constant,
    posi_constant,
    scheffe_constant,
)
from posikit.design import DesignMatrix

Z975 = 1.959963984540054


def random_canonical(p, seed=0, n=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n or p + 2, p))
    return canonicalize(DesignMatrix(X, tuple(f"x{j}" for j in range(1, p + 1))))


def combined_se(a, b):
    return math.hypot(a.mc_standard_error, b.mc_standard_error)


# ---------------------------------------------------------------------------
# max_abs_t_draws
# ---------------------------------------------------------------------------


def test_single_direction_half_normal_mean():
    cd = CanonicalDesign.from_canonical(np.eye(1))
    draws = max_abs_t_draws(direction_stream(cd), n_samples=100_000, seed=2)
    target = math.sqrt(2.0 / math.pi)  # mean of |N(0,1)|
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3 * se


def test_orthonormal_basis_gives_max_of_abs_normals():
    d = 6
    cd = CanonicalDesign.from_canonical(np.eye(d))
    nested = ModelUniverse.nested_chain()
    draws = max_abs_t_draws(direction_stream(cd, nested), n_samples=50_000, seed=3)
    # CDF check against (2 Phi(k) - 1)^d at a few points
    for k in (1.5, 2.0, 2.5, 3.0):
        expected = (2 * stats.norm.cdf(k) - 1) ** d
        got = (draws <= k).mean()
        assert abs(got - expected) < 4 * math.sqrt(expected * (1 - expected) / draws.size) + 1e-4


def test_max_dominates_every_member():
    # Same seed means the same Gaussian draws; domination is exact in real
    # arithmetic. BLAS may pick different kernels for different direction-set
    # shapes, so allow one-ulp-scale slack.
    cd = random_canonical(3, seed=5)
    full = max_abs_t_draws(direction_stream(cd), n_samples=4_096, seed=9)
    single = ModelUniverse.explicit([[2]])
    member = max_abs_t_draws(direction_stream(cd, single), n_samples=4_096, seed=9)
    assert np.all(full >= member - 1e-12)


def test_finite_df_scaling_consistency():
    cd = CanonicalDesign.from_canonical(np.eye(1))
    em = ErrorModel.with_df(4)
    draws = max_abs_t_draws(direction_stream(cd), em, n_samples=100_000, seed=4)
    # |t_4| median check
    med = np.median(draws)
    assert abs(med - stats.t.ppf(0.75, 4)) < 0.02


# ---------------------------------------------------------------------------
# posi_constant and posi1_constant
# ---------------------------------------------------------------------------


def test_posi_p1_matches_normal_quantile():
    cd = CanonicalDesign.from_canonical(np.ones((1, 1)))
    est = posi_constant(cd, n_samples=200_000, seed=0)
    assert abs(est.k - Z975) < 3 * est.mc_standard_error
    assert est.method == "monte_carlo"
    assert est.direction_count == 1


def test_posi_orthogonal_matches_closed_form():
    cd = CanonicalDesign.from_canonical(np.eye(10))
    est = posi_constant(cd, n_samples=200_000, seed=0)
    assert abs(est.k - orth_constant(0.05, 10).k) < 3 * est.mc_standard_error


def test_posi_below_scheffe():
    for seed in range(4):
        p = 2 + seed
        cd = random_canonical(p, seed=seed)
        est = posi_constant(cd, n_samples=30_000, seed=seed)
        assert est.k <= scheffe_constant(0.05, p).k + 3 * est.mc_standard_error


def test_posi1_orthogonal_matches_marginal():
    cd = CanonicalDesign.from_canonical(np.eye(5))
    est = posi1_constant(cd, predictor=3, n_samples=100_000, seed=6)
    assert abs(est.k - Z975) < 3 * est.mc_standard_error


def test_posi1_dominated_by_posi_same_seed():
    cd = random_canonical(4, seed=11)
    kp = posi_constant(cd, n_samples=20_000, seed=13)
    for j in (1, 2, 3, 4):
        k1 = posi1_constant(cd, predictor=j, n_samples=20_000, seed=13)
        assert k1.k <= kp.k + 1e-12  # same draws, subset of directions


def test_posi1_predictor_not_in_universe():
    cd = random_canonical(3, seed=1)
    u = ModelUniverse.explicit([[1], [1, 2]])
    with pytest.raises(InfeasibleError):
        posi1_constant(cd, u, predictor=3, n_samples=2_000, seed=0)


def test_alpha_monotonicity_same_seed():
    cd = random_canonical(3, seed=2)
    k10 = posi_constant(cd, alpha=0.10, n_samples=20_000, seed=5)
    k05 = posi_constant(cd, alpha=0.05, n_samples=20_000, seed=5)
    k01 = posi_constant(cd, alpha=0.01, n_samples=20_000, seed=5)
    assert k01.k >= k05.k >= k10.k


def test_subset_monotonicity_in_universe():
    cd = random_canonical(4, seed=3)
    small = posi_constant(cd, ModelUniverse.of_max_size(2), n_samples=20_000, seed=1)
    big = posi_constant(cd, ModelUniverse.all(), n_samples=20_000, seed=1)
    assert small.k <= big.k + 1e-12


def test_sandwich_with_nested_chain():
    for seed in range(4):
        p = 2 + seed
        cd = random_canonical(p, seed=100 + seed)
        est = posi_constant(cd, n_samples=30_000, seed=seed)
        lo = orth_constant(0.05, p).k
        hi = scheffe_constant(0.05, p).k
        assert lo - 3 * est.mc_standard_error <= est.k <= hi + 3 * est.mc_standard_error


def test_determinism_across_threads_and_modes():
    cd = random_canonical(4, seed=19)
    base = posi_constant(cd, n_samples=30_000, seed=21)
    for threads in (2, 5):
        assert posi_constant(cd, n_samples=30_000, seed=21, threads=threads).k == base.k
    em = ErrorModel.known_sigma()
    draws = max_abs_t_draws(direction_stream(cd), em, 30_000, 21)
    # threads stays accepted as the fifth positional argument
    assert np.array_equal(max_abs_t_draws(direction_stream(cd), em, 30_000, 21, 2), draws)


def test_quantile_estimator_calibration_over_seeds():
    cd = CanonicalDesign.from_canonical(np.ones((1, 1)))
    ks, ses = [], []
    for seed in range(20):
        est = posi_constant(cd, n_samples=20_000, seed=seed)
        ks.append(est.k)
        ses.append(est.mc_standard_error)
    ks = np.asarray(ks)
    se = float(np.median(ses))
    # reported se should match the spread across independent seeds
    assert abs(ks.mean() - Z975) < 3 * se / math.sqrt(len(ks)) + 5e-3
    assert 0.4 < ks.std() / se < 2.5


def test_conservative_quantile_index_guard():
    cd = CanonicalDesign.from_canonical(np.eye(1))
    with pytest.raises(ValueError):
        posi_constant(cd, alpha=0.05, n_samples=10, seed=0)  # ceil(.95*11)=11 > 10


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_scheffe_values():
    assert scheffe_constant(0.05, 1).k == pytest.approx(1.95996, abs=5e-6)
    assert scheffe_constant(0.05, 2).k == pytest.approx(2.4477, abs=5e-5)
    assert scheffe_constant(0.05, 2).k == pytest.approx(
        math.sqrt(stats.chi2.ppf(0.95, 2)), abs=1e-12
    )


def test_scheffe_monotone_in_d():
    ks = [scheffe_constant(0.05, d).k for d in range(1, 12)]
    assert all(a < b for a, b in zip(ks, ks[1:]))


def test_scheffe_finite_df():
    em = ErrorModel.with_df(7)
    assert scheffe_constant(0.05, 3, em).k == pytest.approx(
        math.sqrt(3 * stats.f.ppf(0.95, 3, 7)), abs=1e-12
    )


def test_orth_values():
    assert orth_constant(0.05, 1).k == pytest.approx(1.95996, abs=5e-6)
    assert orth_constant(0.05, 2).k == pytest.approx(2.2365, abs=5e-5)
    # root property
    k = orth_constant(0.05, 7).k
    assert (2 * stats.norm.cdf(k) - 1) ** 7 == pytest.approx(0.95, abs=1e-12)


def test_orth_finite_df_matches_t_quantile_at_d1():
    for r in (3, 9, 40):
        k = orth_constant(0.05, 1, ErrorModel.with_df(r)).k
        assert k == pytest.approx(stats.t.ppf(0.975, r), abs=1e-8)


def test_orth_finite_df_exceeds_known_sigma():
    for d in (2, 5):
        assert orth_constant(0.05, d, ErrorModel.with_df(6)).k > orth_constant(0.05, d).k


def test_orth_finite_df_against_mc():
    em = ErrorModel.with_df(5)
    cd = CanonicalDesign.from_canonical(np.eye(4))
    nested = ModelUniverse.nested_chain()
    draws = max_abs_t_draws(direction_stream(cd, nested), em, n_samples=100_000, seed=8)
    k = orth_constant(0.05, 4, em).k
    cover = (draws <= k).mean()
    assert abs(cover - 0.95) < 3 * math.sqrt(0.95 * 0.05 / draws.size)


# ---------------------------------------------------------------------------
# cap bound
# ---------------------------------------------------------------------------


def test_cap_bound_dominates_mc():
    for seed in (0, 1):
        cd = random_canonical(5, seed=seed)
        ds = direction_stream(cd)
        est = posi_constant(cd, n_samples=30_000, seed=seed)
        bound = cap_bonferroni_bound(ds.count, cd.d, 0.05)
        assert bound.k >= est.k - 3 * est.mc_standard_error


def test_cap_bound_single_cap_composition():
    # count = 1: the cap equation is the exact marginal statement
    b = cap_bonferroni_bound(1, 2, 0.05)
    radius = math.sqrt(stats.chi2.ppf(0.975, 2))
    k_prime = b.k / radius
    tail = stats.beta.sf(k_prime ** 2, 0.5, 0.5)
    assert tail == pytest.approx(0.025, abs=1e-10)


def test_cap_bound_rate_decreases_toward_limit():
    ratios = []
    for p in (10, 14, 18, 60, 240):
        count = p * 2 ** (p - 1)
        ratios.append(cap_bonferroni_bound(count, p, 0.05).k / math.sqrt(p))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > math.sqrt(3) / 2 for r in ratios)
    assert ratios[-1] < 1.0  # closing in on the 0.866 regime


def test_asymptotic_cap_constant():
    assert asymptotic_cap_constant(2.0) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert asymptotic_cap_constant(1.0 + 1e-9) < 1e-4
    assert asymptotic_cap_constant(1e9) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        asymptotic_cap_constant(1.0)


def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(0)
    with pytest.raises(ValueError):
        ErrorModel(2.5)
    assert ErrorModel.known_sigma().sigma_known
    assert not ErrorModel.with_df(3).sigma_known


def test_posi1_near_boundary_exceeds_orthogonal_reference():
    # the correlated-primary-predictor family at p=12, c near the rank
    # boundary: its single-predictor constant clears the orthogonal
    # reference by a wide margin
    from posikit import worst_posi1_design

    p = 12
    c = math.sqrt(0.98 / (p - 1))
    cd = worst_posi1_design(p, c)
    k1 = posi1_constant(cd, predictor=p, n_samples=40_000, seed=0)
    assert k1.k > orth_constant(0.05, p).k + 3 * k1.mc_standard_error
