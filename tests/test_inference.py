import math
from fractions import Fraction

import numpy as np
import pytest

from posikit import (
    CanonicalDesign,
    ErrorModel,
    InfeasibleError,
    ModelId,
    ModelUniverse,
    TargetSpec,
    adjusted_predictor,
    canonicalize,
    coverage_experiment,
    direction_stream,
    fit_submodel,
    make_best_r2_selector,
    make_spar1_selector,
    make_spar_selector,
    make_stepwise_selector,
    posi_constant,
    posi_intervals,
    scheffe_constant,
    spar1_select,
    spar_select,
    submodel_target,
    t_ratio,
    vif,
    worst_posi1_design,
)
from posikit.design import DesignMatrix
from posikit.inference import _argmax_over_blocks, _argmax_over_directions, _normed

KNOWN = ErrorModel.known_sigma()


def random_canonical(p, seed=0, n=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n or p + 3, p))
    return canonicalize(DesignMatrix(X, tuple(f"x{j}" for j in range(1, p + 1))))


# ---------------------------------------------------------------------------
# fits and targets
# ---------------------------------------------------------------------------


def test_fit_orthogonal_recovers_exactly():
    cd = CanonicalDesign.from_canonical(np.diag([1.0, 2.0, 4.0]))
    beta = np.array([0.5, -1.0, 2.0])
    y = cd.values @ beta
    fit = fit_submodel(cd, y, ModelId([1, 2, 3]), sigma_hat=1.0)
    np.testing.assert_allclose(fit.estimates, beta, atol=1e-12)
    np.testing.assert_allclose(fit.adjusted_norms, [1.0, 2.0, 4.0], atol=1e-12)


def test_fit_orthogonal_response_gives_zero():
    cd = random_canonical(3, seed=4)
    model = ModelId([1, 2])
    A = cd.values[:, :2]
    y = np.ones(cd.d)
    y -= A @ np.linalg.solve(A.T @ A, A.T @ y)  # project out span(model)
    fit = fit_submodel(cd, y, model, sigma_hat=1.0)
    np.testing.assert_allclose(fit.estimates, 0.0, atol=1e-10)


def test_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(8)
    cd = random_canonical(4, seed=8)
    y = rng.standard_normal(cd.d)
    model = ModelId([1, 3, 4])
    fit = fit_submodel(cd, y, model, sigma_hat=2.0)
    A = cd.submatrix(model)
    oracle = np.linalg.inv(A.T @ A) @ A.T @ y
    np.testing.assert_allclose(fit.estimates, oracle, atol=1e-10)
    resid = y - A @ fit.estimates
    assert np.abs(A.T @ resid).max() < 1e-10
    np.testing.assert_allclose(
        fit.adjusted_norms, 1.0 / np.sqrt(np.diag(np.linalg.inv(A.T @ A))), atol=1e-10
    )


def test_fit_rejects_rank_deficient_model():
    X = np.array([[1.0, 2.0], [2.0, 4.0]])
    cd = CanonicalDesign.from_canonical(X)
    with pytest.raises(InfeasibleError):
        fit_submodel(cd, np.ones(2), ModelId([1, 2]), sigma_hat=1.0)


def near_collinear_design(s, seed):
    """Canonical 6 x 3 Gaussian design whose second column is the first plus
    s times Gaussian noise."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((6, 3))
    X[:, 1] = X[:, 0] + s * rng.standard_normal(6)
    return canonicalize(DesignMatrix(X, ("x1", "x2", "x3")))


def exact_two_column_fit(A, y):
    """Least-squares estimates and adjusted norms of a two-column model, from
    the normal equations in rational arithmetic."""
    A = [[Fraction(v) for v in row] for row in A.tolist()]
    y = [Fraction(v) for v in y.tolist()]
    g = [[sum(r[i] * r[j] for r in A) for j in range(2)] for i in range(2)]
    b = [sum(r[i] * v for r, v in zip(A, y)) for i in range(2)]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    coef = [(g[1][1] * b[0] - g[0][1] * b[1]) / det,
            (g[0][0] * b[1] - g[1][0] * b[0]) / det]
    norms = [math.sqrt(det / g[1][1]), math.sqrt(det / g[0][0])]
    return [float(c) for c in coef], norms


@pytest.mark.parametrize("s", [1e-8, 1e-9])
def test_fit_near_collinear_model_matches_oracles(s):
    model = ModelId([1, 2])
    for seed in range(3):
        cd = near_collinear_design(s, seed)
        # Full rank under the rank tolerance: K counts every pair of {1, 2}.
        assert cd.d == 3 and direction_stream(cd).count == 12
        y = np.random.default_rng(5).standard_normal(cd.d)
        fit = fit_submodel(cd, y, model, sigma_hat=1.0)
        oracle = [adjusted_predictor(cd, model, j)[1] for j in model.members]
        np.testing.assert_allclose(fit.adjusted_norms, oracle, rtol=1e-12, atol=0)
        coef, norms = exact_two_column_fit(cd.submatrix(model), y)
        np.testing.assert_allclose(fit.estimates, coef, rtol=1e-12, atol=0)
        np.testing.assert_allclose(fit.adjusted_norms, norms, rtol=1e-12, atol=0)
        target = submodel_target(cd, model, TargetSpec(y))
        assert np.array_equal(target, fit.estimates)


@pytest.mark.parametrize("s", [1e-8, 1e-9])
def test_adjusted_predictor_and_vif_near_collinear_match_exact(s):
    # The residual r_j gives the estimate r_j'y / ||r_j||^2 and the variance
    # inflation ||x_j||^2 / ||r_j||^2; both must match rational least squares
    # as closely as fit_submodel does.
    model = ModelId([1, 2])
    for seed in range(3):
        cd = near_collinear_design(s, seed)
        y = np.random.default_rng(5).standard_normal(cd.d)
        coef, norms = exact_two_column_fit(cd.submatrix(model), y)
        for i, j in enumerate(model.members):
            vec, norm = adjusted_predictor(cd, model, j)
            assert float(vec @ y) / (norm * norm) == pytest.approx(coef[i], rel=1e-12)
            assert norm == pytest.approx(norms[i], rel=1e-12)
            x = cd.column(j)
            exact_vif = float(x @ x) / (norms[i] * norms[i])
            assert vif(cd, model, j) == pytest.approx(exact_vif, rel=1e-12)


def test_fit_rejects_model_the_rank_rule_skips():
    model = ModelId([1, 2])
    for seed in range(3):
        cd = near_collinear_design(1e-12, seed)
        assert all(d.model != model for d in direction_stream(cd))
        y = np.ones(cd.d)
        with pytest.raises(InfeasibleError):
            fit_submodel(cd, y, model, sigma_hat=1.0)
        with pytest.raises(InfeasibleError):
            submodel_target(cd, model, TargetSpec(y))


@pytest.mark.parametrize("sigma_hat, bad, message", [
    (float("nan"), None, "sigma_hat must be positive"),
    (0.0, None, "sigma_hat must be positive"),
    (1.0, float("nan"), "response must be finite"),
    (1.0, float("inf"), "response must be finite"),
])
def test_fit_rejects_bad_sigma_hat_or_response(sigma_hat, bad, message):
    cd = CanonicalDesign.from_canonical(np.eye(3))
    y = np.ones(3)
    if bad is not None:
        y[1] = bad
    with pytest.raises(ValueError, match=message):
        fit_submodel(cd, y, ModelId([1, 2]), sigma_hat)


def test_target_interpolation_case():
    cd = random_canonical(4, seed=5)
    model = ModelId([2, 4])
    coef = np.array([1.5, -0.25])
    mu = cd.submatrix(model) @ coef
    got = submodel_target(cd, model, TargetSpec.from_canonical_mean(mu))
    np.testing.assert_allclose(got, coef, atol=1e-10)


def test_target_orthogonal_mean_is_zero():
    cd = random_canonical(3, seed=6)
    model = ModelId([1, 3])
    A = cd.submatrix(model)
    mu = np.ones(cd.d)
    mu -= A @ np.linalg.solve(A.T @ A, A.T @ mu)
    got = submodel_target(cd, model, TargetSpec.from_canonical_mean(mu))
    np.testing.assert_allclose(got, 0.0, atol=1e-10)


def test_target_sign_flip_under_collinearity():
    # Simpson-style instance: the marginal slope and the two-predictor slope
    # of x1 have opposite signs under strong positive collinearity.
    X = np.array([[1.0, 0.9], [0.0, math.sqrt(1 - 0.81)]])
    cd = CanonicalDesign.from_canonical(X)
    mu = X @ np.array([-1.0, 2.0])  # adjusted slope of x1 is -1
    t_marginal = submodel_target(cd, ModelId([1]), TargetSpec(mu))[0]
    t_full = submodel_target(cd, ModelId([1, 2]), TargetSpec(mu))[0]
    # direct projection oracle
    assert t_marginal == pytest.approx(float(X[:, 0] @ mu), abs=1e-12)
    assert t_full == pytest.approx(-1.0, abs=1e-10)
    assert t_marginal > 0 > t_full


def test_target_from_full_coefficients_contrast():
    cd = random_canonical(4, seed=9)
    beta = np.array([1.0, 0.0, -2.0, 0.5])
    spec = TargetSpec.from_coefficients(cd, beta)
    model = ModelId([1, 2])
    got = submodel_target(cd, model, spec)
    A = cd.submatrix(model)
    oracle = np.linalg.inv(A.T @ A) @ A.T @ cd.values @ beta
    np.testing.assert_allclose(got, oracle, atol=1e-10)


# ---------------------------------------------------------------------------
# t-ratios
# ---------------------------------------------------------------------------


def test_t_ratio_centered_is_zero():
    cd = random_canonical(3, seed=10)
    mu = cd.values @ np.array([1.0, 2.0, 3.0])
    model = ModelId([1, 2, 3])
    fit = fit_submodel(cd, mu, model, sigma_hat=1.0)
    beta = submodel_target(cd, model, TargetSpec(mu))
    for i, j in enumerate(model.members):
        assert t_ratio(fit, j, beta[i]) == pytest.approx(0.0, abs=1e-10)


def test_t_ratio_sigma_scale():
    rng = np.random.default_rng(2)
    cd = random_canonical(3, seed=2)
    y = rng.standard_normal(cd.d)
    f1 = fit_submodel(cd, y, ModelId([1, 2]), sigma_hat=1.0)
    f2 = fit_submodel(cd, y, ModelId([1, 2]), sigma_hat=2.0)
    assert t_ratio(f2, 1) == pytest.approx(t_ratio(f1, 1) / 2.0, rel=1e-12)


def test_t_ratio_two_forms_agree():
    rng = np.random.default_rng(3)
    cd = random_canonical(4, seed=3)
    y = rng.standard_normal(cd.d)
    mu = rng.standard_normal(cd.d)
    model = ModelId([1, 2, 4])
    sigma_hat = 1.7
    fit = fit_submodel(cd, y, model, sigma_hat)
    beta = submodel_target(cd, model, TargetSpec(mu))
    for i, j in enumerate(model.members):
        lhs = t_ratio(fit, j, beta[i])
        from posikit import adjusted_predictor

        vec, norm = adjusted_predictor(cd, model, j)
        rhs = float((y - mu) @ vec) / (sigma_hat * norm)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_canonical_invariance_of_fits_and_selection():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((9, 4))
    y_full = rng.standard_normal(9)
    dm = DesignMatrix(X, tuple("abcd"))
    ut = canonicalize(dm, form="upper_triangular")
    sym = canonicalize(dm, form="symmetric")
    model = ModelId([1, 3, 4])
    # original-coordinates oracle
    A = X[:, [0, 2, 3]]
    oracle = np.linalg.lstsq(A, y_full, rcond=None)[0]
    for cd in (ut, sym):
        y = cd.reduce_response(y_full)
        fit = fit_submodel(cd, y, model, sigma_hat=1.0)
        np.testing.assert_allclose(fit.estimates, oracle, atol=1e-10)
    m1, s1 = spar_select(ut, ut.reduce_response(y_full), 1.0)
    m2, s2 = spar_select(sym, sym.reduce_response(y_full), 1.0)
    assert m1 == m2
    assert s1 == pytest.approx(s2, abs=1e-10)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def test_intervals_p1_matches_classical():
    cd = CanonicalDesign.from_canonical(np.array([[2.0]]))
    y = np.array([3.0])
    est = posi_constant(cd, n_samples=50_000, seed=0)
    report = posi_intervals(cd, y, 1.0, KNOWN, ModelId([1]), est)
    row = report.rows[0]
    bhat = (2.0 * 3.0) / 4.0  # x'y / ||x||^2
    assert row.estimate == pytest.approx(bhat, abs=1e-12)
    half = est.k * 1.0 / 2.0
    assert row.upper - row.estimate == pytest.approx(half, abs=1e-12)
    assert abs(est.k - 1.95996) < 3 * est.mc_standard_error


def test_intervals_width_formula_oracle():
    rng = np.random.default_rng(4)
    cd = random_canonical(4, seed=4)
    y = rng.standard_normal(cd.d)
    model = ModelId([1, 2, 3])
    sigma_hat = 1.3
    est = posi_constant(cd, n_samples=5_000, seed=2)
    report = posi_intervals(cd, y, sigma_hat, KNOWN, model, est)
    A = cd.submatrix(model)
    ginv = np.linalg.inv(A.T @ A)
    for i, row in enumerate(report.rows):
        half = est.k * sigma_hat * math.sqrt(ginv[i, i])
        assert row.upper - row.lower == pytest.approx(2 * half, rel=1e-12)
        assert row.lower <= row.estimate <= row.upper


def test_intervals_scheffe_wider_than_posi():
    rng = np.random.default_rng(5)
    cd = random_canonical(3, seed=5)
    y = rng.standard_normal(cd.d)
    model = ModelId([1, 2])
    kp = posi_constant(cd, n_samples=30_000, seed=3)
    ks = scheffe_constant(0.05, cd.d)
    rp = posi_intervals(cd, y, 1.0, KNOWN, model, kp)
    rs = posi_intervals(cd, y, 1.0, KNOWN, model, ks)
    for a, b in zip(rp.rows, rs.rows):
        ratio = (b.upper - b.lower) / (a.upper - a.lower)
        assert ratio == pytest.approx(ks.k / kp.k, rel=1e-12)
        assert ratio >= 1.0


def test_intervals_universe_mismatch_is_hard_error():
    rng = np.random.default_rng(6)
    cd = random_canonical(3, seed=6)
    y = rng.standard_normal(cd.d)
    est = posi_constant(cd, ModelUniverse.of_max_size(1), n_samples=5_000, seed=1)
    with pytest.raises(InfeasibleError):
        posi_intervals(cd, y, 1.0, KNOWN, ModelId([1, 2]), est)


def test_intervals_error_model_mismatch_is_hard_error():
    rng = np.random.default_rng(6)
    cd = random_canonical(3, seed=6)
    y = rng.standard_normal(cd.d)
    model = ModelId([1, 2])
    df10 = ErrorModel.with_df(10)
    est = posi_constant(cd, error_model=df10, n_samples=5_000, seed=1)
    ks = scheffe_constant(0.05, cd.d)
    for k, em in ((est, KNOWN), (est, ErrorModel.with_df(20)), (ks, df10)):
        with pytest.raises(InfeasibleError, match="constant was computed for"):
            posi_intervals(cd, y, 1.0, em, model, k)
    # The same models pass, however df was given.
    assert posi_intervals(cd, y, 1.0, ErrorModel(10), model, est).rows
    assert posi_intervals(cd, y, 1.0, KNOWN, model, ks).rows


def test_intervals_refuse_a_constant_for_another_d():
    rng = np.random.default_rng(8)
    cd = random_canonical(10, seed=8)
    y = rng.standard_normal(cd.d)
    model = ModelId([1, 2])
    # A Scheffe K for d = 4 (3.08) is far below d = 10's (4.28).
    small = scheffe_constant(0.05, 4)
    assert (small.d, scheffe_constant(0.05, cd.d).d) == (4, 10)
    with pytest.raises(InfeasibleError, match="computed for d=4, not d=10"):
        posi_intervals(cd, y, 1.0, KNOWN, model, small)
    # A posi K from a design of another rank whose universe contains the model.
    other = random_canonical(4, seed=9)
    est = posi_constant(other, ModelUniverse.of_max_size(2), n_samples=2_000, seed=1)
    assert est.d == 4
    with pytest.raises(InfeasibleError, match="computed for d=4, not d=10"):
        posi_intervals(cd, y, 1.0, KNOWN, model, est)
    assert posi_intervals(other, y[:4], 1.0, KNOWN, model, est).rows
    assert posi_intervals(cd, y, 1.0, KNOWN, model,
                          scheffe_constant(0.05, cd.d)).rows


def test_every_constant_records_its_d():
    from posikit import cap_bonferroni_bound, orth_constant, posi1_constant

    cd = random_canonical(4, seed=10, n=7)
    rank3 = canonicalize(DesignMatrix(np.hstack([cd.basis[:, :3], cd.basis[:, :1]]),
                                      ("a", "b", "c", "d")))
    assert rank3.d == 3
    for design in (cd, rank3):
        assert posi_constant(design, n_samples=1_000).d == design.d
        assert posi1_constant(design, predictor=2, n_samples=1_000).d == design.d
    assert orth_constant(0.05, 6).d == 6
    assert orth_constant(0.05, 6, ErrorModel.with_df(5)).d == 6
    assert cap_bonferroni_bound(100, 5, 0.05).d == 5


def test_intervals_covers_flag():
    cd = random_canonical(3, seed=7)
    mu = cd.values @ np.array([1.0, 0.5, 0.0])
    est = scheffe_constant(0.05, cd.d)
    report = posi_intervals(cd, mu, 1.0, KNOWN, ModelId([1, 2]), est,
                            target=TargetSpec(mu))
    assert all(row.covers_target for row in report.rows)  # y = mu: exact


def test_intervals_factor_the_model_once(monkeypatch):
    # The fit and the target read one factorization; each row is bitwise
    # the one fit_submodel, submodel_target and t_ratio give.
    import posikit.lattice

    cd = random_canonical(6, seed=7)
    rng = np.random.default_rng(3)
    y, mu = rng.standard_normal(cd.d), rng.standard_normal(cd.d)
    model, sigma_hat = ModelId([1, 3, 4, 6]), 0.7
    fit = fit_submodel(cd, y, model, sigma_hat)
    beta = submodel_target(cd, model, TargetSpec(mu))
    calls = []
    factor = posikit.lattice._models_pairs

    def counting(*args):
        calls.append(args)
        return factor(*args)

    monkeypatch.setattr(posikit.lattice, "_models_pairs", counting)
    est = scheffe_constant(0.05, cd.d)
    report = posi_intervals(cd, y, sigma_hat, KNOWN, model, est, target=TargetSpec(mu))
    assert len(calls) == 1
    for i, (j, row) in enumerate(zip(model.members, report.rows)):
        half = est.k * sigma_hat / fit.adjusted_norms[i]
        assert row.estimate == fit.estimates[i]
        assert (row.lower, row.upper) == (row.estimate - half, row.estimate + half)
        assert row.t_observed == t_ratio(fit, j, 0.0)
        assert row.covers_target == bool(abs(row.estimate - beta[i]) <= half)


# ---------------------------------------------------------------------------
# SPAR selectors
# ---------------------------------------------------------------------------


def test_spar_p1_returns_only_model():
    cd = CanonicalDesign.from_canonical(np.array([[1.5]]))
    model, stat = spar_select(cd, np.array([2.0]), 1.0)
    assert model == ModelId([1])
    assert stat == pytest.approx(2.0, abs=1e-12)


def test_spar_orthogonal_contains_largest_marginal():
    cd = CanonicalDesign.from_canonical(np.diag([1.0, 1.0, 1.0]))
    y = np.array([0.3, -2.0, 1.0])
    model, stat = spar_select(cd, y, 1.0)
    assert 2 in model
    assert stat == pytest.approx(2.0, abs=1e-12)


def test_spar_equals_brute_force_max():
    rng = np.random.default_rng(9)
    cd = random_canonical(3, seed=9)
    for _ in range(20):
        y = rng.standard_normal(cd.d)
        sigma = float(rng.uniform(0.5, 2.0))
        model, stat = spar_select(cd, y, sigma)
        best = 0.0
        from posikit import enumerate_models

        for m in enumerate_models(cd, ModelUniverse.all()):
            fit = fit_submodel(cd, y, m, sigma)
            best = max(best, max(abs(t_ratio(fit, j)) for j in m.members))
        assert stat == pytest.approx(best, rel=1e-10)


def test_spar_equals_stream_max_exactly():
    rng = np.random.default_rng(10)
    cd = random_canonical(4, seed=10)
    for _ in range(100):
        y = rng.standard_normal(cd.d)
        model, stat = spar_select(cd, y, 1.0)
        stream_max = max(
            abs(float(np.dot(d.vector, y))) for d in direction_stream(cd)
        )
        assert stat == stream_max  # same arithmetic path, bitwise equal


def test_spar1_orthogonal_value_model_free():
    cd = CanonicalDesign.from_canonical(np.eye(3))
    y = np.array([0.5, 1.5, -0.7])
    model, stat = spar1_select(cd, y, 1.0, predictor=2)
    assert 2 in model
    assert stat == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("predictor", [0, 5, 11, -1])
def test_spar1_rejects_a_predictor_out_of_range(predictor):
    # A usage error from the direction set itself, not an empty set (p + 1)
    # or one keyed by mask 0, which names no model (0).
    from posikit import DirectionSet, posi1_constant

    cd = random_canonical(4, seed=2)
    y = np.ones(cd.d)
    message = f"^predictor {predictor} out of range 1..4$"
    with pytest.raises(ValueError, match=message):
        DirectionSet(cd, predictor=predictor)
    with pytest.raises(ValueError, match=message):
        posi1_constant(cd, predictor=predictor, n_samples=100)
    with pytest.raises(ValueError, match=message):
        spar1_select(cd, y, 1.0, predictor=predictor)
    with pytest.raises(ValueError, match=message):
        make_spar1_selector(predictor)(cd, y, 1.0)
    with pytest.raises(ValueError, match=message):
        coverage_experiment(cd, None, ("spar1", predictor), 0.05, KNOWN, 2.5, 10)


def test_spar1_below_spar():
    rng = np.random.default_rng(11)
    cd = random_canonical(4, seed=11)
    for _ in range(10):
        y = rng.standard_normal(cd.d)
        _, full = spar_select(cd, y, 1.0)
        for j in range(1, 5):
            _, one = spar1_select(cd, y, 1.0, predictor=j)
            assert one <= full + 1e-12


def test_spar1_matches_fast_worst_stat():
    from posikit import fast_worst_posi1_stat

    p, c = 6, 0.35
    cd = worst_posi1_design(p, c)
    rng = np.random.default_rng(12)
    for _ in range(25):
        z = rng.standard_normal(p)
        _, got = spar1_select(cd, z, 1.0, predictor=p)
        want = fast_worst_posi1_stat(p, c, z)
        assert got == pytest.approx(want, abs=1e-10)


def test_spar_tie_break_deterministic():
    cd = CanonicalDesign.from_canonical(np.eye(2))
    y = np.array([1.0, -1.0])  # exact tie between the two predictors
    model, stat = spar_select(cd, y, 1.0)
    assert model == ModelId([1])  # smallest mask wins
    assert stat == 1.0


def cancelling_rows(rng, n, y, size):
    """n Gaussian rows plus size times Gaussian rows projected off y."""
    big = rng.standard_normal((n, y.size))
    big -= np.outer(big @ y, y) / (y @ y)
    return rng.standard_normal((n, y.size)) + size * big


def near_tie_block(seed, order, n=40, d=10):
    """A block whose first row, on the first axis, ties the largest row-wise
    |l'y| exactly, while the matrix-vector product over the rows in this
    memory order ("C" as one-shot selection streams them, "F" as selectors
    hold them) ranks another row above it. y's first entry is a power of
    two, so the first row's product is exact in any order. The other rows
    are large against y's normal plane, so that their products cancel and
    the two products of a row can differ by many units in the last place.
    None when this seed's rows give no such pair."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(d)
    y[0] = 0.5
    vectors = np.vstack([np.zeros(d), cancelling_rows(rng, n, y, 1e3)])
    exact = np.abs(np.vecdot(vectors, y))
    a = int(np.abs(np.asarray(vectors, order=order) @ y).argmax())
    vectors[0, 0] = exact[a] / y[0]
    if (np.abs(np.asarray(vectors, order=order) @ y)[a] <= exact[a]
            or exact[a] < exact.max()):
        return None
    # (mask, j) keys; the first row holds the smallest.
    keys = np.column_stack([np.arange(1, n + 2), np.ones(n + 1, dtype=np.int64)])
    return vectors, keys, y


@pytest.mark.parametrize("order", ["C", "F"])
def test_screen_keeps_rows_that_tie_within_rounding(order):
    witnesses = [near_tie_block(seed, order) for seed in range(200)]
    witnesses = [w for w in witnesses if w is not None]
    # The matrix-vector product alone would pick another row than the full
    # scan, so a screen that kept only its maxima would select wrongly.
    assert len(witnesses) >= 5
    for vectors, keys, y in witnesses:
        gemv = np.abs(np.asarray(vectors, order=order) @ y).argmax()
        exact = np.abs(np.vecdot(vectors, y))
        assert gemv != 0 and exact[gemv] == exact[0] == exact.max()
        want = (ModelId.from_mask(1), 1, float(exact[0]) / 0.5)
        assert _argmax_over_directions([(vectors, keys)], y, 0.5) == want
        blocks = [(np.asarray(v, order=order), k, bound)
                  for v, k, bound in _normed([(vectors, keys)])]
        assert _argmax_over_blocks(blocks, y, 0.5) == want


def test_screen_rescores_whole_blocks_at_subnormal_stats():
    # |l'y| of 0.97 and 1 times 2^-100 over sigma_hat = 2^972 both round to
    # the subnormal 2^-1072, so the rows tie and the first key wins, though
    # the second row alone is within the screen's margin of the maximum.
    vectors = np.array([[0.97, 0.0], [1.0, 0.0], [0.5, 0.0]])
    keys = np.array([[1, 1], [2, 1], [3, 1]])
    y = np.array([2.0 ** -100, 0.0])
    stats = np.abs(np.vecdot(vectors, y)) / 2.0 ** 972
    assert stats[0] == stats[1] == 2.0 ** -1072 > stats[2]
    want = (ModelId.from_mask(1), 1, 2.0 ** -1072)
    assert _argmax_over_directions([(vectors, keys)], y, 2.0 ** 972) == want


def test_spar_selector_follows_the_design_it_is_given():
    # Each named selector against a one-shot reference that caches nothing.
    cases = [
        (make_spar_selector, lambda cd, y: spar_select(cd, y, 1.0)[0]),
        (lambda: make_spar1_selector(2),
         lambda cd, y: spar1_select(cd, y, 1.0, predictor=2)[0]),
        (lambda: make_best_r2_selector(2),
         lambda cd, y: make_best_r2_selector(2)(cd, y, 1.0)),
    ]
    for make, reference in cases:
        select = make()
        rng = np.random.default_rng(16)
        pair = [random_canonical(4, seed=14), random_canonical(4, seed=15)]
        for i in range(6):
            cd = pair[i % 2]
            y = rng.standard_normal(cd.d)
            assert select(cd, y, 1.0) == reference(cd, y)
        # Designs built and dropped in turn: CPython hands a freed object's id()
        # to the next one, so a cache keyed on id() would answer for the old one.
        for seed in range(20, 30):
            values = np.random.default_rng(seed).standard_normal((4, 4))
            cd = CanonicalDesign.from_canonical(values)
            y = rng.standard_normal(4)
            assert select(cd, y, 1.0) == reference(cd, y)
            del cd


@pytest.mark.parametrize("p", [6, 64])
def test_held_refits_find_each_model_by_mask(p):
    # The held block's mask index finds each model's rows bitwise as one
    # walk of the models gives them, with int64 masks and, at p >= 63, object
    # masks; a model the walk skips as rank deficient is refused as the walk
    # refuses it.
    from posikit.inference import _held_block, _held_refits
    from posikit.lattice import _models_directions

    values = np.random.default_rng(5).standard_normal((5, p))
    values[:, p - 2] = values[:, 0]  # columns 1 and p - 1 are equal
    cd = CanonicalDesign.from_canonical(values)
    whole = [ModelId([1, p]), ModelId([2, 3, p]), ModelId([1, 2, 3, 4]), ModelId([p - 1])]
    bad = ModelId([1, p - 1])
    u = ModelUniverse.explicit([m.members for m in whole + [bad]])
    blocks, index = _held_block(direction_stream(cd, u)._hold())
    assert index[1].dtype == (object if p >= 63 else np.int64)
    got = _held_refits(blocks[0][0], index, whole[::-1] + whole)
    want = _models_directions(cd, whole)
    assert got.keys() == want.keys()
    for mask, (v, _) in want.items():
        assert got[mask].tobytes() == v.tobytes()
    with pytest.raises(InfeasibleError) as walked:
        _models_directions(cd, whole + [bad])
    with pytest.raises(InfeasibleError, match="is rank deficient") as held:
        _held_refits(blocks[0][0], index, whole + [bad])
    assert str(held.value) == str(walked.value)


def test_named_selectors_walk_once_per_design(monkeypatch):
    import posikit.lattice

    factorized = []
    factors = posikit.lattice._factors

    def counting(design, rows, held=None):
        factorized.append(design)
        return factors(design, rows, held)

    monkeypatch.setattr(posikit.lattice, "_factors", counting)
    rng = np.random.default_rng(18)
    pair = [random_canonical(5, seed=18), random_canonical(5, seed=19)]
    # One walk factors each block of same-size models once, and each set of
    # prefixes it does not hold once per size: five blocks for spar; five
    # for spar1, plus {1}, {2} for {1, 3}, {2, 3} and {1, 2} and {1} for
    # {1, 2, 3}; for best-R^2, the block of size 2 and its prefixes of size 1.
    for select, blocks in ((make_spar_selector(), 5), (make_spar1_selector(3), 8),
                           (make_best_r2_selector(2), 2)):
        for cd in pair:
            factorized.clear()
            for _ in range(4):
                select(cd, rng.standard_normal(cd.d), 1.0)
            assert len(factorized) == blocks
            assert all(design is cd for design in factorized)


def _selection_calls(cd, y, sigma_hat):
    return [
        lambda: spar_select(cd, y, sigma_hat),
        lambda: spar1_select(cd, y, sigma_hat, predictor=2),
        lambda: make_spar_selector()(cd, y, sigma_hat),
        lambda: make_spar1_selector(2)(cd, y, sigma_hat),
        lambda: make_stepwise_selector()(cd, y, sigma_hat),
        lambda: make_best_r2_selector(2)(cd, y, sigma_hat),
    ]


@pytest.mark.parametrize("sigma_hat", [0.0, -1.0, float("nan")])
def test_selection_rejects_nonpositive_sigma_hat(sigma_hat):
    cd = random_canonical(3, seed=20)
    y = np.random.default_rng(20).standard_normal(cd.d)
    for call in _selection_calls(cd, y, sigma_hat):
        with pytest.raises(ValueError, match="sigma_hat must be positive"):
            call()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_selection_rejects_non_finite_response(bad):
    cd = random_canonical(3, seed=21)
    y = np.random.default_rng(21).standard_normal(cd.d)
    y[1] = bad
    for call in _selection_calls(cd, y, 1.0):
        with pytest.raises(ValueError, match="response must be finite"):
            call()


def test_stepwise_ties_go_to_the_smallest_predictor():
    # After x1 enters, x2, x3 and x4 tie exactly and x2 enters; x3 lies on
    # x2's axis, so its residual is zero and it is skipped.
    values = np.array([[4.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0],
                       [0.0, 0.0, 0.0, 2.0]])
    cd = CanonicalDesign.from_canonical(values)
    assert make_stepwise_selector()(cd, np.array([5.0, 3.0, 3.0]), 1.0) == \
        ModelId([1, 2, 4])


def test_stepwise_skips_degenerate_candidates():
    # A zero column is never a candidate: one entry, then nothing clears 2.
    cd = CanonicalDesign.from_canonical(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert make_stepwise_selector()(cd, np.array([1.0, 7.0]), 1.0) == ModelId([2])
    # x2 is 3 x1 up to rounding, so its residual against x1 is rounding noise
    # of norm 5e-16, and |t| on it is about |y'x1| / ||x1||; the tau rule
    # skips it.
    cd = CanonicalDesign.from_canonical(np.array([[0.1, 0.3], [0.7, 2.1]]))
    select = make_stepwise_selector(ModelUniverse.forcing(1))
    assert select(cd, np.array([1.0, 7.0]), 1.0) == ModelId([1])


def test_stepwise_rejects_a_nan_threshold():
    # Every comparison with NaN is false, so the threshold never stopped the
    # search: on four generic columns the full model came back.
    with pytest.raises(ValueError, match="t_enter must not be NaN"):
        make_stepwise_selector(t_enter=float("nan"))


def test_stepwise_builds_each_node_once(monkeypatch):
    # A node is the step after one sequence of entries; a run on one design
    # builds each node it reaches once, and a second run builds none.
    import posikit.inference as inference

    built, paths = [], {}
    step_node = inference._step_node

    def counting(design, universe, parent, best):
        node = step_node(design, universe, parent, best)
        paths[id(node)] = () if parent is None else (
            paths[id(parent)] + (parent.cols[best] + 1,))
        built.append(paths[id(node)])
        return node

    monkeypatch.setattr(inference, "_step_node", counting)
    cd = random_canonical(10, seed=22, n=14)
    beta = np.random.default_rng(22).standard_normal(10)
    select = make_stepwise_selector()

    def run():
        return coverage_experiment(cd, None, select, 0.05, ErrorModel.with_df(10), 4.0,
                                   100, seed=5, target=TargetSpec.from_coefficients(cd, beta))

    models = run().models
    assert len(set(built)) == len(built)
    assert max(map(len, built)) >= 3
    # Each selected model is the members of a node built, plus its last entry
    # unless the threshold stopped the search there.
    reached = {frozenset(path) for path in built}
    assert all(set(m.members) in reached or any(set(m.members) - {j} in reached
                                                for j in m.members) for m in models)
    built.clear()
    assert run().models == models
    assert built == []


def test_best_r2_ties_go_to_the_smallest_mask():
    # {1, 3} and {2, 3} span the same plane; {1, 2} is rank deficient.
    values = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    cd = CanonicalDesign.from_canonical(values)
    y = np.array([1.0, 1.0, 1.0])
    assert make_best_r2_selector(2)(cd, y, 1.0) == ModelId([1, 3])
    assert make_best_r2_selector(2, ModelUniverse.forcing(2))(cd, y, 1.0) == \
        ModelId([2, 3])
    with pytest.raises(InfeasibleError, match="no full-rank model of size 3"):
        make_best_r2_selector(3)(cd, y, 1.0)


# ---------------------------------------------------------------------------
# coverage experiments
# ---------------------------------------------------------------------------


def test_coverage_scheffe_over_covers():
    cd = random_canonical(3, seed=13)
    res = coverage_experiment(
        cd, None, "spar", 0.05, KNOWN, scheffe_constant(0.05, cd.d), 2_000, seed=1
    )
    assert res.coverage >= 0.95 - 3 * res.binomial_se


def test_coverage_posi_spar_near_nominal():
    cd = CanonicalDesign.from_canonical(worst_posi1_design(3, 0.69).values)
    est = posi_constant(cd, n_samples=50_000, seed=2)
    res = coverage_experiment(cd, None, "spar", 0.05, KNOWN, est, 4_000, seed=3)
    assert res.coverage >= 0.95 - 3 * res.binomial_se
    assert res.coverage <= 0.95 + 5 * res.binomial_se  # SPAR is the worst case


def test_coverage_naive_fails_under_selection():
    cd = CanonicalDesign.from_canonical(worst_posi1_design(3, 0.69).values)
    res = coverage_experiment(cd, None, "spar", 0.05, KNOWN, 1.959964, 4_000, seed=3)
    assert res.coverage < 0.95 - 3 * res.binomial_se


def test_coverage_guarantee_for_assorted_selectors():
    for cd in (random_canonical(3, seed=15), random_canonical(6, seed=15)):
        est = posi_constant(cd, n_samples=50_000, seed=5)
        selectors = [
            make_spar_selector(),
            make_spar1_selector(2),
            make_stepwise_selector(),
            make_best_r2_selector(2),
        ]
        for selector in selectors:
            res = coverage_experiment(cd, None, selector, 0.05, KNOWN, est, 1_500,
                                      seed=7)
            assert res.coverage >= 0.95 - 3 * res.binomial_se, (cd.p, selector)


def test_coverage_finite_df_draws_fresh_sigma():
    cd = random_canonical(2, seed=16)
    em = ErrorModel.with_df(5)
    est = posi_constant(cd, error_model=em, n_samples=50_000, seed=6)
    res = coverage_experiment(cd, None, "spar", 0.05, em, est, 2_000, seed=8)
    assert res.coverage >= 0.95 - 3 * res.binomial_se


def test_coverage_refuses_a_constant_that_does_not_apply():
    from posikit import posi1_constant

    # On a 14 x 10 design, Scheffe's K for d = 4 gave a coverage near 0.86.
    cd = random_canonical(10, seed=8, n=14)
    with pytest.raises(InfeasibleError, match="computed for d=4, not d=10"):
        coverage_experiment(cd, None, "spar", 0.05, KNOWN, scheffe_constant(0.05, 4), 50)
    small = random_canonical(4, seed=9)
    est = posi_constant(small, n_samples=2_000, seed=1)
    with pytest.raises(InfeasibleError, match="computed for"):
        coverage_experiment(small, None, "spar", 0.05, ErrorModel.with_df(5), est, 50)
    one = posi1_constant(small, predictor=2, n_samples=2_000, seed=1)
    with pytest.raises(InfeasibleError, match="single-predictor"):
        coverage_experiment(small, None, ("spar1", 2), 0.05, KNOWN, one, 50)
    # K for models of at most 2 columns; spar over all models selects larger.
    pairs = posi_constant(small, ModelUniverse.of_max_size(2), n_samples=2_000, seed=1)
    with pytest.raises(InfeasibleError, match="universe containing"):
        coverage_experiment(small, None, "spar", 0.05, KNOWN, pairs, 200, seed=2)
    # Within the universe it was computed for, the same K applies; so does a
    # float K and, for any universe, Scheffe's K for this d.
    for universe, k in ((ModelUniverse.of_max_size(2), pairs), (None, est.k),
                        (None, scheffe_constant(0.05, small.d))):
        res = coverage_experiment(small, universe, "spar", 0.05, KNOWN, k, 200, seed=2)
        assert res.replications == 200


def test_coverage_validates_alpha_before_selecting():
    # alpha was never read: coverage_experiment(..., alpha=7.0) ran.
    cd = random_canonical(4, seed=23)

    def no_selection(*args):
        raise AssertionError("selected before checking alpha")

    for alpha in (7.0, 0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="^alpha must lie in"):
            coverage_experiment(cd, None, no_selection, alpha, KNOWN, 3.0, 10)


@pytest.mark.parametrize("mu", [[50.0], [1.0, 2.0, 3.0]])
def test_coverage_rejects_a_target_of_the_wrong_length(mu):
    # A length-1 mean was broadcast to every coordinate, and a length-3 one
    # failed with numpy's broadcast message.
    cd = random_canonical(4, seed=23)
    with pytest.raises(ValueError, match="target mean must be a length-4 canonical vector"):
        coverage_experiment(cd, None, "spar", 0.05, KNOWN, 3.0, 10,
                            target=TargetSpec(np.array(mu)))


def test_coverage_with_nonzero_target():
    cd = random_canonical(3, seed=17)
    mu = cd.values @ np.array([2.0, -1.0, 0.5])
    est = posi_constant(cd, n_samples=30_000, seed=9)
    res = coverage_experiment(
        cd, None, "spar", 0.05, KNOWN, est, 2_000, seed=10,
        target=TargetSpec(mu),
    )
    assert res.coverage >= 0.95 - 3 * res.binomial_se
    assert len(res.models) == 2_000
