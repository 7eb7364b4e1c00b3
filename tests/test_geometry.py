import itertools
import math

import numpy as np
import pytest

from posikit import (
    CanonicalDesign,
    InfeasibleError,
    ModelUniverse,
    PolytopeSpec,
    direction_stream,
    directions_match_up_to_sign,
    dual_design,
    orthogonality_census,
    polytope_contains,
    posi_constant,
    scheffe_constant,
    verify_duality,
)


def random_spd_design(p, seed=0, form="symmetric"):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, p))
    S = A @ A.T + p * np.eye(p)
    return CanonicalDesign.from_canonical(S, form=form)


# ---------------------------------------------------------------------------
# dual designs
# ---------------------------------------------------------------------------


def test_dual_identity_is_self():
    cd = CanonicalDesign.from_canonical(np.eye(4), form="symmetric")
    np.testing.assert_allclose(dual_design(cd).values, np.eye(4), atol=1e-12)


def test_dual_of_symmetric_is_inverse():
    cd = random_spd_design(4, seed=1)
    np.testing.assert_allclose(
        dual_design(cd).values, np.linalg.inv(cd.values), atol=1e-10
    )


def test_dual_gram_identity():
    cd = random_spd_design(3, seed=2)
    dual = dual_design(cd)
    np.testing.assert_allclose(cd.values.T @ dual.values, np.eye(3), atol=1e-10)


def test_double_dual_returns_original():
    rng = np.random.default_rng(3)
    cd = CanonicalDesign.from_canonical(rng.standard_normal((3, 3)))
    np.testing.assert_allclose(dual_design(dual_design(cd)).values, cd.values,
                               atol=1e-10)


def test_dual_requires_classical_case():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((2, 3))  # d = 2 < p = 3
    with pytest.raises(InfeasibleError):
        dual_design(CanonicalDesign.from_canonical(X))


def test_dual_of_an_exactly_singular_design_is_infeasible():
    # Full rank under a zero rank tolerance, but with an exactly singular
    # Gram matrix: this failed with numpy's bare "Singular matrix".
    X = np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    cd = CanonicalDesign.from_canonical(X, rank_tolerance=0.0)
    with pytest.raises(InfeasibleError, match="^dual design requires full column rank$"):
        dual_design(cd)


# ---------------------------------------------------------------------------
# verify_duality
# ---------------------------------------------------------------------------


def test_duality_orthogonal_trivial():
    cd = CanonicalDesign.from_canonical(np.diag([1.0, 2.0, 3.0]), form="symmetric")
    report = verify_duality(cd)
    assert report.matched_pairs == 12
    assert report.max_direction_mismatch < 1e-10
    assert report.max_norm_product_error < 1e-10


def test_duality_random_symmetric():
    for seed in range(3):
        cd = random_spd_design(4, seed=10 + seed)
        report = verify_duality(cd)
        assert report.matched_pairs == 32
        assert report.max_direction_mismatch < 1e-8
        assert report.max_norm_product_error < 1e-8


def test_direction_sets_equal_for_inverse():
    cd = random_spd_design(4, seed=20)
    inv = CanonicalDesign.from_canonical(np.linalg.inv(cd.values), form="symmetric")
    a = direction_stream(cd, dedup="up_to_sign")
    b = direction_stream(inv, dedup="up_to_sign")
    assert directions_match_up_to_sign(a, b, 1e-8)


def test_duality_constant_invariance_shared_seed():
    cd = random_spd_design(4, seed=21)
    inv = CanonicalDesign.from_canonical(np.linalg.inv(cd.values), form="symmetric")
    ka = posi_constant(cd, n_samples=20_000, seed=5, dedup="up_to_sign")
    kb = posi_constant(inv, n_samples=20_000, seed=5, dedup="up_to_sign")
    assert ka.k == kb.k  # bitwise, shared seed and canonicalized dedup


def test_duality_constant_invariance_independent_seeds():
    cd = random_spd_design(3, seed=22)
    inv = CanonicalDesign.from_canonical(np.linalg.inv(cd.values), form="symmetric")
    ka = posi_constant(cd, n_samples=40_000, seed=100)
    kb = posi_constant(inv, n_samples=40_000, seed=200)
    tol = 3 * math.hypot(ka.mc_standard_error, kb.mc_standard_error)
    assert abs(ka.k - kb.k) < tol


# ---------------------------------------------------------------------------
# orthogonality census
# ---------------------------------------------------------------------------


def census_oracle(vectors, tol):
    n = len(vectors)
    counts = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if abs(float(np.dot(vectors[i], vectors[j]))) < tol:
            counts[i] += 1
            counts[j] += 1
    return counts


def test_census_matches_exhaustive_table_p2():
    rng = np.random.default_rng(30)
    cd = CanonicalDesign.from_canonical(rng.standard_normal((2, 2)))
    ds = direction_stream(cd)
    report = orthogonality_census(ds)
    oracle = census_oracle([d.vector for d in ds.materialize()], report.tolerance)
    assert report.partner_counts.tolist() == oracle


def test_census_generic_p3_counts_by_model_size():
    # With multiplicity, a direction of a size-m model in a generic design has
    # s 2^(s-1) + k 2^(k-1) orthogonal partners, s = m-1, k = p-m: the nested
    # chains below it and the extensions above it. Verified here against the
    # exhaustive inner-product table.
    rng = np.random.default_rng(31)
    cd = CanonicalDesign.from_canonical(rng.standard_normal((3, 3)))
    ds = direction_stream(cd)
    directions = ds.materialize()
    report = orthogonality_census(ds)
    oracle = census_oracle([d.vector for d in directions], report.tolerance)
    assert report.partner_counts.tolist() == oracle
    for direction, count in zip(directions, report.partner_counts):
        m = direction.model.size
        s, k = m - 1, 3 - m
        expected = (s * 2 ** (s - 1) if s else 0) + (k * 2 ** (k - 1) if k else 0)
        assert count == expected
    assert report.histogram == {2: 6, 4: 6}


@pytest.mark.parametrize("seed", [5, 31, 77])
def test_census_generic_p8_spans_blocks(seed):
    # 8 * 2^7 = 1 024 directions: eight 128-row blocks of the census.
    rng = np.random.default_rng(seed)
    cd = CanonicalDesign.from_canonical(rng.standard_normal((8, 8)))
    batch = direction_stream(cd).whole()
    report = orthogonality_census(direction_stream(cd))
    assert report.partner_counts.size == 1024
    inner = np.abs(batch.vectors @ batch.vectors.T)
    assert report.partner_counts.tolist() == np.count_nonzero(
        inner < report.tolerance, axis=1).tolist()
    sizes = np.array([bin(mask).count("1") for mask in batch.masks.tolist()])
    s, k = sizes - 1, 8 - sizes
    expected = np.where(s > 0, s * 2.0 ** (s - 1), 0) + np.where(k > 0, k * 2.0 ** (k - 1), 0)
    assert report.partner_counts.tolist() == expected.astype(int).tolist()
    assert orthogonality_census(batch.vectors).partner_counts.tolist() == \
        report.partner_counts.tolist()
    # 8 + 2 * 28 + 3 * 56 = 232 directions: a full block and a partial one.
    vectors = direction_stream(cd, ModelUniverse.of_max_size(3)).matrix()
    inner = np.abs(vectors @ vectors.T)
    assert orthogonality_census(vectors).partner_counts.tolist() == np.count_nonzero(
        inner < report.tolerance, axis=1).tolist()


def test_census_orthogonal_design_all_pairs():
    cd = CanonicalDesign.from_canonical(np.eye(4))
    report = orthogonality_census(direction_stream(cd, dedup="up_to_sign"))
    assert report.partner_counts.tolist() == [3, 3, 3, 3]


# ---------------------------------------------------------------------------
# polytope membership
# ---------------------------------------------------------------------------


def test_polytope_contains_scheffe_ball():
    rng = np.random.default_rng(40)
    cd = CanonicalDesign.from_canonical(rng.standard_normal((3, 3)))
    k = 2.5
    poly = PolytopeSpec(direction_stream(cd), k)
    for _ in range(50):
        z = rng.standard_normal(3)
        z *= k * rng.uniform(0, 1) / np.linalg.norm(z)
        assert polytope_contains(poly, z)


def test_polytope_face_violation():
    rng = np.random.default_rng(41)
    cd = CanonicalDesign.from_canonical(rng.standard_normal((3, 3)))
    k = 2.0
    poly = PolytopeSpec(direction_stream(cd), k)
    for direction in direction_stream(cd):
        assert not polytope_contains(poly, (k + 1e-6) * direction.vector)


def test_polytope_tangency_points_on_boundary():
    # K l* attains the slab boundary: contained for any half-width above k,
    # excluded for any half-width below. Exact-boundary membership is a
    # one-ulp coin flip, so tangency is pinned from both sides.
    rng = np.random.default_rng(42)
    cd = CanonicalDesign.from_canonical(rng.standard_normal((3, 3)))
    k = 1.7
    ds = direction_stream(cd)
    inner = PolytopeSpec(ds, k * (1 - 1e-9))
    outer = PolytopeSpec(ds, k * (1 + 1e-9))
    for direction in direction_stream(cd):
        z = k * direction.vector
        assert abs(float(np.dot(direction.vector, z))) == pytest.approx(k, rel=1e-12)
        assert polytope_contains(outer, z)
        assert not polytope_contains(inner, z)


def test_polytope_scale_similarity():
    rng = np.random.default_rng(43)
    cd = CanonicalDesign.from_canonical(rng.standard_normal((3, 3)))
    ds = direction_stream(cd)
    for _ in range(25):
        z = rng.standard_normal(3) * 2
        c = float(rng.uniform(0.2, 5.0))
        assert polytope_contains(PolytopeSpec(ds, 2.0), z) == polytope_contains(
            PolytopeSpec(ds, 2.0 * c), c * z
        )


def test_polytope_point_symmetry():
    rng = np.random.default_rng(44)
    cd = CanonicalDesign.from_canonical(rng.standard_normal((4, 4)))
    poly = PolytopeSpec(direction_stream(cd), 2.2)
    for _ in range(25):
        z = rng.standard_normal(4) * 1.5
        assert polytope_contains(poly, z) == polytope_contains(poly, -z)


def test_scheffe_radius_means_contained():
    # ||z|| <= K implies membership for every unit-vector family
    cd = random_spd_design(3, seed=45)
    k = scheffe_constant(0.05, 3).k
    poly = PolytopeSpec(direction_stream(cd), k)
    rng = np.random.default_rng(46)
    z = rng.standard_normal(3)
    z *= k / np.linalg.norm(z)
    assert polytope_contains(poly, z)
