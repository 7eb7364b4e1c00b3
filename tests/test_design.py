import io
import itertools
import math

import numpy as np
import pytest

from posikit import (
    CanonicalDesign,
    DataError,
    DesignMatrix,
    InfeasibleError,
    ModelId,
    ModelUniverse,
    adjusted_predictor,
    canonicalize,
    direction_stream,
    enumerate_models,
    load_design,
    spar_select,
    vif,
)
from posikit.design import _text_rows
from posikit.lattice import _members


def random_design(p, n=None, seed=0):
    rng = np.random.default_rng(seed)
    n = n or p + 3
    dm = DesignMatrix(rng.standard_normal((n, p)),
                      tuple(f"x{j}" for j in range(1, p + 1)))
    return canonicalize(dm)


def brute_force_directions(X, tol=1e-12):
    """Per-model least-squares route, independent of the level-wise enumerator."""
    p = X.shape[1]
    out = []
    for r in range(1, p + 1):
        for cols in itertools.combinations(range(p), r):
            sub = X[:, cols]
            if np.linalg.matrix_rank(sub, tol=1e-8) < r:
                continue
            for j in cols:
                others = [k for k in cols if k != j]
                if others:
                    A = X[:, others]
                    res = X[:, j] - A @ np.linalg.solve(A.T @ A, A.T @ X[:, j])
                else:
                    res = X[:, j].copy()
                out.append((j + 1, frozenset(c + 1 for c in cols),
                            res / np.linalg.norm(res)))
    return out


# ---------------------------------------------------------------------------
# load_design
# ---------------------------------------------------------------------------


def test_load_identity_no_header():
    dm = load_design(io.StringIO("1 0\n0 1\n"))
    assert (dm.n, dm.p, dm.rank) == (2, 2, 2)
    assert dm.column_names == ("x1", "x2")


def test_load_duplicate_column_rank_drop():
    dm = load_design(io.StringIO("1,2,1\n3,4,3\n5,6,5\n"))
    assert dm.p == 3
    assert dm.rank == 2  # duplicated column: load succeeds, rank reported


def test_load_header_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    values = rng.standard_normal((5, 3))
    path = tmp_path / "design.csv"
    with open(path, "w") as fh:
        fh.write("alpha,beta,gamma\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    dm = load_design(path, header=True)
    assert dm.column_names == ("alpha", "beta", "gamma")
    np.testing.assert_allclose(dm.values, values, rtol=0, atol=0)


def test_load_intercept_prepended():
    dm = load_design(io.StringIO("1 2\n3 4\n5 7\n"), intercept=True)
    assert dm.column_names[0] == "intercept"
    assert np.all(dm.values[:, 0] == 1.0)
    assert dm.p == 3


def test_load_reports_bad_cell_position():
    with pytest.raises(DataError, match="row 2, column 3"):
        load_design(io.StringIO("1 2 3\n4 5 oops\n"))


def test_load_ragged_rows():
    with pytest.raises(DataError, match="ragged"):
        load_design(io.StringIO("1 2 3\n4 5\n"))


def test_load_empty_table():
    with pytest.raises(DataError, match="empty"):
        load_design(io.StringIO("\n\n"))


def test_load_accepts_a_utf8_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with a BOM.
    path = tmp_path / "bom.csv"
    path.write_bytes("a,b\n1,2\n3,5\n".encode("utf-8-sig"))
    for source in (path, io.StringIO("\ufeffa,b\n1,2\n3,5\n")):
        dm = load_design(source, header=True)
        assert dm.column_names == ("a", "b")
        np.testing.assert_array_equal(dm.values, [[1.0, 2.0], [3.0, 5.0]])
    path.write_bytes("1,2\n3,5\n".encode("utf-8-sig"))
    np.testing.assert_array_equal(load_design(path).values, [[1.0, 2.0], [3.0, 5.0]])


def test_design_classes_keep_their_public_behaviour():
    X = np.array([[1.0, 2.0], [3.0, 5.0], [0.0, 1.0]])
    dm = DesignMatrix(X, ["a", "b"], 1e-8)
    same = DesignMatrix(values=X, column_names=("a", "b"), rank_tolerance=1e-8)
    for m in (dm, same):
        assert m.column_names == ("a", "b") and m.rank_tolerance == 1e-8
        np.testing.assert_array_equal(m.values, X)
        np.testing.assert_allclose(m.singular_values, np.linalg.svd(X, compute_uv=False))
        assert (m.n, m.p, m.rank) == (3, 2, 2)
    assert DesignMatrix(X, ("a", "b")).rank_tolerance == 1e-10
    assert repr(DesignMatrix(np.eye(1), ("a",))) == (
        "DesignMatrix(values=array([[1.]]), column_names=('a',), rank_tolerance=1e-10)")
    cd = canonicalize(dm)
    again = CanonicalDesign(values=cd.values, basis=cd.basis, form=cd.form,
                            column_names=cd.column_names, rank_tolerance=1e-8)
    for c in (cd, again):
        assert c.form == "upper_triangular" and c.rank_tolerance == 1e-8
        np.testing.assert_allclose(c.rank_limits, 1e-8 * np.linalg.norm(X, axis=0))
    assert repr(CanonicalDesign.from_canonical(np.eye(1), column_names=["a"])) == (
        "CanonicalDesign(values=array([[1.]]), basis=array([[1.]]), form='unspecified', "
        "column_names=('a',), rank_tolerance=1e-10)")
    for obj, name in ((dm, "values"), (dm, "singular_values"), (cd, "basis"),
                      (cd, "rank_limits"), (cd, "new_field")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    # Validation, with the messages as before.
    for args, error, message in [
        ((np.ones(3), ("a",)), DataError, "2-d matrix"),
        ((np.array([[np.nan]]), ("a",)), DataError, "non-finite"),
        ((X, ("a",)), ValueError, "column_names length"),
        ((X, ("a", "b"), -1.0), ValueError, "rank_tolerance must be nonnegative"),
    ]:
        with pytest.raises(error, match=message):
            DesignMatrix(*args)
    for args, message in [
        ((np.ones(3), np.eye(3), "unspecified", ("a",)), "must be 2-d"),
        ((np.eye(2), np.eye(3), "unspecified", ("a", "b")), "basis must be n x d"),
        ((np.eye(2), np.eye(2), "lower", ("a", "b")), "unknown canonical form 'lower'"),
    ]:
        with pytest.raises(ValueError, match=message):
            CanonicalDesign(*args)
    with pytest.raises(TypeError):
        DesignMatrix(X, ("a", "b"), singular_values=np.ones(2))


@pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_rank_tolerance_must_be_finite_and_nonnegative(tolerance):
    # A negative or NaN tolerance would let rank-deficient models through
    # the rank rule: [a, b, a] would give 12 directions, none skipped.
    a, b = np.random.default_rng(0).standard_normal((2, 4))
    message = "^rank_tolerance must be nonnegative and finite, got "
    with pytest.raises(ValueError, match=message):
        DesignMatrix(np.column_stack([a, b, a]), ("a", "b", "c"), tolerance)
    with pytest.raises(ValueError, match=message):
        CanonicalDesign.from_canonical(np.column_stack([a, b, a]), rank_tolerance=tolerance)
    with pytest.raises(ValueError, match=message):
        load_design(io.StringIO("1,2\n3,4\n"), rank_tolerance=tolerance)
    cd = CanonicalDesign.from_canonical(np.column_stack([a, b, a]), rank_tolerance=0.0)
    assert cd.rank_tolerance == 0.0


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------


def test_canonicalize_identity_both_forms():
    dm = DesignMatrix(np.eye(3), ("a", "b", "c"))
    for form in ("upper_triangular", "symmetric"):
        cd = canonicalize(dm, form=form)
        np.testing.assert_allclose(cd.values, np.eye(3), atol=1e-12)


def test_canonicalize_diagonal_preserves_column_norms():
    dm = DesignMatrix(np.diag([2.0, 3.0]), ("a", "b"))
    for form in ("upper_triangular", "symmetric"):
        cd = canonicalize(dm, form=form)
        np.testing.assert_allclose(cd.values, np.diag([2.0, 3.0]), atol=1e-12)


@pytest.mark.parametrize("form", ["upper_triangular", "symmetric"])
def test_canonicalize_gram_preserved(form):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((6, 3))
    dm = DesignMatrix(X, ("a", "b", "c"))
    cd = canonicalize(dm, form=form)
    gram = X.T @ X
    assert np.abs(cd.gram() - gram).max() <= 1e-10 * np.linalg.norm(gram)
    # the basis actually reproduces the reduction
    np.testing.assert_allclose(cd.basis.T @ cd.basis, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(cd.basis.T @ X, cd.values, atol=1e-10)


def test_canonicalize_upper_triangular_shape():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 4))
    cd = canonicalize(DesignMatrix(X, tuple("abcd")))
    assert np.abs(np.tril(cd.values, -1)).max() < 1e-10
    assert np.all(np.diag(cd.values) > 0)


def test_canonicalize_rank_deficient_gram_preserved():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((7, 2))
    X = B @ rng.standard_normal((2, 4))  # rank 2, p = 4
    dm = DesignMatrix(X, tuple("abcd"))
    assert dm.rank == 2
    cd = canonicalize(dm)
    assert cd.d == 2 and cd.p == 4
    gram = X.T @ X
    assert np.abs(cd.gram() - gram).max() <= 1e-10 * np.linalg.norm(gram)


def test_canonicalize_symmetric_requires_full_column_rank():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    with pytest.raises(InfeasibleError):
        canonicalize(DesignMatrix(X, ("a", "b")), form="symmetric")


def test_left_rotation_invariance():
    # replacing X by QX with orthonormal Q leaves the canonical Gram unchanged
    rng = np.random.default_rng(9)
    X = rng.standard_normal((6, 3))
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    cd1 = canonicalize(DesignMatrix(X, ("a", "b", "c")))
    cd2 = canonicalize(DesignMatrix(Q @ X, ("a", "b", "c")))
    np.testing.assert_allclose(cd1.gram(), cd2.gram(), atol=1e-10)
    np.testing.assert_allclose(cd1.values, cd2.values, atol=1e-9)


# ---------------------------------------------------------------------------
# ModelUniverse / enumerate_models
# ---------------------------------------------------------------------------


def test_enumerate_all_p4():
    cd = random_design(4)
    models = list(enumerate_models(cd, ModelUniverse.all()))
    assert len(models) == 15
    assert len(set(models)) == 15


def test_enumerate_forced_first():
    cd = random_design(4)
    models = list(enumerate_models(cd, ModelUniverse.forcing(1)))
    assert len(models) == 8  # 2^(p - p') with p' = 1
    assert all(1 in m for m in models)


def test_enumerate_max_size():
    cd = random_design(4)
    models = list(enumerate_models(cd, ModelUniverse.of_max_size(2)))
    assert len(models) == 10  # C(4,1) + C(4,2)


def test_enumerate_min_size_and_intersection():
    cd = random_design(4)
    u = ModelUniverse.of_min_size(3) & ModelUniverse.forcing(2)
    models = list(enumerate_models(cd, u))
    assert len(models) == 4  # sizes 3,4 containing predictor 2: C(3,2)+1
    assert all(2 in m and m.size >= 3 for m in models)


def test_enumerate_nested():
    cd = random_design(5)
    models = list(enumerate_models(cd, ModelUniverse.nested_chain()))
    assert models == [ModelId(range(1, k + 1)) for k in range(1, 6)]


def test_enumerate_explicit():
    cd = random_design(4)
    wanted = [ModelId([1, 3]), ModelId([2]), ModelId([1, 2, 4])]
    models = list(enumerate_models(cd, ModelUniverse.explicit(wanted)))
    assert sorted(models) == sorted(wanted)


def test_enumerate_skips_rank_deficient():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((6, 3))
    X = np.hstack([X, (X[:, :1] + X[:, 1:2])])  # col4 = col1 + col2
    cd = canonicalize(DesignMatrix(X, tuple("abcd")))
    models = set(enumerate_models(cd, ModelUniverse.all()))
    assert ModelId([1, 2, 4]) not in models
    assert ModelId([1, 2, 3, 4]) not in models
    assert ModelId([1, 3, 4]) in models
    assert len(models) == 13  # 15 minus the two deficient subsets


def test_enumerate_empty_universe_raises():
    cd = random_design(3)
    X = np.hstack([cd.values[:, :1], cd.values[:, :1]])  # duplicate columns
    dup = CanonicalDesign.from_canonical(X)
    with pytest.raises(InfeasibleError):
        list(enumerate_models(dup, ModelUniverse.of_min_size(2)))


def test_universe_spec_round_trip():
    for spec in ["all", "size<=2", "size>=3&forced=1,2", "nested",
                 "forced=2&size<=3", "models=1,2;1,3"]:
        u = ModelUniverse.from_spec(spec, p=4)
        again = ModelUniverse.from_spec(u.spec_string(), p=4)
        assert again == u


def test_universe_spec_p_arithmetic():
    u = ModelUniverse.from_spec("size>p-2", p=5)
    assert u.min_size == 4
    assert u.spec_string() == "size>=4"


# ---------------------------------------------------------------------------
# adjusted_predictor / vif
# ---------------------------------------------------------------------------


def test_adjusted_orthogonal_no_effect():
    cd = CanonicalDesign.from_canonical(np.diag([1.0, 2.0, 3.0]))
    for j in (1, 2, 3):
        vec, norm = adjusted_predictor(cd, ModelId([1, 2, 3]), j)
        np.testing.assert_allclose(vec, cd.column(j), atol=1e-12)
        assert norm == pytest.approx(float(j), abs=1e-12)


def test_adjusted_hand_case():
    cd = CanonicalDesign.from_canonical(np.array([[1.0, 1.0], [0.0, 1.0]]))
    vec, norm = adjusted_predictor(cd, ModelId([1, 2]), 2)
    np.testing.assert_allclose(vec, [0.0, 1.0], atol=1e-12)
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_adjusted_orthogonality_via_projection_oracle():
    rng = np.random.default_rng(12)
    cd = CanonicalDesign.from_canonical(rng.standard_normal((4, 4)))
    model = ModelId([1, 2, 3])
    vec, norm = adjusted_predictor(cd, model, 2)
    for other in (1, 3):
        assert abs(np.dot(vec, cd.column(other))) < 1e-10
    # explicit projection-matrix oracle
    A = cd.values[:, [0, 2]]
    P = A @ np.linalg.inv(A.T @ A) @ A.T
    np.testing.assert_allclose(vec, (np.eye(4) - P) @ cd.column(2), atol=1e-10)


def test_adjusted_requires_membership():
    cd = random_design(3)
    with pytest.raises(ValueError):
        adjusted_predictor(cd, ModelId([1, 2]), 3)


def test_adjusted_degenerate_norm():
    X = np.array([[1.0, 1.0 + 1e-14], [0.0, 0.0]])
    cd = CanonicalDesign.from_canonical(X)
    with pytest.raises(DataError):
        adjusted_predictor(cd, ModelId([1, 2]), 2)


def test_adjusted_zero_column_is_degenerate():
    # One-member models get the tau test too: a zero column has no direction.
    cd = CanonicalDesign.from_canonical(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DataError, match="degenerate"):
        adjusted_predictor(cd, ModelId([2]), 2)
    with pytest.raises(DataError, match="degenerate"):
        vif(cd, ModelId([2]), 2)
    with pytest.raises(DataError, match="rank deficient"):
        adjusted_predictor(cd, ModelId([1, 2]), 1)
    vec, norm = adjusted_predictor(cd, ModelId([1]), 1)
    assert norm == 1.0 and np.array_equal(vec, [1.0, 0.0])


def test_vif_orthogonal_is_one():
    cd = CanonicalDesign.from_canonical(np.diag([1.0, 2.0]))
    assert vif(cd, ModelId([1, 2]), 2) == pytest.approx(1.0, abs=1e-12)


def test_vif_hand_case():
    cd = CanonicalDesign.from_canonical(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert vif(cd, ModelId([1, 2]), 2) == pytest.approx(2.0, abs=1e-12)


def test_vif_near_collinear_exceeds_threshold():
    X = np.array([[1.0, 1.0], [0.0, 1e-6]])
    cd = CanonicalDesign.from_canonical(X)
    assert vif(cd, ModelId([1, 2]), 2) > 1e10


# ---------------------------------------------------------------------------
# direction_stream
# ---------------------------------------------------------------------------


def test_direction_count_generic_p3():
    cd = random_design(3)
    assert direction_stream(cd).count == 12  # p * 2^(p-1)


def test_direction_count_p2_orthogonal_pair():
    cd = CanonicalDesign.from_canonical(np.diag([1.0, 2.0]))
    assert direction_stream(cd, dedup="up_to_sign").count == 2


def test_direction_count_fully_orthogonal_dedup():
    cd = CanonicalDesign.from_canonical(np.diag([1.0, 2.0, 3.0]))
    ds = direction_stream(cd, dedup="up_to_sign")
    assert ds.count == 3
    assert direction_stream(cd).count == 12  # duplicates kept when streaming


def test_direction_count_single_orthogonal_pair_p3():
    # Exactly one orthogonal column pair. Each of the two colliding pairs
    # (j, {j}) vs (j, {1,2}) collapses, nothing else can: any cross-model
    # coincidence would force a rank deficiency. Hence 12 - 2 = 10 classes,
    # confirmed by the brute-force oracle below.
    X = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.5], [0.0, 0.0, 0.9]])
    cd = CanonicalDesign.from_canonical(X)
    ds = direction_stream(cd, dedup="up_to_sign")
    assert ds.count == 10
    brute = brute_force_directions(X)
    kept = []
    for _, _, v in brute:
        if not any(min(np.linalg.norm(v - w), np.linalg.norm(v + w)) < 1e-8
                   for w in kept):
            kept.append(v)
    assert len(kept) == 10


def test_direction_invariants_unit_and_orthogonal():
    cd = random_design(4, seed=21)
    for direction in direction_stream(cd):
        assert abs(np.linalg.norm(direction.vector) - 1.0) < 1e-10
        assert direction.predictor in direction.model
        for other in direction.model.members:
            if other != direction.predictor:
                assert abs(np.dot(direction.vector, cd.column(other))) < 1e-10


def test_direction_stream_matches_brute_force():
    for p, seed in [(2, 0), (3, 1), (3, 2)]:
        cd = random_design(p, seed=seed)
        stream = {(d.predictor, frozenset(d.model.members)): d.vector
                  for d in direction_stream(cd)}
        brute = brute_force_directions(cd.values)
        assert len(stream) == len(brute)
        for j, members, vec in brute:
            got = stream[(j, members)]
            assert min(np.linalg.norm(got - vec),
                       np.linalg.norm(got + vec)) < 1e-10


def test_gram_schmidt_chain_orthonormal():
    cd = random_design(5, seed=33)
    chain = {}
    for direction in direction_stream(cd):
        members = direction.model.members
        if members == tuple(range(1, direction.model.size + 1)) \
                and direction.predictor == members[-1]:
            chain[direction.predictor] = direction.vector
    basis = np.stack([chain[k] for k in range(1, 6)])
    np.testing.assert_allclose(basis @ basis.T, np.eye(5), atol=1e-10)


def test_column_scaling_invariance():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4, 4))
    scales = np.array([0.5, 2.0, 7.0, 0.01])
    a = {(d.predictor, d.model.mask): d.vector
         for d in direction_stream(CanonicalDesign.from_canonical(X))}
    b = {(d.predictor, d.model.mask): d.vector
         for d in direction_stream(CanonicalDesign.from_canonical(X * scales))}
    assert a.keys() == b.keys()
    for key, vec in a.items():
        assert min(np.linalg.norm(b[key] - vec),
                   np.linalg.norm(b[key] + vec)) < 1e-10


def test_degenerate_pairs_skipped_with_count():
    X = np.array([[1.0, 1.0, 0.3], [0.0, 1e-13, 0.7], [0.0, 0.0, 0.4]])
    cd = CanonicalDesign.from_canonical(X)
    ds = direction_stream(cd)
    n = ds.count
    assert ds.degenerate_skips > 0
    assert n + ds.degenerate_skips <= 12


def test_emitted_count_before_dedup():
    cd = CanonicalDesign.from_canonical(np.eye(4))
    ds = direction_stream(cd, dedup="up_to_sign")
    assert ds.count == 4
    assert ds.emitted_count == 4 * 2 ** 3


def test_model_id_basics():
    m = ModelId([3, 1])
    assert m.members == (1, 3)
    assert 1 in m and 2 not in m
    assert m.size == 2
    with pytest.raises(ValueError):
        ModelId([])
    with pytest.raises(ValueError):
        ModelId([0])


def test_direction_count_nested_universe():
    cd = random_design(4, seed=40)
    ds = direction_stream(cd, ModelUniverse.nested_chain())
    assert ds.count == 4 * 5 // 2  # sum of model sizes over the chain


def test_models_beyond_62_columns():
    # Model masks no longer fit an int64 here, so they are held as Python ints.
    cd = CanonicalDesign.from_canonical(np.diag(np.arange(1.0, 65.0)))
    singles = ModelUniverse.of_max_size(1)
    assert direction_stream(cd, singles).count == 64
    y = np.zeros(64)
    y[63] = 5.0
    assert spar_select(cd, y, 1.0, singles) == (ModelId([64]), 5.0)
    listed = ModelUniverse.explicit([[64], [1, 64]])
    assert list(enumerate_models(cd, listed)) == [ModelId([64]), ModelId([1, 64])]
    assert direction_stream(cd, listed, dedup="up_to_sign").count == 2


def test_text_inputs_share_one_grammar(tmp_path):
    # A byte-order mark, comments, blank lines, and cells split on commas and
    # whitespace, empty cells included, read the same from a path or a stream.
    path = tmp_path / "table.txt"
    path.write_bytes("\ufeff# note\n\n 1, 2\t3 \n4,,5 6\n".encode("utf-8"))
    rows = [(3, ["1", "2", "3"]), (4, ["4", "5", "6"])]
    assert list(_text_rows(str(path), "table")) == rows
    assert list(_text_rows(io.StringIO(path.read_text(encoding="utf-8")), "table")) == rows
    assert np.array_equal(load_design(str(path)).values, [[1, 2, 3], [4, 5, 6]])
    assert ModelUniverse.from_spec(f"file={path}", p=6).explicit_masks == {0b111, 0b111000}


def test_unreadable_text_is_a_data_error_naming_the_input(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1,2\n3,\xe9\n")  # not UTF-8
    with pytest.raises(DataError, match="cannot read design .*latin1.txt'"):
        load_design(str(path))
    with pytest.raises(DataError, match="cannot read model list .*latin1.txt'"):
        ModelUniverse.from_spec(f"file={path}")
    with pytest.raises(DataError, match="cannot read design .*missing.csv'"):
        load_design(str(tmp_path / "missing.csv"))


@pytest.mark.parametrize("cells, p", [
    ([], 3), ([], None), (["0"], 3), (["-1"], None), (["4"], 3), (["1.5"], 3),
    (["a"], None), (["1", "x"], 3)])
def test_members_refuses_an_empty_or_bad_list(cells, p):
    with pytest.raises(ValueError, match="members must be integers "
                                         + (r"in 1\.\.3" if p else ">= 1")):
        _members(cells, p)


def test_specs_without_p_build_the_api_universes():
    # With p unknown nothing bounds a member from above, so these universes
    # list members beyond a later design's p, as the constructors can.
    assert ModelUniverse.from_spec("forced=12") == ModelUniverse.forcing(12)
    assert (ModelUniverse.from_spec("models=1,2;1,2,3;2,9&size<=2")
            == ModelUniverse.explicit([[1, 2], [1, 2, 3], [2, 9]])
            & ModelUniverse.of_max_size(2))
    for spec, p in (("forced=12", 10), ("models=1,2;2,9", 8)):
        with pytest.raises(ValueError, match=rf"members must be integers in 1\.\.{p}"):
            ModelUniverse.from_spec(spec, p=p)


def test_universe_from_file(tmp_path):
    path = tmp_path / "models.txt"
    path.write_text("1,2\n3\n# comment\n2,4\n")
    u = ModelUniverse.from_spec(f"file={path}", p=4)
    cd = random_design(4, seed=41)
    models = sorted(enumerate_models(cd, u))
    assert models == sorted([ModelId([1, 2]), ModelId([3]), ModelId([2, 4])])
    assert u.spec_string() == f"file={path}"


def test_universe_file_accepts_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "models.txt"
    path.write_bytes("1,2\n3\n".encode("utf-8-sig"))
    u = ModelUniverse.from_spec(f"file={path}", p=4)
    assert u.explicit_masks == {0b11, 0b100}


@pytest.mark.parametrize("lines, line", [
    ("1,2\n3,x\n", 2),      # not an integer
    ("1,2\n\n0,1\n", 3),   # below 1
    ("1,2\n3,9\n", 2),      # beyond p = 4
    ("# models\n1.5\n", 2),
])
def test_universe_file_rejects_bad_members_by_line(tmp_path, lines, line):
    path = tmp_path / "models.txt"
    path.write_text(lines)
    with pytest.raises(DataError, match=rf"model list .*models\.txt', line {line}: "
                                        r"members must be integers in 1\.\.4"):
        ModelUniverse.from_spec(f"file={path}", p=4)


def test_universe_file_without_p_bounds_members_from_below(tmp_path):
    path = tmp_path / "models.txt"
    path.write_text("3,9\n")
    # Without p nothing bounds a member from above; below 1 is still an error.
    assert ModelUniverse.from_spec(f"file={path}").explicit_masks == {0b100000100}
    path.write_text("0\n")
    with pytest.raises(DataError, match="line 1: members must be integers >= 1"):
        ModelUniverse.from_spec(f"file={path}")


def test_explicit_universe_api_still_drops_models_beyond_p():
    cd = random_design(4, seed=41)
    listed = ModelUniverse.explicit([[1, 2], [3, 9]])
    assert list(enumerate_models(cd, listed)) == [ModelId([1, 2])]
    assert direction_stream(cd, listed).count == 2


def test_universe_size_less_than():
    u = ModelUniverse.from_spec("size<3", p=5)
    assert u.max_size == 2


def test_dedup_retained_vectors_are_separated():
    cd = random_design(4, seed=77)
    ds = direction_stream(cd, dedup="up_to_sign")
    dirs = ds.materialize()
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            v, w = dirs[i].vector, dirs[j].vector
            assert min(np.linalg.norm(v - w), np.linalg.norm(v + w)) >= 1e-8
