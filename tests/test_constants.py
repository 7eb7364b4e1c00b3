import math
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy import stats

from posikit import (
    CanonicalDesign,
    DirectionSet,
    ErrorModel,
    InfeasibleError,
    ModelUniverse,
    asymptotic_cap_constant,
    cap_bonferroni_bound,
    canonicalize,
    coverage_experiment,
    direction_stream,
    exchangeable_ratio_table,
    max_abs_t_draws,
    orth_constant,
    posi1_constant,
    posi_constant,
    scheffe_constant,
    worst_posi1_table,
)
from posikit import _rng, constants
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


def test_posi1_walks_once_over_the_predictors_pairs(monkeypatch):
    import posikit.lattice

    walks, emitted = [], []
    walker = posikit.lattice._level_batches

    def counting(design, universe, predictor=None, **kwargs):
        walks.append(predictor)
        for batch in walker(design, universe, predictor, **kwargs):
            emitted.extend(batch.predictors.tolist())
            yield batch

    monkeypatch.setattr(posikit.lattice, "_level_batches", counting)
    cd = random_canonical(5, seed=4)
    est = posi1_constant(cd, predictor=3, n_samples=2_000, seed=0)
    assert walks == [3]
    assert set(emitted) == {3}
    assert est.direction_count == len(emitted) == 2 ** 4
    # Given only the predictor, the set forces it in its universe.
    unforced = DirectionSet(cd, predictor=3)
    assert unforced.universe == ModelUniverse.forcing(3)
    assert {direction.predictor for direction in unforced} == {3}
    assert unforced.count == 2 ** 4
    walks.clear()
    u = ModelUniverse.explicit([[1], [1, 2]])
    with pytest.raises(InfeasibleError) as info:
        posi1_constant(cd, u, predictor=3, n_samples=2_000, seed=0)
    assert str(info.value) == "no model in the universe contains predictor 3"
    assert walks == [3]


# K and its standard error on a seeded 10 x 6 design, as float.hex(). Any
# change to the draws, the fold or the rounding of the directions that moves
# a bit shows here. Recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64;
# another BLAS may round the last bits differently.
GOLDEN = {
    ("posi", math.inf): ("0x1.8bfa7e57e229fp+1", "0x1.6c1c64679e662p-6"),
    ("posi", 20): ("0x1.b69596b007037p+1", "0x1.03a5572ed8534p-5"),
    ("posi1", math.inf): ("0x1.5aa2084fcb0eap+1", "0x1.60a270ef99f05p-6"),
    ("posi1", 20): ("0x1.7f5131478c694p+1", "0x1.f0fcab111cecfp-6"),
}


@pytest.mark.parametrize("name, df", list(GOLDEN))
def test_golden_constants(name, df):
    X = np.random.default_rng(2013).standard_normal((10, 6))
    cd = canonicalize(DesignMatrix(X, tuple(f"x{j}" for j in range(1, 7))))
    em = ErrorModel(df)
    if name == "posi":
        est = posi_constant(cd, error_model=em, n_samples=5000, seed=7)
    else:
        est = posi1_constant(cd, predictor=2, error_model=em, n_samples=5000, seed=7)
    assert (est.k.hex(), est.mc_standard_error.hex()) == GOLDEN[name, df]


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


class BarrierSet(DirectionSet):
    """A direction set whose chunk stream waits at a barrier before its
    first chunk."""

    def __init__(self, *args, barrier, **kwargs):
        super().__init__(*args, **kwargs)
        self.barrier = barrier

    def chunks(self, size=None):
        self.barrier.wait()
        yield from super().chunks(size)


def test_screen_cuts_fold_work_and_keeps_k(monkeypatch):
    # posi_constant's fold work as a share of the unscreened fold's, bounded
    # by the measured share plus 3 points. On the 14 x 10 design the float32
    # stage multiplies 11% of the direction x draw columns and the float64
    # stage 2%; on the 10 x 10 identity, 0.7% and 5.3%.
    columns = []
    real = constants._fold_chunk_max

    def counting(chunk, zt, best, buf):
        columns.append(chunk.shape[0] * zt.shape[1])
        real(chunk, zt, best, buf)

    monkeypatch.setattr(constants, "_fold_chunk_max", counting)
    idx = constants.conservative_quantile_index(0.05, 20_000)
    for cd, share in ((random_canonical(10, seed=10, n=14), 0.13 + 0.03),
                      (CanonicalDesign.from_canonical(np.eye(10)), 0.06 + 0.03)):
        columns.clear()
        exact = max_abs_t_draws(direction_stream(cd), n_samples=20_000, seed=3)
        unscreened = sum(columns)
        columns.clear()
        est = posi_constant(cd, n_samples=20_000, seed=3)
        assert sum(columns) < share * unscreened
        assert est.k == np.sort(exact)[idx - 1]


def test_one_direction_cone_is_its_direction():
    # A group of one direction has that direction as its center and the
    # angle margin alone as its half-angle, so its test is tight: a floor at
    # |l'z| / sigma keeps it and a floor 1e-4 above prunes it. The rounding
    # margins alone keep it at zero slack.
    d = 5
    row = np.random.default_rng(1).standard_normal((1, d))
    row /= np.linalg.norm(row)
    tests = constants._cone_tests(row, np.array([0]))
    assert tests.shape == (2, d + 3)
    assert np.array_equal(tests[0, :d], row[0].astype(np.float32))
    assert np.array_equal(tests[1, :d], -row[0].astype(np.float32))
    theta = math.atan2(tests[0, d + 1], -tests[0, d])
    assert theta == pytest.approx(constants._CONE_ANGLE_MARGIN, rel=1e-3)
    z = np.vstack([3.0 * row[0], -2.0 * row[0] + 0.5 * np.eye(d)[0]])
    norm = np.linalg.norm(z, axis=1)
    sigma = np.array([1.0, 0.7])
    slack = constants._float32_slack(d) * norm / sigma
    zt32 = np.zeros((d + 3, 2), dtype=np.float32)
    zt32[:d] = z.T
    exact = np.abs(z @ row[0]) / sigma
    for s in (slack, np.zeros(2)):
        assert np.all(constants._cone_reach(row, np.array([0]), zt32, norm, sigma, s,
                                            exact) >= 0)
        assert np.all(constants._cone_reach(row, np.array([0]), zt32, norm, sigma, s,
                                            exact * (1 + 1e-4)) < 0)


def test_one_row_chunk_folds_through_its_cone(monkeypatch):
    # 12 directions in chunks of 11 leave a last chunk of one row, pruned by
    # its cone. The zero direction that pads its float64 product belongs to
    # no cone: the group product has the chunk's one row. K and its standard
    # error are those of the exact draws.
    cd = random_canonical(3, seed=2)
    exact = max_abs_t_draws(direction_stream(cd), n_samples=3_000, seed=9)
    real, rows = constants._fold_chunk_max, []

    def noting(chunk, zt, best, buf):
        rows.append((chunk.dtype.name, chunk.shape[0], bool(np.any(chunk[-1]))))
        real(chunk, zt, best, buf)

    monkeypatch.setattr(constants, "_DIRECTION_CHUNK", 11)
    monkeypatch.setattr(constants, "_CONE_FOLD_MIN", 0)
    monkeypatch.setattr(constants, "_fold_chunk_max", noting)
    est = posi_constant(cd, n_samples=3_000, seed=9)
    idx = constants.conservative_quantile_index(0.05, 3_000)
    assert est.k == np.sort(exact)[idx - 1]
    assert est.mc_standard_error == constants._mc_standard_error(exact, 0.05)
    # The largest models come first: the one-row chunk's pilot tiles, its
    # row padded, then its cone's group product, of its one row. In the
    # exact stage its float64 refold, padded, comes before the 11-row
    # chunk's.
    small = [r for r in rows if r[1] <= 2]
    assert set(small[:-2]) == {("float32", 2, False)}
    assert small[-2:] == [("float32", 1, True), ("float64", 2, False)]
    assert [r for r in rows if r[0] == "float64"] == [("float64", 2, False),
                                                      ("float64", 11, True)]


@pytest.mark.parametrize("budget", [1, None])
def test_empty_direction_set_is_infeasible(monkeypatch, budget):
    # The only model is rank deficient, so the set is empty: the streamed,
    # windowed and held folds all report it.
    X = np.random.default_rng(0).standard_normal((5, 1))
    cd = canonicalize(DesignMatrix(np.hstack([X, 2 * X]), ("x1", "x2")))
    u = ModelUniverse.explicit([[1, 2]])
    if budget is not None:
        monkeypatch.setattr(constants, "_WINDOW_BYTES", budget)
    for fold in (lambda: posi_constant(cd, u, n_samples=100),
                 lambda: constants._posi_from(direction_stream(cd, u)._hold(), 0.05,
                                              ErrorModel(), 100, 0),
                 lambda: max_abs_t_draws(direction_stream(cd, u), n_samples=100)):
        with pytest.raises(InfeasibleError, match="direction set is empty"):
            fold()


def test_screened_fold_frees_each_window_before_the_next(monkeypatch):
    # With two-chunk windows, the walk makes each window only once the fold
    # has let go of the last one's chunks, but for the one chunk its loops
    # last read: the fold holds one window, not two.
    cd = random_canonical(8, seed=1)
    real = constants._windows
    previous, alive = [], []

    def noting(chunks):
        for window in real(chunks):
            alive.append(sum(ref() is not None for ref in previous))
            previous[:] = [weakref.ref(chunk) for chunk, _ in window]
            yield window

    monkeypatch.setattr(constants, "_windows", noting)
    monkeypatch.setattr(constants, "_DIRECTION_CHUNK", 64)
    monkeypatch.setattr(constants, "_WINDOW_BYTES", 2 * 64 * (cd.d + 2) * 8)
    est = posi_constant(cd, n_samples=2_000, seed=5)
    assert est.direction_count == 8 * 2 ** 7 and len(alive) == 8
    assert max(alive) <= 1


def test_screened_fold_raises_a_workers_error(monkeypatch):
    # A tile that fails midway through a cone-pruned chunk stops the fold
    # with its error, and the fold leaves no thread behind.
    cd = random_canonical(10, seed=3)
    threads_before = threading.active_count()
    real = constants._fold_chunk_max
    calls = []

    def failing(chunk, zt, best, buf):
        calls.append(zt.shape[1])
        if len(calls) == 80:
            raise FloatingPointError("tile failed")
        real(chunk, zt, best, buf)

    monkeypatch.setattr(constants, "_fold_chunk_max", failing)
    with pytest.raises(FloatingPointError, match="tile failed"):
        posi_constant(cd, n_samples=20_000, seed=4)
    assert len(calls) == 80
    assert threading.active_count() == threads_before


def test_concurrent_folds_match_the_serial_draws():
    # Three caller threads fold at once on a short switch interval, behind a
    # barrier: state shared between calls would change their draws. The
    # folds run unscreened, then screened at the rank posi_constant uses,
    # which compacts the draws between chunks.
    cd = random_canonical(10, seed=3)
    em = ErrorModel.known_sigma()
    threads_before = threading.active_count()

    def draws(directions, rank):
        if rank is None:
            return max_abs_t_draws(directions, em, 3_000, 6)
        return constants._screened_draws(directions, em, 3_000, 6, rank)

    for rank in (None, constants._spacing_ranks(0.05, 3_000)[0]):
        expected = draws(direction_stream(cd), rank)
        barrier = threading.Barrier(3, timeout=60)
        results = [None] * 3

        def fold(i):
            results[i] = draws(BarrierSet(cd, barrier=barrier), rank)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=fold, args=(i,)) for i in range(3)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert np.array_equal(got, expected)
    assert threading.active_count() == threads_before


# The stages of the screened fold, one at a time, on a seeded 7-predictor
# design with 600 draws, in chunks of 48 rows, at the rank posi_constant
# reads. The bound and exact stage tests set the floor to X_(rank) of the
# exact draws, the highest floor the screen may use.


def stage_setup(df=math.inf):
    cd = random_canonical(7, seed=11)
    em = ErrorModel(df)
    n = 600
    rank = constants._spacing_ranks(0.05, n)[0]
    exact = max_abs_t_draws(direction_stream(cd), em, n, 5)
    screen = constants._Screen(constants._Draws(cd.d, em, n, 5), rank)
    return screen, list(direction_stream(cd).chunks(48)), exact, np.sort(exact)[rank - 1]


def exact_chunk_max(draws, chunk):
    best = np.full(draws.zt.shape[1], -1.0)
    constants._fold_rows(chunk, draws.zt, best, draws.buf)
    return best[:draws.n] / draws.sigma


@pytest.mark.parametrize("cones", [False, True])
def test_bound_stage_records_every_draw_that_reaches_the_floor(monkeypatch, cones):
    # The lower bounds start at min(exact draw, X_(rank)), which keeps the
    # floor at X_(rank). Every recorded upper bound is then at least the
    # draw's exact chunk maximum over sigma_hat, and every draw whose exact
    # chunk value reaches both the floor and its lower bound (so that the
    # chunk may hold its maximum) is recorded, also where the cones prune.
    if cones:
        monkeypatch.setattr(constants, "_CONE_FOLD_MIN", 0)
    screen, chunks, exact, floor = stage_setup()
    screen.low[:] = np.minimum(exact, floor)
    screen.floor = floor
    reached = 0
    for chunk, keys in reversed(chunks):
        low = screen.low.copy()
        got, who, upper = screen.bound(chunk, keys)
        value = exact_chunk_max(screen.draws, chunk)
        assert got is chunk
        assert np.all(upper >= value[who])
        reaching = np.flatnonzero(value >= np.maximum(floor, low))
        assert np.isin(reaching, who).all()
        assert np.all(low <= screen.low) and np.all(screen.low <= exact)
        assert screen.floor == floor
        reached += reaching.size
    assert reached > 0
    assert np.array_equal(screen.live, np.arange(600))


def test_norm_screen_drops_only_draws_below_the_floor():
    # A draw leaves only when ||z|| / sigma_hat (1 + 1e-9) < floor, and then
    # keeps its lower bound; the live draws move to the front of the float32
    # copy, and the rest of it is zero. Until 20% would leave, none does.
    screen, chunks, _, _ = stage_setup()
    screen.bound(*chunks[-1])
    draws = screen.draws
    bound = draws.norm / draws.sigma
    order = np.argsort(bound)
    screen.floor = bound[order[100]]
    screen.norm_screen()
    assert np.array_equal(screen.live, np.arange(600))
    # Draw k clears this floor only by the 1e-9 margin.
    k = order[200]
    screen.floor = bound[k] * (1 + 5e-10)
    low = screen.low.copy()
    screen.norm_screen()
    live = screen.live
    left = np.setdiff1d(np.arange(600), live)
    assert np.array_equal(left, np.flatnonzero(bound * (1.0 + 1e-9) < screen.floor))
    assert left.size == 200 and k in live
    assert screen.out[left].tobytes() == low[left].tobytes()
    assert screen.low.tobytes() == low[live].tobytes()
    assert screen.sigma.tobytes() == draws.sigma[live].tobytes()
    assert screen.norm.tobytes() == draws.norm[live].tobytes()
    d = draws.zt.shape[0]
    assert np.array_equal(screen.zt32[:d, :live.size], draws.zt[:, live].astype(np.float32))
    assert not screen.zt32[:, live.size:].any()


@pytest.mark.parametrize("df", [math.inf, 20])
def test_exact_stage_gives_the_exact_draws_at_and_above_the_floor(df):
    # After the bound stage of every chunk and a norm screen that compacts
    # the live draws, the exact stage refolds in float64 the recorded draws
    # that can reach the floor: every draw at or above X_(rank) is then
    # bitwise max_abs_t_draws', and no draw exceeds it.
    screen, chunks, exact, floor = stage_setup(df)
    recorded = [screen.bound(chunk, keys) for chunk, keys in reversed(chunks)]
    screen.floor = floor
    screen.norm_screen()
    assert screen.live.size < 0.8 * 600
    screen.exact(recorded)
    screen.out[screen.live] = screen.low
    top = np.flatnonzero(exact >= floor)
    assert top.size >= 600 - screen.rank + 1
    assert screen.out[top].tobytes() == exact[top].tobytes()
    assert np.all(screen.out <= exact)


@pytest.mark.parametrize("df", [math.inf, 20])
@pytest.mark.parametrize("name", ["posi", "posi1"])
def test_draws_tied_below_float32_resolution_keep_k_exact(monkeypatch, name, df):
    # Around each of the ranks lo, idx and hi that K and its standard error
    # read, seven draws become copies of one draw scaled by 1 + j 2^-40 for
    # j = -3..3: equal in float32, so the bound stage cannot order them, and
    # distinct in float64.
    cd = random_canonical(6, seed=8)
    em = ErrorModel(df)
    n, alpha, seed = 2_000, 0.05, 5
    lo, hi = constants._spacing_ranks(alpha, n)
    idx = constants.conservative_quantile_index(alpha, n)
    if name == "posi":
        def make_set():
            return direction_stream(cd)

        def constant():
            return posi_constant(cd, alpha=alpha, error_model=em, n_samples=n, seed=seed)
    else:
        def make_set():
            return DirectionSet(cd, ModelUniverse.forcing(2), predictor=2)

        def constant():
            return posi1_constant(cd, predictor=2, alpha=alpha, error_model=em,
                                  n_samples=n, seed=seed)
    order = np.argsort(max_abs_t_draws(make_set(), em, n, seed), kind="stable")
    groups = [order[rank - 4:rank + 3] for rank in (lo, idx, hi)]
    real = _rng.gaussian_block

    def tied_block(*args):
        z, s = real(*args)
        for group in groups:
            center = group[3]
            z[group] = z[center] * (1.0 + np.arange(-3, 4) * 2.0 ** -40)[:, None]
            s[group] = s[center]
        return z, s

    monkeypatch.setattr(_rng, "gaussian_block", tied_block)
    z = tied_block(seed, _rng.PURPOSE_MAX_T, 0, n, cd.d, df)[0]
    exact = max_abs_t_draws(make_set(), em, n, seed)
    ranked = np.argsort(exact, kind="stable")
    for rank, group in zip((lo, idx, hi), groups):
        assert np.all(z[group].astype(np.float32) == z[group[3]].astype(np.float32))
        assert np.unique(exact[group]).size > 1
        assert ranked[rank - 1] in group
    est = constant()
    assert est.k == np.sort(exact)[idx - 1]
    assert est.mc_standard_error == constants._mc_standard_error(exact, alpha)


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_is_rejected(threads):
    cd = random_canonical(3, seed=19)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        posi_constant(cd, n_samples=1_000, threads=threads)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        posi1_constant(cd, predictor=2, n_samples=1_000, threads=threads)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        max_abs_t_draws(direction_stream(cd), ErrorModel.known_sigma(), 1_000, 0,
                        threads)


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


# Median reported standard error and the spread of K over 40 seeds on a
# 14 x 10 Gaussian design, as the test below measures them.
SE_CALIBRATION = {
    (math.inf, 2_000): (0.0335, 0.0326),
    (math.inf, 5_000): (0.0211, 0.0230),
    (10, 2_000): (0.0804, 0.0768),
    (10, 5_000): (0.0515, 0.0465),
}


@pytest.mark.parametrize("df, n", list(SE_CALIBRATION))
def test_spacing_standard_error_tracks_seed_spread(df, n):
    cd = random_canonical(10, seed=10, n=14)
    ests = [posi_constant(cd, error_model=ErrorModel(df), n_samples=n, seed=seed)
            for seed in range(40)]
    median_se = float(np.median([e.mc_standard_error for e in ests]))
    sd_k = float(np.std([e.k for e in ests], ddof=1))
    assert 0.75 <= median_se / sd_k <= 1.33
    assert (round(median_se, 4), round(sd_k, 4)) == SE_CALIBRATION[df, n]


@pytest.mark.parametrize("df", [math.inf, 5])
def test_k_is_conservative_on_the_orthogonal_oracle(df):
    # K is the order statistic X_(idx) of N exact draws, so F(K) has mean
    # idx / (N + 1) >= 1 - alpha, with F the exact law of max |l'Z| /
    # sigma_hat. On the identity F is known in closed form (constants.
    # _orth_cdf), so the mean over seeds checks the promise itself, and the
    # spread of K over seeds checks the reported standard error.
    em = ErrorModel(df)
    cd = CanonicalDesign.from_canonical(np.eye(4))
    n, seeds = 2_000, 2_000
    ests = [posi_constant(cd, error_model=em, n_samples=n, seed=seed)
            for seed in range(seeds)]
    f = np.array([constants._orth_cdf(e.k, 4, em) for e in ests])
    promise = constants.conservative_quantile_index(0.05, n) / (n + 1)
    assert abs(f.mean() - promise) <= 4 * f.std(ddof=1) / math.sqrt(seeds)
    sd_k = np.std([e.k for e in ests], ddof=1)
    assert 0.8 <= np.median([e.mc_standard_error for e in ests]) / sd_k <= 1.25


def rank2_cdf(k: np.ndarray, vectors: np.ndarray, error_model: ErrorModel) -> np.ndarray:
    """The exact law of max_l |l'Z| / sigma_hat over unit directions l of
    the plane, at each k. With Z = R (cos t, sin t), R^2 ~ chi2_2 and t
    uniform, F(k) = (1 / 2 pi) int G(k^2 / M(t)^2) dt with M(t) = max_l
    |l'(cos t, sin t)|, where G is the law of R^2 (1 - exp(-x / 2)) or, with
    r error degrees of freedom, of R^2 / sigma_hat^2 = 2 F(2, r)
    (1 - (1 + x / r)^(-r / 2)). M has period pi, and between two adjacent
    axes (angles mod pi) the nearer one gives M = cos of the distance to it,
    so each gap g is two arcs of int_0^(g/2) G(k^2 / cos^2 s) ds, taken by
    Gauss-Legendre quadrature."""
    axes = np.sort(np.arctan2(vectors[:, 1], vectors[:, 0]) % np.pi)
    gaps = np.diff(axes, append=axes[0] + np.pi)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    s = gaps[:, None] / 4 * (1.0 + nodes)
    x = np.asarray(k, dtype=float)[:, None, None] ** 2 / np.cos(s) ** 2
    if error_model.sigma_known:
        g = -np.expm1(-x / 2)
    else:
        r = error_model.df
        g = 1.0 - (1.0 + x / r) ** (-r / 2)
    return 2 / np.pi * (g * (gaps[:, None] / 4 * weights)).sum(axis=(1, 2))


@pytest.mark.parametrize("df", [math.inf, 5])
def test_rank2_oracle_is_the_orthogonal_law_on_the_identity(df):
    em = ErrorModel(df)
    k = np.array([0.5, 1.5, 2.2365, 3.0])
    got = rank2_cdf(k, np.eye(2), em)
    want = [constants._orth_cdf(x, 2, em) for x in k]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("df", [math.inf, 5])
def test_k_is_conservative_on_the_rank2_oracle(df):
    # As on the orthogonal oracle, F(K) has mean idx / (N + 1) >= 1 - alpha
    # over seeds; here F is the exact law of a generic rank-2 design, five
    # columns in the plane, 25 directions (rank2_cdf).
    em = ErrorModel(df)
    cd = CanonicalDesign.from_canonical(np.random.default_rng(25).standard_normal((2, 5)))
    vectors = direction_stream(cd).matrix()
    assert vectors.shape == (25, 2)
    n, seeds = 2_000, 2_000
    ests = [posi_constant(cd, error_model=em, n_samples=n, seed=seed)
            for seed in range(seeds)]
    ks = np.array([e.k for e in ests])
    f = rank2_cdf(ks, vectors, em)
    promise = constants.conservative_quantile_index(0.05, n) / (n + 1)
    assert abs(f.mean() - promise) <= 4 * f.std(ddof=1) / math.sqrt(seeds)
    sd_k = np.std(ks, ddof=1)
    assert 0.8 <= np.median([e.mc_standard_error for e in ests]) / sd_k <= 1.25


def test_spacing_standard_error_stays_positive_on_ties():
    # Every draw equal: the spacing is zero, and the standard error is one
    # ulp of the draws. A single draw has no spacing at all.
    ties = np.full(1_000, 2.5)
    assert constants._mc_standard_error(ties, 0.05) == math.ulp(2.5)
    assert constants._mc_standard_error(np.array([2.5]), 0.5) == math.ulp(2.5)


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


@pytest.mark.parametrize("d", [1, 4, 11, 30])
@pytest.mark.parametrize("r", [1, 6, 20, 200])
def test_orth_finite_df_matches_frozen_distribution_integrand(d, r):
    # The integrand as first written, with frozen scipy.stats distributions,
    # under the same quadrature, bracket and root-finding tolerances.
    from scipy import integrate, optimize

    sigma_dist = stats.chi(r, scale=1.0 / math.sqrt(r))

    def coverage(k):
        return integrate.quad(
            lambda s: (2.0 * stats.norm.cdf(k * s) - 1.0) ** d * sigma_dist.pdf(s),
            0.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=200)[0]

    hi = math.sqrt(d * stats.f.ppf(0.95, d, r)) + 1.0
    want = optimize.brentq(lambda x: coverage(x) - 0.95, 1e-8, hi, xtol=1e-10)
    assert abs(orth_constant(0.05, d, ErrorModel.with_df(r)).k - want) <= 1e-12


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


def test_cap_bound_falls_back_to_scheffe_past_its_bracket():
    # At d = 2 a million directions need a cap beyond u = 1 - 1e-14; the
    # bound there would exceed the 0.975 chi quantile, above Scheffe's K.
    scheffe = scheffe_constant(0.05, 2)
    far = cap_bonferroni_bound(10**6, 2, 0.05)
    assert (far.k, far.name, far.direction_count, far.d) == (scheffe.k, "scheffe", 10**6, 2)
    near = cap_bonferroni_bound(10**5, 2, 0.05)
    assert near.name == "cap_bound"
    assert scheffe.k < near.k < math.sqrt(stats.chi2.ppf(0.975, 2))


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


# Philox's key word holds 64 bits. Under a mask, -1 would alias 2**64 - 1 and
# 2**64 would alias 0, so every entry point that draws must reject both.
def _drawing_calls(seed):
    cd = random_canonical(4, seed=3)
    return {
        "posi_constant": lambda: posi_constant(cd, n_samples=100, seed=seed).k,
        "posi1_constant": lambda: posi1_constant(cd, predictor=2, n_samples=100,
                                                 seed=seed).k,
        "max_abs_t_draws": lambda: max_abs_t_draws(
            direction_stream(cd), ErrorModel.known_sigma(), 100, seed)[0],
        "coverage_experiment": lambda: tuple(coverage_experiment(
            cd, None, "spar", 0.05, ErrorModel.with_df(5), 2.5, 50, seed=seed
        ).covered),
        "exchangeable_ratio_table": lambda: exchangeable_ratio_table(
            [3], n_samples=100, seed=seed, a_grid=[0.0, 0.5])[0].k,
        "worst_posi1_table": lambda: worst_posi1_table(
            10, n_samples=100, seed=seed, c_grid=[0.1])[0].k1,
    }


@pytest.mark.parametrize("seed", [-1, 2**64, 2**65 + 3])
def test_seeds_outside_64_bits_are_rejected(seed):
    with pytest.raises(ValueError, match="seed must be in 0..2\\*\\*64-1"):
        _rng.block_generator(seed, _rng.PURPOSE_MAX_T, 0)
    for name, call in _drawing_calls(seed).items():
        with pytest.raises(ValueError, match="seed must be in 0..2\\*\\*64-1"):
            call()


def test_seeds_at_both_ends_of_64_bits_draw_apart():
    low = {name: call() for name, call in _drawing_calls(0).items()}
    high = {name: call() for name, call in _drawing_calls(2**64 - 1).items()}
    assert low.keys() == high.keys()
    assert all(low[name] != high[name] for name in low)


@pytest.mark.parametrize("n", [0, -5])
def test_draw_counts_below_one_are_rejected(n):
    cd = random_canonical(4, seed=3)
    with pytest.raises(ValueError, match="^n_samples must be >= 1$"):
        posi_constant(cd, n_samples=n)
    with pytest.raises(ValueError, match="^n_samples must be >= 1$"):
        posi1_constant(cd, predictor=1, n_samples=n)
    with pytest.raises(ValueError, match="^n_samples must be >= 1$"):
        constants.conservative_quantile_index(0.05, n)
