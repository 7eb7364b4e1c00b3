"""Traced replicas of the benchmark jobs and the per-layer figures they give.

The traced run does not instrument posikit. For each job it calls the same
public functions the CLI handler calls, in the same order, with a span
around each call, and returns the fields the handler would print so the
result can be compared with the untraced job's stdout.

Some calls do several layers' work at once (``posi_constant`` walks the
lattice, draws and folds). After such a job, and outside its span, a
*decomposition* repeats the parts separately: one walk of the same
direction set, the same ``_rng`` draws, and the full ``max_abs_t_draws``.
Figures marked "derived" below are differences of those spans:

* ``constants.fold_s``        = max_abs_t_draws - walk - draws
* ``constants.quantile_se_s`` = posi_constant - max_abs_t_draws
  (``posi1_constant`` walks once more for ``.count``; that walk is
  subtracted too)

Spans are kept in memory by ``SpanRecorder`` and written out at the end of
the run. Layer names are the posikit modules: cli, design, rng (the
``_rng`` module; metric names must start with a letter), constants,
inference, geometry, families. A job span's self time is CLI glue (argument
parsing, reading the response file, building and encoding the payload).
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import posikit as pk
from posikit import _rng, cli
from posikit.families import default_c_grid

from workloads import API_COVERAGE, Job, coverage_payload, make_selector

class SpanRecorder:
    """In-memory spans: id, name, parent id, start, end and attributes."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": 0.0, "end": 0.0, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self) -> list[dict]:
        return [dict(s, start=s["start"] - self.origin, end=s["end"] - self.origin)
                for s in self.spans]


# ---------------------------------------------------------------------------
# Replicas of the CLI handlers
# ---------------------------------------------------------------------------


def _error_model(df_text: str):
    if df_text.strip().lower() in ("inf", "infinity"):
        return pk.ErrorModel.known_sigma()
    return pk.ErrorModel.with_df(int(df_text))


def _threads(text: str) -> int:
    return 1 if text == "auto" else int(text)


def universe_shape(spec: str) -> str:
    if spec == "all":
        return "all"
    return "explicit" if spec.startswith(("file=", "models=")) else "size_bounded"


def _load(rec: SpanRecorder, args):
    with rec.span("design.load"):
        dm = pk.load_design(args.design, header=args.header,
                            intercept=args.intercept,
                            rank_tolerance=args.rank_tolerance)
    with rec.span("design.canonicalize"):
        design = pk.canonicalize(dm, form=getattr(args, "form", "upper_triangular"))
    with rec.span("design.universe"):
        universe = pk.ModelUniverse.from_spec(args.universe, p=design.p)
    return design, universe


def _walk(rec: SpanRecorder, make_set, shape: str) -> int:
    with rec.span("design.walk", shape=shape) as span:
        directions = make_set()
        count = directions.count
        span["attrs"].update(directions=count, skips=directions.degenerate_skips)
    return count


def _decompose_mc(rec, const_span, design, make_set, shape, em, n, seed, threads,
                  extra_walks=0):
    """Split one Monte Carlo constant into walk, draws and the full fold."""
    with rec.span("bench.decompose", kind="mc", of=const_span["id"],
                  extra_walks=extra_walks):
        count = _walk(rec, make_set, shape)
        with rec.span("rng.draw", draws=n):
            for b in range(_rng.block_count(n)):
                _rng.gaussian_block(seed, _rng.PURPOSE_MAX_T, b, n, design.d, em.df)
        with rec.span("constants.max_abs_t_draws", dir_draws=count * n):
            pk.max_abs_t_draws(make_set(), em, n, seed, threads)


def _decompose_coverage(rec, design, result, em, seed):
    """Replay the per-replication draws and refits of a coverage experiment."""
    reps = result.replications
    with rec.span("bench.decompose", kind="coverage"):
        with rec.span("rng.draw", draws=reps):
            blocks = [_rng.gaussian_block(seed, _rng.PURPOSE_COVERAGE, b, reps,
                                          design.d, em.df)
                      for b in range(_rng.block_count(reps))]
        eps = np.concatenate([z for z, _ in blocks])
        sigma = np.concatenate([s for _, s in blocks])
        target = pk.TargetSpec(np.zeros(design.d))
        with rec.span("inference.fit", reps=reps):
            for row, model in enumerate(result.models):
                pk.fit_submodel(design, eps[row], model, float(sigma[row]), em)
                pk.submodel_target(design, model, target)


def _mc_constant(rec, after, design, universe, spec, em, alpha, n, seed, threads):
    with rec.span("constants.posi_constant") as const_span:
        est = pk.posi_constant(design, universe, alpha=alpha, error_model=em,
                               n_samples=n, seed=seed, threads=threads)
        const_span["attrs"]["se"] = est.mc_standard_error
    after.append(lambda: _decompose_mc(
        rec, const_span, design, lambda: pk.direction_stream(design, universe),
        universe_shape(spec), em, n, seed, threads))
    return est


def _timed_selector(rec: SpanRecorder, kind: str, select):
    def timed(design, y, sigma_hat):
        with rec.span("inference.select", selector=kind):
            return select(design, y, sigma_hat)
    return timed


def _estimate_fields(est, design=None) -> dict:
    return {"K": est.k, "mc_standard_error": est.mc_standard_error,
            "direction_count": est.direction_count,
            **({"d": design.d, "p": design.p} if design is not None else {})}


def _traced_k(rec, job, args, after):
    design, universe = _load(rec, args)
    em = _error_model(args.df)
    est = _mc_constant(rec, after, design, universe, args.universe, em, args.alpha,
                       args.mc_samples, args.seed, _threads(args.threads))
    return _estimate_fields(est, design)


def _traced_k1(rec, job, args, after):
    design, universe = _load(rec, args)
    em = _error_model(args.df)
    j = args.predictor
    with rec.span("constants.posi1_constant") as const_span:
        est = pk.posi1_constant(design, universe, predictor=j, alpha=args.alpha,
                                error_model=em, n_samples=args.mc_samples,
                                seed=args.seed, threads=_threads(args.threads))
        const_span["attrs"]["se"] = est.mc_standard_error
    restricted = universe & pk.ModelUniverse.forcing(j)
    after.append(lambda: _decompose_mc(
        rec, const_span, design,
        lambda: pk.DirectionSet(design, restricted, predictor=j),
        universe_shape(args.universe), em, args.mc_samples, args.seed,
        _threads(args.threads), extra_walks=1))
    return _estimate_fields(est, design)


def _traced_bound(rec, job, args, after):
    design, universe = _load(rec, args)
    count = _walk(rec, lambda: pk.direction_stream(design, universe),
                  universe_shape(args.universe))
    with rec.span("constants.closed_form"):
        est = pk.cap_bonferroni_bound(count, design.d, args.alpha)
        a_hat = count ** (1.0 / design.d)
        rate = pk.asymptotic_cap_constant(a_hat) if a_hat > 1.0 else None
    return {"K": est.k, "direction_count": count, "cardinality_rate": a_hat,
            "asymptotic_rate_constant": rate}


def _traced_closed_form(rec, job, args, after):
    em = _error_model(args.df)
    fn = pk.orth_constant if job.command == "orth" else pk.scheffe_constant
    with rec.span("constants.closed_form"):
        est = fn(args.alpha, args.d, em)
    return {"K": est.k}


def _traced_spar(rec, job, args, after):
    design, universe = _load(rec, args)
    y_full = np.loadtxt(args.response, ndmin=1)
    with rec.span("design.reduce_response"):
        y = design.reduce_response(y_full)
    j = args.predictor
    with rec.span("inference.spar_select"):
        if j is not None:
            model, stat = pk.spar1_select(design, y, args.sigma_hat, universe, j)
        else:
            model, stat = pk.spar_select(design, y, args.sigma_hat, universe)
    if j is not None:
        restricted = universe & pk.ModelUniverse.forcing(j)
        make_set = lambda: pk.DirectionSet(design, restricted, predictor=j)  # noqa: E731
    else:
        make_set = lambda: pk.direction_stream(design, universe)  # noqa: E731

    def decompose():
        with rec.span("bench.decompose", kind="walk"):
            _walk(rec, make_set, universe_shape(args.universe))
    after.append(decompose)
    return {"selected_model": list(model.members), "max_abs_t": stat}


def _traced_analyze(rec, job, args, after):
    design, universe = _load(rec, args)
    count = _walk(rec, lambda: pk.direction_stream(design, universe),
                  universe_shape(args.universe))
    with rec.span("design.walk_dedup"):
        distinct = pk.direction_stream(design, universe, dedup="up_to_sign").count
    with rec.span("geometry.census"):
        census = pk.orthogonality_census(pk.direction_stream(design, universe))
    duality = None
    if design.d == design.p:
        with rec.span("geometry.duality"):
            report = pk.verify_duality(design)
        duality = {"matched_pairs": report.matched_pairs,
                   "max_direction_mismatch": report.max_direction_mismatch,
                   "max_norm_product_error": report.max_norm_product_error}
    return {"direction_count": count, "distinct_directions": distinct,
            "orthogonality_histogram": {str(k): v for k, v in census.histogram.items()},
            "duality": duality}


def _traced_coverage(rec, job, args, after):
    design, universe = _load(rec, args)
    em = _error_model(args.df)
    if args.k_source == "scheffe":
        with rec.span("constants.closed_form"):
            est = pk.scheffe_constant(args.alpha, design.d, em)
    elif args.k_source == "posi":
        est = _mc_constant(rec, after, design, universe, args.universe, em,
                           args.alpha, args.mc_samples, args.seed,
                           _threads(args.threads))
    else:
        raise ValueError(f"traced run does not replicate --k-source {args.k_source}")
    if args.selector.startswith("spar1:"):
        kind, select = "spar1", pk.make_spar1_selector(
            int(args.selector.split(":", 1)[1]), universe)
    else:
        kind, select = "spar", pk.make_spar_selector(universe)
    with rec.span("inference.coverage"):
        result = pk.coverage_experiment(
            design, universe, _timed_selector(rec, kind, select), args.alpha, em,
            est, replications=args.replications, seed=args.seed)
    after.append(lambda: _decompose_coverage(rec, design, result, em, args.seed))
    return {"K": est.k, "coverage": result.coverage,
            "binomial_se": result.binomial_se}


def _traced_family(rec, job, args, after):
    with rec.span("families.worst_posi1", draws=args.mc_samples, p=args.p,
                  grid=len(default_c_grid(args.p))):
        rows = pk.worst_posi1_table(args.p, alpha=args.alpha,
                                    n_samples=args.mc_samples, seed=args.seed)
    return {"rows": [{"p": r.p, "c": r.c, "K1": r.k1,
                      "mc_standard_error": r.mc_standard_error, "ratio": r.ratio}
                     for r in rows]}


def _traced_api_coverage(rec, job, after):
    params = job.params
    with rec.span("design.load"):
        dm = pk.load_design(params["design"])
    with rec.span("design.canonicalize"):
        design = pk.canonicalize(dm)
    em = pk.ErrorModel.with_df(params["df"])
    est = _mc_constant(rec, after, design, None, "all", em, params["alpha"],
                       params["mc_samples"], params["seed"], 1)
    kind = params["selector"].split(":")[0]
    with rec.span("inference.coverage"):
        result = pk.coverage_experiment(
            design, None, _timed_selector(rec, kind, make_selector(params["selector"])),
            params["alpha"], em, est, params["replications"], seed=params["seed"])
    after.append(lambda: _decompose_coverage(rec, design, result, em, params["seed"]))
    return coverage_payload(est, result, params)


_REPLICAS = {
    "k": _traced_k,
    "k1": _traced_k1,
    "bound": _traced_bound,
    "orth": _traced_closed_form,
    "scheffe": _traced_closed_form,
    "spar": _traced_spar,
    "analyze": _traced_analyze,
    "coverage": _traced_coverage,
    "family": _traced_family,
}


def run_traced_job(rec: SpanRecorder, job: Job) -> dict:
    """Run one job's traced replica, then its decompositions; return the
    fields the replica would print."""
    after: list = []
    with rec.span("cli.job", job=job.name, command=job.command):
        if job.command == API_COVERAGE:
            payload = _traced_api_coverage(rec, job, after)
        else:
            args = cli.build_parser().parse_args(list(job.argv))
            payload = _REPLICAS[job.command](rec, job, args, after)
        json.dumps(payload, sort_keys=True)
    for step in after:
        step()
    return payload


def replica_mismatches(payload: dict, stdout: str) -> list[str]:
    """Fields where the traced replica disagrees with the CLI's stdout."""
    try:
        printed = json.loads(stdout)
    except ValueError:
        return ["untraced stdout is not JSON"]
    normalized = json.loads(json.dumps(payload))
    return [f"traced {key}={value!r} but CLI printed {printed.get(key)!r}"
            for key, value in normalized.items()
            if key not in printed or _subset(value, printed[key]) is False]


def _subset(traced, printed) -> bool:
    if isinstance(traced, list) and isinstance(printed, list):
        return len(traced) == len(printed) and all(
            _subset(a, b) for a, b in zip(traced, printed))
    if isinstance(traced, dict) and isinstance(printed, dict):
        return all(k in printed and _subset(v, printed[k]) for k, v in traced.items())
    return traced == printed


# ---------------------------------------------------------------------------
# Per-layer figures from the spans of traced passes
# ---------------------------------------------------------------------------


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def pass_figures(spans: list[dict], pass_id: int) -> dict[str, float]:
    """Per-layer figures for one traced pass (the subtree of ``pass_id``)."""
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def descendants(sid):
        for c in children[sid]:
            yield c
            yield from descendants(c["id"])

    f: dict[str, float] = defaultdict(float)
    job_total = covered_total = 0.0
    for job in children[pass_id]:
        if job["name"] != "cli.job":
            continue
        covered = sum(_dur(c) for c in children[job["id"]])
        job_total += _dur(job)
        covered_total += covered
        f["cli.glue_s"] += _dur(job) - covered
        for s in descendants(job["id"]):
            own = _dur(s) - sum(_dur(c) for c in children[s["id"]])
            f[s["name"].split(".")[0] + ".self_s"] += own
    f["trace.traced_pass_s"] = job_total
    f["cli.layer_span_share"] = covered_total / job_total if job_total else 0.0

    by_id = {s["id"]: s for s in spans}
    select: dict[str, list[float]] = defaultdict(list)
    mc_se = []
    for s in descendants(pass_id):
        name, a, t = s["name"], s["attrs"], _dur(s)
        if name == "design.walk":
            f["design.walk_s"] += t
            f["design.directions"] += a["directions"]
            f["design.degenerate_skips"] += a["skips"]
            f[f"design.walk_s.{a['shape']}"] += t
            f[f"design.directions.{a['shape']}"] += a["directions"]
        elif name == "rng.draw":
            f["rng.draw_s"] += t
            f["rng.draws"] += a["draws"]
        elif name in ("constants.posi_constant", "constants.posi1_constant"):
            mc_se.append(a["se"])
        elif name == "constants.closed_form":
            f["constants.closed_form_s"] += t
        elif name == "inference.select":
            select[a["selector"]].append(t)
        elif name == "inference.fit":
            f["inference.fit_s"] += t
            f["inference.fit_reps"] += a["reps"]
        elif name == "inference.spar_select":
            f["inference.spar_select_s"] += t
        elif name == "geometry.census":
            f["geometry.census_s"] += t
        elif name == "geometry.duality":
            f["geometry.duality_s"] += t
        elif name == "families.worst_posi1":
            f["families.worst_posi1_s"] += t
            f["families.draw_p"] += a["draws"] * a["p"]
        elif name == "bench.decompose" and a["kind"] == "mc":
            parts = {c["name"]: c for c in children[s["id"]]}
            walk, draw = _dur(parts["design.walk"]), _dur(parts["rng.draw"])
            fold_all = _dur(parts["constants.max_abs_t_draws"])
            f["constants.fold_s"] += fold_all - walk - draw
            f["constants.dir_draws"] += parts["constants.max_abs_t_draws"]["attrs"]["dir_draws"]
            f["constants.quantile_se_s"] += (_dur(by_id[a["of"]]) - fold_all
                                             - a["extra_walks"] * walk)

    for shape in ("all", "size_bounded", "explicit"):
        if f.get(f"design.walk_s.{shape}"):
            f[f"design.directions_per_s.{shape}"] = (
                f[f"design.directions.{shape}"] / f[f"design.walk_s.{shape}"])
    if f.get("constants.dir_draws"):
        f["constants.fold_ns_per_dir_draw"] = (
            f["constants.fold_s"] / f["constants.dir_draws"] * 1e9)
    if mc_se:
        f["constants.mc_se"] = statistics.median(mc_se)
    reps = sum(len(v) for v in select.values())
    if reps:
        f["inference.select_ms_per_rep"] = (
            sum(sum(v) for v in select.values()) / reps * 1e3)
        for kind, times in select.items():
            f[f"inference.select_ms_per_rep.{kind}"] = sum(times) / len(times) * 1e3
    if f.get("inference.fit_reps"):
        f["inference.fit_ms_per_rep"] = f["inference.fit_s"] / f["inference.fit_reps"] * 1e3
    if f.get("families.draw_p"):
        f["families.ns_per_draw_p"] = f["families.worst_posi1_s"] / f["families.draw_p"] * 1e9
    return dict(f)
