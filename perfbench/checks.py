"""Correctness checks on job outputs, run outside the timed region.

Each check returns a list of failure messages; an empty list means the
output passed. A failed check marks the job failed and never aborts the run.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import stats

import posikit as pk
from posikit import cli

from workloads import API_COVERAGE, Job

# Monte Carlo slack, in standard errors, for bounds that hold exactly in the
# limit of infinitely many draws.
MC_SLACK = 4.0
# Binomial slack, in standard errors, for coverage against 1 - alpha.
COVERAGE_SLACK = 3.0
SPAR_REL_TOL = 1e-9


def _error_model(df_text: str):
    if df_text.strip().lower() in ("inf", "infinity"):
        return pk.ErrorModel.known_sigma()
    return pk.ErrorModel.with_df(int(df_text))


def _design(args):
    return pk.canonicalize(pk.load_design(args.design, header=args.header,
                                          intercept=args.intercept,
                                          rank_tolerance=args.rank_tolerance))


def expected_direction_count(universe: str, p: int) -> int | None:
    """Pair count of a generic full-rank design, where it has a closed form."""
    if universe == "all":
        return p * 2 ** (p - 1)
    if universe.startswith("size<="):
        m = int(universe[len("size<="):])
        return sum(k * math.comb(p, k) for k in range(1, m + 1))
    return None


def _check_k(job: Job, args, out: dict) -> list[str]:
    fails = []
    design = _design(args)
    em = _error_model(args.df)
    k, se, d, count = out["K"], out["mc_standard_error"], out["d"], out["direction_count"]
    if args.universe == "all":
        lo = pk.orth_constant(args.alpha, d, em).k - MC_SLACK * se
        hi = pk.scheffe_constant(args.alpha, d, em).k
        if not lo <= k <= hi:
            fails.append(f"K={k} outside [orth - 4se, scheffe] = [{lo}, {hi}]")
    if em.sigma_known:
        cap = pk.cap_bonferroni_bound(count, d, args.alpha).k + MC_SLACK * se
        if not k <= cap:
            fails.append(f"K={k} above cap bound + 4se = {cap}")
    want = expected_direction_count(args.universe, design.p)
    if job.gaussian and want is not None and count != want:
        fails.append(f"direction_count={count}, expected {want}")
    if job.identity:
        orth = pk.orth_constant(args.alpha, d, em).k
        if abs(k - orth) > MC_SLACK * se:
            fails.append(f"identity design: |K - orth| = {abs(k - orth)} > 4se")
    return fails


def _check_k1(job: Job, args, out: dict) -> list[str]:
    p = out["p"]
    if job.gaussian and args.universe == "all" and out["direction_count"] != 2 ** (p - 1):
        return [f"direction_count={out['direction_count']}, expected {2 ** (p - 1)}"]
    return []


def _check_bound(job: Job, args, out: dict) -> list[str]:
    want = expected_direction_count(args.universe, out["p"])
    if job.gaussian and want is not None and out["direction_count"] != want:
        return [f"direction_count={out['direction_count']}, expected {want}"]
    return []


def _check_spar(job: Job, args, out: dict) -> list[str]:
    design = _design(args)
    y = design.reduce_response(np.loadtxt(args.response, ndmin=1))
    model = pk.ModelId(out["selected_model"])
    fit = pk.fit_submodel(design, y, model, args.sigma_hat)
    if args.predictor is not None:
        t = abs(pk.t_ratio(fit, args.predictor))
    else:
        t = max(abs(pk.t_ratio(fit, j)) for j in model.members)
    stat = out["max_abs_t"]
    if abs(t - stat) > SPAR_REL_TOL * abs(stat):
        return [f"refit |t|={t} differs from max_abs_t={stat}"]
    return []


def _check_analyze(job: Job, args, out: dict) -> list[str]:
    duality = out.get("duality")
    if duality is None or duality["matched_pairs"] != out["direction_count"]:
        return [f"duality {duality} does not match {out['direction_count']} pairs"]
    return []


def _check_coverage_value(out: dict) -> list[str]:
    if out["k_source"] not in ("posi", "scheffe"):
        return []
    floor = 1.0 - out["alpha"] - COVERAGE_SLACK * out["binomial_se"]
    if out["coverage"] < floor:
        return [f"coverage {out['coverage']} below 1 - alpha - 3se = {floor}"]
    return []


def _check_family(job: Job, args, out: dict) -> list[str]:
    fails = []
    z = float(stats.norm.ppf(1.0 - args.alpha / 2.0))
    hi = pk.scheffe_constant(args.alpha, args.p).k
    for row in out["rows"]:
        lo = z - MC_SLACK * row["mc_standard_error"]
        if not lo <= row["K1"] <= hi:
            fails.append(f"c={row['c']}: K1={row['K1']} outside [{lo}, {hi}]")
    return fails


def _check_orth(job: Job, args, out: dict) -> list[str]:
    em = _error_model(args.df)
    lo = pk.orth_constant(args.alpha, args.d).k
    hi = pk.scheffe_constant(args.alpha, args.d, em).k
    if not lo <= out["K"] <= hi:
        return [f"orth K={out['K']} outside [known-sigma orth, scheffe] = [{lo}, {hi}]"]
    return []


def _check_scheffe(job: Job, args, out: dict) -> list[str]:
    em = _error_model(args.df)
    if em.sigma_known:
        want = math.sqrt(stats.chi2.ppf(1.0 - args.alpha, args.d))
    else:
        want = math.sqrt(args.d * stats.f.ppf(1.0 - args.alpha, args.d, em.df))
    if abs(out["K"] - want) > 1e-12 * want:
        return [f"scheffe K={out['K']}, expected {want}"]
    return []


_CLI_CHECKS = {
    "k": _check_k,
    "k1": _check_k1,
    "bound": _check_bound,
    "spar": _check_spar,
    "analyze": _check_analyze,
    "coverage": lambda job, args, out: _check_coverage_value(out),
    "family": _check_family,
    "orth": _check_orth,
    "scheffe": _check_scheffe,
}


def check_output(job: Job, stdout: str) -> list[str]:
    """Failure messages for one job's stdout (empty when it is correct)."""
    try:
        out = json.loads(stdout)
        if job.command == API_COVERAGE:
            return _check_coverage_value(out)
        args = cli.build_parser().parse_args(list(job.argv))
        return _CLI_CHECKS[job.command](job, args, out)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"check raised {type(exc).__name__}: {exc}"]
