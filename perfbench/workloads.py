"""Seeded inputs and fixed job lists for the benchmark workloads.

Every input is a pure function of (workload, seed, held_out): Gaussian
(p+4) x p designs written to CSV so that ``load_design`` runs, responses,
an explicit model list, and the Monte Carlo seeds passed to posikit.

Workloads (closed loop, one job at a time, one process):

* ``calibrate`` -- Monte Carlo constants where the fold over directions x
  draws dominates; measures ``constants``, ``_rng`` and ``families``. Small
  inspection jobs ride along so that every layer and every universe form
  of the lattice walk is measured on some workload.
* ``coverage`` -- per-replication selection and refitting, with a selector
  that walks the lattice once per design (spar) and one that walks it on
  every replication (spar1), plus stepwise and best-R^2 through the API.

Sizes are scaled so that one pass takes about six seconds (calibrate) and
two seconds (coverage) on a 2-core Xeon (Sapphire Rapids, KVM guest).
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("calibrate", "coverage")

API_COVERAGE = "api-coverage"

# Held-out inputs come from a key no --seed value can reach, so a gain tuned
# on ordinary seeds can be re-checked on inputs it never saw.
_HELD_OUT_KEY = 1


@dataclass(frozen=True)
class Job:
    """One benchmark job: a CLI invocation, or an API coverage experiment."""

    name: str
    command: str
    argv: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    # Job whose stdout this job's stdout must equal byte for byte.
    twin: str | None = None
    # Random Gaussian design: generically full rank, so direction counts are
    # known in closed form.
    gaussian: bool = True
    # Identity design: K must match the orthogonal closed form.
    identity: bool = False

    @property
    def replications(self) -> int:
        if self.command == API_COVERAGE:
            return int(self.params["replications"])
        if self.command == "coverage":
            return int(self.argv[self.argv.index("--replications") + 1])
        return 0


@dataclass(frozen=True)
class Inputs:
    jobs: tuple[Job, ...]
    design_files: tuple[str, ...]


def _write_matrix(path: str, values: np.ndarray) -> str:
    np.savetxt(path, values, delimiter=",", fmt="%.17g")
    return path


def _gaussian_design(rng, workdir: str, tag: str, p: int) -> str:
    return _write_matrix(os.path.join(workdir, f"{tag}.csv"),
                         rng.standard_normal((p + 4, p)))


def _response(rng, workdir: str, tag: str, n: int) -> str:
    path = os.path.join(workdir, f"{tag}.txt")
    np.savetxt(path, rng.standard_normal(n), fmt="%.17g")
    return path


def _model_list(rng, workdir: str, tag: str, p: int, count: int,
                max_size: int) -> str:
    models: set[tuple[int, ...]] = set()
    while len(models) < count:
        size = int(rng.integers(1, max_size + 1))
        members = rng.choice(p, size=size, replace=False) + 1
        models.add(tuple(sorted(int(j) for j in members)))
    path = os.path.join(workdir, f"{tag}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        for m in sorted(models):
            fh.write(",".join(map(str, m)) + "\n")
    return path


def _mc_seed(rng) -> str:
    return str(int(rng.integers(0, 2**31)))


def _k(name, design, seed, samples, *extra, **flags) -> Job:
    argv = ("k", "--design", design, "--mc-samples", str(samples),
            "--seed", seed) + extra
    return Job(name, "k", argv, **flags)


def _calibrate(rng, workdir: str) -> Inputs:
    a10 = _gaussian_design(rng, workdir, "a10", 10)
    a11 = _gaussian_design(rng, workdir, "a11", 11)
    eye = _write_matrix(os.path.join(workdir, "identity10.csv"), np.eye(10))
    a8 = _gaussian_design(rng, workdir, "a8", 8)
    a28 = _gaussian_design(rng, workdir, "a28", 28)
    a20 = _gaussian_design(rng, workdir, "a20", 20)
    y10 = _response(rng, workdir, "y10", 14)
    models = _model_list(rng, workdir, "models20", 20, 30, 10)
    seed = _mc_seed(rng)
    n = 20_000
    spar = ("spar", "--design", a10, "--response", y10, "--sigma-hat", "1")
    jobs = (
        _k("k.p10.known", a10, seed, n),
        _k("k.p10.df20", a10, seed, n, "--df", "20"),
        _k("k.p11.known", a11, seed, n),
        _k("k.p11.df20", a11, seed, n, "--df", "20"),
        _k("k.p10.known.threads2", a10, seed, n, "--threads", "2",
           twin="k.p10.known"),
        _k("k.identity10", eye, seed, n, gaussian=False, identity=True),
        Job("k1.p11.predictor3", "k1",
            ("k1", "--design", a11, "--predictor", "3", "--mc-samples", str(n),
             "--seed", seed)),
        Job("family.worst-posi1.p100", "family",
            ("family", "worst-posi1", "--p", "100", "--mc-samples", str(n),
             "--seed", seed)),
        Job("coverage.p10.spar.posi", "coverage",
            ("coverage", "--design", a10, "--selector", "spar", "--k-source",
             "posi", "--mc-samples", str(n), "--replications", "30",
             "--seed", seed)),
        # The inspection commands a user runs around a calibration: closed
        # forms, selection and geometry, plus the size-bounded and explicit
        # universe forms of the lattice walk.
        Job("scheffe.d11.df20", "scheffe", ("scheffe", "--d", "11", "--df", "20")),
        Job("orth.d11.df20", "orth", ("orth", "--d", "11", "--df", "20")),
        Job("spar.p10", "spar", spar),
        Job("spar.p10.predictor2", "spar", spar + ("--predictor", "2")),
        Job("analyze.p8", "analyze", ("analyze", "--design", a8)),
        Job("bound.p28.size3", "bound",
            ("bound", "--design", a28, "--universe", "size<=3")),
        Job("bound.p20.file30", "bound",
            ("bound", "--design", a20, "--universe", f"file={models}")),
    )
    return Inputs(jobs, (a10, a11, eye, a8, a28, a20))


def _coverage(rng, workdir: str) -> Inputs:
    jobs: list[Job] = []
    files = []
    # Two designs per seed, so each selector appears twice per pass and the
    # figures depend less on one draw of the design.
    for tag in ("c10a", "c10b"):
        design = _gaussian_design(rng, workdir, tag, 10)
        files.append(design)
        seed = _mc_seed(rng)
        jobs += [
            Job(f"coverage.{tag}.spar.posi", "coverage",
                ("coverage", "--design", design, "--selector", "spar",
                 "--k-source", "posi", "--mc-samples", "2500", "--df", "20",
                 "--replications", "40", "--seed", seed)),
            Job(f"coverage.{tag}.spar1.scheffe", "coverage",
                ("coverage", "--design", design, "--selector", "spar1:1",
                 "--k-source", "scheffe", "--replications", "6", "--seed", seed)),
            Job(f"coverage.{tag}.stepwise.posi", API_COVERAGE, params=dict(
                design=design, selector="stepwise", df=10, mc_samples=2500,
                replications=100, seed=int(seed), alpha=0.05)),
            Job(f"coverage.{tag}.best_r2.posi", API_COVERAGE, params=dict(
                design=design, selector="best_r2:3", df=10, mc_samples=2500,
                replications=25, seed=int(seed), alpha=0.05)),
        ]
    return Inputs(tuple(jobs), tuple(files))


_BUILDERS = {"calibrate": _calibrate, "coverage": _coverage}


def prepare(workload: str, seed: int, held_out: bool, workdir: str) -> Inputs:
    """Write the workload's input files under ``workdir`` and list its jobs."""
    spawn_key = (WORKLOADS.index(workload), _HELD_OUT_KEY if held_out else 0)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
    return _BUILDERS[workload](rng, workdir)


# ---------------------------------------------------------------------------
# Untraced execution: exactly what a user of the CLI or the API runs.
# ---------------------------------------------------------------------------


def make_selector(spec: str):
    import posikit as pk

    if spec == "stepwise":
        return pk.make_stepwise_selector()
    kind, size = spec.split(":")
    if kind != "best_r2":
        raise ValueError(f"unknown API selector {spec!r}")
    return pk.make_best_r2_selector(int(size))


def coverage_payload(est, result, params) -> dict:
    return {
        "K": est.k,
        "mc_standard_error": est.mc_standard_error,
        "direction_count": est.direction_count,
        "alpha": params["alpha"],
        "k_source": "posi",
        "selector": params["selector"],
        "replications": result.replications,
        "coverage": result.coverage,
        "binomial_se": result.binomial_se,
    }


def _api_coverage(params: dict) -> str:
    import posikit as pk

    design = pk.canonicalize(pk.load_design(params["design"]))
    em = pk.ErrorModel.with_df(params["df"])
    est = pk.posi_constant(design, alpha=params["alpha"], error_model=em,
                           n_samples=params["mc_samples"], seed=params["seed"])
    result = pk.coverage_experiment(
        design, None, make_selector(params["selector"]), params["alpha"], em,
        est, params["replications"], seed=params["seed"])
    return json.dumps(coverage_payload(est, result, params), sort_keys=True) + "\n"


def run_job(job: Job) -> tuple[int, str]:
    """Run one job in-process; return (exit code, captured stdout)."""
    if job.command == API_COVERAGE:
        return 0, _api_coverage(job.params)
    from posikit import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.run(list(job.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()
