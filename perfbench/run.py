#!/usr/bin/env python3
"""posikit benchmark.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 50 --trace 0

Runs one workload (``calibrate`` or ``coverage``; see
workloads.py) from the source tree it sits in, closed loop, one job at a
time, in this process:

1. writes the seeded inputs under ``.perfbench/`` at the repository root;
2. times ``import posikit`` + ``load_design`` + ``canonicalize`` in fresh
   child processes (``setup_s``), spread over the run: one before the first
   pass and one after each pass until there are SETUP_REPEATS;
3. runs passes over the job list for ``--seconds`` (at least four passes;
   no pass is started that would typically end after the time is up).
   After the first pass, outside the timed region, its outputs are checked
   for correctness and kept as the reference that every later pass must
   reproduce byte for byte. Untraced jobs call the real CLI through
   ``posikit.cli.run`` or, for the selectors the CLI lacks, the public API;
4. with ``--trace 1`` it alternates untraced passes with traced passes
   (tracing.py) and reports the per-layer figures instead.

Between jobs the harness times a fixed reference kernel that does not use
posikit (hostspeed.py). On a shared host the same work runs up to 1.8x
slower in states that last from seconds to tens of minutes; the bounded
timings are scaled, pass by pass, to the host speed at which the kernel
takes ``REFERENCE_S[workload]``. The report also prints unscaled figures.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units come
from BENCHMARK.json. The lines before it are a readable report. Everything
measured, the run metadata and (when traced) every span are written to
``.perfbench/results/``. ``--held-out`` draws the inputs from a seed space
that no plain ``--seed`` reaches, to confirm a gain on inputs it was not
tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# At least this many timed passes per run.
MIN_PASSES = 4
TRACE_MIN_PASSES = 2
SETUP_REPEATS = 7
SETUP_REFERENCE_RUNS = 3
TAIL_BEYOND = 10
# Both the --threads 2 job and OpenBLAS use at most two cores, so the same
# configuration is measured on larger machines.
MAX_BLAS_THREADS = 2


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("calibrate", "coverage"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw inputs from the held-out seed space")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def run_rounds(budget: float, min_rounds: int, one_round) -> None:
    """Call ``one_round`` at least ``min_rounds`` times, then while one more
    round of typical length still ends within ``budget`` seconds."""
    walls: list[float] = []
    start = time.perf_counter()
    while (len(walls) < min_rounds
           or time.perf_counter() - start + statistics.median(walls) <= budget):
        t0 = time.perf_counter()
        one_round()
        walls.append(time.perf_counter() - t0)


class Runner:
    """Executes jobs and keeps the failure accounting for one run."""

    def __init__(self, workload: str, jobs):
        self.workload = workload
        self.jobs = jobs
        self.reference: dict[str, str] = {}
        self.incorrect: dict[str, list[str]] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        # Untraced passes: per-job wall times (job order) and pass walls.
        self.passes: list[list[float]] = []
        self.walls: list[float] = []
        self.pass_ids: list[int] = []
        # Host-speed reference time after each job of each untraced pass.
        self.refs: list[list[float]] = []

    def _record(self, job, phase: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append({"job": job.name, "phase": phase,
                                  "problems": problems})

    @staticmethod
    def _execute(job):
        from workloads import run_job

        start = time.perf_counter()
        try:
            code, out = run_job(job)
            error = None
        except Exception:  # the run goes on; the job counts as failed
            code, out, error = None, "", traceback.format_exc(limit=4)
        return time.perf_counter() - start, code, out, error

    def _judge(self, job, code, out, error) -> list[str]:
        """The first pass sets each job's reference output and runs the
        correctness and twin checks on it; later passes must print the
        reference bytes again. Called after a pass, outside its timing."""
        from checks import check_output

        first = job.name not in self.reference
        if first:
            self.reference[job.name] = out
        if error or code != 0:
            problems = [error or f"exit code {code}"]
        elif first:
            problems = check_output(job, out)
            if job.twin and out != self.reference.get(job.twin):
                problems.append(f"stdout differs from its twin {job.twin}")
        else:
            problems = []
        if first:
            self.incorrect[job.name] = list(problems)
            return problems
        problems += self.incorrect[job.name]
        if out != self.reference[job.name]:
            problems.append("stdout differs from the first pass")
        return problems

    def untraced_pass(self) -> None:
        """One pass through the CLI / API; appends to ``passes`` and ``walls``."""
        from hostspeed import reference_seconds

        results, refs = [], []
        for job in self.jobs:
            results.append(self._execute(job))
            refs.append(reference_seconds(self.workload))
        self.walls.append(sum(r[0] for r in results))
        self.refs.append(refs)
        for job, (_, code, out, error) in zip(self.jobs, results):
            self._record(job, f"pass {len(self.passes)}",
                         self._judge(job, code, out, error))
        self.passes.append([r[0] for r in results])

    def traced_pass(self, rec) -> None:
        """One pass of traced replicas; appends its span id to ``pass_ids``."""
        import tracing

        with rec.span("bench.pass", index=len(self.pass_ids)) as pass_span:
            for job in self.jobs:
                try:
                    payload = tracing.run_traced_job(rec, job)
                    problems = tracing.replica_mismatches(
                        payload, self.reference[job.name])
                    problems += self.incorrect[job.name]
                except Exception:
                    problems = [traceback.format_exc(limit=4)]
                self._record(job, f"traced pass {len(self.pass_ids)}", problems)
        self.pass_ids.append(pass_span["id"])


def probe_setup(workload: str, design_files) -> dict:
    """One fresh child process: wall time of import + load + canonicalize,
    and that time scaled to the nominal host speed by reference runs made
    just before and just after it."""
    from hostspeed import REFERENCE_S, reference_seconds

    env = dict(os.environ, PYTHONPATH=SRC)
    probe = os.path.join(HERE, "setup_probe.py")
    refs = [reference_seconds(workload) for _ in range(SETUP_REFERENCE_RUNS)]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, probe, *design_files], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    refs += [reference_seconds(workload) for _ in range(SETUP_REFERENCE_RUNS)]
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return dict(json.loads(done.stdout.strip().splitlines()[-1]), wall_s=wall,
                scaled_s=wall * REFERENCE_S[workload] / statistics.median(refs))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(samples)
    idx = len(xs) - TAIL_BEYOND - 1
    if idx < 0:
        raise RuntimeError(f"{len(xs)} job samples are too few for a tail")
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs)


def _mc_standard_error(job, stdout: str) -> float | None:
    payload = json.loads(stdout)
    if job.command == "family":
        return max(payload["rows"], key=lambda r: r["K1"])["mc_standard_error"]
    return payload.get("mc_standard_error") or None


def end_to_end(runner, setup) -> tuple[dict, dict]:
    """Timings are scaled to the nominal host speed pass by pass: each pass's
    times are multiplied by the workload's REFERENCE_S over the median
    reference time measured between that pass's jobs (hostspeed.py)."""
    from hostspeed import REFERENCE_S

    jobs, passes = runner.jobs, runner.passes
    nominal = REFERENCE_S[runner.workload]
    scaled = [[t * nominal / statistics.median(refs) for t in p]
              for p, refs in zip(passes, runner.refs)]
    job_times = [t for p in scaled for t in p]
    tail_value, tail_pct, tail_n = tail(job_times)
    ses = {job.name: _mc_standard_error(job, runner.reference[job.name])
           for job in jobs if not runner.incorrect[job.name]}
    k_se = [ses[job.name] * t ** 0.5
            for p in scaled for job, t in zip(jobs, p) if ses.get(job.name)]
    reps = sum(job.replications for job in jobs)
    rates = [reps / sum(t for job, t in zip(jobs, p) if job.replications)
             for p in scaled]
    metrics = {
        "setup_s": statistics.median(r["scaled_s"] for r in setup),
        "pass_s": statistics.median(sum(p) for p in scaled),
        "job_s_p50": statistics.median(job_times),
        "job_s_tail": tail_value,
        "k_se_1s": statistics.median(k_se),
        "coverage_reps_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Report only: the same figures as timed, at the host's own speed.
        "raw.setup_s": statistics.median(r["wall_s"] for r in setup),
        "raw.pass_s": statistics.median(runner.walls),
        "raw.job_s_p50": statistics.median(t for p in passes for t in p),
        "host.reference_s": statistics.median(t for refs in runner.refs for t in refs),
    }
    notes = {
        "setup_s": f"median of {len(setup)} child processes, host-normalised",
        "pass_s": f"median of {len(passes)} passes of {len(jobs)} jobs, host-normalised",
        "job_s_p50": f"median of {len(job_times)} job samples, host-normalised",
        "job_s_tail": f"p{tail_pct:.1f} of {tail_n} samples, {TAIL_BEYOND} beyond it, "
                      "host-normalised",
        "k_se_1s": f"median of {len(k_se)} samples, K-units*sqrt(s), host-normalised",
        "coverage_reps_per_s": f"median of {len(rates)} passes, host-normalised",
        "peak_rss_mb": "ru_maxrss of this process",
        "host.reference_s": f"median reference kernel time; nominal {nominal} s",
    }
    return metrics, notes


def per_layer(rec, pass_ids, walls, setup) -> tuple[dict, dict]:
    from tracing import pass_figures

    spans = rec.spans
    per_pass = [pass_figures(spans, pid) for pid in pass_ids]
    names = sorted({k for f in per_pass for k in f})
    figures = {k: statistics.median(f[k] for f in per_pass if k in f) for k in names}
    figures["cli.import_s"] = statistics.median(r["import_s"] for r in setup)
    figures["design.load_s"] = statistics.median(r["load_s"] for r in setup)
    figures["design.canonicalize_s"] = statistics.median(r["canonicalize_s"] for r in setup)
    figures["trace.untraced_pass_s"] = statistics.median(walls)
    figures["trace.overhead_s"] = figures["trace.traced_pass_s"] - figures["trace.untraced_pass_s"]
    return figures, {
        "cli.glue_s": "job spans minus the layer spans inside them",
        "cli.layer_span_share": "share of job-span time covered by layer spans",
        "constants.fold_s": "derived: max_abs_t_draws - walk - draws",
        "constants.fold_ns_per_dir_draw": "derived from constants.fold_s",
        "constants.quantile_se_s": "derived: posi_constant - max_abs_t_draws",
        "trace.overhead_s": "traced minus untraced pass_s",
        "cli.import_s": f"median of {len(setup)} child processes",
    }


def _unit(name: str) -> str:
    for part, unit in (("_ns_per_", "ns"), ("_ms_per_rep", "ms"), ("_per_s", "1/s")):
        if part in name:
            return unit
    for suffix, unit in (("_share", "ratio"), ("_s", "s"), ("_mb", "MB"),
                         ("mc_se", "K")):
        if name.endswith(suffix) or suffix + "." in name or suffix + "_" in name:
            return unit
    return "count"


def job_comparison(runner, rec) -> list[tuple[str, float, float, float]]:
    """Per job: median untraced wall time, median traced job-span time, and
    the median share of the job span that its layer spans cover."""
    covered: dict[int, float] = {}
    for s in rec.spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    traced: dict[str, list[tuple[float, float]]] = {}
    for s in rec.spans:
        if s["name"] == "cli.job":
            dur = s["end"] - s["start"]
            traced.setdefault(s["attrs"]["job"], []).append(
                (dur, covered.get(s["id"], 0.0) / dur))
    return [(job.name, statistics.median(p[i] for p in runner.passes),
             statistics.median(d for d, _ in traced[job.name]),
             statistics.median(c for _, c in traced[job.name]))
            for i, job in enumerate(runner.jobs) if job.name in traced]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "posikit", "__init__.py")):
        return _fail(f"no posikit sources under {SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")

    blas_threads = min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, SRC)
    import posikit

    if not os.path.abspath(posikit.__file__).startswith(SRC + os.sep):
        return _fail(f"imported posikit from {posikit.__file__}, not from {SRC}")
    import meta
    import workloads
    from tracing import SpanRecorder

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        inputs = workloads.prepare(args.workload, args.seed, args.held_out, workdir)
        setup = [probe_setup(args.workload, inputs.design_files)]

        def more_setup():
            if len(setup) < SETUP_REPEATS:
                setup.append(probe_setup(args.workload, inputs.design_files))

        runner = Runner(args.workload, inputs.jobs)
        rec = SpanRecorder()
        if args.trace:
            # Untraced and traced passes alternate, so the tracing overhead is
            # not confounded with drift in machine speed during the run.
            def one_round():
                runner.untraced_pass()
                runner.traced_pass(rec)
                more_setup()
            run_rounds(args.seconds, TRACE_MIN_PASSES, one_round)
        else:
            def one_round():
                runner.untraced_pass()
                more_setup()
            run_rounds(args.seconds, MIN_PASSES, one_round)
        while len(setup) < SETUP_REPEATS:
            more_setup()
        if args.trace:
            figures, notes = per_layer(rec, runner.pass_ids, runner.walls, setup)
            jobs_table = job_comparison(runner, rec)
            wanted = spec["per_layer"]
        else:
            figures, notes = end_to_end(runner, setup)
            jobs_table = []
            wanted = spec["end_to_end"]
    except (RuntimeError, OSError, subprocess.SubprocessError, statistics.StatisticsError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        return _fail(f"no value for {', '.join(missing)}")
    failed = len(runner.failures)
    info = meta.collect(ROOT, blas_threads)
    info.update(workload=args.workload, seed=args.seed, held_out=args.held_out,
                seconds=args.seconds, trace=args.trace)

    print(f"perfbench {args.workload} seed={args.seed}"
          f"{' held-out' if args.held_out else ''} trace={args.trace}")
    print("meta " + json.dumps(info, sort_keys=True))
    units = {m["name"]: m["unit"] for m in wanted}
    for name in sorted(figures):
        unit = units.get(name) or _unit(name)
        print(f"  {name:<42} {figures[name]:>14.6g} {unit:<8} {notes.get(name, '')}")
    for name, untraced, traced, share in jobs_table:
        print(f"  job {name:<38} untraced {untraced:9.4f} s  traced {traced:9.4f} s"
              f"  layer spans cover {100 * share:5.1f}%")
    print(f"  {'failed_share':<42} {failed / runner.attempted:>14.6g} ratio    "
          f"{failed} of {runner.attempted} job runs")
    for failure in runner.failures[:20]:
        print(f"  FAILED {failure['job']} ({failure['phase']}): "
              + " | ".join(p.strip().splitlines()[-1] for p in failure["problems"]))

    tag = f"{args.workload}-seed{args.seed}{'-heldout' if args.held_out else ''}"
    result_path = os.path.join(OUT, "results", f"{tag}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"meta": info, "figures": figures, "notes": notes,
                   "attempted": runner.attempted, "failures": runner.failures,
                   "samples": {"setup": setup, "pass_s": runner.walls,
                               "reference_s": runner.refs,
                               "job_s": {job.name: [p[i] for p in runner.passes]
                                         for i, job in enumerate(runner.jobs)}},
                   "spans": rec.dump()}, fh)
    print(f"results written to {os.path.relpath(result_path, ROOT)}")

    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
