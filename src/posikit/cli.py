"""Command-line interface with reproducible, machine-readable output.

Exit codes: 0 success, 1 usage or validation problem, 2 data error (parsing,
rank), 3 infeasible request. All results go to stdout; diagnostics and
warnings go to stderr. JSON output is byte-identical for identical
configurations including the seed. --threads is accepted and validated but
does not change work or output: the Monte Carlo fold runs in the calling
thread.

``run`` returns the exit code, 1 for a usage error too; ``--help`` and
``--version`` exit 0 through ``SystemExit``. It parses with one parser,
built on its first call and kept for the life of the process, so repeated
in-process calls do not rebuild the subcommands. Parsing leaves no state
in it: each call gets a fresh namespace, and handlers look up what they
call at call time.
``build_parser`` returns a new parser on every call. ``python -m posikit``
runs ``main``.

Each handler imports the modules it runs when it runs: ``inference`` in
intervals, spar and coverage, ``geometry`` in analyze and ``families`` in
family. So k, k1, scheffe, orth and bound load none of the three.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .constants import (
    ConstantEstimate,
    ErrorModel,
    _posi_from,
    _validate_alpha,
    asymptotic_cap_constant,
    cap_bonferroni_bound,
    orth_constant,
    posi1_constant,
    posi_constant,
    scheffe_constant,
)
from .design import CanonicalDesign, _cells, _text_rows, canonicalize, load_design
from .errors import DataError, InfeasibleError
from .lattice import (DirectionSet, ModelUniverse, _candidate_pair_count, _check_fit,
                      _dedup_up_to_sign, _members, direction_stream)

_STREAM_WARN_P = 16
# Measured rates for the cost warning on a 2-core Intel Xeon KVM guest with
# OpenBLAS on 2 threads. The walk rates come from a traced benchmark run
# (perfbench/run.py --workload calibrate --seed 104 --trace 1):
# design.directions_per_s.all = 1 224 484 (enumeration, all-subsets
# universe), and 219 536 pairs per second in the enumeration spans of its
# k1.p11.predictor3 job (a posi1 enumeration factors one model per pair of
# its predictor). Both walks run at p = 10 and 11, where the per-block
# numpy calls weigh most; the full lattice at p = 16 walks at about 2 M
# directions per second. The fold rate is that of the screened folds that k
# and k1 run (the held windows' float32 bound stage with its cones, the
# float64 refold and the norm screen, see constants._screened_draws), in the
# calling thread, less the walk and the draw generation, per nominal pair
# (counted before the rank rule) x draw. Medians of 5 rounds in one process,
# in three processes: posi_constant on an 18 x 14 Gaussian design (10 000
# draws) 0.33, 0.31 and 0.31 ns, and posi1_constant on a 21 x 17 one
# (predictor 3, 40 000 draws, where the screen drops few draws and one cone
# spans each chunk) 0.49, 0.54 and 0.49 ns. The rate is the slower one, the
# median of its three processes.
_WALK_S_PER_DIRECTION = 1.0 / 1_224_484
_WALK_S_PER_PREDICTOR_PAIR = 1.0 / 219_536
_FOLD_S_PER_DIR_DRAW = 0.49e-9
# analyze's orthogonality census forms every inner product of the streamed
# directions, count^2 of them. On the same machine, on the directions of a
# (p+4) x p Gaussian design, three runs each: 1.82-1.93 ns per product at
# p = 12 (24 576 directions, 1.1 s) and 2.01-2.11 ns at p = 13 (53 248
# directions, 5.7-6.0 s); the rate is the larger median. analyze warns when
# the census alone is projected to take longer than _CENSUS_WARN_S, which a
# full lattice reaches at p = 13.
_CENSUS_S_PER_PAIR = 2.03e-9
_CENSUS_WARN_S = 5.0


class _UsageError(SystemExit):
    """A usage problem, already reported on stderr: exit code 1. ``run``
    returns the code; a parser used on its own still exits with it."""

    def __init__(self):
        super().__init__(1)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError()


def _parse_df(text: str) -> ErrorModel:
    if text.strip().lower() in ("inf", "infinity"):
        return ErrorModel.known_sigma()
    try:
        r = int(text)
    except ValueError:
        raise _usage_error(f"--df must be a positive integer or 'inf', got {text!r}")
    if r < 1:
        raise _usage_error("--df must be >= 1")
    return ErrorModel.with_df(r)


def _usage_error(message: str) -> _UsageError:
    print(f"error: {message}", file=sys.stderr)
    return _UsageError()


def _threads_arg(text: str) -> str:
    # Kept so existing command lines still parse. The fold runs in the
    # calling thread and draws depend only on the seed, so the value is
    # checked and then ignored.
    if text != "auto" and not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError("--threads must be a positive integer or 'auto'")
    return text


def _load_vector(path: str, design: CanonicalDesign, what: str) -> np.ndarray:
    """Read a length-n vector file and reduce it to canonical coordinates."""
    expected = design.basis.shape[0]
    values = []
    for lineno, cells in _text_rows(path, f"{what} file"):
        for tok in cells:
            try:
                values.append(float(tok))
            except ValueError:
                raise DataError(f"non-numeric {what} value {tok!r} at line {lineno}") from None
    if len(values) != expected:
        raise DataError(f"{what} file has {len(values)} values, expected {expected}")
    vector = np.asarray(values)
    if not np.all(np.isfinite(vector)):
        raise DataError(f"{what} file contains non-finite values")
    return design.reduce_response(vector)


def _cell_list(kind):
    """An argparse type: a comma list split as every text line is split
    (design._cells), each cell converted by ``kind``. argparse reports a bad
    cell as a usage error naming the flag: "argument --p-list: invalid int
    list value: '5,x'"."""
    def parse(text: str) -> list:
        return [kind(cell) for cell in _cells(text)]

    parse.__name__ = f"{kind.__name__} list"
    return parse


def _load_canonical(args) -> tuple[CanonicalDesign, ModelUniverse]:
    if not getattr(args, "design", None):
        raise _usage_error("this command requires --design")
    dm = load_design(
        args.design,
        header=args.header,
        intercept=args.intercept,
        rank_tolerance=args.rank_tolerance,
    )
    form = getattr(args, "form", "upper_triangular")
    design = canonicalize(dm, form=form)
    universe = ModelUniverse.from_spec(getattr(args, "universe", "all"), p=design.p)
    return design, universe


def _warn_large_stream(design: CanonicalDesign, universe: ModelUniverse,
                       n_samples: int, predictor: int | None = None,
                       census: bool = False):
    """Warn on stderr when the walk, or with census=True analyze's quadratic
    orthogonality census, is projected to be large."""
    hint = _candidate_pair_count(design, universe, predictor)
    census_s = hint * hint * _CENSUS_S_PER_PAIR if census else 0.0
    if (design.p > _STREAM_WARN_P and hint > (1 << 20)) or census_s > _CENSUS_WARN_S:
        per_pair = (_WALK_S_PER_DIRECTION if predictor is None
                    else _WALK_S_PER_PREDICTOR_PAIR)
        gen_s = hint * per_pair
        mc_s = hint * n_samples * _FOLD_S_PER_DIR_DRAW
        parts = f"~{gen_s:.0f}s enumeration + ~{mc_s:.0f}s Monte Carlo"
        if census:
            parts += f" + ~{census_s:.0f}s orthogonality census"
        print(
            f"warning: p={design.p} with this universe streams about {hint} "
            f"directions; projected time ~{gen_s + mc_s + census_s:.0f}s "
            f"({parts})",
            file=sys.stderr,
        )


def _df_json(em: ErrorModel):
    return "inf" if em.sigma_known else int(em.df)


def _base_payload(*, k=None, alpha=None, em=None, mc_samples=None,
                  mc_se=None, seed=None, d=None, p=None, direction_count=None,
                  universe=None) -> dict:
    return {
        "K": k,
        "alpha": alpha,
        "df": _df_json(em) if em is not None else None,
        "mc_samples": mc_samples,
        "mc_standard_error": mc_se,
        "seed": seed,
        "d": d,
        "p": p,
        "direction_count": direction_count,
        "universe": universe,
        "tool_version": __version__,
    }


def _payload_from_estimate(est: ConstantEstimate, design=None) -> dict:
    return _base_payload(
        k=est.k,
        alpha=est.alpha,
        em=est.error_model,
        mc_samples=est.mc_samples,
        mc_se=est.mc_standard_error,
        seed=est.seed,
        d=design.d if design is not None else None,
        p=design.p if design is not None else None,
        direction_count=est.direction_count,
        universe=est.universe.spec_string() if est.universe is not None else None,
    )


def _emit(payload: dict, args, rows_key: str | None = None):
    fmt = args.output
    if fmt == "json":
        # NaN and Infinity are not JSON (RFC 8259): such a payload is an
        # error (exit 1), and nothing reaches stdout.
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
        return
    if fmt == "csv":
        rows = payload.get(rows_key) if rows_key else None
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            cols = list(rows[0].keys())
            print(",".join(cols))
            for row in rows:
                print(",".join(_csv_cell(row[c]) for c in cols))
        else:
            scalars = {k: v for k, v in payload.items()
                       if not isinstance(v, (list, dict))}
            print(",".join(scalars.keys()))
            print(",".join(_csv_cell(v) for v in scalars.values()))
        return
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list):
            print(f"{key}:")
            for row in value:
                print(f"  {row}")
        else:
            print(f"{key}: {value}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return str(value)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_k(args) -> int:
    """k, or with --predictor (k1) the single-predictor constant."""
    design, universe = _load_canonical(args)
    em = _parse_df(args.df)
    predictor = getattr(args, "predictor", None)
    # The set checks the predictor's range, and forces it, before the warning.
    walked = DirectionSet(design, universe, predictor=predictor).universe
    _warn_large_stream(design, walked, args.mc_samples, predictor)
    mc = dict(alpha=args.alpha, error_model=em, n_samples=args.mc_samples, seed=args.seed)
    if predictor is None:
        est = posi_constant(design, universe, **mc)
    else:
        est = posi1_constant(design, universe, predictor, **mc)
    payload = _payload_from_estimate(est, design)
    if predictor is not None:
        payload["predictor"] = predictor
    _emit(payload, args)
    return 0


def _cmd_closed_form(args) -> int:
    em = _parse_df(args.df)
    d = _dimension_for(args)
    constant = scheffe_constant if args.command == "scheffe" else orth_constant
    est = constant(args.alpha, d, em)
    payload = _payload_from_estimate(est)
    payload["d"] = d
    _emit(payload, args)
    return 0


def _dimension_for(args) -> int:
    if getattr(args, "d", None) is not None:
        return args.d
    if getattr(args, "design", None):
        design, _ = _load_canonical(args)
        return design.d
    raise _usage_error("provide --d or --design")


def _cmd_bound(args) -> int:
    if args.direction_count is not None:
        count = args.direction_count
        d = args.d
        if d is None:
            raise _usage_error("--direction-count also needs --d")
        p = None
    else:
        design, universe = _load_canonical(args)
        _warn_large_stream(design, universe, 0)
        count = direction_stream(design, universe).count
        d = design.d
        p = design.p
    est = cap_bonferroni_bound(count, d, args.alpha)
    payload = _payload_from_estimate(est)
    payload["d"] = d
    payload["p"] = p
    a_hat = count ** (1.0 / d)
    payload["cardinality_rate"] = a_hat
    payload["asymptotic_rate_constant"] = (
        asymptotic_cap_constant(a_hat) if a_hat > 1.0 else None
    )
    _emit(payload, args)
    return 0


def _cmd_intervals(args) -> int:
    from .inference import TargetSpec, _check_in_universe, _check_response, posi_intervals

    design, universe = _load_canonical(args)
    em = _parse_df(args.df)
    y = _load_vector(args.response, design, "response")
    model = _members(_cells(args.model))
    # What the fit and the intervals would refuse is refused before K is
    # computed, with their messages.
    _check_fit(design, model)
    _check_response(y, args.sigma_hat)
    if args.k_source == "scheffe":
        est = scheffe_constant(args.alpha, design.d, em)
    else:
        _check_in_universe(universe, model)
        est = posi_constant(
            design, universe, alpha=args.alpha, error_model=em,
            n_samples=args.mc_samples, seed=args.seed,
        )
    target = TargetSpec(_load_vector(args.mu, design, "mu")) if args.mu else None
    report = posi_intervals(design, y, args.sigma_hat, em, model, est, target)
    payload = _payload_from_estimate(est, design)
    payload["model"] = list(model.members)
    payload["sigma_hat"] = args.sigma_hat
    payload["intervals"] = [
        {
            "predictor": row.predictor,
            "name": row.name,
            "estimate": row.estimate,
            "lower": row.lower,
            "upper": row.upper,
            "t_observed": row.t_observed,
            "K_used": row.k_used,
            "covers_target": row.covers_target,
        }
        for row in report.rows
    ]
    _emit(payload, args, rows_key="intervals")
    return 0


def _cmd_spar(args) -> int:
    from .inference import spar1_select, spar_select

    design, universe = _load_canonical(args)
    y = _load_vector(args.response, design, "response")
    if args.predictor is not None:
        model, stat = spar1_select(design, y, args.sigma_hat, universe, args.predictor)
    else:
        model, stat = spar_select(design, y, args.sigma_hat, universe)
    payload = _base_payload(
        alpha=None, em=None, seed=None, d=design.d, p=design.p,
        universe=universe.spec_string(),
    )
    payload["selected_model"] = list(model.members)
    payload["max_abs_t"] = stat
    payload["sigma_hat"] = args.sigma_hat
    payload["predictor"] = args.predictor
    _emit(payload, args)
    return 0


def _cmd_coverage(args) -> int:
    from .inference import TargetSpec, _DirectionSelector, coverage_experiment

    _validate_alpha(args.alpha)  # the naive K is computed here, not by constants
    design, universe = _load_canonical(args)
    em = _parse_df(args.df)
    selector = "spar"
    if args.selector.startswith("spar1:"):
        try:
            selector = ("spar1", int(args.selector.split(":", 1)[1]))
        except ValueError:
            raise _usage_error(f"unknown --selector {args.selector!r}") from None
        DirectionSet(design, universe, predictor=selector[1])  # checks j before K
    elif args.selector != "spar":
        raise _usage_error(f"unknown --selector {args.selector!r}")
    if args.k_source == "scheffe":
        est: ConstantEstimate | float = scheffe_constant(args.alpha, design.d, em)
    elif args.k_source == "naive":
        from scipy import special

        est = float(
            special.ndtri(1 - args.alpha / 2)
            if em.sigma_known
            else special.stdtrit(em.df, 1 - args.alpha / 2)
        )
    elif selector == "spar":
        # The spar selector holds the whole set anyway: K is folded from the
        # held set, so one walk of the universe serves K, the selections and
        # their refits.
        directions = direction_stream(design, universe)._hold()
        est = _posi_from(directions, args.alpha, em, args.mc_samples, args.seed)
        selector = _DirectionSelector(lambda _: directions)
    else:
        est = posi_constant(
            design, universe, alpha=args.alpha, error_model=em,
            n_samples=args.mc_samples, seed=args.seed,
        )
    target = TargetSpec(_load_vector(args.mu, design, "mu")) if args.mu else None
    result = coverage_experiment(
        design, universe, selector, args.alpha, em, est,
        replications=args.replications, seed=args.seed, target=target,
    )
    k_value = est.k if isinstance(est, ConstantEstimate) else est
    payload = _base_payload(
        k=k_value, alpha=args.alpha, em=em,
        mc_samples=args.mc_samples if isinstance(est, ConstantEstimate) else 0,
        mc_se=(est.mc_standard_error if isinstance(est, ConstantEstimate) else 0.0),
        seed=args.seed, d=design.d, p=design.p,
        direction_count=(est.direction_count if isinstance(est, ConstantEstimate) else None),
        universe=universe.spec_string(),
    )
    payload["k_source"] = args.k_source
    payload["selector"] = args.selector
    payload["replications"] = args.replications
    payload["coverage"] = result.coverage
    payload["binomial_se"] = result.binomial_se
    _emit(payload, args)
    return 0


def _cmd_analyze(args) -> int:
    from .geometry import orthogonality_census, verify_duality

    design, universe = _load_canonical(args)
    _warn_large_stream(design, universe, 0, census=True)
    # One walk gives the count, the skips, the distinct directions and the census.
    streamed = direction_stream(design, universe)
    whole = streamed.whole()
    census = orthogonality_census(whole.vectors)
    payload = _base_payload(
        d=design.d, p=design.p, direction_count=whole.predictors.size,
        universe=universe.spec_string(),
    )
    payload["distinct_directions"] = _dedup_up_to_sign(whole).predictors.size
    payload["degenerate_skips"] = streamed.degenerate_skips
    payload["orthogonality_histogram"] = {
        str(k): v for k, v in census.histogram.items()
    }
    if design.d == design.p:
        report = verify_duality(design)
        payload["duality"] = {
            "matched_pairs": report.matched_pairs,
            "max_direction_mismatch": report.max_direction_mismatch,
            "max_norm_product_error": report.max_norm_product_error,
        }
    else:
        payload["duality"] = None
    _emit(payload, args)
    return 0


def _cmd_family(args) -> int:
    from .families import exchangeable_ratio_table, worst_posi1_table

    em = ErrorModel.known_sigma()
    if args.family == "exchangeable":
        rows = exchangeable_ratio_table(
            args.p_list, alpha=args.alpha, n_samples=args.mc_samples,
            seed=args.seed, a_grid=args.a_grid or None,
        )
        table = [
            {"p": r.p, "best_a": r.best_a, "K": r.k,
             "mc_standard_error": r.mc_standard_error, "ratio": r.ratio}
            for r in rows
        ]
        payload = _base_payload(alpha=args.alpha, em=em,
                                mc_samples=args.mc_samples, seed=args.seed)
        payload["family"] = "exchangeable"
        payload["rows"] = table
        payload["ratio_denominator"] = "sqrt(2 log p)"
        _emit(payload, args, rows_key="rows")
        return 0
    if args.family == "worst-posi1":
        rows = worst_posi1_table(
            args.p, alpha=args.alpha, n_samples=args.mc_samples,
            seed=args.seed, c_grid=args.c_grid or None,
        )
        table = [
            {"p": r.p, "c": r.c, "K1": r.k1,
             "mc_standard_error": r.mc_standard_error, "ratio": r.ratio}
            for r in rows
        ]
        payload = _base_payload(alpha=args.alpha, em=em,
                                mc_samples=args.mc_samples, seed=args.seed,
                                p=args.p)
        payload["family"] = "worst-posi1"
        payload["rows"] = table
        payload["sup_ratio"] = max(r.ratio for r in rows)
        payload["ratio_denominator"] = "sqrt(p)"
        _emit(payload, args, rows_key="rows")
        return 0
    raise _usage_error(f"unknown family {args.family!r}")


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_common(sub, design=True, mc=True):
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--df", default="inf",
                     help="error degrees of freedom, integer or 'inf'")
    sub.add_argument("--output", choices=("json", "csv", "text"), default="json")
    sub.add_argument("--threads", default="auto", type=_threads_arg,
                     help="accepted for compatibility and ignored; the Monte "
                          "Carlo fold runs in the calling thread, and output "
                          "does not depend on it")
    if design:
        sub.add_argument("--design", help="design matrix file (CSV or whitespace)")
        sub.add_argument("--header", action="store_true",
                         help="first line of the design file is a header")
        sub.add_argument("--intercept", action="store_true",
                         help="prepend a constant column")
        sub.add_argument("--rank-tolerance", type=float, default=1e-10)
        sub.add_argument("--universe", default="all",
                         help="model universe spec, e.g. 'size<=2&forced=1'")
    if mc:
        sub.add_argument("--mc-samples", type=int, default=100_000)
        sub.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="posikit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("k", parents=[], help="simultaneous max-|t| constant")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_k)

    sub = commands.add_parser("k1", help="single-predictor constant")
    _add_common(sub)
    sub.add_argument("--predictor", type=int, required=True)
    sub.set_defaults(handler=_cmd_k)

    sub = commands.add_parser("scheffe", help="Scheffe constant (closed form)")
    _add_common(sub, mc=False)
    sub.add_argument("--d", type=int)
    sub.set_defaults(handler=_cmd_closed_form)

    sub = commands.add_parser("orth", help="orthogonal-design constant (closed form)")
    _add_common(sub, mc=False)
    sub.add_argument("--d", type=int)
    sub.set_defaults(handler=_cmd_closed_form)

    sub = commands.add_parser("bound", help="sphere-cap union upper bound")
    _add_common(sub, mc=False)
    sub.add_argument("--direction-count", type=int)
    sub.add_argument("--d", type=int)
    sub.set_defaults(handler=_cmd_bound)

    sub = commands.add_parser("intervals", help="simultaneous confidence intervals")
    _add_common(sub)
    sub.add_argument("--response", required=True)
    sub.add_argument("--sigma-hat", type=float, required=True)
    sub.add_argument("--model", required=True, help="comma-separated 1-based indices")
    sub.add_argument("--k-source", choices=("posi", "scheffe"), default="posi")
    sub.add_argument("--mu", help="optional mean vector file for coverage flags")
    sub.set_defaults(handler=_cmd_intervals)

    sub = commands.add_parser("spar", help="significance-hunting selection")
    _add_common(sub, mc=False)
    sub.add_argument("--response", required=True)
    sub.add_argument("--sigma-hat", type=float, required=True)
    sub.add_argument("--predictor", type=int,
                     help="restrict to models containing this predictor")
    sub.set_defaults(handler=_cmd_spar)

    sub = commands.add_parser("coverage", help="family-wise coverage experiment")
    _add_common(sub)
    sub.add_argument("--selector", default="spar", help="spar or spar1:<j>")
    sub.add_argument("--replications", type=int, default=10_000)
    sub.add_argument("--mu", help="mean vector file (length n)")
    sub.add_argument("--k-source", choices=("posi", "scheffe", "naive"),
                     default="posi")
    sub.set_defaults(handler=_cmd_coverage)

    sub = commands.add_parser("analyze", help="direction counts, census, duality")
    _add_common(sub, mc=False)
    sub.add_argument("--form", choices=("upper_triangular", "symmetric"),
                     default="upper_triangular")
    sub.set_defaults(handler=_cmd_analyze)

    sub = commands.add_parser("family", help="tables for the analyzed design families")
    _add_common(sub, design=False)
    sub.add_argument("family", choices=("exchangeable", "worst-posi1"))
    sub.add_argument("--p-list", type=_cell_list(int), default="5,8,11")
    sub.add_argument("--a-grid", type=_cell_list(float))
    sub.add_argument("--p", type=int, default=2000)
    sub.add_argument("--c-grid", type=_cell_list(float))
    sub.set_defaults(handler=_cmd_family)

    return parser


@functools.cache
def _parser() -> _Parser:
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except _UsageError:
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible request: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
