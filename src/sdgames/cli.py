"""Command-line interface.

Commands: reduce (game pipeline), bound (solution bounds), gen (instance
generators), verify (candidate checking), solve (direct primal/dual solves).

Exit codes for reduce: 0 strongly optimal, 2 unboundedness certificate,
3 inconclusive, 1 error (in a batch: any file failed).
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
import time
from pathlib import Path

import numpy as np

from .bounds import aux_dimensions, certified_bound_M, eta_bar, input_bitsize, practical_bound_M, squared_height
from .direct import DIRECT_TOL, solve_both
from .game import GAME_TOL
from .generators import example_corpus, khachiyan_pair, random_slater, random_unbounded
from .model import (
    EXACT,
    SymMat,
    check_dual_direction,
    check_primal_direction,
    check_strongly_optimal,
)
from .probio import ProblemFormatError, load_problem, report_to_dict, save_problem
from .reduction import (
    DUAL_UNBOUNDED_CERT,
    INCONCLUSIVE,
    PRIMAL_UNBOUNDED_CERT,
    STRONGLY_OPTIMAL,
    PipelineConfig,
    run_pipeline,
)
from .solver import DUAL_INFEASIBLE, PRIMAL_INFEASIBLE

# errors a command reports with exit code 1 instead of a traceback
_FILE_ERRORS = (OSError, ValueError, RuntimeError)

_FARKAS_STATUSES = (PRIMAL_INFEASIBLE, DUAL_INFEASIBLE)

# the program of the pair that each side's Farkas status proves infeasible:
# the dual side solves the pair's dual as its primal, so its labels swap
_PROVEN_INFEASIBLE = {
    ("primal", PRIMAL_INFEASIBLE): "primal",
    ("primal", DUAL_INFEASIBLE): "dual",
    ("dual", PRIMAL_INFEASIBLE): "dual",
    ("dual", DUAL_INFEASIBLE): "primal",
}

_EXIT_BY_KIND = {
    STRONGLY_OPTIMAL: 0,
    PRIMAL_UNBOUNDED_CERT: 2,
    DUAL_UNBOUNDED_CERT: 2,
    INCONCLUSIVE: 3,
}


def _finite_positive(text: str) -> float:
    """argparse type: a finite positive number."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return value


def _bound_arg(text: str):
    """argparse type of --M: 'auto' or a finite number of at least 1."""
    if text == "auto":
        return text
    value = _finite_positive(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is below 1, the least solution bound")
    return value


def _print_report_text(name: str, report: dict) -> None:
    print(f"instance    : {name}")
    if "error" in report:
        print(f"error       : {report['error']}")
        return
    M = report["M"]
    print(f"outcome     : {report['outcome']}")
    d = report["diagnostics"]
    bracket = f"[{d['value_lower']:.9g}, {d['value_upper']:.9g}]"
    print(f"game value  : {report['game_value']:.9g} in {bracket}")
    print(f"M           : {M['value']:g} ({M['mode']})")
    if M["certified_log2"] is not None:
        print(f"certified lg: {M['certified_log2']}")
    if report.get("implied_w_bar") is not None:
        print(f"implied w   : {report['implied_w_bar']:.9g}")
    for key in ("X", "y", "direction_X", "direction_y"):
        if report.get(key) is not None:
            print(f"{key:12s}: {report[key]}")
    for note in report["notes"]:
        print(f"note        : {note}")


def _decimal(k: int) -> str:
    """``str(k)`` without the interpreter's cap on the digits of an int -> str
    conversion, which a certified bound's exponent can exceed."""
    return str(decimal.Decimal(k))


def _reduce_one(path: Path, args) -> tuple:
    pair, metadata = load_problem(path)
    t0 = time.perf_counter()
    bound_mode = "practical" if args.M == "auto" else args.M
    outcome = run_pipeline(pair, PipelineConfig(game_tol=args.tol, bound_mode=bound_mode))
    timings = {"total_s": time.perf_counter() - t0}
    report = report_to_dict(outcome, timings)
    if pair.mode == EXACT:
        report["M"]["certified_log2"] = _decimal(certified_bound_M(pair))
    if metadata.get("expected_outcome"):
        report["expected_outcome"] = metadata["expected_outcome"]
    return outcome, report


def _error_text(exc: Exception) -> str:
    if isinstance(exc, ProblemFormatError):
        return f"problem format error: {exc}"
    return f"error: {exc}"


def cmd_reduce(args) -> int:
    path = Path(args.input)
    paths = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not paths:
        print(f"no problem files under {path}", file=sys.stderr)
        return 1
    batch = len(paths) > 1
    code, failed = 0, False
    # one file at a time: threads would only queue for the interpreter lock
    for p in paths:
        try:
            outcome, report = _reduce_one(p, args)
        except _FILE_ERRORS as exc:
            if not batch:
                raise
            # one failed file is reported in its place and does not stop the batch
            failed, report = True, {"error": _error_text(exc)}
        else:
            code = max(code, _EXIT_BY_KIND[outcome.kind])
        if args.json:
            print(json.dumps({p.name: report} if batch else report, indent=2))
        else:
            _print_report_text(p.name, report)
            if batch:
                print()
        sys.stdout.flush()
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{p.stem}.report.json").write_text(json.dumps(report, indent=2) + "\n")
    return 1 if failed else code


def cmd_bound(args) -> int:
    pair, _ = load_problem(Path(args.input))
    want_certified = args.certified
    want_practical = args.practical or not args.certified
    nbar, mbar, Nbar, pbar = aux_dimensions(pair.n, pair.m)
    print(f"n, m        : {pair.n}, {pair.m}")
    print(f"aux dims    : nbar={nbar} mbar={mbar} Nbar={Nbar} pbar={pbar}")
    if want_practical:
        M = practical_bound_M(pair)
        print(f"practical M : {M.value:g} ({M.mode})")
    if want_certified:
        if pair.mode != EXACT:
            print("certified bound needs exact rational/integer data", file=sys.stderr)
            return 1
        tau0 = input_bitsize(pair)
        taubar1 = squared_height(tau0, Nbar, pbar)
        eb = eta_bar(pair.n, pair.m, tau0)
        print(f"tau0        : {tau0}")
        print(f"taubar1     : {taubar1}")
        print(f"etabar1     : {_decimal(eb)}")
        print(f"certified lg M: {_decimal(certified_bound_M(pair))}")
    return 0


# each single-pair kind of gen: its builder, its file stem and its metadata
_GEN_KINDS = {
    "khachiyan": (lambda a: khachiyan_pair(a.n, a.tau), "khachiyan_n{n}_tau{tau}", None),
    "random-slater": (lambda a: random_slater(a.n, a.m, a.seed), "random_slater_n{n}_m{m}_s{seed}",
                      {"expected_outcome": STRONGLY_OPTIMAL}),
    "random-unbounded": (lambda a: random_unbounded(a.n, a.m, a.seed), "random_unbounded_n{n}_m{m}_s{seed}",
                         {"expected_outcome": PRIMAL_UNBOUNDED_CERT}),
}


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.kind == "example-corpus":
        generated = [(pair, pair.name, meta) for pair, meta in example_corpus()]
    else:
        build, stem, meta = _GEN_KINDS[args.kind]
        generated = [(build(args), stem.format(**vars(args)), meta)]
    for pair, stem, meta in generated:
        p = out_dir / f"{stem}.json"
        save_problem(p, pair, meta)
        print(p)
    return 0


_CANDIDATE_FIELDS = {"optimal": ("X", "y"), "primal-dir": ("W",), "dual-dir": ("y",)}


def _candidate_fields(cand, kind: str) -> dict:
    """The candidate's fields for ``kind`` as float arrays, each entry finite."""
    out = {}
    for key in _CANDIDATE_FIELDS[kind]:
        try:
            a = np.atleast_1d(np.array(cand[key], dtype=float))
        except OverflowError:
            raise ValueError(f"{key}: entry beyond the float range") from None
        bad = np.argwhere(~np.isfinite(a))
        if bad.size:
            where = "".join(f"[{i}]" for i in bad[0])
            raise ValueError(f"{key}{where}: non-finite entry {float(a[tuple(bad[0])])!r}")
        out[key] = a
    return out


# the verify kind of each reported outcome, and its candidate fields in the report
_REPORT_CANDIDATES = {
    STRONGLY_OPTIMAL: ("optimal", {"X": "X", "y": "y"}),
    PRIMAL_UNBOUNDED_CERT: ("primal-dir", {"W": "direction_X"}),
    DUAL_UNBOUNDED_CERT: ("dual-dir", {"y": "direction_y"}),
}


def _report_candidate(report) -> tuple:
    """The verify kind and the candidate that a ``reduce`` report holds."""
    if not isinstance(report, dict):
        raise ValueError("a report is a JSON object")
    if "error" in report:
        raise ValueError(f"the report holds an error, not a result: {report['error']}")
    outcome = report.get("outcome")
    if outcome not in _REPORT_CANDIDATES:
        raise ValueError(f"a report with outcome {outcome!r} holds no result to verify")
    kind, fields = _REPORT_CANDIDATES[outcome]
    return kind, {key: report[field] for key, field in fields.items()}


def cmd_verify(args) -> int:
    pair, _ = load_problem(Path(args.input))
    try:
        cand = json.loads(Path(args.candidate).read_text())
    except json.JSONDecodeError as exc:
        print(f"candidate parse error: {exc}", file=sys.stderr)
        return 1
    pf, tol, kind = pair.to_float(), args.tol, args.kind
    try:
        if kind is None:
            kind, cand = _report_candidate(cand)
        f = _candidate_fields(cand, kind)
        if kind == "optimal":
            check = check_strongly_optimal(pf, SymMat(f["X"]), f["y"], tol)
        elif kind == "primal-dir":
            check = check_primal_direction(pf, SymMat(f["W"]), tol)
        else:
            check = check_dual_direction(pf, f["y"], tol)
    except (KeyError, ValueError, TypeError) as exc:
        print(f"invalid candidate: {exc}", file=sys.stderr)
        return 1
    detail = ""
    if kind != "optimal":
        detail = f" (Farkas certificate, {'strict' if check['strict'] else 'not strict'})"
    print(f"PASS{detail}" if check["ok"] else "FAIL")
    return 0 if check["ok"] else 2


def cmd_solve(args) -> int:
    pair, _ = load_problem(Path(args.input))
    res = solve_both(pair, args.tol)
    doc = {}
    for side in ("primal", "dual"):
        status = res[f"{side}_status"]
        doc[f"{side}_status"] = status
        # a Farkas status leaves a diverged iterate, whose objective is no value
        doc[f"{side}_value"] = None if status in _FARKAS_STATUSES else res[f"{side}_value"]
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for side in ("primal", "dual"):
            status = doc[f"{side}_status"]
            infeasible = _PROVEN_INFEASIBLE.get((side, status))
            if infeasible:
                print(f"{side:6s}: {status} (the {infeasible} is infeasible)")
            else:
                print(f"{side:6s}: {status}  value={doc[f'{side}_value']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sdgames", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="run the game reduction pipeline")
    p.add_argument("input", help="problem file or directory of problem files")
    p.add_argument("--M", type=_bound_arg, default="auto",
                   help="solution bound: 'auto' or a finite number of at least 1")
    p.add_argument("--tol", type=_finite_positive, default=GAME_TOL,
                   help="tolerance of the game solves (default %(default)g); the auxiliary "
                   "solves behind --M auto keep their own")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None, help="directory for report files")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("bound", help="compute solution bounds")
    p.add_argument("input")
    p.add_argument("--certified", action="store_true")
    p.add_argument("--practical", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("gen", help="generate problem files")
    p.add_argument("kind", choices=[*_GEN_KINDS, "example-corpus"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="verify a candidate solution or direction")
    p.add_argument("input")
    p.add_argument("candidate", help="candidate file, or a reduce report when --kind is omitted")
    p.add_argument("--kind", choices=["optimal", "primal-dir", "dual-dir"],
                   help="omitted: the report's outcome gives the kind")
    p.add_argument("--tol", type=_finite_positive, default=PipelineConfig.verify_tol,
                   help="check tolerance (default %(default)g, reduce's own); a direction check "
                   "also asks its objective to clear it, so a larger --tol can fail a direction")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="solve the primal and dual directly")
    p.add_argument("input")
    p.add_argument("--tol", type=_finite_positive, default=DIRECT_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _FILE_ERRORS as exc:
        print(_error_text(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
