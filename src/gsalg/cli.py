"""Command-line interface: every pipeline behind one reproducible entry point.

Subcommands: hilbert, certify, ladder, schedule, bounds, quotient, c35.
Reports are JSON (default) or an indented text rendering of the same data;
identical inputs and seed give byte-identical JSON.  Exit codes: 0 computed,
1 a checked hypothesis or certification failed (report still printed),
2 usage or input error.  The memory guard honors GSALG_MEMORY_LIMIT_MB.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from .elements import Element
from .fields import FieldError, field_by_name
from .ladder import (LadderError, build_ladder, compute_E, cover_bound_check,
                     e_sets_consistent, survivor_witness)
from .limits import CapacityError
from .magnitude import MATERIALIZE_BITS
from .parser import ParseError, parse_relations
from .quotient import (QuotientError, certify_finite_dimensional,
                       commutativity_status, relation_threshold,
                       truncated_ideal_basis)
from .schedule import (DyadicProfile, ScheduleError, compute_schedule,
                       cumulative_gap_report, dyadic_profile, growth_bounds,
                       tower_class_checks, tower_profile, validate_profile,
                       verify_schedule)
from .series import (Certificate, DegreeProfile, SearchParams, certify_infinite,
                     gs_check, gs_min_series, hilbert_quotient)

SCHEMA = "gsalg/1"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise QuotientError(f"cannot read {path}: {exc}") from exc


def _load_relations(path: str, d: int) -> List[Element]:
    return parse_relations(_read_text(path), d)


def _load_degree_profile(path: str) -> DegreeProfile:
    """Profile file {"d": 2, "degree_counts": {"3": 1}}."""
    text = _read_text(path)
    try:
        data = json.loads(text)
        d = int(data["d"])
        counts = {int(k): int(v) for k, v in data.get("degree_counts", {}).items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"bad degree profile in {path}: {exc}") from exc
    return DegreeProfile.make(d, counts)


def _degree_profile_json(profile: DegreeProfile) -> dict:
    return {"d": profile.d,
            "degree_counts": {str(k): v for k, v in profile.counts}}


def _load_dyadic_profile(args) -> DyadicProfile:
    if getattr(args, "degrees", None):
        degrees = [int(tok) for tok in args.degrees.split(",") if tok.strip()]
        return dyadic_profile(degrees)
    if getattr(args, "profile", None):
        text = _read_text(args.profile)
        try:
            return DyadicProfile.from_json(json.loads(text))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"bad dyadic profile in {args.profile}: {exc}") from exc
    raise ValueError("need --profile FILE or --degrees LIST")


def _parse_count(text: str) -> int:
    """Plain integer or 'B^K' shorthand for sizes like 2^40; at least 1."""
    base, hat, exp = text.strip().partition("^")
    try:
        b, k = int(base), int(exp) if hat else 1
    except ValueError as exc:
        raise ValueError(f"--at needs an integer or B^K, got {text!r}") from exc
    if k * b.bit_length() > MATERIALIZE_BITS:
        raise ValueError(f"--at {text!r} exceeds the {MATERIALIZE_BITS}-bit budget")
    n = b ** k if k >= 0 else 0
    if n < 1:
        raise ValueError(f"--at needs a degree of at least 1, got {text!r}")
    digits = sys.get_int_max_str_digits()
    if digits and n >= 10 ** digits:
        raise ValueError(f"--at {text!r} has more than {digits} decimal digits, "
                         "too many for the report to print")
    return n


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _render_text(obj, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, dict):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            elif isinstance(val, list) and any(isinstance(v, (dict, list)) for v in val):
                lines.append(f"{pad}{key}:")
                for i, v in enumerate(val):
                    lines.append(f"{pad}  - [{i}]")
                    lines.extend(_render_text(v, indent + 2))
            else:
                lines.append(f"{pad}{key}: {json.dumps(val, sort_keys=True)}")
    elif isinstance(obj, list):
        for v in obj:
            lines.extend(_render_text(v, indent))
    else:
        lines.append(f"{pad}{json.dumps(obj, sort_keys=True)}")
    return lines


def _emit(args, report: dict, code: int) -> int:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "mode") and not k.startswith("_")}
    envelope = {
        "schema": SCHEMA,
        "command": args._command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "ok": code == EXIT_OK,
        "report": report,
    }
    if args.mode == "json":
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        print("\n".join(_render_text(envelope)))
    return code


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_hilbert(args) -> int:
    fld = field_by_name(args.field)
    relations = _load_relations(args.relations, args.gens) if args.relations else []
    series = hilbert_quotient(relations, args.max_degree, args.gens, fld=fld)
    profile = DegreeProfile.of_relations(args.gens, relations) if relations \
        else DegreeProfile.make(args.gens, {})
    gs = gs_check(profile, series)
    mins = gs_min_series(profile, args.max_degree)
    report = {
        "gens": args.gens,
        "field": fld.name,
        "relation_count": len(relations),
        "profile": _degree_profile_json(profile),
        "a0": series[0],
        "degrees": list(range(1, args.max_degree + 1)),
        "series": series[1:],
        "gs": {"ok": gs.ok, "defect": gs.defect, "first_violation": gs.first_violation},
        "min_series": mins[1:],
        "attains_min": series == mins,
    }
    return _emit(args, report, EXIT_OK if gs.ok else EXIT_FAILED)


def cmd_certify(args) -> int:
    if args.profile:
        profile = _load_degree_profile(args.profile)
    elif args.relations:
        rels = _load_relations(args.relations, args.gens)
        profile = DegreeProfile.of_relations(args.gens, rels)
    else:
        raise ValueError("need --profile FILE or --relations FILE")
    if args.partial_degree is not None:
        profile = DegreeProfile.make(
            profile.d, {k: v for k, v in profile.counts if k <= args.partial_degree})
    params = SearchParams(grid_denominator=args.grid_denominator)
    cert: Optional[Certificate] = certify_infinite(profile, params)
    report = {
        "profile": _degree_profile_json(profile),
        "partial_degree": args.partial_degree,
        "certified": cert is not None,
    }
    if cert is not None:
        report["witness"] = str(cert.t)
        report["value"] = str(cert.value)
        report["points_checked"] = cert.points_checked
        return _emit(args, report, EXIT_OK)
    report["note"] = ("no rational witness found on the search grid; "
                      "inconclusive, not a finiteness proof")
    return _emit(args, report, EXIT_FAILED)


def cmd_ladder(args) -> int:
    if args.e_max_degree < 0:
        raise ValueError(f"--e-max-degree must be at least 0, got {args.e_max_degree}")
    lad = build_ladder(strategy=args.strategy, top=args.top, seed=args.seed)
    verify = lad.verify()
    levels = [{"m": lv.m, "degree": lv.degree, "v_dim": lv.v_dim,
               "u_dim": lv.u().dim} for lv in lad.levels]
    pipeline = []
    ok = all(verify.values())
    for k in range(1, args.e_max_degree + 1):
        n = (k + 1).bit_length()   # E(k + 1), which e_sets_consistent needs, sits highest
        if n > lad.top or (1 << (n + 1)) > lad.degree_cap:
            continue
        e_space = compute_E(lad, k)
        lhs, rhs, bound_ok = cover_bound_check(lad, k)
        consistent = e_sets_consistent(lad, k)
        pipeline.append({
            "k": k,
            "dim_e": e_space.dim,
            "e_sets_consistent": consistent,
            "cover_bound": {"lhs": lhs, "rhs": rhs, "ok": bound_ok},
        })
        ok = ok and bound_ok and consistent
    report = {
        "strategy": args.strategy,
        "top": args.top,
        "levels": levels,
        "verify": verify,
        "e_pipeline": pipeline,
    }
    if args.witness is not None:
        w = survivor_witness(lad, args.witness)
        report["witness"] = {
            "level": w.level, "survivors": w.p, "letter": w.letter,
            "independent": w.independent, "v_dim": w.v_dim,
            "half_ok": w.half_ok,
        }
        ok = ok and w.independent
    return _emit(args, report, EXIT_OK if ok else EXIT_FAILED)


def cmd_schedule(args) -> int:
    profile = _load_dyadic_profile(args)
    validation = validate_profile(profile)
    report = {
        "profile": profile.to_json(),
        "validation": validation.to_json(),
    }
    try:
        sched = compute_schedule(profile)
    except ScheduleError as exc:
        report["schedule"] = None
        report["error"] = str(exc)
        return _emit(args, report, EXIT_FAILED)
    verification = verify_schedule(sched)
    gap = cumulative_gap_report(profile)
    report["schedule"] = sched.to_json()
    report["verification"] = verification.to_json()
    report["cumulative_gap"] = gap.to_json()
    ok = validation.ok and verification.ok and gap.ok
    return _emit(args, report, EXIT_OK if ok else EXIT_FAILED)


def cmd_bounds(args) -> int:
    profile = _load_dyadic_profile(args)
    n = _parse_count(args.at)
    try:
        sched = compute_schedule(profile)
    except ScheduleError as exc:
        report = {"profile": profile.to_json(), "schedule": None, "error": str(exc)}
        return _emit(args, report, EXIT_FAILED)
    gb = growth_bounds(sched, n)
    report = {
        "profile": profile.to_json(),
        "schedule": sched.to_json(),
        "bounds": gb.to_json(),
    }
    return _emit(args, report, EXIT_OK if gb.consistent else EXIT_FAILED)


def cmd_quotient(args) -> int:
    fld = field_by_name(args.field)
    relations = _load_relations(args.relations, args.gens)
    ideal = truncated_ideal_basis(relations, n=args.gens, D=args.precision,
                                  fld=fld, cap=args.cap)
    cert = certify_finite_dimensional(relations, ideal=ideal)
    comm = commutativity_status(relations, ideal=ideal)
    thresh = relation_threshold(args.gens) if args.gens >= 2 else None
    report = {
        "gens": args.gens,
        "precision": args.precision,
        "field": fld.name,
        "relation_count": len(relations),
        "ideal": ideal.to_json(),
        "findim": cert.to_json() if cert else {"certified": False},
        "commutativity": comm.to_json(),
        "threshold": thresh.to_json() if thresh else None,
    }
    code = EXIT_OK
    if thresh is not None:
        m = len(relations)
        if (cert is not None and comm.commutative_at_precision
                and m <= thresh.forced_noncommutative):
            report["contradiction"] = (
                f"{m} relations certified finite dimensional and commutative "
                f"at precision {args.precision}; at most "
                f"{thresh.forced_noncommutative} relations force noncommutativity")
            code = EXIT_FAILED
        elif args.explore_gap and thresh.forced_noncommutative < m < thresh.construction_size:
            report["gap_note"] = (
                f"relation count {m} lies strictly between the forced-"
                f"noncommutative threshold {thresh.forced_noncommutative} and "
                f"the commutative construction size {thresh.construction_size}; "
                f"neither direction is known")
    return _emit(args, report, code)


def cmd_c35(args) -> int:
    profile, sched, window_map = tower_profile(args.count)
    verification = verify_schedule(sched)
    classes = tower_class_checks(sched)
    report = {
        "count": args.count,
        "window_map": {str(i): m for i, m in sorted(window_map.items())},
        "profile": profile.to_json(),
        "schedule": sched.to_json(),
        "verification": verification.to_json(),
        "class_checks": classes.to_json(),
    }
    ok = verification.ok and classes.ok
    return _emit(args, report, EXIT_OK if ok else EXIT_FAILED)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsalg",
        description="Exact growth computations for finitely presented algebras.",
        epilog="The memory guard reads GSALG_MEMORY_LIMIT_MB (default 512).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--json", dest="mode", action="store_const", const="json",
                       default="json", help="JSON output (default)")
        p.add_argument("--text", dest="mode", action="store_const", const="text",
                       help="indented text rendering of the same report")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed recorded in the output (default 0)")

    p = sub.add_parser("hilbert", help="graded dimensions of a homogeneous quotient")
    p.add_argument("--gens", type=int, default=2)
    p.add_argument("--relations", help="relation file, one expression per line")
    p.add_argument("--max-degree", type=int, default=12)
    p.add_argument("--field", default="gf2", help="gf2, gfp:P, or rational")
    common(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("certify", help="rational witness of infinite dimension")
    p.add_argument("--profile", help='JSON file {"d": 2, "degree_counts": {"3": 1}}')
    p.add_argument("--relations", help="relation file; profile taken from degrees")
    p.add_argument("--gens", type=int, default=2)
    p.add_argument("--partial-degree", type=int,
                   help="drop relation degrees above this before searching")
    p.add_argument("--grid-denominator", type=int)
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("ladder", help="build a subspace ladder and run its checks")
    p.add_argument("--strategy", default="lex-greedy",
                   choices=["trivial", "lex-greedy", "random"])
    p.add_argument("--top", type=int, default=4, help="levels 0..top")
    p.add_argument("--e-max-degree", type=int, default=6,
                   help="run the E pipeline for degrees up to this")
    p.add_argument("--witness", type=int,
                   help="also run the survivor witness at this level")
    common(p)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("schedule", help="validate a dyadic profile and schedule it")
    p.add_argument("--profile", help="dyadic profile JSON file")
    p.add_argument("--degrees", help="comma-separated relation degrees")
    common(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("bounds", help="exact growth bounds at a degree")
    p.add_argument("--profile", help="dyadic profile JSON file")
    p.add_argument("--degrees", help="comma-separated relation degrees")
    p.add_argument("--at", required=True, help="degree n, accepts 2^k shorthand")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("quotient", help="finite-dimension and commutativity verdicts")
    p.add_argument("--gens", type=int, default=2)
    p.add_argument("--relations", required=True)
    p.add_argument("--precision", type=int, default=6)
    p.add_argument("--cap", type=int, help="override the precision cap")
    p.add_argument("--field", default="rational")
    p.add_argument("--explore-gap", action="store_true",
                   help="flag relation counts in the unresolved range")
    common(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("c35", help="staircase tower profile and its certified checks")
    p.add_argument("--count", type=int, default=2, help="number of tower levels")
    common(p)
    p.set_defaults(func=cmd_c35)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._command = args.command
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"gsalg: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FieldError, LadderError, ScheduleError, QuotientError, CapacityError,
            ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"gsalg: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
