"""Command-line interface.

Exit codes: 0 success, 1 analysis-level failure (bad structure, policy or
argument for the requested computation), 2 usage or parse error, 3 internal
consistency failure (a computed value contradicted a structural guarantee).
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .digraph import upper_multiexponent
from .errors import (
    CapacityError,
    ConsistencyError,
    ParseError,
    PolicyError,
    SignBaseError,
    StructuralError,
)
from .families import (
    build_d1,
    build_d2,
    policy_named,
    verify_closed_forms,
    verify_oracle_agreement,
    verify_third_bound_and_gap,
)
from .frobenius import FrobeniusBasis, frobenius_number
from .oracle import enumerate_signs
from .report import build_report, render_text, report_json
from .sdgio import load_sdg, serialize_sdg
from .signed import kth_upper_base


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signbase",
        description="base and exponent analysis of signed digraphs",
    )
    parser.add_argument("--version", action="version", version=f"signbase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for an .sdg file")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None, help="restrict tables to one k")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("upper-base", help="kth upper base L_k of an .sdg file")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("multiexponent", help="kth upper multiexponent F_k")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("generate", help="emit an extremal family member")
    p.add_argument("family", choices=["d1", "d2"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--policy",
        required=True,
        help="all-positive | canonical | same-sign | different-sign",
    )
    p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("verify", help="run a verification suite, JSON output")
    p.add_argument(
        "--suite", required=True, choices=["closed-forms", "gap", "oracle"]
    )
    p.add_argument("--n-min", type=int, default=6)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("frobenius", help="Frobenius number of a generator list")
    p.add_argument("--gens", required=True, help="comma-separated positive integers")

    p = sub.add_parser("oracle", help="brute-force walk-sign check")
    p.add_argument("file")
    p.add_argument("--from", dest="source", type=int, required=True)
    p.add_argument("--to", dest="target", type=int, required=True)
    p.add_argument("--len", dest="length", type=int, required=True)
    return parser


def _cmd_analyze(args) -> int:
    s = load_sdg(args.file)
    ks = [args.k] if args.k is not None else None
    doc = build_report(s, ks)
    sys.stdout.write(report_json(doc) if args.json else render_text(doc))
    return 0


def _cmd_upper_base(args) -> int:
    s = load_sdg(args.file)
    print(kth_upper_base(s, args.k).value)
    return 0


def _cmd_multiexponent(args) -> int:
    s = load_sdg(args.file)
    print(upper_multiexponent(s.underlying(), args.k))
    return 0


def _cmd_generate(args) -> int:
    policy = policy_named(args.policy)
    s = build_d1(args.n, policy) if args.family == "d1" else build_d2(args.n, policy)
    text = serialize_sdg(s)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def _cmd_verify(args) -> int:
    if args.n_min > args.n_max:
        raise ParseError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if args.samples < 0:
        raise ParseError(f"--samples must be non-negative, got {args.samples}")
    if args.suite == "closed-forms":
        outcomes = verify_closed_forms(range(args.n_min, args.n_max + 1))
    elif args.suite == "gap":
        outcomes = []
        for n in range(args.n_min, args.n_max + 1):
            outcomes.extend(
                verify_third_bound_and_gap(n, sample_count=args.samples, seed=args.seed)
            )
    else:
        if args.samples == 0:
            raise ParseError("the oracle suite needs --samples of at least 1")
        outcomes = verify_oracle_agreement(sample_count=args.samples, seed=args.seed)
    passed = all(o.passed for o in outcomes)
    doc = {
        "schema_version": 1,
        "tool_version": __version__,
        "suite": args.suite,
        "outcome_count": len(outcomes),
        "passed": passed,
        "outcomes": [o.as_dict() for o in outcomes],
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0 if passed else 3


def _cmd_frobenius(args) -> int:
    try:
        gens = [int(tok) for tok in args.gens.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"--gens expects comma-separated integers, got {args.gens!r}")
    print(frobenius_number(FrobeniusBasis(gens)))
    return 0


def _cmd_oracle(args) -> int:
    s = load_sdg(args.file)
    pos, neg = enumerate_signs(s, args.source, args.target, args.length)
    print(f"pos={'true' if pos else 'false'} neg={'true' if neg else 'false'}")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "upper-base": _cmd_upper_base,
    "multiexponent": _cmd_multiexponent,
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "frobenius": _cmd_frobenius,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"signbase: error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"signbase: internal consistency error: {exc}", file=sys.stderr)
        return 3
    except (StructuralError, PolicyError, CapacityError, SignBaseError, ValueError) as exc:
        print(f"signbase: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"signbase: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    run()
