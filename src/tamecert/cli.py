"""Command line interface.

Exit codes: 0 success/consistent, 1 input error, 2 inconsistency detected,
3 Unknown verdict present (partial result).  Every command but ``validate``
lets a ``TamecertError`` reach ``main``, which prints it and exits 1.
"""

from __future__ import annotations

import argparse
import sys

from .errors import FixtureError, TamecertError
from .feasibility import Feasible, Infeasible, Unknown, decide
from .fixtures import dumps_report, load_fixture
from .pipeline import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_UNKNOWN,
    SCOPE_NOTE,
    analyze,
    corpus_run,
    verdict_to_dict,
)
from .reduction import TamedTriple, reduction_tower


def _add_feasibility_flags(p: argparse.ArgumentParser) -> None:
    # the deterministic barrier solve has no seed, restarts or iteration
    # budget, and both certificate lanes re-prove exactly, so no tolerances
    for flag in ("--eps-feas", "--eps-dual"):
        p.add_argument(flag, type=float, help="kept for compatibility; has no effect")
    for flag in ("--seed", "--restarts", "--iters"):
        p.add_argument(flag, type=int, help="kept for compatibility; has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamecert",
        description="Certified decisions on closed 2-forms taming a complex structure "
        "on a real Lie algebra. " + SCOPE_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a fixture file (Jacobi identity included)")
    p_validate.add_argument("file")

    p_analyze = sub.add_parser("analyze", help="full structural + feasibility report")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--json", action="store_true")
    _add_feasibility_flags(p_analyze)

    p_reduce = sub.add_parser("reduce", help="run the symplectic reduction tower")
    p_reduce.add_argument("file")
    p_reduce.add_argument("--json", action="store_true")

    p_tame = sub.add_parser("tame", help="feasibility verdict only")
    p_tame.add_argument("file")
    p_tame.add_argument("--json", action="store_true")
    _add_feasibility_flags(p_tame)

    p_corpus = sub.add_parser("corpus", help="analyze every fixture in a directory")
    p_corpus.add_argument("directory")
    p_corpus.add_argument("--jobs", type=int, default=1)
    p_corpus.add_argument("--json", action="store_true")
    _add_feasibility_flags(p_corpus)

    return parser


def _print_header() -> None:
    print(f"tamecert: {SCOPE_NOTE}")


def cmd_validate(args) -> int:
    try:
        fx = load_fixture(args.file)
    except FixtureError as exc:
        print(f"INVALID: {exc}")
        return EXIT_INPUT_ERROR
    print(f"OK: {fx.name} (dim {fx.algebra.dim}, J {'present' if fx.J else 'absent'}, "
          f"omega {'present' if fx.omega else 'absent'})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    report = analyze(load_fixture(args.file))
    if args.json:
        print(dumps_report(report.to_dict()))
    else:
        _print_header()
        print(f"algebra: {report.name}")
        for key, value in report.flags.items():
            print(f"  {key}: {value}")
        for key, value in report.j_status.items():
            print(f"  J.{key}: {value}")
        v = report.feasibility
        if v is None:
            print("  feasibility: skipped (no J)")
        elif isinstance(v, Feasible):
            print(f"  feasibility: FEASIBLE  lambda_min={v.lambda_min:.6g} exact_pd={v.exact_pd}")
        elif isinstance(v, Infeasible):
            tag = "rank-one" if v.rank_one_direction is not None else "exact"
            print(f"  feasibility: INFEASIBLE ({tag} dual)")
        elif isinstance(v, Unknown):
            print(f"  feasibility: UNKNOWN (best margin {v.best_lambda_min:.3g})")
        tc = report.theorem_consistency
        print(f"  theorem: applicable={tc.applicable} consistent={tc.consistent}")
        print(f"  detail: {tc.detail}")
        if report.reduction is not None:
            print(f"  reduction: {report.reduction}")
    return report.exit_code


def cmd_reduce(args) -> int:
    fx = load_fixture(args.file)
    if fx.J is None or fx.omega is None:
        raise FixtureError("reduce needs both 'J' and 'omega' in the fixture")
    tower = reduction_tower(TamedTriple.build(fx.algebra, fx.omega, fx.J))
    doc = {
        "name": fx.name,
        "steps": [
            {
                "ideal_generator": [str(x) for x in step.generator],
                "perp_dim": step.perp.dim,
                "reduced_dim": step.reduced.algebra.dim,
                "verified": step.reduced.verified,
            }
            for step in tower.steps
        ],
        "terminal_dim": tower.terminal_dim,
    }
    if args.json:
        print(dumps_report(doc))
    else:
        _print_header()
        print(f"algebra: {fx.name} (dim {fx.algebra.dim})")
        for k, step in enumerate(tower.steps):
            gen = ", ".join(str(x) for x in step.generator)
            print(f"  step {k+1}: quotient by span({gen}); reduced dim {step.reduced.algebra.dim}; "
                  f"verified={step.reduced.verified}")
        print(f"  terminal dimension: {tower.terminal_dim}")
    return EXIT_OK


def cmd_tame(args) -> int:
    fx = load_fixture(args.file)
    if fx.J is None:
        raise FixtureError("tame needs a 'J' entry in the fixture")
    verdict = decide(fx.algebra, fx.J)
    if args.json:
        print(dumps_report({"name": fx.name, "feasibility": verdict_to_dict(verdict)}))
    else:
        _print_header()
        print(f"algebra: {fx.name}")
        print(f"  verdict: {verdict.kind}")
        print(f"  detail: {verdict_to_dict(verdict)}")
    return EXIT_UNKNOWN if isinstance(verdict, Unknown) else EXIT_OK


def cmd_corpus(args) -> int:
    result = corpus_run(args.directory, jobs=args.jobs)
    if args.json:
        print(dumps_report(result.to_dict()))
    else:
        _print_header()
        if not result.entries:
            print("  (no fixtures)")
        widths = (28, 12, 12, 12)
        header = ("name", "verdict", "applicable", "consistent")
        print("  " + "".join(h.ljust(w) for h, w in zip(header, widths)))
        for e in result.entries:
            if e.error is not None:
                print("  " + e.name.ljust(widths[0]) + f"ERROR: {e.error}")
                continue
            r = e.report
            verdict = r.feasibility.kind if r.feasibility is not None else "skipped"
            row = (
                e.name,
                verdict,
                str(r.theorem_consistency.applicable),
                str(r.theorem_consistency.consistent),
            )
            print("  " + "".join(c.ljust(w) for c, w in zip(row, widths)))
        print(f"  inconsistencies: {result.inconsistencies}")
    return result.exit_code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "analyze": cmd_analyze,
        "reduce": cmd_reduce,
        "tame": cmd_tame,
        "corpus": cmd_corpus,
    }
    try:
        return handlers[args.command](args)
    except TamecertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
