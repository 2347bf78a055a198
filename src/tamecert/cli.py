"""Command line interface.

Exit codes: 0 success/consistent, 1 input error, 2 inconsistency detected,
3 Unknown verdict present (partial result).  Every command but ``validate``
lets a ``TamecertError`` reach ``main``, which prints it and exits 1.  A
usage error is an input error too: it prints the usage to stderr and exits
1, where argparse alone would exit 2.
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


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit EXIT_INPUT_ERROR, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _jobs(text: str) -> int:
    """--jobs: an int of at least 1; anything else is a usage error."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return jobs


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
            print(f"  feasibility: FEASIBLE  lambda_min={v.lambda_min:.6g}")
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
            print(f"  step {k+1}: quotient by span({gen}); reduced dim {step.reduced.algebra.dim}")
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


# (name, handler, positional, help): every command but validate takes --json,
# and corpus, the one that reads a directory, takes --jobs before it
_COMMANDS = (
    ("validate", cmd_validate, "file", "check a fixture file (Jacobi identity included)"),
    ("analyze", cmd_analyze, "file", "full structural + feasibility report"),
    ("reduce", cmd_reduce, "file", "run the symplectic reduction tower"),
    ("tame", cmd_tame, "file", "feasibility verdict only"),
    ("corpus", cmd_corpus, "directory", "analyze every fixture in a directory"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tamecert",
        description="Certified decisions on closed 2-forms taming a complex structure "
        "on a real Lie algebra. " + SCOPE_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, positional, text in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        p.add_argument(positional)
        if positional == "directory":
            p.add_argument("--jobs", type=_jobs, default=1)
        if name != "validate":
            p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except TamecertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
