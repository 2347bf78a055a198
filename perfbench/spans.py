"""Span recorder and the traced replay of ``analyze`` / ``decide``.

The replay calls the same public functions, in the same order, that
``pipeline.analyze``, ``feasibility.decide`` and ``feasibility.build_problem``
call, and wraps each call in a span.  Spans live in memory (name, start,
end, parent, item), timed in thread CPU time as the untraced calls are,
and are written out when the run ends.  A layer's self
time is its span's duration minus the time its child spans cover.

The replay mirrors the program's control flow at the commit it was written
against.  When the program changes its call order, the replay no longer
matches it; ``bench.span_coverage_ratio`` (span time over untraced item
time) moves away from 1 and the run turns incorrect.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from tamecert.algebra import is_completely_solvable
from tamecert.errors import ExactificationFailed, TamecertError
from tamecert.feasibility import (
    Feasible,
    FeasibilityConfig,
    FeasibilityProblem,
    Infeasible,
    Unknown,
    degeneracy_precheck,
    dual_certificate,
    exactify,
    maximize_lambda_min,
)
from tamecert.forms import TwoForm, d2_matrix, is_integrable, taming_gram
from tamecert.linalg import nullspace, unit_vec
from tamecert.reduction import TamedTriple, reduction_tower

ROOT = "bench.item"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root
    item: str


class Recorder:
    """Collects nested spans and per-item counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.thread_time(), 0.0, parent, self.item)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.thread_time()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Total self time per span name over ``spans[first:]``."""
        spans = self.spans[first:]
        own = [s.end - s.start for s in spans]
        for s in spans:
            if s.parent >= first:
                own[s.parent - first] -= s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(spans, own):
            out[s.name] += t
        return out

    def write(self, path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "item": s.item}
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}))


def verdict_signature(v) -> tuple:
    """What the replay must reproduce: the kind and the exact certificate."""
    if isinstance(v, Feasible):
        return ("feasible", v.exact_pd, v.omega.coeffs if v.exact_pd else None)
    if isinstance(v, Infeasible):
        return ("infeasible", v.rank_one_direction)
    if isinstance(v, Unknown):
        return ("unknown",)
    return ("error", type(v).__name__)


def traced_decide(rec: Recorder, g, J):
    """``decide`` as a sequence of spanned public calls; returns (verdict, closed basis)."""
    config = FeasibilityConfig()
    with rec.span("feasibility.build_problem"):
        integrable = rec.call("forms.is_integrable", is_integrable, g, J)
        matrix, pairs, _ = rec.call("forms.d2_matrix", d2_matrix, g)
        if not matrix:
            kernel = [unit_vec(len(pairs), i) for i in range(len(pairs))]
        else:
            kernel = rec.call("linalg.nullspace", nullspace, matrix, ncols=len(pairs))
        basis = [TwoForm.from_dict(g.dim, {pairs[c]: v for c, v in enumerate(k) if v != 0}) for k in kernel]
        gram_basis = [rec.call("forms.taming_gram", taming_gram, b, J) for b in basis]
        grams = np.array(
            [[[float(x) for x in row] for row in m] for m in gram_basis], dtype=float
        ).reshape(len(gram_basis), g.dim, g.dim)
        p = FeasibilityProblem(g, J, basis, gram_basis, grams, config, integrable)
    rec.count("forms.closed_form_dim", p.size)
    if g.dim == 0:
        return Feasible(TwoForm.from_dict(0, {}), float("inf"), True), basis
    if p.size == 0:
        return Infeasible((), 0.0, None, float("-inf")), basis

    direction = rec.call("feasibility.degeneracy_precheck", degeneracy_precheck, p)
    rec.count("feasibility.precheck_calls")
    rec.count("feasibility.precheck_hits", direction is not None)
    stop_above = None if direction is not None else max(10 * config.eps_feas, 1e-3)
    with rec.span("feasibility.maximize_lambda_min") as ascent:
        c, value = maximize_lambda_min(p, stop_above=stop_above)
    if direction is not None:
        rec.count("feasibility.ascent_after_proof.s", ascent.end - ascent.start)

    if value > config.eps_feas and direction is None:
        rec.count("feasibility.exactify_calls")
        try:
            omega, lam = rec.call("feasibility.exactify", exactify, p, c)
        except ExactificationFailed:
            return Feasible(TwoForm.from_dict(g.dim, {}), value, False), basis
        rec.count("feasibility.exactify_ok")
        return Feasible(omega, lam, True), basis
    if direction is not None:
        return Infeasible((), 0.0, direction.vector, value), basis
    rec.count("feasibility.dual_calls")
    cert = rec.call("feasibility.dual_certificate", dual_certificate, p)
    if cert is not None and cert[1] <= config.eps_dual:
        rec.count("feasibility.dual_accepts")
        return Infeasible((), cert[1], None, value), basis
    return Unknown(best_lambda_min=value), basis


def traced_analyze(rec: Recorder, fixture):
    """``analyze`` as spanned public calls; returns (flags, verdict, closed basis, reduction steps)."""
    g = fixture.algebra
    with rec.span("algebra.structural_flags"):
        flags = {
            "solvable": g.is_solvable(),
            "nilpotent": g.is_nilpotent(),
            "completely_solvable": bool(is_completely_solvable(g)),
            "unimodular": g.is_unimodular()[0],
            "abelian": g.is_abelian(),
        }
    verdict, basis = None, None
    if fixture.J is not None:
        rec.call("forms.is_integrable", is_integrable, g, fixture.J)
        verdict, basis = traced_decide(rec, g, fixture.J)
    steps = None
    if fixture.omega is not None and fixture.J is not None:
        with rec.span("pipeline.reduction_summary"):
            try:
                triple = rec.call("reduction.tamed_triple", TamedTriple.build, g, fixture.omega, fixture.J)
                tower = rec.call("reduction.reduction_tower", reduction_tower, triple)
            except TamecertError:
                tower = None
            if tower is not None:
                steps = len(tower.steps)
                rec.count("reduction.steps", steps)
                if g.is_unimodular()[0]:
                    for step in tower.steps:
                        step.reduced.algebra.is_unimodular()
    return flags, verdict, basis, steps


def closed_basis_signature(basis) -> tuple:
    return tuple(b.coeffs for b in basis)

