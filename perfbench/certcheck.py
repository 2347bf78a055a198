"""An outside re-check of every verdict the benchmark receives.

It trusts nothing the decision procedure computed except the certificate
itself, and re-proves it with public ``forms`` functions:

- Feasible: the form is closed (``ce_d`` is zero) and tames J (the Gram is
  positive definite by exact leading minors).
- Infeasible with a rank-one direction v: B(v, Jv) = 0 for every form B of
  a freshly computed closed basis, so no closed form has a positive Gram
  at v.
- Infeasible with a float dual matrix, a Feasible without an exact form, and
  Unknown carry no exact certificate and count as uncertified.
"""

from __future__ import annotations

from dataclasses import replace

from tamecert.algebra import LieAlgebra
from tamecert.feasibility import Feasible, Infeasible
from tamecert.forms import ComplexStructure, ce_d, closed_two_forms, is_taming


def certificate_ok(g: LieAlgebra, J: ComplexStructure, verdict) -> bool:
    """True iff the verdict carries an exact certificate that re-verifies on (g, J)."""
    if isinstance(verdict, Feasible):
        omega = verdict.omega
        if not verdict.exact_pd or omega.dim != g.dim:
            return False
        return ce_d(g, omega).is_zero() and bool(is_taming(omega, J, exact=True))
    if isinstance(verdict, Infeasible):
        v = verdict.rank_one_direction
        if v is None or len(v) != g.dim or all(x == 0 for x in v):
            return False
        jv = J.apply(v)
        return all(b(v, jv) == 0 for b in closed_two_forms(g))
    return False


def smoke_test(feasible_case, infeasible_case) -> list[str]:
    """Show that the checker accepts genuine certificates and rejects tampered ones.

    Each case is ``(algebra, J, verdict)`` as the program returned it.  Returns
    the list of failed expectations (empty when the checker behaves).
    """
    problems = []
    g, J, feas = feasible_case
    h, K, infeas = infeasible_case
    if not certificate_ok(g, J, feas):
        problems.append("rejected a genuine Feasible certificate")
    if certificate_ok(g, J, replace(feas, omega=feas.omega.scale(-1))):
        problems.append("accepted a sign-flipped taming form")
    if certificate_ok(g, J, replace(feas, exact_pd=False)):
        problems.append("accepted a Feasible verdict without an exact form")
    if not certificate_ok(h, K, infeas):
        problems.append("rejected a genuine rank-one Infeasible certificate")
    if certificate_ok(h, K, replace(infeas, rank_one_direction=None)):
        problems.append("accepted an Infeasible verdict without a rank-one direction")
    # no direction can certify infeasibility of an algebra that has a taming form
    moved = tuple(int(i == 0) for i in range(g.dim))
    if certificate_ok(g, J, replace(infeas, rank_one_direction=moved)):
        problems.append("accepted a rank-one direction on a Feasible algebra")
    return problems
