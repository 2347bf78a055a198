"""Fixture files and report serialization.

Fixture schema (indices 0-based; a rational is what ``linalg.frac`` reads: a
JSON integer, not a boolean, or a string that fully matches [+-]?\\d+(/\\d+)?
with a nonzero denominator, so a decimal, exponent, underscore or padded
string is refused before its digits are expanded):

    {
      "name": str,
      "dim": int,
      "basis": [str],
      "brackets": [ {"i": int, "j": int, "v": {"<k>": rational}} ],   # i < j, <k> ASCII digits
      "J": [[rational]],                # optional, row-major, column action
      "omega": [ {"i": int, "j": int, "v": rational} ]   # optional, i < j
    }

``dim`` runs from 1 to ``MAX_FIXTURE_DIM``: the Jacobi check alone costs
O(dim^4) exact operations, so a larger one-line file is refused before any
structure is built instead of hanging the run.  ``brackets`` and ``omega``
must be lists (an ``omega`` of null is absent), and a pair (i, j) listed
twice, a component key repeated once read as an integer ("1" and "01") or
any key repeated in one JSON object is refused, not read last-wins.  So is
a file that is unreadable, not UTF-8, or holds a huge integer or deep nesting.
A component key is a string of ASCII digits only, with no sign, padding,
underscore or other script's digit, and each ``basis`` label is a string
that no other label repeats.  A refusal quotes a value or key as
``reprlib.repr`` cuts it, so a long string gives a short message.

Reports are written by ``json.dumps``: a float is written as its ``repr``,
which parses back to the same double and stays a float (1.0, not 1; -0.0
keeps its sign), and a ``Fraction`` as ``rational_str`` gives it.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .algebra import LieAlgebra
from .errors import FixtureError, NotAComplexStructure
from .forms import ComplexStructure, TwoForm
from .linalg import frac

MAX_FIXTURE_DIM = 16


@dataclass(frozen=True)
class Fixture:
    name: str
    algebra: LieAlgebra
    J: ComplexStructure | None
    omega: TwoForm | None


def _rational(value, where: str) -> Fraction:
    """``frac`` of a fixture value, its refusal a ``FixtureError`` at ``where``."""
    try:
        return frac(value)
    except (TypeError, ValueError) as exc:
        raise FixtureError(f"{where}: {exc}") from exc


def _indexed_entries(entries, key: str, source: str, dim: int):
    """Yield (where, i, j, v) over the list of bracket or omega entries under key,
    with integers 0 <= i < j < dim and no pair (i, j) listed twice."""
    if not isinstance(entries, list):
        raise FixtureError(f"{source}: '{key}' must be a list")
    seen = set()
    for idx, entry in enumerate(entries):
        where = f"{source}: {key}[{idx}]"
        try:
            i, j, v = entry["i"], entry["j"], entry["v"]
        except (TypeError, KeyError) as exc:
            raise FixtureError(f"{where}: needs fields i, j, v") from exc
        for field, x in (("i", i), ("j", j)):
            if type(x) is not int:  # JSON true and false are Python ints
                raise FixtureError(f"{where}: '{field}' must be an integer, got {reprlib.repr(x)}")
        if not 0 <= i < j < dim:
            raise FixtureError(f"{where}: need 0 <= i < j < dim, got i={i}, j={j}")
        if (i, j) in seen:
            raise FixtureError(f"{where}: pair ({i}, {j}) is listed twice")
        seen.add((i, j))
        yield where, i, j, v


def parse_fixture(doc: dict, source: str = "<fixture>") -> Fixture:
    if not isinstance(doc, dict):
        raise FixtureError(f"{source}: top level must be an object")
    try:
        name = doc["name"]
        dim = doc["dim"]
    except KeyError as exc:
        raise FixtureError(f"{source}: missing required field {exc}") from exc
    if not isinstance(name, str):
        raise FixtureError(f"{source}: 'name' must be a string")
    if type(dim) is not int or dim < 0:
        raise FixtureError(f"{source}: 'dim' must be a nonnegative integer")
    if dim == 0:
        raise FixtureError(f"{source}: 'dim' is 0; an algebra needs at least one basis vector")
    if dim > MAX_FIXTURE_DIM:
        raise FixtureError(f"{source}: 'dim' is {dim}, above the cap of {MAX_FIXTURE_DIM}")
    basis = doc.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != dim:
            raise FixtureError(f"{source}: 'basis' must list {dim} labels")
    brackets = {}
    for where, i, j, v in _indexed_entries(doc.get("brackets", []), "brackets", source, dim):
        if not isinstance(v, dict):
            raise FixtureError(f"{where}: 'v' must map component index to rational")
        comps = {}
        for k, c in v.items():
            try:
                if not (k.isascii() and k.isdigit()):  # no sign, padding, "_" or other script's digit
                    raise ValueError
                ki = int(k)  # which refuses a key past int's digit limit too
            except ValueError as exc:
                raise FixtureError(f"{where}: component key {reprlib.repr(k)} is not an integer") from exc
            if not 0 <= ki < dim:
                raise FixtureError(f"{where}: component {ki} outside dimension {dim}")
            if ki in comps:
                raise FixtureError(f"{where}: component key {reprlib.repr(k)} repeats component {ki}")
            comps[ki] = _rational(c, f"{where}.v[{ki}]")
        brackets[(i, j)] = comps
    try:
        algebra = LieAlgebra.from_brackets(dim, brackets, labels=basis)
    except Exception as exc:
        raise FixtureError(f"{source}: invalid algebra: {exc}") from exc

    J = None
    if "J" in doc and doc["J"] is not None:
        rows = doc["J"]
        if not isinstance(rows, list) or len(rows) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in rows
        ):
            raise FixtureError(f"{source}: 'J' must be a {dim}x{dim} matrix")
        entries = [[_rational(x, f"{source}: J[{a}][{b}]") for b, x in enumerate(r)] for a, r in enumerate(rows)]
        try:
            J = ComplexStructure.from_matrix(entries)
        except NotAComplexStructure as exc:
            raise FixtureError(f"{source}: J is not a complex structure: {exc}") from exc

    omega = None
    if "omega" in doc and doc["omega"] is not None:
        entries = _indexed_entries(doc["omega"], "omega", source, dim)
        omega = TwoForm.from_dict(dim, {(i, j): _rational(v, f"{where}.v") for where, i, j, v in entries})

    return Fixture(name=name, algebra=algebra, J=J, omega=omega)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a repeated key raises ValueError instead of the last one winning."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {reprlib.repr(key)} is repeated in one JSON object")
        doc[key] = value
    return doc


def load_fixture(path: str | Path) -> Fixture:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise FixtureError(f"{path}: {exc}") from exc
    return parse_fixture(doc, source=str(path))


def rational_str(x: Fraction) -> int | str:
    x = frac(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def dumps_report(obj) -> str:
    """Report JSON, indented by 2: rationals as ``rational_str`` gives them, floats as ``repr``."""
    return json.dumps(obj, indent=2, default=rational_str)
