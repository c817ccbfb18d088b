"""JSON encodings for scalars, matrices, prescriptions, and reports.

Scalars encode as "p/q" strings ("p" when the denominator is 1); polynomials
as ascending coefficient arrays; matrices as flat row-major entry lists.
Rational-matrix entries are {"num": [...], "den": [...]} pairs.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from fractions import Fraction

from .errors import ParseError, _quoted, require
from .qpoly import FactoredPoly, Poly, RatFn, _make, _reduced, _stripped, rational_roots
from .polymat import PolyMatrix, RationalMatrix
from .extract import PolyStructuralData, RatStructuralData, VerificationReport
from .feasibility import FeasibilityReport, Prescription


_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_INT_TEXT = re.compile(r"[-+0-9,\[\]]*")


def fraction_to_json(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def int_from_json(v, name: str) -> int:
    """A JSON integer; bools, floats and strings are rejected, not coerced."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{name} must be an integer, got {_quoted(v)}")
    return v


def _scalar_pair(v) -> tuple:
    """(p, q) with q > 0, not necessarily coprime, from a JSON integer or a
    string "p/q" or "p" of ASCII digits with an optional sign on p; decimals,
    exponents, blanks and more digits than int() reads are rejected."""
    if type(v) is int:
        return v, 1
    if type(v) is not str:
        raise ParseError(f"not a rational scalar: {_quoted(v)}")
    m = _SCALAR.fullmatch(v)
    if m:
        try:
            p, q = int(m[1]), int(m[2] or 1)
            if q:
                return p, q
        except ValueError:
            pass
    raise ParseError(f"bad rational scalar {_quoted(v)}")


def fraction_from_json(v) -> Fraction:
    """The Fraction of a JSON scalar, in the grammar of _scalar_pair."""
    return Fraction(*_scalar_pair(v))


def poly_to_json(p: Poly) -> list:
    """fraction_to_json of each coefficient, without building Fractions."""
    den, out = p.denominator, []
    for c in p.numerators:
        g = math.gcd(c, den)
        out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
    return out


def _int_arrays(arrays: list):
    """The coefficient tuple of each array, trailing zeros stripped, when all
    are lists of JSON integers or of ASCII integer strings, else None. One
    json.loads reads the strings of two or more arrays joined: _INT_TEXT and
    the count of "[" let in nothing else but a "]", which no parse accepts;
    the lengths show a comma inside a string or "", and int() reads the "+"
    signs and leading zeros that JSON lacks. A lone array is read by int()
    alone, which is faster there."""
    if not all(type(a) is list for a in arrays):
        return None
    ints = None
    try:
        text = "],[".join(map(",".join, arrays))
        if _INT_TEXT.fullmatch(text) and text.count("[") == len(arrays) - 1:
            ints = json.loads(f"[[{text}]]") if arrays[1:] else [list(map(int, arrays[0]))]
    except TypeError:  # not all strings
        if all(type(c) is int for a in arrays for c in a):
            ints = arrays
    except ValueError:  # not JSON; int() also reads "+" signs and leading zeros
        with contextlib.suppress(ValueError):
            ints = [list(map(int, a)) for a in arrays]
    if ints is None or list(map(len, ints)) != list(map(len, arrays)):
        return None
    return [tuple(c) if c and c[-1] else _stripped(c) for c in ints]


def poly_from_json(v) -> Poly:
    """The Poly of _int_arrays, or else one _scalar_pair per coefficient over
    the lcm of their denominators."""
    if not isinstance(v, list):
        raise ParseError(f"polynomial must be a coefficient array, got {_quoted(v)}")
    if ints := _int_arrays([v]):
        return _make(ints[0], 1)
    pairs = [_scalar_pair(c) for c in v]
    den = math.lcm(*(q for _, q in pairs))
    return _reduced([p * (den // q) for p, q in pairs], den)


def _check_keys(obj: dict, what: str, required: tuple, optional: tuple = ()) -> None:
    """Every key of obj is required or optional, and every required key is
    there; the first unknown key is named."""
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(f"unknown {what} key {_quoted(key)}")
    if any(key not in obj for key in required):
        raise ParseError(f"{what} needs {', '.join(required)}")


def factored_from_json(v) -> FactoredPoly:
    _check_keys(v, "factored polynomial", ("leading",), ("factors", "cofactor"))
    try:
        return FactoredPoly(
            fraction_from_json(v["leading"]),
            [
                (fraction_from_json(r), int_from_json(m, "multiplicity"))
                for r, m in v.get("factors", [])
            ],
            poly_from_json(v.get("cofactor", [1])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad factored polynomial: {_quoted(v)}") from exc


def poly_list_from_json(v) -> tuple:
    """Accepts coefficient arrays or factored forms, expanding the latter. A
    list of integer arrays alone is read by one _int_arrays call."""
    if not isinstance(v, list):
        raise ParseError("expected a list of polynomials")
    if ints := _int_arrays(v):
        return tuple(_make(c, 1) for c in ints)
    out = []
    for item in v:
        if isinstance(item, dict):
            out.append(factored_from_json(item).expand())
        else:
            out.append(poly_from_json(item))
    return tuple(out)


def polymatrix_to_json(P: PolyMatrix) -> dict:
    return {
        "m": P.m,
        "n": P.n,
        "entries": [poly_to_json(e) for row in P.rows for e in row],
    }


def rationalmatrix_to_json(R: RationalMatrix) -> dict:
    return {
        "m": R.m,
        "n": R.n,
        "entries": [
            {"num": poly_to_json(e.num), "den": poly_to_json(e.den)}
            for row in R.rows
            for e in row
        ],
    }


def matrix_from_json(obj):
    """PolyMatrix or RationalMatrix, keyed on the entry encoding; integer
    arrays become the integer form of a PolyMatrix, and no Poly."""
    if not isinstance(obj, dict):
        raise ParseError("matrix object needs m, n, entries")
    _check_keys(obj, "matrix object", ("m", "n", "entries"))
    m, n = int_from_json(obj["m"], "m"), int_from_json(obj["n"], "n")
    entries = obj["entries"]
    # every command needs a nonempty matrix, so an empty shape stops here,
    # before any row is built
    if m < 1 or n < 1:
        raise ParseError(f"matrix shape must be positive, got m={m}, n={n}")
    if not isinstance(entries, list) or len(entries) != m * n:
        raise ParseError(f"expected {m * n} row-major entries")
    if flat := _int_arrays(entries):
        build = PolyMatrix._of_integer_rows
    elif any(isinstance(e, dict) for e in entries):
        build, flat = RationalMatrix._of_rows, list(map(_ratfn_from_json, entries))
    else:
        build, flat = PolyMatrix._of_rows, list(map(poly_from_json, entries))
    return build(tuple(tuple(flat[k : k + n]) for k in range(0, m * n, n)), n)


def _ratfn_from_json(e) -> RatFn:
    """A polynomial or a {"num": [...], "den": [...]} entry, den [1] by default."""
    if not isinstance(e, dict):
        return RatFn(poly_from_json(e))
    _check_keys(e, "rational entry", ("num",), ("den",))
    num, den = poly_from_json(e["num"]), poly_from_json(e.get("den", [1]))
    if den.is_zero:
        raise ParseError("entry with zero denominator")
    return RatFn(num, den)


def int_list(v, name: str) -> tuple:
    if v is None:
        return None
    if not isinstance(v, list):
        raise ParseError(f"{name} must be a list of integers")
    return tuple(int_from_json(x, f"{name} entry") for x in v)


_PRESCRIPTION_KEYS = ("d", "alpha", "epsilon", "psi", "f", "q", "k", "l", "right", "left",
                      "K", "Lt")


def prescription_from_json(obj) -> Prescription:
    if not isinstance(obj, dict):
        raise ParseError("prescription must be a JSON object")
    _check_keys(obj, "prescription", ("variant", "m", "n", "r"), _PRESCRIPTION_KEYS)
    kwargs = dict(
        variant=obj["variant"],
        m=int_from_json(obj["m"], "m"),
        n=int_from_json(obj["n"], "n"),
        r=int_from_json(obj["r"], "r"),
    )
    if "d" in obj and obj["d"] is not None:
        kwargs["d"] = int_from_json(obj["d"], "d")
    if "alpha" in obj:
        kwargs["alpha"] = poly_list_from_json(obj["alpha"])
    if "epsilon" in obj:
        kwargs["epsilon"] = poly_list_from_json(obj["epsilon"])
    if "psi" in obj:
        kwargs["psi"] = poly_list_from_json(obj["psi"])
    for key in ("f", "q", "k", "l", "right", "left"):
        if key in obj:
            kwargs[key] = int_list(obj[key], key)
    for key in ("K", "Lt"):
        if key in obj and obj[key] is not None:
            mat = matrix_from_json(obj[key])
            if not isinstance(mat, PolyMatrix):
                raise ParseError(f"{key} must be a polynomial matrix")
            kwargs[key] = mat
    return Prescription(**kwargs)


def prescription_to_json(p: Prescription) -> dict:
    out = {"variant": p.variant, "m": p.m, "n": p.n, "r": p.r}
    if p.d is not None:
        out["d"] = p.d
    if p.alpha is not None:
        out["alpha"] = [poly_to_json(a) for a in p.alpha]
    if p.epsilon is not None:
        out["epsilon"] = [poly_to_json(a) for a in p.epsilon]
    if p.psi is not None:
        out["psi"] = [poly_to_json(a) for a in p.psi]
    for key in ("f", "q", "k", "l", "right", "left"):
        val = getattr(p, key)
        if val is not None:
            out[key] = list(val)
    if p.K is not None:
        out["K"] = polymatrix_to_json(p.K)
    if p.Lt is not None:
        out["Lt"] = polymatrix_to_json(p.Lt)
    return out


def _basis_block(basis: PolyMatrix, indices) -> dict:
    return {"indices": list(indices), "basis": polymatrix_to_json(basis)}


def _rational_eigenvalues(polys) -> list:
    """Rational roots of the given monic polynomials, merged and sorted.

    Callers pass the ends of their divisibility chains, which hold every
    root of the chain. Cofactor content (irreducible over Q) stays inside
    the reported polynomials themselves.
    """
    roots = set()
    for p in polys:
        if p.is_zero or p.is_constant:
            continue
        roots.update(rational_roots(p))
    return [fraction_to_json(r) for r in sorted(roots)]


def structural_report(data) -> dict:
    """Full JSON report for extracted structural data, identities included."""
    from . import __version__

    common = {
        "tool": "structura",
        "version": __version__,
        "m": data.m,
        "n": data.n,
        "rank": data.rank,
        "colspan": _basis_block(data.colspan_basis, data.colspan_indices),
        "rowspan": _basis_block(data.rowspan_basis, data.rowspan_indices),
        "right_null": _basis_block(data.right_null_basis, data.right_indices),
        "left_null": _basis_block(data.left_null_basis, data.left_indices),
    }
    if isinstance(data, PolyStructuralData):
        common.update(
            kind="polynomial",
            degree=data.degree,
            invariant_factors=[poly_to_json(a) for a in data.invariant_factors],
            invariant_factors_pretty=[str(a) for a in data.invariant_factors],
            inf_partial_mults=list(data.inf_partial_mults),
            inf_orders=list(data.inf_orders),
            rational_eigenvalues=_rational_eigenvalues(data.invariant_factors[-1:]),
            has_infinite_eigenvalue=data.inf_partial_mults[-1] > 0,
        )
    else:
        require(isinstance(data, RatStructuralData), "unknown structural data type")
        common.update(
            kind="rational",
            numerators=[poly_to_json(a) for a in data.numerators],
            denominators=[poly_to_json(a) for a in data.denominators],
            invariant_rational_functions_pretty=[
                f"({num})/({den})"
                for num, den in zip(data.numerators, data.denominators)
            ],
            inf_orders=list(data.inf_orders),
            rational_poles_and_zeros=_rational_eigenvalues(
                [data.numerators[-1], data.denominators[0]]
            ),
        )
    common["identities"] = {label: _mark(ok) for label, ok in data.identities().items()}
    return common


def _mark(ok: bool) -> str:
    return "pass" if ok else "fail"


def feasibility_report_json(rep: FeasibilityReport, variant: str) -> dict:
    from . import __version__

    conditions = {}
    for key, c in rep.conditions.items():
        entry = {"status": c.status, "label": c.label}
        if c.lhs_partial_sums is not None:
            entry["lhs_partial_sums"] = list(c.lhs_partial_sums)
            entry["rhs_partial_sums"] = list(c.rhs_partial_sums)
        conditions[key] = entry
    return {
        "tool": "structura",
        "version": __version__,
        "variant": variant,
        "feasible": rep.feasible,
        "verdict": "FEASIBLE" if rep.feasible else "INFEASIBLE",
        "g_sequence": list(rep.g_sequence),
        "conditions": conditions,
    }


def verification_report_json(rep: VerificationReport) -> dict:
    return {
        "verdict": "pass" if rep.passed else "fail",
        "mismatches": list(rep.mismatches),
    }
