"""Command-line front end: analyze matrices, check and realize prescriptions,
verify realizations, and demonstrate the bounded minor selection.

Exit codes: 0 success/feasible/pass, 1 infeasible or verification failure,
2 malformed input, 3 non-split invariant data, 5 internal error (an identity
the library checks on its own output failed). Exit code 4 is retired and
not reused.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import (
    FieldNotSplit,
    Infeasible,
    InternalInvariantError,
    MalformedPrescription,
    ParseError,
    SingularInput,
    StructuraError,
    ZeroMatrix,
    _ascii_int,
    _quoted,
)
from .extract import (
    extract_poly_structure,
    extract_rational_structure,
    verify,
)
from .feasibility import check_feasibility
from .jsonio import (
    feasibility_report_json,
    matrix_from_json,
    polymatrix_to_json,
    prescription_from_json,
    rationalmatrix_to_json,
    structural_report,
    verification_report_json,
)
from .minors import admissible_pairs, minor_at, select_nonzero_minor
from .polymat import PolyMatrix
from .synthesis import realize_full, realize_rational, realize_span

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_MALFORMED = 2
EXIT_NOT_SPLIT = 3
EXIT_INTERNAL = 5


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _emit(doc, path):
    text = json.dumps(doc, indent=2, sort_keys=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_analyze(args) -> int:
    mat = matrix_from_json(_load_json(args.input))
    if isinstance(mat, PolyMatrix):
        data = extract_poly_structure(mat)
    else:
        # files with num/den entries report as rational even when integral
        data = extract_rational_structure(mat)
    _emit(structural_report(data), args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    p = prescription_from_json(_load_json(args.input))
    rep = check_feasibility(p)
    _emit(feasibility_report_json(rep, p.variant), args.output)
    return EXIT_OK if rep.feasible else EXIT_INFEASIBLE


def _cmd_construct(args) -> int:
    p = prescription_from_json(_load_json(args.input))
    if p.is_rational:
        result = realize_rational(p)
        matrix_doc = rationalmatrix_to_json(result)
    elif p.uses_null_indices:
        result = realize_full(p)
        matrix_doc = polymatrix_to_json(result)
    else:
        result = realize_span(p)
        matrix_doc = polymatrix_to_json(result)
    doc = {
        "tool": "structura",
        "version": __version__,
        "seed": args.seed,
        "matrix": matrix_doc,
    }
    code = EXIT_OK
    if not args.no_verify:
        rep = verify(result, p)
        doc["verification"] = verification_report_json(rep)
        code = EXIT_OK if rep.passed else EXIT_INFEASIBLE
    _emit(doc, args.output)
    return code


def _cmd_verify(args) -> int:
    mat = matrix_from_json(_load_json(args.matrix))
    p = prescription_from_json(_load_json(args.prescription))
    rep = verify(mat, p)
    _emit(verification_report_json(rep), None)
    return EXIT_OK if rep.passed else EXIT_INFEASIBLE


def _parse_z(raw: str):
    """Comma-separated ASCII digit tokens; blanks and empty tokens are
    skipped."""
    z = [_ascii_int(tok) for tok in raw.replace(" ", "").split(",") if tok]
    if None in z:
        raise ParseError(f"bad index tuple {_quoted(raw)}")
    return z


def _cmd_minor_select(args) -> int:
    mat = matrix_from_json(_load_json(args.matrix))
    Z = _parse_z(args.z)
    I, J = select_nonzero_minor(mat, Z)
    doc = {
        "Z": Z,
        "I": list(I),
        "J": list(J),
        "minor": str(minor_at(mat, I, J)),
    }
    if args.brute:
        doc["admissible_pairs"] = [
            {"I": list(i), "J": list(j)} for i, j in admissible_pairs(mat, Z)
        ]
    _emit(doc, None)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="structura",
        description=(
            "Exact structural data of polynomial and rational matrices: "
            "extraction, feasibility of prescribed data, and realization."
        ),
    )
    ap.add_argument("--version", action="version", version=f"structura {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="extract the structural data of a matrix")
    p.add_argument("input", help="matrix JSON file")
    p.add_argument("-o", "--output", default=None, help="report destination")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("check", help="decide feasibility of a prescription")
    p.add_argument("input", help="prescription JSON file")
    p.add_argument("-o", "--output", default=None, help="report destination")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("construct", help="realize a feasible prescription")
    p.add_argument("input", help="prescription JSON file")
    p.add_argument("-o", "--output", default=None, help="result destination")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="recorded in the report; the pipelines are deterministic",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the re-extraction check of the constructed matrix",
    )
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="compare a matrix against a prescription")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("prescription", help="prescription JSON file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "minor-select", help="pick a nonzero minor under index bounds"
    )
    p.add_argument("matrix", help="square polynomial matrix JSON file")
    p.add_argument("--z", required=True, help='index tuple, e.g. "1,3,4"')
    p.add_argument(
        "--brute",
        action="store_true",
        help="also enumerate every admissible pair",
    )
    p.set_defaults(fn=_cmd_minor_select)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FieldNotSplit as exc:
        print(
            f"field-not-split: {exc}; the construction needs an "
            "algebraically closed field",
            file=sys.stderr,
        )
        return EXIT_NOT_SPLIT
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ParseError, MalformedPrescription, ZeroMatrix, SingularInput) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except StructuraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
