"""JSON encodings and the command-line surface, including exit codes."""

import dataclasses
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from conftest import scalarwise_poly_from_json
from structura import cli, jsonio, polymat
from structura.cli import main
from structura.errors import ParseError, _quoted
from structura.qpoly import ONE, X, Poly, RatFn
from structura.polymat import PolyMatrix
from structura.extract import (
    PolyStructuralData,
    RationalMatrix,
    RatStructuralData,
    VerificationReport,
    extract_poly_structure,
    extract_rational_structure,
)
from structura.feasibility import Prescription
from structura.jsonio import (
    fraction_from_json,
    fraction_to_json,
    matrix_from_json,
    poly_from_json,
    poly_list_from_json,
    poly_to_json,
    polymatrix_to_json,
    prescription_from_json,
    prescription_to_json,
    rationalmatrix_to_json,
    structural_report,
)

# m = n = r = 10, d = 6, f = (0, ..., 0, 1, 1, 2), k = l = 0, and a chain
# over the roots -1, 0, 1 and 2 with exponents up to 3
R10_FOUR_ROOTS = pathlib.Path(__file__).parent / "data" / "r10_four_roots.json"

ONE_OVER_S = {"m": 1, "n": 1, "entries": [{"num": [1], "den": [0, 1]}]}

S = X
M = PolyMatrix.from_scalar_rows

WORKED_PRESCRIPTION = {
    "variant": "P2_span_indices",
    "m": 3,
    "n": 3,
    "r": 2,
    "d": 7,
    "alpha": [[1], [1, 0, 2, 0, 1]],
    "f": [0, 0],
    "k": [5, 0],
    "l": [4, 1],
}

# delta = (s, s, s) against alpha = (1, s, s^2): the 3x3 completion at the
# atom s, built by the pair rule of synthesis._atom_triangular
SEARCHING_PRESCRIPTION = {
    "variant": "P2_span_indices",
    "m": 3,
    "n": 3,
    "r": 3,
    "d": 1,
    "alpha": [[1], [0, 1], [0, 0, 1]],
    "f": [0, 0, 0],
    "k": [0, 0, 0],
    "l": [0, 0, 0],
}


# strings of the scalar grammar, unreduced and with leading zeros, and ints
JSON_SCALARS = hst.one_of(
    hst.builds(
        lambda sign, zeros, p, den: sign + zeros + p + den,
        hst.sampled_from(["", "+", "-"]),
        hst.sampled_from(["", "0", "00"]),
        hst.text("0123456789", min_size=1, max_size=12),
        hst.one_of(
            hst.just(""),
            hst.builds(lambda zeros, q: f"/{zeros}{q}",
                       hst.sampled_from(["", "0", "000"]), hst.integers(1, 10**6)),
        ),
    ),
    hst.integers(-(10**30), 10**30),
)


INTEGER_STRINGS = hst.builds(
    lambda sign, zeros, digits: sign + zeros + digits,
    hst.sampled_from(["", "+", "-"]),
    hst.sampled_from(["", "0", "00"]),
    hst.text("0123456789", min_size=1, max_size=12),
)

# an integer string broken by a separator, blank, sign or non-ASCII digit
# spliced in anywhere
SPLICED_STRINGS = hst.builds(
    lambda text, at, junk: text[: at % (len(text) + 1)] + junk + text[at % (len(text) + 1) :],
    INTEGER_STRINGS,
    hst.integers(0, 14),
    hst.sampled_from([",", ",,", " ", "_", ".", "e", "/", "/0", "+", "-", "\n", "\u0663"]),
)
MUTATED_SCALARS = hst.one_of(
    SPLICED_STRINGS,
    hst.sampled_from([True, False, None, 1.5, 2.0, [1], {"num": [1]}, "", ","]),
)


# coefficient arrays: all integers, all integer strings, mixed, fractions,
# strings broken by a splice, and any scalar at all
ARRAY_KINDS = (
    hst.lists(hst.integers(-(10**30), 10**30), max_size=6),
    hst.lists(INTEGER_STRINGS, max_size=6),
    hst.lists(hst.one_of(hst.integers(-99, 99), INTEGER_STRINGS), max_size=6),
    hst.lists(JSON_SCALARS, max_size=6),
    hst.lists(hst.one_of(INTEGER_STRINGS, SPLICED_STRINGS), min_size=1, max_size=6),
    hst.lists(hst.one_of(INTEGER_STRINGS, JSON_SCALARS, MUTATED_SCALARS), max_size=6),
)
ARRAYS = hst.one_of(ARRAY_KINDS)
RATIONAL_ENTRIES = hst.fixed_dictionaries(
    {"num": hst.lists(INTEGER_STRINGS, max_size=3)},
    optional={"den": hst.lists(INTEGER_STRINGS, max_size=3)})


@hst.composite
def matrix_docs(draw):
    """Matrix objects up to 7x7. Most draw every entry from one array
    strategy, so that whole matrices reach the whole-array reader; some mix
    in a second one, non-list entries, or rational entries."""
    m, n = draw(hst.integers(1, 7)), draw(hst.integers(1, 7))
    entry = draw(hst.sampled_from(ARRAY_KINDS))
    extra = draw(hst.sampled_from([None, ARRAYS, MUTATED_SCALARS, RATIONAL_ENTRIES]))
    if extra is not None:
        entry = hst.one_of(entry, extra)
    entries = draw(hst.lists(entry, min_size=m * n, max_size=m * n))
    return {"m": m, "n": n, "entries": entries}


def entrywise_matrix_from_json(doc):
    """matrix_from_json with every entry read on its own, its arrays by
    scalarwise_poly_from_json: the reference for the values and ParseError
    texts of the whole-matrix reader."""
    m, n, entries = doc["m"], doc["n"], doc["entries"]
    if any(isinstance(e, dict) for e in entries):
        def read(e):
            if not isinstance(e, dict):
                return RatFn(scalarwise_poly_from_json(e))
            num = scalarwise_poly_from_json(e["num"])
            den = scalarwise_poly_from_json(e.get("den", [1]))
            if den.is_zero:
                raise ParseError("entry with zero denominator")
            return RatFn(num, den)
        cls = RationalMatrix
    else:
        read, cls = scalarwise_poly_from_json, PolyMatrix
    flat = [read(e) for e in entries]
    return cls([flat[i * n:(i + 1) * n] for i in range(m)], n=n)


def last_entry(v, n=2):
    """An n x n matrix object of integer strings with v as its last entry."""
    return {"m": n, "n": n, "entries": [[str(i), "-1"] for i in range(n * n - 1)] + [v]}


def matrix_outcome(read, doc):
    """(type name, m, n, rows) of read(doc), or the text of its ParseError."""
    try:
        M = read(doc)
    except ParseError as exc:
        return str(exc)
    assert type(M)(M.rows, n=M.n) == M  # tuples of entry_type, as __init__ builds
    return type(M).__name__, M.m, M.n, M.rows


def read_outcome(read, v):
    """(numerators, denominator) of read(v), or the text of its ParseError."""
    try:
        p = read(v)
    except ParseError as exc:
        return str(exc)
    return p.numerators, p.denominator


class TestJson:
    def test_fraction_codec(self):
        assert fraction_to_json(Fraction(3)) == "3"
        assert fraction_to_json(Fraction(-2, 7)) == "-2/7"
        assert fraction_from_json("-2/7") == Fraction(-2, 7)
        assert fraction_from_json(5) == Fraction(5)
        with pytest.raises(ParseError):
            fraction_from_json("x")
        with pytest.raises(ParseError):
            fraction_from_json("1/0")

    @pytest.mark.parametrize("text", ["+3", "-3/4", "007", "12/08"])
    def test_scalar_grammar_accepts(self, text):
        assert fraction_from_json(text) == Fraction(text)

    @pytest.mark.parametrize(
        "text", ["1e9", "1.5", " 3", "3 ", "3\n", "", "/2", "1/", "1/-2", "1_0", "\u0663"]
    )
    def test_scalar_grammar_rejects(self, text):
        with pytest.raises(ParseError):
            fraction_from_json(text)

    @settings(max_examples=200, deadline=None)
    @given(hst.lists(JSON_SCALARS, max_size=6))
    @example(["6/4", "-0", "+007/0021", 3, "0/9", "-12/08"])
    def test_poly_reads_the_fractions_of_its_scalars(self, v):
        got = poly_from_json(v)
        want = Poly([Fraction(c) for c in v])
        assert got == want
        assert (got.numerators, got.denominator) == (want.numerators, want.denominator)
        assert [fraction_from_json(c) for c in v] == [Fraction(c) for c in v]

    @pytest.mark.parametrize(
        "scalar",
        ["1/0", "1.5", "1e9", " 3", True, 1.5, "7" * 5000, "1/" + "7" * 5000],
        ids=["zero-den", "decimal", "exponent", "blank", "bool", "float",
             "5000-digit", "5000-digit-den"],
    )
    def test_scalar_rejected_by_both_readers(self, scalar):
        with pytest.raises(ParseError):
            fraction_from_json(scalar)
        with pytest.raises(ParseError):
            poly_from_json(["1", scalar])

    @settings(max_examples=300, deadline=None)
    @given(ARRAYS)
    @example(["1_0"])
    @example(["1", " 2"])
    @example(["1,2"])
    @example(["1", "2,3"])
    @example(["-0"])
    @example(["+007", "0"])
    @example([1, "2"])
    @example(["\u0663"])
    @example(["7" * 5000])
    @example([True])
    def test_poly_reader_matches_the_scalarwise_oracle(self, v):
        assert read_outcome(poly_from_json, v) == read_outcome(scalarwise_poly_from_json, v)

    @pytest.mark.parametrize(
        "v, want",
        [
            (["1,2"], "bad rational scalar '1,2'"),
            (["1", "2,3"], "bad rational scalar '2,3'"),
            (["-0"], ((), 1)),
            (["+007", "0"], ((7,), 1)),
            ([1, "2"], ((1, 2), 1)),
            (["\u0663"], "bad rational scalar '\u0663'"),
            (["7" * 5000], f"bad rational scalar {_quoted('7' * 5000)}"),
            ([True], "not a rational scalar: True"),
            ([0, -3, 0, 0], ((0, -3), 1)),
            (["4", "-6/4"], ((8, -3), 2)),
            (["1/2", "3"], ((1, 6), 2)),
        ],
        ids=["comma", "comma-second", "minus-zero", "plus-leading-zeros", "int-and-string",
             "arabic-indic-digit", "5000-digit", "bool", "trailing-zeros", "reducible-fraction",
             "fraction"],
    )
    def test_poly_reader_pinned_arrays(self, v, want):
        assert read_outcome(poly_from_json, v) == want
        assert read_outcome(scalarwise_poly_from_json, v) == want

    @settings(max_examples=200, deadline=None)
    @given(hst.lists(ARRAYS, max_size=4))
    @example([["1"], ["2/3"]])
    @example([[1], ["+2"], []])
    @example([["1"], ["1,2"]])
    @example([[1], "1"])
    def test_poly_list_reads_as_its_items(self, vs):
        # the one-call read of a list gives each item's value, and the first
        # bad item's ParseError
        want = []
        for v in vs:
            want.append(read_outcome(poly_from_json, v))
            if isinstance(want[-1], str):
                break
        try:
            got = [(p.numerators, p.denominator) for p in poly_list_from_json(vs)]
        except ParseError as exc:
            got = want[:-1] + [str(exc)]
        assert got == want

    @pytest.mark.parametrize("v", [[], [1, -2, 0], ["1", "-2", "+007", "0"], [10**40, 3]])
    def test_integer_arrays_skip_the_scalar_reader(self, v, monkeypatch):
        # a lone array is read by int() alone, without the whole-matrix parse
        def per_scalar(c):
            raise AssertionError(f"scalar {c!r} read on its own")

        class NoJson:
            def loads(self, text):
                raise AssertionError(f"{text!r} parsed as JSON")

        monkeypatch.setattr(jsonio, "_scalar_pair", per_scalar)
        monkeypatch.setattr(jsonio, "json", NoJson())
        got = poly_from_json(v)
        assert got == Poly([int(c) for c in v]) and got.denominator == 1
        # a list of arrays (alpha, epsilon, psi) is read by one _int_polys call
        monkeypatch.setattr(jsonio, "json", json)
        calls = []
        real = jsonio._int_polys
        monkeypatch.setattr(jsonio, "_int_polys", lambda arrays: calls.append(arrays) or real(arrays))
        assert poly_list_from_json([v, v]) == (got, got)
        assert calls == [[v, v]]

    @settings(max_examples=200, deadline=None)
    @given(matrix_docs())
    @example(last_entry(["-0"]))
    @example(last_entry(["00"]))
    @example(last_entry(["+007", "0"]))
    @example(last_entry([" 1"]))
    @example(last_entry(["1,2"]))
    @example(last_entry(["1],[2"]))
    @example(last_entry(["[1]"]))
    @example(last_entry([""]))
    @example(last_entry(["\u0663"]))
    @example(last_entry(["7" * 4301]))
    @example(last_entry([1, "2"]))
    @example(last_entry([1, 2]))
    @example(last_entry(["1", "0", "0"]))
    @example(last_entry("1"))
    @example(last_entry({"num": ["1"], "den": ["0", "1"]}))
    def test_matrix_reader_matches_entrywise_oracle(self, doc):
        assert (matrix_outcome(matrix_from_json, doc)
                == matrix_outcome(entrywise_matrix_from_json, doc))

    @pytest.mark.parametrize("entries, parses", [
        ([[1, -2, 0], [], [10**40, 3], [0, 0]], 0),
        ([["1", "-2", "3", "0"], [], ["-0"], ["12", "0"]], 1),
        ([["1", "-2", "+007", "0"], [], ["-0"], ["12", "00"]], 1),
    ], ids=["json-integers", "json-integer-strings", "integer-strings"])
    def test_integer_matrices_skip_the_scalar_reader(self, entries, parses, monkeypatch):
        # JSON integers are taken as they are; strings are parsed once for
        # the whole matrix, and int() reads the arrays when that parse fails
        def per_scalar(c):
            raise AssertionError(f"scalar {c!r} read on its own")

        texts = []

        class CountingJson:
            def loads(self, text):
                texts.append(text)
                return json.loads(text)

        monkeypatch.setattr(jsonio, "_scalar_pair", per_scalar)
        monkeypatch.setattr(jsonio, "json", CountingJson())
        got = matrix_from_json({"m": 2, "n": 2, "entries": entries})
        want = [Poly([int(c) for c in e]) for e in entries]
        assert got.rows == (tuple(want[:2]), tuple(want[2:]))
        assert all(e.denominator == 1 for row in got.rows for e in row)
        assert len(texts) == parses

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"nom": ["1"]}, "unknown rational entry key 'nom'"),
            ({"num": ["1"], "dem": ["2"]}, "unknown rational entry key 'dem'"),
            ({"den": ["2"]}, "rational entry needs num"),
            ({}, "rational entry needs num"),
            ({"num": ["1"], "den": []}, "entry with zero denominator"),
        ],
        ids=["misspelled-num", "misspelled-den", "den-only", "empty", "zero-den"],
    )
    def test_rational_entry_keys(self, tmp_path, capsys, entry, message):
        doc = {"m": 1, "n": 2, "entries": [entry, ["1"]]}
        with pytest.raises(ParseError, match=f"^{message}$"):
            matrix_from_json(doc)
        assert main(["analyze", write(tmp_path, "m.json", doc)]) == 2
        assert capsys.readouterr().err == f"malformed input: {message}\n"

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            # would read as s^2 - 1 instead of (s^2 - 1)(s^2 + 5)
            ("construct", dict(WORKED_PRESCRIPTION, alpha=[[1], {
                "leading": "1", "factors": [["1", 1], ["-1", 1]], "cofactr": [5, 0, 1]}]),
             "unknown factored polynomial key 'cofactr'"),
            ("check", dict(WORKED_PRESCRIPTION, colour="red"),
             "unknown prescription key 'colour'"),
            ("check", dict(WORKED_PRESCRIPTION, variant="P1_spans", k=None, l=None,
                           K={"m": 3, "n": 2, "entries": [[1]] * 6, "degree": 0},
                           Lt={"m": 3, "n": 2, "entries": [[1]] * 6}),
             "unknown matrix object key 'degree'"),
            ("analyze", {"m": 1, "n": 1, "entries": [[1]], "rows": [[1]]},
             "unknown matrix object key 'rows'"),
            ("check", dict(WORKED_PRESCRIPTION, alpha=[[1], {"cofactor": [1, 0, 2, 0, 1]}]),
             "factored polynomial needs leading"),
            ("check", {key: v for key, v in WORKED_PRESCRIPTION.items() if key != "r"},
             "prescription needs variant, m, n, r"),
            ("analyze", {"m": 1, "entries": [[1]]}, "matrix object needs m, n, entries"),
        ],
        ids=["factored", "prescription", "basis", "matrix", "no-leading", "no-r", "no-n"],
    )
    def test_unknown_or_missing_key_exit_two(self, tmp_path, capsys, command, doc, message):
        assert main([command, write(tmp_path, "in.json", doc)]) == 2
        assert capsys.readouterr().err == f"malformed input: {message}\n"

    def test_rational_entry_den_defaults_to_one(self):
        got = matrix_from_json({"m": 1, "n": 2, "entries": [{"num": ["1", "2"]}, [3]]})
        assert got == RationalMatrix([[RatFn(Poly([1, 2])), RatFn(Poly([3]))]])

    def test_poly_round_trip(self):
        p = Poly([Fraction(1, 2), 0, -3])
        assert poly_from_json(poly_to_json(p)) == p
        assert poly_to_json(Poly()) == []

    @settings(max_examples=150, deadline=None)
    @given(hst.lists(hst.one_of(hst.integers(-40, 40),
                                hst.fractions(min_value=-9, max_value=9, max_denominator=24)),
                     max_size=6))
    def test_poly_to_json_matches_fraction_coefficients(self, cs):
        # the numerator/denominator writer against the Fraction coefficients
        p = Poly(cs)
        assert poly_to_json(p) == [fraction_to_json(c) for c in p.coeffs]

    def test_matrix_round_trip(self):
        P = M([[S, 1], [0, S * S]])
        assert matrix_from_json(polymatrix_to_json(P)) == P

    def test_rational_matrix_round_trip(self):
        R = RationalMatrix([[RatFn(ONE, S), RatFn(S + ONE)]])
        back = matrix_from_json(rationalmatrix_to_json(R))
        assert isinstance(back, RationalMatrix) and back == R

    def test_entry_count_checked(self):
        with pytest.raises(ParseError):
            matrix_from_json({"m": 2, "n": 2, "entries": [[1]]})

    def test_prescription_round_trip(self):
        p = prescription_from_json(WORKED_PRESCRIPTION)
        assert p.alpha[1] == Poly([1, 0, 2, 0, 1])
        again = prescription_from_json(prescription_to_json(p))
        assert again == p

    def test_factored_alpha_accepted(self):
        doc = dict(WORKED_PRESCRIPTION)
        doc["alpha"] = [
            [1],
            {"leading": "1", "factors": [], "cofactor": [1, 0, 2, 0, 1]},
        ]
        p = prescription_from_json(doc)
        assert p.alpha[1] == Poly([1, 0, 2, 0, 1])

    def test_prescription_with_bases(self):
        from structura.synthesis import build_minimal_basis

        p = Prescription(
            variant="P1_spans",
            m=3,
            n=3,
            r=2,
            d=1,
            alpha=(ONE, ONE),
            f=(0, 0),
            K=build_minimal_basis((1, 0), 3),
            Lt=build_minimal_basis((1, 0), 3),
        )
        again = prescription_from_json(prescription_to_json(p))
        assert again.K == p.K and again.Lt == p.Lt


class TestIdentityTable:
    def failed(self, data):
        return {k for k, v in structural_report(data)["identities"].items() if v == "fail"}

    def test_raised_null_index_fails_two_polynomial_identities(self):
        data = extract_poly_structure(M([[S, S * S], [1, S]]))
        assert data.right_indices == (1,) and not self.failed(data)
        raised = dataclasses.replace(data, right_indices=(2,))
        assert self.failed(raised) == {"eqIST", "eqsums"}

    def test_raised_colspan_index_fails_both_rational_identities(self):
        data = extract_rational_structure(matrix_from_json(ONE_OVER_S))
        assert data.colspan_indices == (0,) and not self.failed(data)
        raised = dataclasses.replace(data, colspan_indices=(1,))
        assert self.failed(raised) == {"eqsums", "eqIST_rational"}

    @pytest.mark.parametrize(
        "cls, label",
        [(PolyStructuralData, k) for k in ("eqIST", "eqsums", "eqsumklfa", "eqf1")]
        + [(RatStructuralData, k) for k in ("eqsums", "eqIST_rational")],
    )
    def test_failed_entry_exits_five_naming_it(self, tmp_path, monkeypatch, capsys, cls, label):
        table = cls.identities
        monkeypatch.setattr(cls, "identities", lambda self: {**table(self), label: False})
        doc = ONE_OVER_S if cls is RatStructuralData else {"m": 1, "n": 1, "entries": [[0, 1]]}
        assert main(["analyze", write(tmp_path, "m.json", doc)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and label in err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_walkthrough_demo_runs():
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "demos" / "walkthrough.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "feasible: True" in proc.stdout
    assert "construction refused" in proc.stdout
    assert "passed=True" in proc.stdout


class TestCli:
    def test_check_feasible_exit_zero(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", WORKED_PRESCRIPTION)
        assert main(["check", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "FEASIBLE"
        assert doc["g_sequence"] == [6, 4]
        labels = {c["label"] for c in doc["conditions"].values()}
        assert {"eqf1", "eqprec", "eqx>0", "eqy>0"} <= labels
        for key in ("eqf1", "eqprec", "eqx0", "eqy0"):
            assert doc["conditions"][key]["status"] == "pass"

    def test_check_infeasible_exit_one(self, tmp_path, capsys):
        doc = dict(WORKED_PRESCRIPTION)
        doc["d"] = 6
        path = write(tmp_path, "p.json", doc)
        assert main(["check", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["conditions"]["eqprec"]["status"] == "fail"

    def test_check_malformed_exit_two(self, tmp_path):
        doc = dict(WORKED_PRESCRIPTION)
        doc["k"] = [0, 5]
        path = write(tmp_path, "p.json", doc)
        assert main(["check", path]) == 2

    @pytest.mark.parametrize(
        "changes",
        [
            {"d": "x"},
            {"d": 1.9},
            {"m": "3"},
            {"k": [5.0, 0]},
            # feasible if the bools and the float were read as 1, 1 and 1
            {"m": 2, "n": 1, "r": True, "d": 1.9, "alpha": [[1]], "f": [0],
             "k": [True], "l": [0]},
        ],
    )
    def test_check_non_integer_exit_two(self, tmp_path, changes):
        path = write(tmp_path, "p.json", dict(WORKED_PRESCRIPTION, **changes))
        assert main(["check", path]) == 2

    @pytest.mark.parametrize("changes", [{"m": 1.0}, {"n": True}, {"m": "1"}])
    def test_analyze_non_integer_shape_exit_two(self, tmp_path, changes):
        doc = dict({"m": 1, "n": 1, "entries": [[0, 1]]}, **changes)
        assert main(["analyze", write(tmp_path, "m.json", doc)]) == 2

    @pytest.mark.parametrize(
        "shape", [(-1, -1), (-1, 0), (0, -2), (-2, -2), (2000000, 0), (0, 3)]
    )
    def test_analyze_negative_shape_exit_two(self, tmp_path, capsys, shape):
        # (-1, -1) and (-2, -2) match the entry count m * n; an empty shape is
        # rejected before any of its m rows is built
        m, n = shape
        doc = {"m": m, "n": n, "entries": [[1]] * (m * n)}
        assert main(["analyze", write(tmp_path, "m.json", doc)]) == 2
        err = capsys.readouterr().err
        assert f"m={m}, n={n}" in err and "zero matrix" not in err

    def test_construct_not_split_exit_three(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", WORKED_PRESCRIPTION)
        assert main(["construct", path]) == 3
        err = capsys.readouterr().err
        assert "algebraically closed" in err

    @pytest.mark.parametrize("end", [[1, 0, 2, 0, 1], [12345] * 25 + [1]])
    def test_construct_not_split_message_names_the_chain_end_once(
            self, tmp_path, capsys, end):
        doc = {"variant": "P2_span_indices", "m": 1, "n": 1, "r": 1,
               "d": len(end) - 1, "alpha": [end], "f": [0], "k": [0], "l": [0]}
        assert main(["construct", write(tmp_path, "p.json", doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("field-not-split: the chain end '")
        assert len(err.encode()) < 200
        assert err.count("algebraically closed") == 1 and err.count("over Q") == 1

    def test_construct_not_split_with_a_large_constant_is_fast(self, tmp_path, capsys):
        # the divisors of 10^18 + 3 are out of reach of a trial search; the
        # Sturm count finds no real root at once
        doc = dict(WORKED_PRESCRIPTION, alpha=[[1], [10**18 + 3, 0, 1, 0, 1]])
        path = write(tmp_path, "p.json", doc)
        t0 = time.perf_counter()
        assert main(["construct", path]) == 3
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr().err.startswith("field-not-split: the chain end '")

    def test_construct_infeasible_exit_one(self, tmp_path):
        doc = dict(WORKED_PRESCRIPTION)
        doc["d"] = 6
        path = write(tmp_path, "p.json", doc)
        assert main(["construct", path]) == 1

    def test_construct_failed_verification_exit_one(self, tmp_path, monkeypatch):
        # the matrix is still written, next to the failing verdict
        failing = VerificationReport(passed=False, mismatches=("rank",))
        monkeypatch.setattr(cli, "verify", lambda matrix, p: failing)
        out = tmp_path / "result.json"
        path = write(tmp_path, "p.json", SEARCHING_PRESCRIPTION)
        assert main(["construct", path, "-o", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["verification"] == {"verdict": "fail", "mismatches": ["rank"]}
        assert (doc["matrix"]["m"], doc["matrix"]["n"]) == (3, 3)

    def test_construct_square_r10_tracks_no_transformers(self, tmp_path, monkeypatch):
        # alpha_i = (s + 1)^a_i s^b_i (s - 1)^c_i (s - 2)^e_i in factored form,
        # every index 0: verification extracts a square nonsingular 10x10,
        # which takes its diagonal without the Smith transformers
        tracked = []
        real = polymat._smith_core

        def counted(P, track):
            tracked.append(track)
            return real(P, track)

        monkeypatch.setattr(polymat, "_smith_core", counted)
        out = tmp_path / "result.json"
        assert main(["construct", str(R10_FOUR_ROOTS), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["verification"]["verdict"] == "pass"
        assert tracked and True not in tracked

    def test_construct_and_round_trip(self, tmp_path, capsys):
        doc = {
            "variant": "P3_full",
            "m": 3,
            "n": 3,
            "r": 2,
            "d": 1,
            "alpha": [[1], [1]],
            "f": [0, 0],
            "k": [1, 0],
            "l": [1, 0],
            "right": [1],
            "left": [1],
        }
        path = write(tmp_path, "p.json", doc)
        out_path = str(tmp_path / "result.json")
        assert main(["construct", path, "-o", out_path, "--seed", "5"]) == 0
        result = json.loads(open(out_path).read())
        assert result["verification"]["verdict"] == "pass"
        assert result["seed"] == 5
        # analyzing the constructed matrix reproduces the prescription
        mat_path = write(tmp_path, "m.json", result["matrix"])
        assert main(["analyze", mat_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 2 and report["degree"] == 1
        assert report["colspan"]["indices"] == [1, 0]
        assert report["rowspan"]["indices"] == [1, 0]
        assert report["right_null"]["indices"] == [1]
        assert report["left_null"]["indices"] == [1]
        assert all(v == "pass" for v in report["identities"].values())

    def test_construct_square_full_with_infinite_structure(self, tmp_path, capsys):
        # m = n = r: both minimal bases are the identity, and f != 0 takes
        # the Mobius route
        doc = {"variant": "P3_full", "m": 2, "n": 2, "r": 2, "d": 2,
               "alpha": [[1], [0, 0, 1]], "f": [0, 2], "k": [0, 0], "l": [0, 0],
               "right": [], "left": []}
        assert main(["construct", write(tmp_path, "p.json", doc)]) == 0
        assert json.loads(capsys.readouterr().out)["verification"]["verdict"] == "pass"

    def test_construct_deterministic(self, tmp_path):
        doc = {
            "variant": "P2_span_indices",
            "m": 2,
            "n": 2,
            "r": 2,
            "d": 2,
            "alpha": [[1], [-1, 1]],
            "f": [0, 3],
            "k": [0, 0],
            "l": [0, 0],
        }
        path = write(tmp_path, "p.json", doc)
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        assert main(["construct", path, "-o", out1]) == 0
        assert main(["construct", path, "-o", out2]) == 0
        assert open(out1).read() == open(out2).read()

    def test_construct_with_explicit_bases(self, tmp_path):
        from structura.jsonio import polymatrix_to_json as mat_json
        from structura.synthesis import build_minimal_basis

        doc = {
            "variant": "P1_spans",
            "m": 3,
            "n": 3,
            "r": 2,
            "d": 1,
            "alpha": [[1], [1]],
            "f": [0, 0],
            "K": mat_json(build_minimal_basis((1, 0), 3)),
            "Lt": mat_json(build_minimal_basis((1, 0), 3)),
        }
        path = write(tmp_path, "p1.json", doc)
        out = str(tmp_path / "out.json")
        assert main(["construct", path, "-o", out]) == 0
        result = json.loads(open(out).read())
        assert result["verification"]["verdict"] == "pass"

    def test_construct_rational_round_trip(self, tmp_path, capsys):
        doc = {
            "variant": "R2_span_indices",
            "m": 2,
            "n": 2,
            "r": 1,
            "epsilon": [[1]],
            "psi": [[0, 1]],
            "q": [1],
            "k": [0],
            "l": [0],
        }
        path = write(tmp_path, "p.json", doc)
        out_path = str(tmp_path / "r.json")
        assert main(["construct", path, "-o", out_path]) == 0
        result = json.loads(open(out_path).read())
        assert result["verification"]["verdict"] == "pass"
        mat_path = write(tmp_path, "m.json", result["matrix"])
        assert main(["analyze", mat_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "rational"
        assert report["inf_orders"] == [1]

    def test_analyze_rational(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", ONE_OVER_S)
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "rational"
        assert report["inf_orders"] == [1]
        assert report["denominators"] == [["0", "1"]]

    @pytest.mark.parametrize("scalar", ["1e9", "1.5", " 3"])
    def test_analyze_scalar_outside_grammar_exit_two(self, tmp_path, capsys, scalar):
        doc = {"m": 1, "n": 1, "entries": [["1", scalar]]}
        assert main(["analyze", write(tmp_path, "m.json", doc)]) == 2
        assert capsys.readouterr().err.startswith("malformed input: bad rational scalar")

    def test_analyze_five_thousand_digit_scalar_exit_two(self, tmp_path, capsys):
        doc = {"m": 1, "n": 1, "entries": [["7" * 5000]]}
        assert main(["analyze", write(tmp_path, "m.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("malformed input: bad rational scalar '777") and len(err) < 200

    @pytest.mark.parametrize("command, doc, prefix", [
        ("analyze", {"m": 1, "n": 1, "entries": [[[7] * 5000]]}, "not a rational scalar: [7, "),
        ("analyze", {"m": "7" * 5000, "n": 1, "entries": []}, "m must be an integer, got '777"),
        ("analyze", {"m": 1, "n": 1, "entries": ["7" * 5000]},
         "polynomial must be a coefficient array, got '777"),
        ("check", dict(WORKED_PRESCRIPTION, alpha=[[1], {"leading": "1", "factors": "7" * 5000}]),
         "bad factored polynomial: {'leading'"),
        ("check", dict(WORKED_PRESCRIPTION, variant="P" * 5000), "unknown variant 'PPP"),
    ])
    def test_overlong_input_is_shortened_in_the_message(self, tmp_path, capsys, command, doc,
                                                        prefix):
        assert main([command, write(tmp_path, "in.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("malformed input: " + prefix) and len(err) < 200

    @pytest.mark.parametrize("command", ["analyze", "check"])
    def test_deeply_nested_file_exit_two(self, tmp_path, capsys, command):
        # past the JSON decoder's recursion limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"malformed input: {path} is not valid JSON: ")
        assert len(err) < 300

    @pytest.mark.parametrize("depth", [980, 995])
    def test_deeply_nested_entry_exit_two(self, tmp_path, capsys, depth):
        # near the recursion limit: the decoder gives up, or the entry is
        # refused as a scalar; which one depends on the caller's stack depth
        path = tmp_path / "m.json"
        path.write_text('{"m": 1, "n": 1, "entries": [%s]}' % ("[" * depth + "]" * depth))
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("malformed input: ") and len(err) < 300

    def test_overlong_index_tuple_is_shortened_in_the_message(self, tmp_path, capsys):
        path = write(tmp_path, "e.json", {"m": 1, "n": 1, "entries": [[1]]})
        assert main(["minor-select", path, "--z", "x" * 5000]) == 2
        err = capsys.readouterr().err
        assert err.startswith("malformed input: bad index tuple 'xxx") and len(err) < 200

    def test_analyze_five_thousand_digit_json_integer_exit_two(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"m": 1, "n": 1, "entries": [[' + "7" * 5000 + "]]}")
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith("malformed input:")

    def test_analyze_zero_matrix_exit_two(self, tmp_path):
        doc = {"m": 1, "n": 1, "entries": [[]]}
        path = write(tmp_path, "z.json", doc)
        assert main(["analyze", path]) == 2

    def test_analyze_bad_json_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2

    def test_verify_pass_and_fail(self, tmp_path, capsys):
        mat = {"m": 2, "n": 2, "entries": [[0, 1], [1], [], [0, 1]]}
        good = {
            "variant": "P2_span_indices",
            "m": 2,
            "n": 2,
            "r": 2,
            "d": 1,
            "alpha": [[1], [0, 0, 1]],
            "f": [0, 0],
            "k": [0, 0],
            "l": [0, 0],
        }
        mp = write(tmp_path, "m.json", mat)
        gp = write(tmp_path, "good.json", good)
        assert main(["verify", mp, gp]) == 0
        bad = dict(good)
        bad["alpha"] = [[0, 1], [0, 1]]
        bp = write(tmp_path, "bad.json", bad)
        assert main(["verify", mp, bp]) == 1
        out = capsys.readouterr().out
        assert "invariant_factors" in out

    def test_verify_zero_matrix_fails_on_rank(self, tmp_path, capsys):
        zero = {"m": 2, "n": 2, "entries": [[], [], [], []]}
        rank_two = {
            "variant": "P2_span_indices",
            "m": 2,
            "n": 2,
            "r": 2,
            "d": 1,
            "alpha": [[1], [0, 0, 1]],
            "f": [0, 0],
            "k": [0, 0],
            "l": [0, 0],
        }
        mp = write(tmp_path, "zero.json", zero)
        pp = write(tmp_path, "p.json", rank_two)
        assert main(["verify", mp, pp]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out == {"verdict": "fail", "mismatches": ["rank"]}

    def test_minor_select_with_brute(self, tmp_path, capsys):
        rng = random.Random(3)
        from conftest import random_poly
        from structura.polymat import det

        while True:
            E = PolyMatrix(
                [[random_poly(rng, 1, -2, 2) for _ in range(4)] for _ in range(4)],
                n=4,
            )
            if not det(E).is_zero:
                break
        path = write(tmp_path, "e.json", polymatrix_to_json(E))
        assert main(["minor-select", path, "--z", "1,3", "--brute"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["minor"] != "0"
        assert {"I": doc["I"], "J": doc["J"]} in doc["admissible_pairs"]

    def test_minor_select_determinant_vanishing_at_first_rank_points(self, tmp_path, capsys):
        from conftest import FIRST_RANK_POINTS, nested_sum_matrix

        E = nested_sum_matrix([S - Poly([c]) for c in FIRST_RANK_POINTS])
        path = write(tmp_path, "e.json", polymatrix_to_json(E))
        assert main(["minor-select", path, "--z", "1,2,3,4,5"]) == 0
        assert json.loads(capsys.readouterr().out)["minor"] == "s^5 - 5*s^3 + 4*s"

    def test_minor_select_rational_matrix_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", ONE_OVER_S)
        assert main(["minor-select", path, "--z", "1"]) == 2
        assert capsys.readouterr().err == (
            "malformed input: minor-select needs a polynomial matrix\n")

    def test_minor_select_singular_exit_two(self, tmp_path):
        doc = {"m": 2, "n": 2, "entries": [[0, 1], [0, 1], [0, 1], [0, 1]]}
        path = write(tmp_path, "s.json", doc)
        assert main(["minor-select", path, "--z", "1"]) == 2

    def test_minor_select_rank_one_of_degree_1000_exits_two_at_once(self, tmp_path, capsys):
        # rank 1 with entries of degree 1000: a scan over small integer
        # points would read about 3000 of them before it could stop
        c, q = (1, 2, 3), list(range(1, 1002))
        doc = {"m": 3, "n": 3, "entries": [[c[i] * c[j] * x for x in q]
                                           for i in range(3) for j in range(3)]}
        path = write(tmp_path, "e.json", doc)
        t0 = time.perf_counter()
        assert main(["minor-select", path, "--z", "1"]) == 2
        assert time.perf_counter() - t0 < 1
        assert "matrix is singular" in capsys.readouterr().err

    @pytest.mark.parametrize("z", ["3", "2,1", ","])
    def test_minor_select_bad_index_tuple_exit_two(self, tmp_path, capsys, z):
        path = write(tmp_path, "e.json", {"m": 2, "n": 2, "entries": [[1], [0], [0], [1]]})
        assert main(["minor-select", path, "--z", z]) == 2
        assert capsys.readouterr().err.startswith("malformed input:")

    @pytest.mark.parametrize("z", [
        "1_0", "\u0661,2", "+1", "\u00b2",
        # ASCII digits, but more than int() reads: quoted short
        pytest.param("9" * 5000, id="5000-nines"),
    ])
    def test_minor_select_non_ascii_digit_index_exit_two(self, tmp_path, capsys, z):
        # int() would read the first three as 10, [1, 2], 1, and raise
        # ValueError on the last two
        path = write(tmp_path, "i.json", polymatrix_to_json(PolyMatrix.identity(11)))
        assert main(["minor-select", path, "--z", z]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"malformed input: bad index tuple {_quoted(z)}")
        assert len(err.encode()) < 200

    def test_unwritable_output_exit_two(self, tmp_path):
        mat = {"m": 1, "n": 1, "entries": [[1]]}
        path = write(tmp_path, "m.json", mat)
        assert main(["analyze", path, "-o", str(tmp_path / "no" / "dir.json")]) == 2

    def test_search_budget_env(self, tmp_path, monkeypatch):
        # the completion is built directly; the retired node budget variable
        # no longer stops it, nor is it read as input
        path = write(tmp_path, "p.json", SEARCHING_PRESCRIPTION)
        for budget in (None, "1"):
            if budget:
                monkeypatch.setenv("STRUCTURA_MAX_SEARCH", budget)
            out = tmp_path / "out.json"
            assert main(["construct", path, "-o", str(out)]) == 0
            assert json.loads(out.read_text())["verification"]["verdict"] == "pass"

    def test_internal_invariant_failure_exit_five(self, tmp_path, monkeypatch, capsys):
        import structura.extract as extract

        monkeypatch.setattr(
            extract, "_multiplicities_at_zero", lambda rows, r: (1,) * r
        )
        mat = {"m": 1, "n": 1, "entries": [[0, 1]]}
        assert main(["analyze", write(tmp_path, "m.json", mat)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "infinity" in err


def test_no_assert_in_library():
    """Internal checks go through errors.require, which -O does not strip."""
    import ast
    import pathlib

    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "structura"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
