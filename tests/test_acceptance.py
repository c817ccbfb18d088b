"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every comparison is exact (integer/rational arithmetic); the only tolerances
are the stated wall-clock budgets.
"""

import itertools
import json
import random
import time

from structura.cli import main
from structura.errors import FieldNotSplit
from structura.qpoly import ONE, X, Poly, RatFn
from structura.polymat import PolyMatrix, det
from structura.extract import (
    RationalMatrix,
    clear_denominators,
    extract_poly_structure,
    extract_rational_structure,
    inf_structure,
    verify,
)
from structura.feasibility import PASS, Prescription, check_feasibility, majorizes
from structura.minors import admissible_pairs, select_nonzero_minor, star_dual
from structura.synthesis import (
    build_dual_minimal_bases,
    realize_full,
    realize_rational,
    realize_span,
)
from structura.polymat import is_minimal_basis
from conftest import (
    max_minor_degree,
    random_feasible_poly_prescription,
    random_low_rank_matrix,
    random_matrix,
    random_poly,
    rationalize_prescription,
)

S = X


def report(num, name, detail, elapsed, budget):
    line = f"ACCEPTANCE {num} ({name}): PASS [{detail}, {elapsed:.1f}s < {budget}s]"
    print("\n" + line)
    assert elapsed < budget, line


def worked_example():
    return Prescription(
        variant="P2_span_indices",
        m=3,
        n=3,
        r=2,
        d=7,
        alpha=(ONE, Poly([1, 0, 2, 0, 1])),
        f=(0, 0),
        k=(5, 0),
        l=(4, 1),
    )


def test_criterion_1_worked_example(tmp_path):
    t0 = time.monotonic()
    p = worked_example()
    rep = check_feasibility(p)
    assert rep.g_sequence == (6, 4)
    assert rep.feasible
    assert majorizes((3, 1), (4, 0))
    assert rep.conditions["eqprec"].lhs_partial_sums == (3, 4)
    assert rep.conditions["eqprec"].rhs_partial_sums == (4, 4)
    for key in ("eqf1", "eqprec", "eqx0", "eqy0"):
        assert rep.status(key) == PASS
    # over Q the construction must refuse: no degree-1 divisor exists
    try:
        realize_span(p)
        raise AssertionError("construction should have failed over Q")
    except FieldNotSplit:
        pass
    # same behavior through the CLI contract (exit codes 0 and 3)
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps(
            {
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
        )
    )
    assert main(["check", str(path), "-o", str(tmp_path / "rep.json")]) == 0
    assert main(["construct", str(path), "-o", str(tmp_path / "out.json")]) == 3
    report(
        1,
        "worked example",
        "g=(6,4) feasible, construct exits field-not-split",
        time.monotonic() - t0,
        1,
    )


def test_criterion_2_minor_selection():
    t0 = time.monotonic()
    rng = random.Random(20240205)
    assert star_dual((1, 3, 4), 5) == (2, 3, 5)
    assert star_dual((1, 2, 3), 5) == (3, 4, 5)
    checked = 0
    for _ in range(25):
        while True:
            E = PolyMatrix(
                [[random_poly(rng, 2, -2, 2) for _ in range(5)] for _ in range(5)],
                n=5,
            )
            if not det(E).is_zero:
                break
        for k in range(1, 6):
            for Z in itertools.combinations(range(1, 6), k):
                I, J = select_nonzero_minor(E, Z)
                zs = star_dual(Z, 5)
                assert all(i <= b for i, b in zip(I, zs))
                assert all(j <= b for j, b in zip(J, Z))
                pairs = admissible_pairs(E, Z)
                assert pairs and (I, J) in pairs
                checked += 1
    report(
        2,
        "bounded minors",
        f"{checked} (matrix, Z) cases against the brute oracle",
        time.monotonic() - t0,
        30,
    )


def test_criterion_3_necessity():
    t0 = time.monotonic()
    rng = random.Random(3141)
    count = 0
    while count < 500:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        if rng.random() < 0.4:
            P = random_low_rank_matrix(rng, m, n, rng.randint(1, min(m, n)))
            if P.is_zero:
                continue
        else:
            P = random_matrix(rng, m, n, 2)
        data = extract_poly_structure(P)  # internal identity assertions
        deg_alpha = sum(int(a.degree) for a in data.invariant_factors)
        rd = data.rank * data.degree
        assert data.inf_partial_mults[0] == 0
        assert (
            sum(data.right_indices)
            + sum(data.left_indices)
            + sum(data.inf_partial_mults)
            + deg_alpha
            == rd
        )
        assert (
            sum(data.colspan_indices)
            + sum(data.rowspan_indices)
            + sum(data.inf_partial_mults)
            + deg_alpha
            == rd
        )
        assert sum(data.left_indices) == sum(data.colspan_indices)
        assert sum(data.right_indices) == sum(data.rowspan_indices)
        p = Prescription(
            variant="P3_full",
            m=m,
            n=n,
            r=data.rank,
            d=data.degree,
            alpha=data.invariant_factors,
            f=data.inf_partial_mults,
            k=data.colspan_indices,
            l=data.rowspan_indices,
            right=data.right_indices,
            left=data.left_indices,
        )
        assert check_feasibility(p).feasible
        count += 1
    report(
        3,
        "necessity suite",
        "500 random matrices, 100% feasible with exact identities",
        time.monotonic() - t0,
        120,
    )


def test_criterion_4_sufficiency_round_trip():
    t0 = time.monotonic()
    rng = random.Random(27182)
    variants = ("P1_spans", "P2_span_indices", "P3_full")
    for idx in range(200):
        p = random_feasible_poly_prescription(
            rng, variants[idx % 3], max_r=3, max_mn=5, extra_d=2
        )
        assert p.d <= 6
        assert check_feasibility(p).feasible
        A = realize_full(p) if p.uses_null_indices else realize_span(p)
        rep = verify(A, p)
        assert rep.passed, (p, rep.mismatches)
    report(
        4,
        "sufficiency round-trip",
        "200 feasible prescriptions across P1/P2/P3, exact re-extraction",
        time.monotonic() - t0,
        300,
    )


def test_criterion_5_rational_layer():
    t0 = time.monotonic()
    rng = random.Random(161803)

    variants = ("P1_spans", "P2_span_indices", "P3_full")
    built = 0
    while built < 100:
        base = random_feasible_poly_prescription(
            rng,
            variants[built % 3],
            max_r=2,
            max_mn=4,
            extra_d=2,
        )
        p = rationalize_prescription(rng, base)
        if not check_feasibility(p).feasible:
            continue
        R = realize_rational(p)
        rep = verify(R, p)
        assert rep.passed, (p, rep.mismatches)
        built += 1

    dens = [ONE, S, S - ONE, S + ONE, S * S]
    analyzed = 0
    while analyzed < 100:
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [
            [
                RatFn(
                    Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]),
                    rng.choice(dens),
                )
                for _ in range(n)
            ]
            for _ in range(m)
        ]
        R = RationalMatrix(rows, n=n)
        if R.is_zero:
            continue
        # the clearing mappings commute with extraction, field by field
        psi1, P = clear_denominators(R)
        dp = extract_poly_structure(P)
        dr = extract_rational_structure(R)
        eps, psi = [], []
        for a in dp.invariant_factors:
            fr = RatFn(a, psi1)
            eps.append(fr.num.monic())
            psi.append(fr.den)
        q1 = int(psi1.degree) - dp.degree
        assert tuple(eps) == dr.numerators
        assert tuple(psi) == dr.denominators
        assert tuple(f + q1 for f in dp.inf_partial_mults) == dr.inf_orders
        assert dp.colspan_indices == dr.colspan_indices
        assert dp.rowspan_indices == dr.rowspan_indices
        assert dp.right_indices == dr.right_indices
        assert dp.left_indices == dr.left_indices
        analyzed += 1
    report(
        5,
        "rational layer",
        "100 prescriptions round-tripped + 100 matrices with commuting mappings",
        time.monotonic() - t0,
        180,
    )


def test_criterion_6_infinite_structure_oracle():
    t0 = time.monotonic()
    rng = random.Random(577215)
    count = 0
    while count < 200:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        if rng.random() < 0.3:
            P = random_low_rank_matrix(rng, m, n, rng.randint(1, min(m, n)))
            if P.is_zero:
                continue
        else:
            P = random_matrix(rng, m, n, 2)
        d, f, _ = inf_structure(P)  # reversal Smith route
        for k in range(1, len(f) + 1):
            assert max_minor_degree(P, k) == k * d - sum(f[:k])
        count += 1
    report(
        6,
        "infinite-structure oracle",
        "200 matrices, all minor orders",
        time.monotonic() - t0,
        120,
    )


def test_criterion_7_dual_bases():
    t0 = time.monotonic()
    rng = random.Random(141421)
    for _ in range(100):
        total_cols = rng.randint(2, 8)
        r = rng.randint(1, total_cols - 1)
        q = total_cols - r
        dm = tuple(sorted((rng.randint(0, 4) for _ in range(r)), reverse=True))
        total = sum(dm)
        cuts = sorted(rng.randint(0, total) for _ in range(q - 1))
        dn = []
        prev = 0
        for c in cuts + [total]:
            dn.append(c - prev)
            prev = c
        dn = tuple(sorted(dn, reverse=True))
        M, N = build_dual_minimal_bases(dm, dn)
        assert (M.transpose() @ N).is_zero
        okM, degM = is_minimal_basis(M)
        okN, degN = is_minimal_basis(N)
        assert okM and okN
        assert sorted(degM, reverse=True) == list(dm)
        assert sorted(degN, reverse=True) == list(dn)
    report(
        7,
        "dual bases",
        "100 equal-sum degree pairs, exact annihilation",
        time.monotonic() - t0,
        60,
    )
