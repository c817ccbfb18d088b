"""Majorization machinery and the per-variant feasibility checker."""

import random
import re
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from structura.errors import LengthMismatch, MalformedPrescription
from structura.qpoly import ONE, X, Poly
from structura.polymat import PolyMatrix
from structura.extract import extract_poly_structure, extract_rational_structure
from structura.feasibility import (
    FAIL,
    NA,
    PASS,
    Prescription,
    check_feasibility,
    g_sequence,
    majorizes,
)
from conftest import random_low_rank_matrix, random_matrix

S = X
M = PolyMatrix.from_scalar_rows

desc_lists = hst.lists(hst.integers(min_value=0, max_value=9), min_size=1, max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestGSequence:
    def test_worked_pair(self):
        assert g_sequence((5, 0), (4, 1)) == (6, 4)

    def test_all_zero(self):
        assert g_sequence((0, 0, 0), (0, 0, 0)) == (0, 0, 0)

    def test_antidiagonal_pairing(self):
        assert g_sequence((2, 1), (3, 0)) == (4, 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            g_sequence((1,), (1, 0))


class TestMajorizes:
    def test_worked_pair(self):
        assert majorizes((3, 1), (4, 0))

    def test_reflexive_example(self):
        assert majorizes((2, 2, 1), (2, 2, 1))

    def test_totals_must_match(self):
        assert not majorizes((2, 2), (3, 0))

    def test_prefix_violation(self):
        assert not majorizes((5, 0), (4, 1))

    def test_only_the_final_partial_sum_exceeds(self):
        assert not majorizes((1, 1, 2), (1, 1, 1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            majorizes((1, 0), (1,))

    @settings(max_examples=60, deadline=None)
    @given(desc_lists)
    def test_reflexivity(self, a):
        assert majorizes(a, a)

    @settings(max_examples=60, deadline=None)
    @given(desc_lists)
    def test_dominated_by_concentration(self, a):
        total = sum(a)
        b = (total,) + (0,) * (len(a) - 1)
        assert majorizes(a, b)


def paper_example_prescription() -> Prescription:
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


class TestCheckFeasibility:
    def test_worked_example_all_four_pass(self):
        rep = check_feasibility(paper_example_prescription())
        assert rep.feasible
        assert rep.g_sequence == (6, 4)
        for key in ("eqf1", "eqprec", "eqx0", "eqy0"):
            assert rep.status(key) == PASS
        c = rep.conditions["eqprec"]
        # cumulative sums of (3,1) against (4,0)
        assert c.lhs_partial_sums == (3, 4)
        assert c.rhs_partial_sums == (4, 4)

    def test_worked_example_lower_degree_fails(self):
        p = replace(paper_example_prescription(), d=6)
        rep = check_feasibility(p)
        assert not rep.feasible
        assert rep.status("eqprec") == FAIL

    def test_degree_matching_case(self):
        # all invariant factors trivial: feasible exactly when every
        # anti-diagonal sum equals the degree
        p = Prescription(
            variant="P2_span_indices",
            m=3,
            n=3,
            r=2,
            d=1,
            alpha=(ONE, ONE),
            f=(0, 0),
            k=(1, 0),
            l=(1, 0),
        )
        rep = check_feasibility(p)
        assert rep.feasible
        assert not check_feasibility(replace(p, l=(1, 1))).feasible

    def test_eigenstructure_only_case_fails_index_sum(self):
        p = Prescription(
            variant="P2_span_indices",
            m=2,
            n=2,
            r=2,
            d=1,
            alpha=(ONE, S),
            f=(0, 0),
            k=(0, 0),
            l=(0, 0),
        )
        rep = check_feasibility(p)
        assert not rep.feasible
        assert rep.status("eqIST") == FAIL

    def test_rational_scalar_pole(self):
        p = Prescription(
            variant="R2_span_indices",
            m=1,
            n=1,
            r=1,
            epsilon=(ONE,),
            psi=(S,),
            q=(1,),
            k=(0,),
            l=(0,),
        )
        rep = check_feasibility(p)
        assert rep.feasible
        assert rep.status("eqprec_rat") == PASS
        assert rep.status("eqf1") == NA

    def test_spans_variant_reads_degrees_off_bases(self):
        from structura.synthesis import build_minimal_basis

        K = build_minimal_basis((1, 0), 3)
        Lt = build_minimal_basis((1, 0), 3)
        p = Prescription(
            variant="P1_spans",
            m=3,
            n=3,
            r=2,
            d=1,
            alpha=(ONE, ONE),
            f=(0, 0),
            K=K,
            Lt=Lt,
        )
        rep = check_feasibility(p)
        assert rep.feasible
        assert rep.g_sequence == (1, 1)

    def test_rational_spans_variant(self):
        from structura.synthesis import build_minimal_basis

        p = Prescription(
            variant="R1_spans",
            m=3,
            n=2,
            r=2,
            epsilon=(ONE, ONE),
            psi=(S, ONE),
            q=(-1, 1),
            K=build_minimal_basis((1, 0), 3),
            Lt=build_minimal_basis((0, 0), 2),
        )
        rep = check_feasibility(p)
        # g = (1, 0): lhs partial sums (0, -1) against rhs (1, -1)
        assert rep.feasible and rep.status("eqprec_rat") == PASS
        assert rep.conditions["eqprec_rat"].lhs_partial_sums == (0, -1)
        assert rep.conditions["eqprec_rat"].rhs_partial_sums == (1, -1)
        # totals drift to 0 vs -1
        assert not check_feasibility(replace(p, q=(-1, 2))).feasible

    def test_full_variant_checks_dual_sums(self):
        p = Prescription(
            variant="P3_full",
            m=3,
            n=3,
            r=2,
            d=1,
            alpha=(ONE, ONE),
            f=(0, 0),
            k=(1, 0),
            l=(1, 0),
            right=(1,),
            left=(1,),
        )
        rep = check_feasibility(p)
        assert rep.feasible and rep.status("eqsums") == PASS
        rep2 = check_feasibility(replace(p, left=(0,)))
        assert not rep2.feasible and rep2.status("eqsums") == FAIL

    def test_x_and_y_conditions_bind_at_full_rank(self):
        p = Prescription(
            variant="P2_span_indices",
            m=2,
            n=2,
            r=2,
            d=1,
            alpha=(ONE, S * S),
            f=(0, 0),
            k=(0, 0),
            l=(1, 0),  # r == n forces zero row-span indices
        )
        rep = check_feasibility(p)
        assert rep.status("eqx0") == FAIL and not rep.feasible

    def test_y_condition_binds_at_r_equal_m(self):
        p = Prescription(
            variant="P2_span_indices",
            m=2,
            n=3,
            r=2,
            d=2,
            alpha=(ONE, ONE),
            f=(0, 0),
            k=(1, 0),  # r == m forces zero column-span indices
            l=(1, 0),
        )
        rep = check_feasibility(p)
        assert rep.status("eqy0") == FAIL and not rep.feasible
        assert rep.status("eqx0") == PASS  # r < n

    def test_x_and_y_conditions_not_applicable_to_spans_and_full(self):
        # both bind only where the indices alone are prescribed: spans
        # variants get them from the basis shape, full ones from eqsums
        from structura.synthesis import build_minimal_basis

        spans = Prescription(
            variant="P1_spans", m=2, n=2, r=2, d=1, alpha=(ONE, S * S), f=(0, 0),
            K=build_minimal_basis((0, 0), 2), Lt=build_minimal_basis((0, 0), 2),
        )
        full = Prescription(
            variant="P3_full", m=2, n=2, r=2, d=2, alpha=(ONE, S * S), f=(0, 2),
            k=(0, 0), l=(0, 0), right=(), left=(),
        )
        for p in (spans, full):
            rep = check_feasibility(p)
            assert (rep.status("eqx0"), rep.status("eqy0")) == (NA, NA), p.variant


class TestMalformed:
    def test_prescription_is_immutable(self):
        p = paper_example_prescription()
        with pytest.raises(FrozenInstanceError):
            p.d = 6

    def test_unsorted_partition(self):
        with pytest.raises(MalformedPrescription):
            replace(paper_example_prescription(), k=(0, 5))

    def test_broken_chain(self):
        with pytest.raises(MalformedPrescription):
            replace(paper_example_prescription(), alpha=(S, S + ONE))

    def test_descending_f(self):
        with pytest.raises(MalformedPrescription):
            replace(paper_example_prescription(), f=(1, 0))

    def test_rank_out_of_range(self):
        with pytest.raises(MalformedPrescription):
            replace(paper_example_prescription(), r=4)

    def test_reducible_rational_pair(self):
        with pytest.raises(MalformedPrescription):
            Prescription(
                variant="R2_span_indices",
                m=1,
                n=1,
                r=1,
                epsilon=(S,),
                psi=(S,),
                q=(0,),
                k=(0,),
                l=(0,),
            )

    @pytest.mark.parametrize("base, changes, message", [
        ("poly", {"alpha": None}, "alpha must list r invariant factors"),
        ("poly", {"alpha": (ONE,)}, "alpha must list r invariant factors"),
        ("poly", {"alpha": (ONE, Poly())}, "invariant factors must be monic and nonzero"),
        ("poly", {"alpha": (ONE, 2 * S)}, "invariant factors must be monic and nonzero"),
        ("poly", {"f": None}, "f must list r partial multiplicities"),
        ("poly", {"f": (0, 0, 0)}, "f must list r partial multiplicities"),
        ("poly", {"k": None}, "index variant requires partitions k and l"),
        ("poly", {"l": None}, "index variant requires partitions k and l"),
        ("rational", {"epsilon": None}, "epsilon must list r polynomials"),
        ("rational", {"epsilon": (ONE,)}, "epsilon must list r polynomials"),
        ("rational", {"psi": None}, "psi must list r polynomials"),
        ("rational", {"psi": (ONE, ONE, ONE)}, "psi must list r polynomials"),
        ("rational", {"epsilon": (ONE, Poly())}, "epsilon entries must be monic and nonzero"),
        ("rational", {"psi": (Poly([2, 2]), ONE)}, "psi entries must be monic and nonzero"),
        ("rational", {"q": None}, "q must list r invariant orders"),
        ("rational", {"q": (0,)}, "q must list r invariant orders"),
        ("spans", {"K": None}, "spans variant requires bases K and Lt"),
        ("spans", {"Lt": None}, "spans variant requires bases K and Lt"),
        ("full", {"right": None}, "full variant requires right and left partitions"),
        ("full", {"left": None}, "full variant requires right and left partitions"),
        ("poly", {"variant": "P9"}, "unknown variant 'P9'"),
        ("poly", {"r": 0}, "rank must satisfy 1 <= r <= min(m, n)"),
        ("poly", {"r": 4}, "rank must satisfy 1 <= r <= min(m, n)"),
        ("poly", {"d": None}, "polynomial variant requires a nonnegative degree d"),
        ("poly", {"d": -1}, "polynomial variant requires a nonnegative degree d"),
        ("poly", {"alpha": (S, S + ONE)}, "invariant factors must form a divisibility chain"),
        ("poly", {"f": (1, 0)}, "f must be nonnegative and sorted ascending"),
        ("poly", {"f": (-1, 0)}, "f must be nonnegative and sorted ascending"),
        ("poly", {"k": (5,)}, "partition k must have length 2"),
        ("poly", {"l": (4, 1, 0)}, "partition l must have length 2"),
        ("poly", {"k": (5, -1)}, "partition k must be nonnegative"),
        ("poly", {"l": (4, -1)}, "partition l must be nonnegative"),
        ("poly", {"k": (0, 5)}, "partition k must be sorted descending"),
        ("poly", {"l": (1, 4)}, "partition l must be sorted descending"),
        ("rational", {"epsilon": (S, S + ONE)},
         "epsilon must form an ascending divisibility chain"),
        ("rational", {"psi": (ONE, S + ONE)}, "psi must form a descending divisibility chain"),
        ("rational", {"epsilon": (S + ONE, S + ONE)},
         "invariant rational functions must be irreducible"),
        ("rational", {"q": (1, 0)}, "q must be sorted ascending"),
        ("spans", {"K": M([[1], [0], [0]])}, "K must be m x r"),
        ("spans", {"Lt": M([[1, 0], [0, 1]])}, "Lt must be n x r"),
        ("spans", {"K": M([[S], [S]])}, "K is not a minimal basis"),
        ("spans", {"Lt": M([[S], [S]])}, "Lt is not a minimal basis"),
        ("full", {"right": (0, 0)}, "right partition must have length n - r"),
        ("full", {"left": ()}, "left partition must have length m - r"),
        ("full", {"right": (-1,)}, "partition right must be nonnegative"),
        ("full", {"left": (-1,)}, "partition left must be nonnegative"),
        ("full", {"n": 3, "right": (0, 1)}, "partition right must be sorted descending"),
        ("full", {"m": 3, "left": (0, 1)}, "partition left must be sorted descending"),
    ])
    def test_guard_messages(self, base, changes, message):
        # each guard is "x is None or <x is wrong>", so both halves are hit
        valid = {
            "poly": paper_example_prescription(),
            "rational": Prescription(
                variant="R2_span_indices", m=2, n=2, r=2, epsilon=(ONE, S),
                psi=(S + ONE, ONE), q=(0, 0), k=(0, 0), l=(0, 0)),
            "spans": Prescription(
                variant="P1_spans", m=2, n=2, r=1, d=1, alpha=(S,), f=(0,),
                K=M([[1], [0]]), Lt=M([[1], [0]])),
            "full": Prescription(
                variant="P3_full", m=2, n=2, r=1, d=1, alpha=(S,), f=(0,),
                k=(0,), l=(0,), right=(0,), left=(0,)),
        }[base]
        with pytest.raises(MalformedPrescription, match=f"^{re.escape(message)}$"):
            replace(valid, **changes)

    def test_non_minimal_basis_rejected(self):
        with pytest.raises(MalformedPrescription):
            Prescription(
                variant="P1_spans",
                m=2,
                n=2,
                r=1,
                d=1,
                alpha=(S,),
                f=(0,),
                K=M([[S], [S]]),
                Lt=M([[1], [0]]),
            )


class TestNecessityDirection:
    """Data extracted from any actual matrix must come back feasible."""

    def test_polynomial_necessity(self):
        rng = random.Random(57)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            P = (
                random_low_rank_matrix(rng, m, n, rng.randint(1, min(m, n)))
                if rng.random() < 0.4
                else random_matrix(rng, m, n, 2)
            )
            if P.is_zero:
                continue
            d = extract_poly_structure(P)
            p = Prescription(
                variant="P3_full",
                m=m,
                n=n,
                r=d.rank,
                d=d.degree,
                alpha=d.invariant_factors,
                f=d.inf_partial_mults,
                k=d.colspan_indices,
                l=d.rowspan_indices,
                right=d.right_indices,
                left=d.left_indices,
            )
            assert check_feasibility(p).feasible

    def test_rational_necessity(self):
        from structura.qpoly import RatFn
        from structura.extract import RationalMatrix

        rng = random.Random(59)
        dens = [ONE, S, S + ONE, S - ONE]
        for _ in range(25):
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
            d = extract_rational_structure(R)
            p = Prescription(
                variant="R3_full",
                m=m,
                n=n,
                r=d.rank,
                epsilon=d.numerators,
                psi=d.denominators,
                q=d.inf_orders,
                k=d.colspan_indices,
                l=d.rowspan_indices,
                right=d.right_indices,
                left=d.left_indices,
            )
            assert check_feasibility(p).feasible
