"""Structural data of polynomial and rational matrices.

Extracts invariant factors / invariant rational functions, the infinite
structure, and minimal bases plus indices of all four fundamental subspaces.
The index-sum and dual-sum identities are checked on every extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ShapeMismatch, ZeroMatrix, require
from .qpoly import ONE, ZERO, RatFn, poly_lcm
from .polymat import PolyMatrix, RationalMatrix, _minimal_bases, _multiplicities_at_zero
from .polymat import _normalize_basis, rank


@dataclass(frozen=True)
class _SubspaceData:
    """What both structural-data records hold: the shape, the rank, and the
    minimal indices and bases of the four fundamental subspaces. Until the
    last step of extraction (_with_popov_bases), which verify skips, each
    basis is held in the weak Popov form of polymat._minimal_bases."""
    m: int
    n: int
    rank: int
    colspan_indices: tuple  # descending
    rowspan_indices: tuple
    right_indices: tuple
    left_indices: tuple
    colspan_basis: PolyMatrix  # m x r
    rowspan_basis: PolyMatrix  # n x r (columns span the row space)
    right_null_basis: PolyMatrix  # n x (n - r)
    left_null_basis: PolyMatrix  # m x (m - r)

    def _dual_sums_agree(self) -> bool:
        """The left-null indices sum to the column-span ones, and the right-null
        indices to the row-span ones."""
        return (sum(self.left_indices) == sum(self.colspan_indices)
                and sum(self.right_indices) == sum(self.rowspan_indices))


@dataclass(frozen=True)
class PolyStructuralData(_SubspaceData):
    degree: int
    invariant_factors: tuple
    inf_partial_mults: tuple  # f_1 <= ... <= f_r, f_1 = 0
    inf_orders: tuple  # q_i = f_i - degree

    def identities(self) -> dict:
        """Whether each index-sum identity holds, by report label: the index
        sum theorem (eqIST), the dual sums (eqsums), the span index sums
        (eqsumklfa) and f_1 = 0 (eqf1)."""
        # r * d less the finite and infinite degrees: what the null indices,
        # and also the span indices, sum to
        rest = (self.rank * self.degree - sum(self.inf_partial_mults)
                - sum(int(a.degree) for a in self.invariant_factors))
        return {
            "eqIST": sum(self.right_indices) + sum(self.left_indices) == rest,
            "eqsums": self._dual_sums_agree(),
            "eqsumklfa": sum(self.colspan_indices) + sum(self.rowspan_indices) == rest,
            "eqf1": self.inf_partial_mults[0] == 0,
        }


def _checked(data):
    """data, once every entry of its identity table holds."""
    for label, ok in data.identities().items():
        require(ok, f"index-sum identity {label} fails on the extracted data")
    return data


@dataclass(frozen=True)
class RatStructuralData(_SubspaceData):
    numerators: tuple  # eps_1 | ... | eps_r
    denominators: tuple  # psi_r | ... | psi_1
    inf_orders: tuple  # q_1 <= ... <= q_r

    def identities(self) -> dict:
        """Whether each index-sum identity holds, by report label: the dual
        sums (eqsums) and the rational index sum theorem (eqIST_rational)."""
        # what the span indices sum to: the pole degrees less the zero degrees,
        # less the orders at infinity
        rest = (sum(int(p.degree) for p in self.denominators)
                - sum(int(e.degree) for e in self.numerators) - sum(self.inf_orders))
        return {
            "eqsums": self._dual_sums_agree(),
            "eqIST_rational": sum(self.colspan_indices) + sum(self.rowspan_indices) == rest,
        }


# -- pieces -------------------------------------------------------------------


def partial_multiplicities(P: PolyMatrix, lam) -> tuple:
    """Valuations of the invariant factors at a rational point, ascending:
    the multiplicities at 0 of P(s + lam)."""
    r = rank(P)
    if not r:
        raise ZeroMatrix("partial multiplicities of the zero matrix")
    return _multiplicities_at_zero([[e.shift(lam) for e in row] for row in P.rows], r)


def _inf_structure(P: PolyMatrix, r: int):
    """inf_structure of a nonzero P of rank r, read from the coefficients
    of rev P = P_d + P_(d-1) s + ... + P_0 s^d."""
    d = int(P.degree)
    f = _multiplicities_at_zero([[e.reverse(d) for e in row] for row in P.rows], r)
    require(f[0] == 0, "smallest partial multiplicity of infinity must vanish")
    q = tuple(fi - d for fi in f)
    return d, f, q


def inf_structure(P: PolyMatrix):
    """(degree, partial multiplicities of infinity, invariant orders)."""
    if P.is_zero:
        raise ZeroMatrix("infinite structure of the zero matrix")
    return _inf_structure(P, rank(P))


def _with_popov_bases(data):
    """data with its weak Popov bases in column Popov form (_normalize_basis)."""
    sizes = {"colspan_basis": data.m, "rowspan_basis": data.n,
             "right_null_basis": data.n, "left_null_basis": data.m}
    return replace(data, **{name: _normalize_basis(getattr(data, name), size)
                            for name, size in sizes.items()})


def extract_poly_structure(P: PolyMatrix) -> PolyStructuralData:
    """Full structural data; every sum identity is checked before returning.
    The Smith diagonal and the four minimal bases, each in column Popov
    form, come from polymat._minimal_bases, and the structure at infinity
    from Toeplitz ranks."""
    return _with_popov_bases(_poly_structure(P))


def _poly_structure(P: PolyMatrix) -> PolyStructuralData:
    """extract_poly_structure before _with_popov_bases."""
    if P.is_zero:
        raise ZeroMatrix("structural data of the zero matrix")
    diag, (col_basis, k_idx), (row_basis, l_idx), (rnull_basis, d_idx), (
        lnull_basis, v_idx) = _minimal_bases(P)
    d, f, q = _inf_structure(P, len(diag))
    return _checked(PolyStructuralData(
        m=P.m,
        n=P.n,
        rank=len(diag),
        degree=d,
        invariant_factors=diag,
        inf_partial_mults=f,
        inf_orders=q,
        colspan_indices=k_idx,
        rowspan_indices=l_idx,
        right_indices=d_idx,
        left_indices=v_idx,
        colspan_basis=col_basis,
        rowspan_basis=row_basis,
        right_null_basis=rnull_basis,
        left_null_basis=lnull_basis,
    ))


def clear_denominators(R: RationalMatrix):
    """(psi1, P): monic least common denominator and the polynomial psi1 * R.
    The lcm and each quotient psi1 / den are taken once per distinct
    denominator."""
    if R.is_zero:
        raise ZeroMatrix("cannot clear denominators of the zero matrix")
    dens = list(dict.fromkeys(e.den for row in R.rows for e in row if not e.is_zero))
    psi1 = ONE
    for den in dens:
        psi1 = poly_lcm(psi1, den)
    quotients = {den: psi1 // den for den in dens}
    rows = [[ZERO if e.is_zero else e.num * quotients[e.den] for e in row] for row in R.rows]
    return psi1, PolyMatrix(rows, n=R.n)


def extract_rational_structure(R: RationalMatrix) -> RatStructuralData:
    """Structural data of a rational matrix via denominator clearing."""
    if R.is_zero:
        raise ZeroMatrix("structural data of the zero matrix")
    return _with_popov_bases(_rational_structure(*clear_denominators(R)))


def _rational_structure(psi1, P: PolyMatrix) -> RatStructuralData:
    """extract_rational_structure of P / psi1 before _with_popov_bases."""
    data = _poly_structure(P)
    eps, psi = [], []
    for a in data.invariant_factors:
        fr = RatFn(a, psi1)
        eps.append(fr.num.monic())
        psi.append(fr.den)
    q1 = int(psi1.degree) - data.degree
    q = tuple(fi + q1 for fi in data.inf_partial_mults)
    shared = {fd.name: getattr(data, fd.name) for fd in fields(_SubspaceData)}
    return _checked(RatStructuralData(
        **shared, numerators=tuple(eps), denominators=tuple(psi), inf_orders=q))


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    mismatches: tuple

    def __bool__(self) -> bool:
        return self.passed


def spans_equal(computed: PolyMatrix, supplied: PolyMatrix) -> bool:
    """Whether two minimal bases of the same shape span the same module.

    Both arguments must be minimal bases. A minimal basis has a trivial Smith
    form, so it spans the whole module V ∩ Q[s]^m of the polynomial vectors
    in its rational span V (Forney 1975, "Minimal bases of rational vector
    spaces"). Two minimal bases therefore span the same module exactly when
    their rational spans agree, that is when placing them side by side does
    not raise the rank above the number of columns of one.
    """
    return _spans_within(computed, computed.n, supplied)


def _spans_within(A: PolyMatrix, r: int, B: PolyMatrix) -> bool:
    """Whether B is A.m x r and placing it beside A, of rank r, keeps the
    rank: spans_equal of B and any minimal basis of the column span of A."""
    return (B.m, B.n) == (A.m, r) and rank(PolyMatrix.hstack(A, B)) == r


def verify(matrix, prescription) -> VerificationReport:
    """Extract the structure of a matrix and compare it against a prescription:
    one table of expected values, then the bases and null indices; exact
    equality throughout. It builds no basis: a supplied K or Lt is placed
    beside the (cleared) matrix or its transpose (_spans_within)."""
    p = prescription
    if p.is_rational:
        if isinstance(matrix, PolyMatrix):
            matrix = RationalMatrix.from_poly_matrix(matrix)
        if not isinstance(matrix, RationalMatrix):
            raise ShapeMismatch("rational prescription needs a matrix input")
    elif not isinstance(matrix, PolyMatrix):
        raise ShapeMismatch("polynomial prescription needs a PolyMatrix")
    if (matrix.m, matrix.n) != (p.m, p.n):
        raise ShapeMismatch(
            f"matrix is {matrix.m}x{matrix.n}, prescription wants {p.m}x{p.n}"
        )
    if matrix.is_zero:
        # every prescription has rank r >= 1, which no zero matrix attains
        return VerificationReport(passed=False, mismatches=("rank",))

    if p.is_rational:
        psi1, P = clear_denominators(matrix)
        data = _rational_structure(psi1, P)
        want = {"rank": p.r, "numerators": tuple(p.epsilon),
                "denominators": tuple(p.psi), "inf_orders": tuple(p.q)}
    else:
        P, data = matrix, _poly_structure(matrix)
        want = {"rank": p.r, "degree": p.d, "invariant_factors": tuple(p.alpha),
                "inf_partial_mults": tuple(p.f)}
    k_want, l_want = p.span_degrees()
    want.update(colspan_indices=tuple(k_want), rowspan_indices=tuple(l_want))
    mismatches = [label for label, value in want.items() if getattr(data, label) != value]

    if p.uses_bases and data.rank == p.r:
        if not _spans_within(P, p.r, p.K):
            mismatches.append("colspan_basis")
        if not _spans_within(P.transpose(), p.r, p.Lt):
            mismatches.append("rowspan_basis")

    if p.uses_null_indices:
        if data.right_indices != tuple(p.right):
            mismatches.append("right_indices")
        if data.left_indices != tuple(p.left):
            mismatches.append("left_indices")

    return VerificationReport(passed=not mismatches, mismatches=tuple(mismatches))
