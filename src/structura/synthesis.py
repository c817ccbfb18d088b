"""Constructive realization of prescribed structural data.

Pipeline: distribute the invariant factors over prescribed diagonal degrees,
realize them in a triangular matrix, shape the off-diagonal degrees with
Euclidean column replacements, assemble between minimal bases, and lift
nonzero infinite structure through a Mobius substitution. Rational targets
wrap the polynomial construction in a denominator clearing.

Every step is a direct construction, with no search and no Smith elimination:
the distribution moves units between slots, and the triangular completion
borders one slot at a time by the pair rule, carrying its own transforms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .errors import (
    FieldNotSplit,
    ImpossibleSquareCase,
    Infeasible,
    LengthMismatch,
    MajorizationFails,
    NonMonicDiagonal,
    PreconditionViolated,
    SumMismatch,
    _quoted,
    require,
)
from .qpoly import (
    ONE,
    ZERO,
    Poly,
    _linear_product,
    _linear_valuation,
    atom_valuation,
    coprime_basis,
    mobius_tilde,
    poly_gcd,
    split_over_rationals,
)
from .polymat import (
    PolyMatrix,
    RationalMatrix,
    is_column_proper,
    mobius_frame,
    scale_basis_mobius,
)
from .qpoly import RatFn
from .feasibility import FAIL, Prescription, check_feasibility, majorizes

# -- minimal-basis builders ----------------------------------------------------


def build_minimal_basis(degrees: Sequence[int], ambient: int) -> PolyMatrix:
    """Bidiagonal minimal basis with the given column degrees.

    ambient x r with s^d_i on the diagonal and 1 below it; identity in the
    square case, which forces all degrees to zero.
    """
    degs = [int(x) for x in degrees]
    r = len(degs)
    if any(x < 0 for x in degs):
        raise ValueError("column degrees must be nonnegative")
    if ambient < r:
        raise ValueError("ambient dimension below the number of columns")
    if ambient == r:
        if any(x != 0 for x in degs):
            raise ImpossibleSquareCase(
                "a square minimal basis has all column degrees zero"
            )
        return PolyMatrix.identity(r)
    rows = [[ZERO] * r for _ in range(ambient)]
    for i, d in enumerate(degs):
        rows[i][i] = Poly.monomial(1, d)
        rows[i + 1][i] = ONE
    return PolyMatrix(rows, n=r)


def build_dual_minimal_bases(deg_m: Sequence[int], deg_n: Sequence[int]):
    """Dual minimal bases (M, N) with M^T N = 0 and the prescribed degrees.

    The positive degrees of each list tile [0, sum] with intervals. Blocks
    run between the partial sums both lists reach; each block has one row
    per cut (a partial sum of either list) in it. A column on [lo, hi] has
    s^(hi - c) (M) or +-s^(c - lo) (N, signs alternating down the block) at
    each cut c of its interval, so every product telescopes to zero. Zero
    degrees become private constant rows, M's first.

    Each basis is the other's certificate: M^T N = 0, the column counts add
    up to the height, both are column proper and their degree sums agree, so
    M and N are dual minimal bases (Forney 1975, "Minimal bases of rational
    vector spaces", SIAM J. Control 13; De Teran, Dopico, Mackey and Van
    Dooren 2016, Linear Algebra Appl. 488). Their degree lists are then
    checked against the prescribed ones.
    """
    dm = [int(x) for x in deg_m]
    dn = [int(x) for x in deg_n]
    if any(x < 0 for x in dm + dn):
        raise ValueError("degrees must be nonnegative")
    if sum(dm) != sum(dn):
        raise SumMismatch("dual bases need equal degree sums")
    sums_m = set(itertools.accumulate(dm, initial=0))
    sums_n = set(itertools.accumulate(dn, initial=0))
    common, cuts = sorted(sums_m & sums_n), sorted(sums_m | sums_n)
    at = {key: i for i, key in enumerate(
        (b, c) for b, e in zip(common, common[1:]) for c in cuts if b <= c <= e)}

    def columns(degs, entry, zero_row):
        pos, zero, lo = [], [], 0
        for d in degs:
            if d:
                b = max(x for x in common if x <= lo)
                pos.append({at[b, c]: entry(at[b, c] - at[b, b], c - lo, lo + d - c)
                            for c in cuts if lo <= c <= lo + d})
            else:
                zero.append({zero_row + len(zero): ONE})
            lo += d
        return pos + zero

    mcols = columns(dm, lambda k, up, down: Poly.monomial(1, down), len(at))
    ncols = columns(dn, lambda k, up, down: Poly.monomial((-1) ** k, up),
                    len(at) + dm.count(0))
    height = len(at) + dm.count(0) + dn.count(0)
    M, N = (PolyMatrix([[col.get(i, ZERO) for col in cols] for i in range(height)],
                       n=len(cols)) for cols in (mcols, ncols))

    require((M.transpose() @ N).is_zero and M.n + N.n == height,
            "dual bases must annihilate each other and fill the height")
    require(is_column_proper(M) and is_column_proper(N),
            "constructed factors must be column proper")
    dM, dN = M.column_degrees(), N.column_degrees()
    require(sum(dM) == sum(dN) and sorted(dM) == sorted(dm) and sorted(dN) == sorted(dn),
            "constructed factors must have the prescribed degrees")
    return M, N


# -- invariant-factor distribution ----------------------------------------------


class Diagonal(list):
    """The delta_i, with the root table (root, exponents of delta, exponents
    of alpha) they were built from, for triangular_realization's table=."""

    __slots__ = ("table",)


def distribute_invariant_factors(alpha, h: Sequence[int]) -> Diagonal:
    """Monic delta_i with deg delta_i = h_i whose k-fold product gcds absorb
    the invariant-factor chain and whose product equals the chain's product.

    Requires split (over Q) invariant factors; the decreasing reordering of h
    must be majorized by the reversed degree sequence.

    Root by root, most frequent first, the root's exponents y and the summed
    exponents z of the later roots go in decreasing order onto the slots
    sorted by open quota. While y + z misses the quotas, one unit moves from
    the last slot over quota to the first later slot under it, out of z when
    z is larger there and out of y otherwise: always from a larger entry to a
    smaller one, so y stays majorized by the root's exponents (the Sa-Thompson
    condition at that root) and z, the next quotas, by the later roots'. Prefix
    sums of y + z never drop below the quotas', so the target slot exists
    (Marshall, Olkin and Arnold, "Inequalities: Theory of Majorization and
    Its Applications", 2011, Lemma 2.B.1); a root takes at most sum(h) moves.
    """
    r = len(alpha)
    if len(h) != r:
        raise LengthMismatch("one target degree per invariant factor")
    # every root of a chain member is a root of the chain's end
    end = alpha[-1] if alpha else ONE
    top = split_over_rationals(end)
    if not top.is_split:
        raise FieldNotSplit(
            f"the chain end {_quoted(str(end))} does not split into linear "
            "factors over Q"
        )
    # root w of the chain end has the exponents mult[w] in alpha
    roots = [rt for rt, _ in top.factors]
    mult = [[0] * r for _ in roots]
    for i, a in enumerate(alpha):
        if not a.is_monic:
            raise ValueError("invariant factors must be monic")
        nums = a.numerators
        for v, rt in zip(mult, roots):
            v[i], nums = _linear_valuation(nums, rt.numerator, rt.denominator)
    degs = [int(a.degree) for a in alpha]
    if (any(sum(v[i] for v in mult) != degs[i] for i in range(r))
            or any(v[i] > v[i + 1] for v in mult for i in range(r - 1))):
        raise ValueError("invariant factors must be a divisibility chain")
    hh = [int(x) for x in h]
    if any(x < 0 for x in hh):
        raise MajorizationFails("a target degree is negative")
    g = tuple(sorted(hh, reverse=True))
    if not majorizes(g, tuple(reversed(degs))):
        raise MajorizationFails(
            f"degree reordering {g} is not majorized by {tuple(reversed(degs))}"
        )

    order = sorted(range(len(roots)), key=lambda w: (-sum(mult[w]), roots[w]))
    quotas, later, assign = hh, degs, [None] * len(roots)
    for w in order:
        later = [a - b for a, b in zip(later, mult[w])]
        slots = sorted(range(r), key=lambda i: (-quotas[i], i))
        q = [quotas[i] for i in slots]
        y, z = sorted(mult[w], reverse=True), sorted(later, reverse=True)
        while any(a + b != c for a, b, c in zip(y, z, q)):
            j = max(t for t in range(r) if y[t] + z[t] > q[t])
            k = next(t for t in range(j + 1, r) if y[t] + z[t] < q[t])
            src = z if z[j] > z[k] else y
            src[j] -= 1
            src[k] += 1
        assign[w], quotas = [0] * r, [0] * r
        for t, i in enumerate(slots):
            assign[w][i], quotas[i] = y[t], z[t]
    delta = Diagonal(_linear_product(zip(roots, (x[i] for x in assign))) for i in range(r))
    # roots descending lists the atoms s - root in Poly.sort_key order, as the
    # gcd-free basis of triangular_realization does
    delta.table = [(rt, tuple(x), tuple(m)) for rt, x, m in zip(roots, assign, mult)][::-1]
    return delta


# -- triangular realization -----------------------------------------------------


def _bordered_exponents(beta, prof, xr) -> tuple:
    """Invariant-factor exponents of N(t) = [[diag(t^beta), z], [0, t^xr]],
    z_i = t^prof[i], or 0 where prof[i] is None; beta is ascending.

    Every nonzero minor of this diagonal-plus-last-column shape is one
    signed monomial: a principal minor of the diagonal, times t^xr when it
    takes the corner, or z_i times a principal minor of the diagonal without
    row i. So the k-th determinantal divisor is t^d_k with d_k the smaller
    of the sum of the k smallest of beta and xr, and of the least
    prof[i] + the sum of the k - 1 smallest of beta without beta_i over the
    nonzero z_i; the invariant factors are t^(d_k - d_(k-1)). A unimodular
    U(t) stays unimodular under t -> a(s), so N(a(s)) has the invariant
    factors a^(d_k - d_(k-1)) for any monic a.
    """
    size = len(beta)
    low = list(itertools.accumulate(beta, initial=0))
    both = list(itertools.accumulate(sorted((*beta, xr)), initial=0))
    prev, out = 0, []
    for k in range(1, size + 2):
        dk = both[k]
        if k <= size:
            for i, g in enumerate(prof):
                if g is not None:
                    # the k - 1 smallest of beta without beta_i
                    rest = low[k - 1] if i >= k - 1 else low[k] - beta[i]
                    dk = min(dk, g + rest)
        out.append(dk - prev)
        prev = dk
    return tuple(out)


def _pair_rule(m: tuple, t: int):
    """The pair rule of _atom_triangular for the corner t: the block's
    exponents beta and the border's profile (None = zero entry)."""
    if t in m:
        j = m.index(t)
        return m[:j] + m[j + 1:], (None,) * (len(m) - 1)
    j = next(i for i in range(len(m) - 1) if m[i] < t < m[i + 1])
    prof = (None,) * j + (m[j],) + (None,) * (len(m) - j - 2)
    return m[:j] + (m[j] + m[j + 1] - t,) + m[j + 2:], prof


def _atom_triangular(x, m, atom):
    """(T, R, V) as row lists: T upper triangular with diagonal atom^x_i and
    T V = R diag(atom^m), R and V products of elementary matrices, for the
    invariant-factor exponents m (ascending, majorized by sorted(x)).

    With t = x[-1], a block built for x[:-1] and the exponents beta borders
    the corner atom^t; _pair_rule picks beta and the border z. If t is in m,
    beta is m less one t and z = 0. Else m_j < t < m_(j+1) for an adjacent
    pair, beta is m with the pair replaced by w = m_j + m_(j+1) - t (in slot
    j), and z is atom^m_j in slot j: the bordered matrix is the rest of
    diag(atom^beta) next to [[a^w, a^m_j], [0, a^t]], whose invariants are
    a^m_j and a^m_(j+1) as m_j <= min(w, t). The pair exists, since
    m_1 <= s_1 <= t <= s_r <= m_r for s = sorted(x).

    beta is majorized by y = sorted(x[:-1]), so the recursion may go on.
    With indices from 1, P_k the sum of the k smallest entries, j the slot
    the rule takes out of m and p the position of t in s: P_k(beta) is
    P_k(m) for k < j and P_(k+1)(m) - t for k >= j, and P_k(y) is P_k(s)
    for k < p and P_(k+1)(s) - t for k >= p. So P_k(beta) <= P_k(y) is the
    hypothesis for k < min(j, p), and the hypothesis at k + 1, less t, for
    k >= max(j, p); for p <= k < j it follows from s_(k+1) >= t, and for
    j <= k < p from s_(k+1) <= t.

    The block's transforms carry the border over. With B V_B = R_B D_beta
    and y = a^m_j R_B[:, j], T diag(V_B, 1) = diag(R_B, 1) N for the
    bordered matrix N, whose pair a^m_j [[p, 1], [0, q]], p = a^(w - m_j),
    q = a^(t - m_j), L = [[1, 0], [q, -1]] (its own inverse) and
    C = [[0, 1], [1, -p]] take to a^m_j diag(1, pq) = diag(a^m_j, a^m_(j+1)):
    R takes L and V takes C, and their last columns move into m's order.
    Each level is also certified from exponents by _bordered_exponents.
    """
    r = len(x)
    if r == 1:
        return [[atom ** x[0]]], [[ONE]], [[ONE]]
    size, t = r - 1, x[-1]
    beta, prof = _pair_rule(m, t)
    require(_bordered_exponents(beta, prof, t) == m,
            "bordered matrix has the wrong invariant factors")
    T, R, V = _atom_triangular(x[:-1], beta, atom)
    T, R, V = ([row + [ZERO] for row in A] + [[ZERO] * size + [corner]]
               for A, corner in ((T, atom ** t), (R, ONE), (V, ONE)))
    # t sorts into m at slot, or m_(j+1) does for j = slot - 1
    slot = sum(g < t for g in m)
    if t not in m:
        j = slot - 1
        p, q, z = atom ** (beta[j] - m[j]), atom ** (t - m[j]), atom ** m[j]
        for i in range(size):
            T[i][size] = R[i][j] * z
        R[size][j], R[size][size] = q, -ONE
        for row in V:
            row[j], row[size] = row[size], row[j] - p * row[size]
    for row in R + V:
        row.insert(slot, row.pop())
    return T, R, V


def triangular_realization(alpha: Sequence[Poly], delta: Sequence[Poly],
                           table=None) -> PolyMatrix:
    """Upper triangular r x r with diagonal delta and invariant factors alpha.

    Works atom by atom (one triangular factor per atom, multiplied together)
    over the s - root of a table as Diagonal.table gives it, or else over a
    gcd-free basis, so inputs need not split into linear factors. Such
    a matrix exists iff the k-fold prefix products of alpha divide every
    k-fold product of delta, with equal totals (Sa 1979, Thompson 1979): at
    each atom, the exponents of alpha are majorized by the ascending
    exponents of delta.

    The result carries an exact certificate instead of a Smith
    re-extraction. For r = 2, [[delta_1, alpha_1], [0, delta_2]] has the
    determinantal divisors gcd(delta_1, alpha_1, delta_2) and
    delta_1 delta_2, checked with one gcd. For other r, T V = R diag(atom^m)
    is checked exactly for each atom's factor T; R and V are unimodular by
    construction, so T is equivalent to diag(atom^m). The atoms are checked
    pairwise coprime and the product of their powers against alpha: the
    factors' determinants are then pairwise coprime, and the Smith form of
    such a product is the product of the Smith forms, because at each prime
    every factor but one is a unit.
    """
    r = len(alpha)
    if len(delta) != r:
        raise LengthMismatch("diagonal and invariant lists differ in length")
    for p in list(alpha) + list(delta):
        if p.is_zero or not p.is_monic:
            raise PreconditionViolated("diagonals and invariants must be monic")
    # (atom, exponents of delta, exponents of alpha)
    if table is not None:
        exponents = [(Poly((-rt, 1)), x, m) for rt, x, m in table]
    else:
        exponents = [(atom, tuple(atom_valuation(d, atom)[0] for d in delta),
                      tuple(atom_valuation(a, atom)[0] for a in alpha))
                     for atom in coprime_basis(list(alpha) + list(delta))]
    if any(list(m) != sorted(m) for _, _, m in exponents):
        raise PreconditionViolated("invariant factors must form a chain")
    for atom, x, m in exponents:
        if not majorizes(m, tuple(sorted(x))):
            raise PreconditionViolated(
                f"at atom {atom}, invariant exponents {m} are not "
                f"majorized by the diagonal exponents {tuple(sorted(x))}"
            )

    if r == 2:
        g = poly_gcd(poly_gcd(delta[0], alpha[0]), delta[1])
        require(g == alpha[0] and delta[0] * delta[1] == g * alpha[1],
                "2x2 realization has the wrong invariant factors")
        return PolyMatrix([[delta[0], alpha[0]], [ZERO, delta[1]]], n=2)

    E = PolyMatrix.identity(r)
    for w, (atom, x, m) in enumerate(exponents):
        T, R, V = (PolyMatrix(A, n=r) for A in _atom_triangular(tuple(x), tuple(m), atom))
        D = PolyMatrix([[atom ** k if i == j else ZERO for j in range(r)]
                        for i, k in enumerate(m)])
        require(T @ V == R @ D, "triangular factor is not equivalent to diag(atom^m)")
        E = E @ T if w else T
    require(tuple(E.rows[i][i] for i in range(r)) == tuple(delta),
            "triangular realization has the wrong diagonal")
    atoms = [atom for atom, _, _ in exponents]
    # distinct monic linear atoms are coprime
    require(len(set(atoms)) == len(atoms) if all(a.degree == 1 for a in atoms) else
            all(poly_gcd(a, b) == ONE for a, b in itertools.combinations(atoms, 2)),
            "triangular realization needs pairwise coprime atoms")
    require(all(math.prod((atom ** m[i] for atom, _, m in exponents), start=ONE) == alpha[i]
                for i in range(r)),
            "triangular realization has the wrong invariant factors")
    return E


# -- Euclidean degree shaping ----------------------------------------------------


def shape_degrees(Ep: PolyMatrix, bounds: Sequence[int]) -> PolyMatrix:
    """Reduce strict upper entries below their row's diagonal degree by
    Euclidean column replacements (right multiplication by a unit upper
    triangular unimodular matrix); the diagonal and the invariant factors are
    untouched."""
    if not Ep.is_square:
        raise PreconditionViolated("triangular shaping needs a square matrix")
    r = Ep.m
    caps = [int(b) for b in bounds]
    if len(caps) != r:
        raise PreconditionViolated("one degree cap per row required")
    for i in range(r):
        for j in range(i):
            if not Ep.rows[i][j].is_zero:
                raise PreconditionViolated("input must be upper triangular")
        e = Ep.rows[i][i]
        if e.is_zero or not e.is_monic:
            raise NonMonicDiagonal(f"diagonal entry {i} is not monic")
        if e.degree != caps[i]:
            raise PreconditionViolated(
                f"diagonal entry {i} has degree {e.degree}, cap says {caps[i]}"
            )
    cols = [[Ep.rows[i][j] for i in range(r)] for j in range(r)]
    for i in range(r - 2, -1, -1):
        for j in range(i + 1, r):
            q = cols[j][i] // cols[i][i]
            if q.is_zero:
                continue
            for t in range(i + 1):
                cols[j][t] = cols[j][t] - q * cols[i][t]
    return PolyMatrix([[cols[j][i] for j in range(r)] for i in range(r)], n=r)


# -- realization pipeline ---------------------------------------------------------


def _sorted_columns(P: PolyMatrix, ascending: bool) -> PolyMatrix:
    order = sorted(
        range(P.n),
        key=lambda j: (int(P.col_degree(j)), j) if ascending else (-int(P.col_degree(j)), j),
    )
    return P.submatrix(range(P.m), order)


def _realize_zero_inf(alpha, d: int, K: PolyMatrix, Lt: PolyMatrix) -> PolyMatrix:
    K_asc = _sorted_columns(K, ascending=True)
    Lt_desc = _sorted_columns(Lt, ascending=False)
    h = [d - (k + l) for k, l in zip(K_asc.column_degrees(), Lt_desc.column_degrees())]
    delta = distribute_invariant_factors(list(alpha), h)
    E = shape_degrees(triangular_realization(list(alpha), delta, table=delta.table), h)
    return K_asc @ E @ Lt_desc.transpose()


def _mobius_point(p: Poly) -> Fraction:
    """Smallest nonnegative integer that is not a root of p."""
    return next(Fraction(a) for a in itertools.count() if p(Fraction(a)) != 0)


def _realize_poly(p: Prescription, alpha, f, d: int, avoid=ONE) -> PolyMatrix:
    """Realize (alpha, f, d) between minimal bases chosen for the span data
    of p: dual bases when p prescribes null indices too, the given or the
    bidiagonal ones otherwise. A nonzero f goes through a Mobius frame at a
    point that is a root of neither alpha_r nor avoid."""
    if p.uses_null_indices:
        K = build_dual_minimal_bases(p.k, p.left)[0]
        Lt = build_dual_minimal_bases(p.l, p.right)[0]
    elif p.uses_bases:
        K, Lt = p.K, p.Lt
    else:
        K, Lt = build_minimal_basis(p.k, p.m), build_minimal_basis(p.l, p.n)
    if all(fi == 0 for fi in f):
        return _realize_zero_inf(alpha, d, K, Lt)
    a = _mobius_point(alpha[-1] * avoid)
    Kbar, Ltbar = scale_basis_mobius(K, a), scale_basis_mobius(Lt, a)
    betas = []
    for al, fi in zip(alpha, f):
        tilde, const = mobius_tilde(al, a)
        betas.append((tilde * Poly.monomial(1, fi)).scale(1 / const))
    B = _realize_zero_inf(betas, d, Kbar, Ltbar)
    return mobius_frame(B, a, d)


def _gate(p: Prescription) -> None:
    rep = check_feasibility(p)
    if not rep.feasible:
        failing = [c.label for c in rep.conditions.values() if c.status == FAIL]
        raise Infeasible(f"conditions failed: {', '.join(failing)}")


def realize_span(p: Prescription) -> PolyMatrix:
    """Realize a spans or span-indices prescription (variants with alpha, f)."""
    _gate(p)
    if p.is_rational:
        raise ValueError("polynomial prescription required")
    return _realize_poly(p, p.alpha, p.f, p.d)


def realize_full(p: Prescription) -> PolyMatrix:
    """Realize a full polynomial prescription (all six data lists)."""
    _gate(p)
    if p.is_rational or not p.uses_null_indices:
        raise ValueError("full polynomial prescription required")
    return _realize_poly(p, p.alpha, p.f, p.d)


def realize_rational(p: Prescription) -> RationalMatrix:
    """Realize a rational prescription by clearing the largest denominator,
    constructing the polynomial companion, and dividing back."""
    _gate(p)
    if not p.is_rational:
        raise ValueError("rational prescription required")
    psi1 = p.psi[0]
    alpha = []
    for eps, psi in zip(p.epsilon, p.psi):
        quo, rem = divmod(psi1 * eps, psi)
        require(rem.is_zero, "psi chain must divide the top denominator")
        alpha.append(quo.monic())
    # The companion (alpha, f, d) with the same span data passes the
    # polynomial gate whenever p passed the rational one, so it is not
    # gated again: with d = deg psi_1 - q_1, both sides of eqprec are the
    # sides of eqprec_rat shifted by d (d - g_i and deg alpha_i + f_i, as
    # deg alpha_i = deg psi_1 + deg eps_i - deg psi_i), eqIST is the total of
    # that majorization (so d >= 0), f = q - q_1 gives eqf1, and eqsums,
    # eqx>0 and eqy>0 read only the span data, which is shared.
    d = int(psi1.degree) - p.q[0]
    f = tuple(qi - p.q[0] for qi in p.q)
    A = _realize_poly(p, tuple(alpha), f, d, avoid=psi1)
    rows = [[RatFn(e, psi1) for e in row] for row in A.rows]
    return RationalMatrix(rows, n=A.n)
