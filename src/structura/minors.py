"""Selection of a nonzero minor under componentwise index bounds.

Given a nonsingular square matrix over an integral domain and a strictly
increasing index tuple Z, produces row/column tuples I <= Z*, J <= Z with a
nonzero minor, by induction on the matrix size. Whether a matrix or a minor
is singular is read from the rank of a submatrix of one integer matrix, the
value E(2^b) past the Cauchy bound of the minors of E
(polymat._kronecker_values), not from a determinant: no Poly submatrix is
built, and the cache of that value is keyed on the integer rows of E. A
brute-force enumerator of all admissible pairs doubles as the test oracle.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from .errors import InternalInvariantError, ParseError, SingularInput, require
from .polymat import PolyMatrix, _echelon, _frac_rank, _integer_lines, _kronecker_values, det


def validate_index_tuple(Z: Sequence[int], r: int) -> tuple:
    Z = tuple(Z)
    if any(type(z) is not int for z in Z):
        raise ParseError("indices must be integers")
    if not Z:
        raise ParseError("index tuple must be nonempty")
    if Z[0] < 1 or Z[-1] > r:
        raise ParseError(f"indices must lie in 1..{r}")
    if any(Z[i] >= Z[i + 1] for i in range(len(Z) - 1)):
        raise ParseError("indices must be strictly increasing")
    return Z


def star_dual(Z: Sequence[int], r: int) -> tuple:
    """I* = [r - i_p + 1, ..., r - i_1 + 1]."""
    return tuple(r - z + 1 for z in reversed(Z))


@functools.lru_cache(maxsize=64)
def _dependency_chain(rows: tuple) -> tuple:
    """(V, chain) of the square matrix E whose rows over their lcms are rows:
    V is _kronecker_values(rows), whose submatrices are singular exactly
    where those of E are, and chain is the reduction chain ((values, u), ...)
    down to size 2. Each level's values are those of its matrix, read from V;
    u marks the first column of their top r-1 rows that depends on its
    predecessors. All of it depends only on rows, so it is cached on them:
    nested tuples of ints, hashed and compared in C.
    """
    V = tuple(map(tuple, _kronecker_values(rows)))
    if _frac_rank(V) < len(rows):
        raise SingularInput("matrix is singular")
    chain = []
    cur = V
    while len(cur) >= 3:
        # r - 1 rows have at most r - 1 pivots among r columns, so some
        # column is not one; the first is the first dependent column
        pivots = sorted(_echelon(cur[:-1]))
        u = next((c for c, p in enumerate(pivots) if c != p), len(pivots)) + 1
        chain.append((cur, u))
        cur = tuple(row[:u - 1] + row[u:] for row in cur[:-1])
    chain.append((cur, None))
    return V, tuple(chain)


def _select(chain, level: int, Z: tuple):
    W, u = chain[level]
    r = len(W)
    k = len(Z)
    if k == r:
        full = tuple(range(1, r + 1))
        return full, full
    if k == 1:
        z1 = Z[0]
        for i in range(r - z1 + 1):
            for j in range(z1):
                if W[i][j]:
                    return (i + 1,), (j + 1,)
        raise InternalInvariantError("full-rank matrix with a zero leading block")

    w = 0
    for pos, z in enumerate(Z, start=1):
        if z == pos:
            w = pos
        else:
            break

    if w < u:
        Zhat = tuple(z if pos <= w else z - 1 for pos, z in enumerate(Z, start=1))
        Ihat, Jhat = _select(chain, level + 1, Zhat)
        I = Ihat
        J = tuple(j if j < u else j + 1 for j in Jhat)
    else:
        Zhat = tuple(range(1, u)) + tuple(Z[i] - 1 for i in range(u, k))
        Ihat, Jhat = _select(chain, level + 1, Zhat)
        I = Ihat + (r,)
        J = tuple(range(1, u + 1)) + tuple(Jhat[t] + 1 for t in range(u - 1, k - 1))
    return I, J


def select_nonzero_minor(E: PolyMatrix, Z: Sequence[int]):
    """(I, J) with J <= Z, I <= Z* componentwise and det(E(I, J)) != 0.

    Indices are 1-based, matching the Q_{k,r} convention. Nonsingularity of
    E and of E(I, J) is tested by the rank of the same rows and columns of
    the integer value V of E (see polymat.rank), not by det.
    """
    if not isinstance(E, PolyMatrix):
        raise ParseError("minor-select needs a polynomial matrix")
    if not E.is_square:
        raise SingularInput("a square matrix is required")
    r = E.m
    Z = validate_index_tuple(Z, r)
    # over denominators all 1 the rows are the numerators: one pass instead
    # of a lcm per row (4 us against 14 us on a 7x7, CPython 3.11, x86_64)
    if {e.denominator for row in E.rows for e in row} == {1}:
        rows = tuple([tuple([e.numerators for e in row]) for row in E.rows])
    else:
        rows = tuple([tuple(map(tuple, row)) for row in _integer_lines(E.rows)[0]])
    V, chain = _dependency_chain(rows)
    I, J = _select(chain, 0, Z)
    zs = star_dual(Z, r)
    require(all(i <= b for i, b in zip(I, zs)), "row bound violated")
    require(all(j <= b for j, b in zip(J, Z)), "column bound violated")
    require(_frac_rank([[V[i - 1][j - 1] for j in J] for i in I]) == len(I),
            "selected minor vanished")
    return I, J


def minor_at(E: PolyMatrix, I: Sequence[int], J: Sequence[int]):
    return det(E.submatrix([i - 1 for i in I], [j - 1 for j in J]))


def admissible_pairs(E: PolyMatrix, Z: Sequence[int]):
    """Brute-force oracle: every (I, J) within the bounds with nonzero minor."""
    r = E.m
    Z = validate_index_tuple(Z, r)
    k = len(Z)
    zs = star_dual(Z, r)
    out = []
    for I in itertools.combinations(range(1, r + 1), k):
        if any(i > b for i, b in zip(I, zs)):
            continue
        for J in itertools.combinations(range(1, r + 1), k):
            if any(j > b for j, b in zip(J, Z)):
                continue
            if not minor_at(E, I, J).is_zero:
                out.append((I, J))
    return out
