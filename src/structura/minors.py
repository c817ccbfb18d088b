"""Selection of a nonzero minor under componentwise index bounds.

Given a nonsingular square matrix over an integral domain and a strictly
increasing index tuple Z, produces row/column tuples I <= Z*, J <= Z with a
nonzero minor, by induction on the matrix size. Whether a matrix or a minor
is singular is read from its rank at integer points, not from a determinant.
A brute-force enumerator of all admissible pairs doubles as the test oracle.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from .errors import InternalInvariantError, ParseError, SingularInput, require
from .polymat import PolyMatrix, det, rank


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
def _dependency_chain(E: PolyMatrix) -> tuple:
    """Reduction chain ((matrix, u), ...) down to size 2; u marks the first
    column of the top r-1 rows that depends on its predecessors.

    The chain and the check that E is nonsingular depend only on the matrix,
    not on the index tuple, so they are cached and shared across queries on
    equal matrices.
    """
    if rank(E) < E.m:
        raise SingularInput("matrix is singular")
    chain = []
    cur = E
    while cur.m >= 3:
        r = cur.m
        X = cur.submatrix(range(r - 1), range(r))
        u = None
        for i in range(1, r + 1):
            if rank(X.submatrix(range(r - 1), range(i))) == i - 1:
                u = i
                break
        require(u is not None,
                "top rows of a nonsingular matrix must have a dependency")
        chain.append((cur, u))
        cur = cur.submatrix(range(r - 1), [j for j in range(r) if j != u - 1])
    chain.append((cur, None))
    return tuple(chain)


def _select(chain, level: int, Z: tuple):
    E, u = chain[level]
    r = E.m
    k = len(Z)
    if k == r:
        full = tuple(range(1, r + 1))
        return full, full
    if k == 1:
        z1 = Z[0]
        for i in range(r - z1 + 1):
            for j in range(z1):
                if not E[i, j].is_zero:
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
    E and of E(I, J) is tested by the exact polymat.rank, not by det.
    """
    if not E.is_square:
        raise SingularInput("a square matrix is required")
    r = E.m
    Z = validate_index_tuple(Z, r)
    I, J = _select(_dependency_chain(E), 0, Z)
    zs = star_dual(Z, r)
    require(all(i <= b for i, b in zip(I, zs)), "row bound violated")
    require(all(j <= b for j, b in zip(J, Z)), "column bound violated")
    require(rank(E.submatrix([i - 1 for i in I], [j - 1 for j in J])) == len(I),
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
