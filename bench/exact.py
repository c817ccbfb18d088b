"""Exact arithmetic over Q that the benchmark owns.

Polynomials are lists of Fractions, ascending by power, with no trailing
zeros; the zero polynomial is the empty list. The generators and the
correctness checks use only this module, never the library under test, so a
defect in the library cannot hide itself from the checks.
"""

from __future__ import annotations

from fractions import Fraction


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def from_json(coeffs):
    return trim(Fraction(c) for c in coeffs)


def to_json(p):
    return [str(c) for c in p]


def degree(p):
    return len(p) - 1  # -1 for the zero polynomial


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return trim(out)


def divmod_poly(a, b):
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    db = len(b) - 1
    if len(rem) <= db:
        return [], trim(rem)
    quo = [Fraction(0)] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            q = c / b[-1]
            quo[i - db] = q
            for j, bc in enumerate(b):
                rem[i - db + j] -= q * bc
    return trim(quo), trim(rem[:db])


def divides(a, b):
    return not divmod_poly(b, a)[1]


def monic(p):
    return [c / p[-1] for c in p]


def gcd(a, b):
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return monic(a) if a else []


def evaluate(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def from_roots(roots):
    """Monic product of (s - root) over the given roots."""
    p = [Fraction(1)]
    for root in roots:
        p = mul(p, [-Fraction(root), Fraction(1)])
    return p


def matmul(A, B):
    """Product of two polynomial matrices given as lists of rows."""
    inner = len(B)
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        out_row = []
        for j in range(cols):
            acc = []
            for t in range(inner):
                if row[t] and B[t][j]:
                    acc = add(acc, mul(row[t], B[t][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def transpose(A, cols):
    return [[A[i][j] for i in range(len(A))] for j in range(cols)]


def scalar_rank(rows):
    """Rank of a matrix of Fractions by Gaussian elimination."""
    M = [list(r) for r in rows]
    rank = 0
    cols = len(M[0]) if M else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(M)) if M[i][j]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(rank + 1, len(M)):
            if M[i][j]:
                f = M[i][j] / M[rank][j]
                for t in range(j, cols):
                    M[i][t] -= f * M[rank][t]
        rank += 1
    return rank


def column_degrees(B, cols):
    return [max(degree(B[i][j]) for i in range(len(B))) for j in range(cols)]


def is_column_proper(B, cols):
    """Leading column coefficient matrix has full column rank."""
    if cols == 0:
        return True
    degs = column_degrees(B, cols)
    if min(degs) < 0:
        return False
    lead = [
        [B[i][j][degs[j]] if degree(B[i][j]) == degs[j] else Fraction(0)
         for j in range(cols)]
        for i in range(len(B))
    ]
    return scalar_rank(lead) == cols


# Evaluation points for rank and nonvanishing tests: a polynomial matrix of
# degree D has rank r when its value at one point has rank r, and a nonzero
# minor of a k x k block is nonzero at one of any k*D + 1 distinct points.
POINTS = [Fraction(p, q) for p, q in ((7, 3), (-5, 2), (11, 7), (2, 1), (-1, 1),
                                      (0, 1), (1, 1), (3, 1), (-2, 1), (5, 1),
                                      (-3, 1), (4, 1), (-4, 1), (6, 1), (-6, 1))]


def points(count):
    """The first count distinct sample points: POINTS, then larger integers."""
    out = POINTS[:count]
    x = 7
    while len(out) < count:
        out.append(Fraction(x))
        x = -x if x > 0 else -x + 1
    return out
