"""Exact matrix rank over Q and over prime fields.

No floating point anywhere: the rational-rank path runs fraction-free
Gaussian elimination (Bareiss) on Python integers, the modular path runs
ordinary elimination with inverses mod p, and GF(2) keeps each vector as
the bits of one int and eliminates with XOR.  Dense matrices are small
lists of lists; rows of zeros and empty matrices are fine.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import InputError


def rank_gf2(vectors: list[int]) -> int:
    """Rank over GF(2) of bit vectors, each one int, by an XOR basis.

    The basis holds at most one vector per leading bit; a new vector is
    reduced by the basis vectors of its leading bits until it is zero
    (dependent) or has a leading bit of its own (a new basis vector).
    """
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length()
            b = basis.get(lead)
            if b is None:
                basis[lead] = v
                break
            v ^= b
    return len(basis)


def rank_over_q_via_gf2(rank2: int, bound: int,
                        build: Callable[[], list[list[int]]]) -> int:
    """Rank over Q of an integer matrix whose GF(2) rank is *rank2*.

    *bound* is an upper bound on the rank over Q, min(rows, cols) or a
    tighter one the caller knows.  *build* returns the matrix; it is
    called only when Bareiss elimination has to run.
    """
    # rank_GF(2)(M) <= rank_Q(M) <= bound: a set of columns independent
    # mod 2 has an r x r minor that is odd, hence a nonzero integer, so the
    # same columns are independent over Q.  A GF(2) rank that reaches the
    # bound therefore is the rank over Q, and elimination runs only below it.
    if rank2 == bound:
        return rank2
    return rank_over_q(build())


def rank_over_q(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, by Bareiss elimination."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, m):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        for r in range(row + 1, m):
            arc = a[r][col]
            ar = a[r]
            arow = a[row]
            for c in range(col + 1, n):
                ar[c] = (ar[c] * pv - arc * arow[c]) // prev
            ar[col] = 0
        prev = pv
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by Gaussian elimination."""
    if p < 2:
        raise InputError(f"modulus must be a prime >= 2, got {p}")
    a = [[int(x) % p for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, m):
            if a[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = pow(a[row][col], -1, p)
        arow = a[row]
        for c in range(col, n):
            arow[c] = arow[c] * inv % p
        for r in range(row + 1, m):
            f = a[r][col]
            if f:
                ar = a[r]
                for c in range(col, n):
                    ar[c] = (ar[c] - f * arow[c]) % p
        rank += 1
        row += 1
        if row == m:
            break
    return rank


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


def is_prime(p: int) -> bool:
    """Miller-Rabin over the prime bases up to 37.

    A "composite" answer is always exact, a "prime" answer below
    _MR_EXACT_BELOW; beyond it, InputError is raised instead.
    """
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _MR_EXACT_BELOW:
        raise InputError(f"cannot decide exactly whether {p} is prime: "
                         f"the modulus must be below {_MR_EXACT_BELOW}")
    return True
