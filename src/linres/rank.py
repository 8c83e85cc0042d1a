"""Exact matrix rank over Q and over prime fields.

No floating point anywhere, and two eliminators: GF(2) keeps each vector
as the bits of one int and eliminates with XOR (rank_gf2), and Q and
every GF(p) share one sparse eliminator on rows of Python integers
(rank_sparse).  Rows of zeros and empty matrices are fine.
"""

from __future__ import annotations

import math

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


def rank_sparse(rows: list[dict[int, int]], p: int | None = None) -> int:
    """Rank over Q (p None) or over GF(p) of sparse integer rows, each a
    dict from column to entry, by a basis of rows keyed by leading column.

    Shaped like rank_gf2: the basis holds at most one row per leading
    (largest) column, and a new row r whose lead j has a basis row b is
    replaced by a*r - c*b, with a = b[j] and c = r[j], until it is zero
    or has a lead of its own.  a is nonzero, so each step keeps the span
    of the rows seen, and the basis rows, with distinct leads, are
    independent.  Over GF(p) the entries are kept mod p, so no inverse is
    needed.  Over Q they stay integers: a row joins the basis divided by
    its content, with its lead made positive, so a basis row led by 1
    reduces by plain subtraction.  The rows given are not changed.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        if p is None:
            r = {k: x for k, x in row.items() if x}
        else:
            r = {k: x % p for k, x in row.items() if x % p}
        while r:
            lead = max(r)
            b = basis.get(lead)
            if b is None:
                if p is None:
                    g = math.gcd(*r.values())
                    if r[lead] < 0:
                        g = -g
                    if g != 1:
                        r = {k: x // g for k, x in r.items()}
                basis[lead] = r
                break
            a, c = b[lead], r[lead]
            if a != 1:
                for k in r:
                    r[k] = r[k] * a if p is None else r[k] * a % p
            for k, x in b.items():
                y = r.get(k, 0) - c * x
                if p is not None:
                    y %= p
                if y:
                    r[k] = y
                else:
                    del r[k]
    return len(basis)


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
