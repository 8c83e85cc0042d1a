"""Linear quotients: checking orders, constructing them, searching for them.

An ordered generating sequence u_1, ..., u_m has linear quotients when
each colon ideal (u_1, ..., u_{i-1}) : u_i is generated by variables.
One check decides this: ``has_linear_quotients`` asks that every
generator u_j / gcd(u_j, u_i) of each colon ideal lie under one of
degree one, read off per-variable bitsets of the exponents.
``find_lq_order`` prunes with the same check, and ``construct_lq_order``
verifies its output with it.

For quadratic ideals whose generators satisfy the two combinatorial
closure conditions from graphs.check_star and graphs.check_star_star,
``construct_lq_order`` writes down an explicit order with no search:
squarefree generators sorted by the lexicographic order that ranks the
highest variable first, each square slotted directly after its partner
with the smallest cofactor index, leftover squares at the bottom.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import BudgetExhausted, Falsification, InputError, PreconditionError
from .graphs import CheckResult, check_star, check_star_star
from .monomials import Monomial, MonomialIdeal, monomial_from_support


def _at_least(exps: Sequence[tuple[int, ...]]) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """Per-variable bitsets over positions, on exponent ranks: returns
    (rows, ranked), with bit p of rows[k][t] set iff ranked[p][k] >= t.

    Each variable's exponents are ranked from 0 up, a gap of one kept and
    a larger gap cut to two, so for an exponent e of rank r a rank >= r + 1
    means an exponent > e, and a rank >= r + 2 one >= e + 2.  Rows run to
    two past the largest rank: at most 2m + 1 entries for m positions,
    whatever the exponents."""
    rows, columns = [], []
    for k in range(len(exps[0])):
        column = [x[k] for x in exps]
        values = sorted(set(column))
        rank = {values[0]: 0}
        for prev, e in zip(values, values[1:]):
            rank[e] = rank[prev] + min(e - prev, 2)
        top = rank[values[-1]]
        # a rank is at most its exponent, equal at the top only if equal throughout
        if top != values[-1]:
            column = [rank[e] for e in column]
        row = [0] * (top + 3)
        for p, t in enumerate(column):
            row[t] |= 1 << p
        for t in range(len(row) - 2, -1, -1):
            row[t] |= row[t + 1]
        rows.append(row)
        columns.append(column)
    return rows, list(zip(*columns))


def _validate_order(order: Sequence[Monomial]) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """Reject an empty, mixed-ring or non-minimal order; return the
    ``_at_least`` bitsets and ranked exponents of its generators."""
    if not order:
        raise InputError("empty generator order")
    n = order[0].n
    for u in order:
        if u.n != n:
            raise InputError("generators live in different rings")
    rows, ranked = _at_least([u.exps for u in order])
    for i, u in enumerate(order):
        # the multiples of u among the generators, u itself excluded
        multiples = ~(1 << i)
        for k, row in enumerate(rows):
            multiples &= row[ranked[i][k]]
        if multiples:
            v = order[(multiples & -multiples).bit_length() - 1]
            raise InputError(f"{u} divides {v}; linear quotients needs a minimal system")
    return rows, ranked


def _unwitnessed(rows: list[list[int]], v: tuple[int, ...], prefix: int) -> int:
    """The positions p in the bitset *prefix* whose quotient u_p / gcd(u_p, v)
    lies under no degree-one quotient, as a bitset; 0 exactly when the
    colon ideal (u_p : p in prefix) : v is generated by variables.  *v* is
    a generator's ranked exponents from ``_at_least``.

    The quotients generate the colon ideal, so it is generated by
    variables exactly when each quotient is divisible by one of degree
    one.  x_k divides u_p / gcd(u_p, v) iff u_p[k] > v[k], and the
    quotient is x_k itself iff k is the only such variable and
    u_p[k] = v[k] + 1.
    """
    above = [row[v[k] + 1] & prefix for k, row in enumerate(rows)]
    once = twice = 0
    for a in above:
        twice |= once & a
        once |= a
    single = once & ~twice
    covered = 0
    for k, row in enumerate(rows):
        if above[k] & single & ~row[v[k] + 2]:
            covered |= above[k]
    return prefix & ~covered


def has_linear_quotients(order: Sequence[Monomial]) -> CheckResult:
    """Check an explicit order via the colon ideals themselves.

    At each step i the colon ideal (u_1, ..., u_{i-1}) : u_i is generated
    by the quotients u_j / gcd(u_j, u_i), j < i; the step passes iff every
    quotient lies under a quotient of degree one.  On failure the witness
    is the pair of 1-based positions (i, j): step i fails and u_j is the
    first earlier generator whose quotient is not under any variable of
    the colon ideal.
    """
    rows, ranked = _validate_order(order)
    for i in range(1, len(order)):
        bad = _unwitnessed(rows, ranked[i], (1 << i) - 1)
        if bad:
            return CheckResult(False, (i + 1, (bad & -bad).bit_length()))
    return CheckResult(True, None)


def isolated_squares(ideal: MonomialIdeal) -> tuple[int, ...]:
    """Square generator indices i with no generator x_k x_i for any k < i."""
    pairs = ideal.pair_set()
    return tuple(
        sorted(
            i
            for i in ideal.square_set()
            if not any((k, i) in pairs for k in range(1, i))
        )
    )


def construct_lq_order(ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """Explicit linear-quotients order for a quadratic ideal.

    Preconditions (PreconditionError with a witness triple otherwise):
    the generators must pass check_star and check_star_star.  The order:

      1. squarefree generators, descending in the lexicographic order
         with x_n > ... > x_1 (so larger top variable first, then larger
         bottom variable);
      2. each square x_i^2 placed immediately after x_k x_i where k is
         the smallest index below i occurring with i;
      3. squares with no such partner appended at the end, ascending.

    The result is verified by has_linear_quotients before being
    returned; a failure there is a Falsification, not an input error.
    """
    if ideal.degree != 2:
        raise InputError("this construction needs an ideal generated in degree 2")
    star = check_star(ideal)
    if not star:
        raise PreconditionError(
            f"closure condition on pairs fails at {star.witness}",
            witness=star.witness,
        )
    star2 = check_star_star(ideal)
    if not star2:
        raise PreconditionError(
            f"closure condition on squares fails at {star2.witness}",
            witness=star2.witness,
        )
    order = [g for g in ideal.gens if g.is_squarefree()]
    order.sort(key=lambda g: tuple(reversed(g.exps)), reverse=True)
    pairs = ideal.pair_set()
    leftovers = []
    for i in sorted(ideal.square_set()):
        square = monomial_from_support(ideal.n, (i, i))
        partners = [k for k in range(1, i) if (k, i) in pairs]
        if partners:
            u = monomial_from_support(ideal.n, (min(partners), i))
            order.insert(order.index(u) + 1, square)
        else:
            leftovers.append(square)
    order.extend(leftovers)
    verdict = has_linear_quotients(order)
    if not verdict:
        raise Falsification(
            "constructed order fails linear quotients at positions "
            f"{verdict.witness}: {[str(u) for u in order]}"
        )
    return tuple(order)


# candidate generators one find_lq_order search may try
LQ_SEARCH_BUDGET = 200_000


def find_lq_order(ideal: MonomialIdeal) -> tuple[Monomial, ...] | None:
    """Search all generator orders for one with linear quotients.

    Depth-first on an explicit stack, with two prunes: a generator is
    only appended when its colon by the current prefix is
    variable-generated, and dead prefix SETS are memoized (whether a
    next generator can extend depends on the set of chosen generators,
    not their order, so one failed set need never be revisited).  Each
    candidate tried costs one unit of LQ_SEARCH_BUDGET; BudgetExhausted
    is raised when it runs out, so None means a definitive no.
    """
    gens = list(ideal.gens)
    m = len(gens)
    if m <= 1:
        return tuple(gens)
    rows, ranked = _at_least([g.exps for g in gens])
    nodes = 0
    order: list[Monomial] = []
    chosen = 0  # bitmask over gens
    dead: set[int] = set()

    # nxt[d]: the generator index to try next at depth d, 0 on entry; the
    # generator appended at depth d is gens[nxt[d] - 1]
    nxt = [0]
    while nxt:
        if len(order) == m:
            return tuple(order)
        idx = m if nxt[-1] == 0 and chosen in dead else nxt[-1]
        while idx < m:
            if not chosen >> idx & 1:
                nodes += 1
                if nodes > LQ_SEARCH_BUDGET:
                    raise BudgetExhausted(
                        f"order search exceeded {LQ_SEARCH_BUDGET} nodes on {m} generators"
                    )
                if not _unwitnessed(rows, ranked[idx], chosen):
                    break
            idx += 1
        if idx < m:
            nxt[-1] = idx + 1
            nxt.append(0)
            order.append(gens[idx])
            chosen |= 1 << idx
            continue
        dead.add(chosen)
        nxt.pop()
        if nxt:
            chosen &= ~(1 << (nxt[-1] - 1))
            order.pop()
    return None
