"""Exact monomial and monomial-ideal arithmetic.

Monomials are exponent vectors over a fixed ambient variable set
x1..xn.  A MonomialIdeal always stores its unique minimal generating
set in a canonical order (graded degree, then lexicographic on exponent
vectors with variable 1 most significant, largest first), so every
downstream report is reproducible byte for byte.  The order comes from
two stable sorts on the exponent tuples themselves, descending and then
by their sum, so no per-monomial key is built in Python; only a
mixed-degree set is swept for divisibility.

MonomialIdeal.power adds packed exponent ints rather than tuples: each
generator is one int with a slot per variable, variable 1 in the top
slot, each slot wide enough for k times the largest exponent, so no sum
of k generators carries from one slot into the next.  Every distinct
product is unpacked once.

The zero ideal is representable (no generators); the unit ideal is
rejected, since none of the resolution-theoretic questions asked here
make sense for it.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import attrgetter, le

from .errors import InputError, ResourceGuard
from .value import Value


# the most k-fold products of generators one MonomialIdeal.power may form
POWER_PRODUCT_CAP = 1_000_000

_exps = attrgetter("exps")


class Monomial(Value):
    """A monomial as a tuple of non-negative exponents."""

    __slots__ = _fields = ("exps",)

    def __init__(self, exps: tuple[int, ...]):
        # a list or other sequence is kept as a tuple, so equality and
        # hashing do not depend on the type given; each exponent's type
        # must be int itself, so a bool (an int subclass) is refused
        try:
            exps = tuple(exps)
        except TypeError:
            raise InputError(f"exponents must be non-negative integers, got {exps!r}") from None
        if not {int}.issuperset(map(type, exps)) or (exps and min(exps) < 0):
            raise InputError(f"exponents must be non-negative integers, got {exps}")
        object.__setattr__(self, "exps", exps)

    @property
    def n(self) -> int:
        return len(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def support(self) -> tuple[int, ...]:
        """1-based indices of variables appearing in this monomial."""
        return tuple(i + 1 for i, e in enumerate(self.exps) if e > 0)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def _check_same_ring(self, other: "Monomial") -> None:
        if len(self.exps) != len(other.exps):
            raise InputError(
                f"monomials live in different rings: {len(self.exps)} vs {len(other.exps)} variables"
            )

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check_same_ring(other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_same_ring(other)
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __str__(self) -> str:
        return format_monomial(self, default_names(self.n))


def monomial_from_support(n: int, indices) -> Monomial:
    """Monomial Π x_i over the given 1-based indices (repeats multiply)."""
    exps = [0] * n
    for i in indices:
        if not 1 <= i <= n:
            raise InputError(f"variable index {i} out of range 1..{n}")
        exps[i - 1] += 1
    return Monomial(tuple(exps))


class MonomialIdeal(Value):
    """A monomial ideal, held by its minimal generators in canonical order.

    The constructor minimalizes and sorts whatever generators it is
    given, so two ideals compare equal, and hash alike, exactly when they
    are the same ideal in the same number of variables.
    ``MonomialIdeal(n, ())`` is the zero ideal.
    """

    # no __slots__: the cached _degree_two lives in the instance dict
    _fields = ("n", "gens")

    def __init__(self, n: int, gens: tuple[Monomial, ...] = ()):
        if n < 0:
            raise InputError(f"need n >= 0, got {n}")
        gens = tuple(gens)
        exps = tuple(map(_exps, gens))
        # exponents are non-negative, so any() is "degree > 0"
        if not (all(map(n.__eq__, map(len, exps))) and all(map(any, exps))):
            for g in gens:  # the first offending generator names the error
                if g.n != n:
                    raise InputError(f"generator {g.exps} has {g.n} variables, ideal has {n}")
                if g.degree == 0:
                    raise InputError("unit ideal rejected: generator of degree 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", _minimalize(dict(zip(exps, gens))))

    @property
    def num_gens(self) -> int:
        return len(self.gens)

    def is_zero(self) -> bool:
        return not self.gens

    @property
    def degree(self) -> int | None:
        """Common generator degree, or None for a mixed-degree ideal."""
        # the generators are sorted by degree: the ends bound the rest
        if self.gens and self.gens[0].degree == self.gens[-1].degree:
            return self.gens[0].degree
        return None

    def is_equigenerated(self) -> bool:
        return not self.gens or self.degree is not None

    def is_squarefree(self) -> bool:
        return max(map(max, map(_exps, self.gens)), default=0) <= 1

    def power(self, k: int) -> "MonomialIdeal":
        """I^k via all k-fold products of generators, then minimalization;
        ResourceGuard, before any product is formed, when the C(m + k - 1, k)
        products of the m generators exceed POWER_PRODUCT_CAP.

        The generators are added as packed ints: the exponent of x_i is
        shifted by width * (n - i) bits, and `width` bits hold k times the
        largest exponent, so a sum of k packed generators is their packed
        product.  Each distinct sum is unpacked once, slot by slot.
        """
        if k < 1:
            raise InputError(f"power must be a positive integer, got {k}")
        if self.is_zero():
            return self
        products = math.comb(self.num_gens + k - 1, k)
        if products > POWER_PRODUCT_CAP:
            raise ResourceGuard(
                f"{products} products of generators exceed the cap {POWER_PRODUCT_CAP}"
            )
        exps = [g.exps for g in self.gens]
        width = (k * max(map(max, exps))).bit_length()
        shifts = range(width * (self.n - 1), -1, -width)  # variable 1 in the top slot
        mask = (1 << width) - 1
        packed = [sum(map(int.__lshift__, e, shifts)) for e in exps]
        sums = set(map(sum, itertools.combinations_with_replacement(packed, k)))
        return MonomialIdeal(self.n, tuple(
            Monomial(tuple(map(mask.__and__, map(p.__rshift__, shifts)))) for p in sums))

    def polarize(self) -> "MonomialIdeal":
        """Replace each generator x_i^2 by x_i * y_j with a fresh variable y_j.

        Only defined for ideals generated in degree 2.  The fresh
        variables are appended after x_n, one per square, in ascending
        order of the square's index; squarefree generators are kept as
        they are.  The result is squarefree with the same number of
        generators.
        """
        self._require_degree_two()
        squares = sorted(self.square_set())
        n_new = self.n + len(squares)
        slot = {i: self.n + j for j, i in enumerate(squares)}
        new_gens = []
        for g in self.gens:
            exps = list(g.exps) + [0] * len(squares)
            if not g.is_squarefree():
                i = g.support[0]
                exps[i - 1] = 1
                exps[slot[i]] = 1
            new_gens.append(Monomial(tuple(exps)))
        return MonomialIdeal(n_new, tuple(new_gens))

    def relabel(self, labeling: tuple[int, ...]) -> "MonomialIdeal":
        """Apply a variable relabeling: old variable i becomes x_{labeling[i-1]}."""
        if sorted(labeling) != list(range(1, self.n + 1)):
            raise InputError(f"labeling {labeling} is not a permutation of 1..{self.n}")
        source = [0] * self.n  # new variable j + 1 is old variable source[j] + 1
        for i, new in enumerate(labeling):
            source[new - 1] = i
        return MonomialIdeal(self.n, tuple(
            Monomial(tuple(map(g.exps.__getitem__, source))) for g in self.gens))

    @functools.cached_property
    def _degree_two(self) -> tuple[frozenset[tuple[int, int]], frozenset[int]]:
        """The degree-2 generators read once, on the first pair_set or
        square_set call: x_i x_j as the pair (i, j), i < j, and x_i^2 as i."""
        pairs, squares = set(), set()
        for g in self.gens:
            if g.degree == 2:
                s = g.support
                if len(s) == 2:
                    pairs.add(s)
                else:
                    squares.add(s[0])
        return frozenset(pairs), frozenset(squares)

    def pair_set(self) -> frozenset[tuple[int, int]]:
        """Squarefree degree-2 generators as (i, j) pairs with i < j."""
        return self._degree_two[0]

    def square_set(self) -> frozenset[int]:
        """Indices i with x_i^2 among the generators."""
        return self._degree_two[1]

    def _require_degree_two(self) -> None:
        if any(g.degree != 2 for g in self.gens):
            bad = next(g for g in self.gens if g.degree != 2)
            raise InputError(f"operation requires generation in degree 2, found degree {bad.degree}")

    def __str__(self) -> str:
        names = default_names(self.n)
        return "(" + ", ".join(format_monomial(g, names) for g in self.gens) + ")"


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Does x^a divide x^b?"""
    return all(map(le, a, b))


def _minimalize(by_exps: dict[tuple[int, ...], Monomial]) -> tuple[Monomial, ...]:
    """Unique minimal generating set, canonically sorted, of the distinct
    generators keyed by their exponents."""
    # two stable sorts: exponent-lex descending, then degree ascending
    ranked = sorted(by_exps, reverse=True)
    ranked.sort(key=sum)
    if ranked and sum(ranked[0]) != sum(ranked[-1]):
        # a same-degree divisor is a duplicate, already removed by the
        # dict, so one degree alone needs no sweep, and the sweep tests
        # only the strictly lower degrees
        kept: list[tuple[int, ...]] = []
        lower = 0  # kept[:lower] are the kept generators of lower degree than e
        degree = None
        for e in ranked:
            if sum(e) != degree:
                degree = sum(e)
                lower = len(kept)
            if not any(map(_divides, itertools.islice(kept, lower), itertools.repeat(e))):
                kept.append(e)
        ranked = kept
    return tuple(map(by_exps.__getitem__, ranked))


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------

def default_names(n: int) -> list[str]:
    return [f"x{i}" for i in range(1, n + 1)]


def parse_monomial(s: str, variables: list[str]) -> Monomial:
    """Parse a generator string against a variable list.

    Two syntaxes are accepted: a ``*``-separated factor list where each
    factor is ``name`` or ``name^e`` (works for any variable names), and
    plain juxtaposition of single-letter variables with optional ``^e``
    after a letter (e.g. ``"abd"``, ``"a^2b"``).  Every ``^`` must be
    followed directly by the ASCII digits of an exponent >= 1.
    """
    s = s.strip()
    if not s:
        raise InputError("empty generator string")
    index = {name: i for i, name in enumerate(variables)}
    exps = [0] * len(variables)
    if s == "1" and "1" not in index:
        # the unit monomial parses; MonomialIdeal rejects it with a clear message
        return Monomial(tuple(exps))

    def add_factor(factor: str) -> None:
        name, caret, power = factor.strip().partition("^")
        name = name.strip()
        if name not in index:
            raise InputError(f"unknown variable {name!r} in generator {s!r}")
        e = 1
        if caret:
            # int() alone would take "+2", " 2" and non-ASCII digits
            if not (power.isascii() and power.isdigit()):
                raise InputError(f"bad exponent {power!r} in generator {s!r}")
            e = int(power)
            if e < 1:
                raise InputError(f"exponent must be >= 1 in generator {s!r}")
        exps[index[name]] += e

    if "*" in s:
        for factor in s.split("*"):
            add_factor(factor)
    elif all(len(name) == 1 for name in variables):
        pos = 0
        while pos < len(s):
            ch = s[pos]
            pos += 1
            if pos < len(s) and s[pos] == "^":
                pos += 1
                start = pos
                while pos < len(s) and s[pos].isdigit():
                    pos += 1
                if start == pos:
                    raise InputError(f"bad exponent in generator {s!r}")
                add_factor(ch + "^" + s[start:pos])
            else:
                add_factor(ch)
    else:
        add_factor(s)

    return Monomial(tuple(exps))


def format_monomial(m: Monomial, variables: list[str]) -> str:
    if len(variables) != m.n:
        raise InputError("variable list does not match monomial length")
    if m.degree == 0:
        return "1"
    single = all(len(name) == 1 for name in variables)
    parts = []
    for name, e in zip(variables, m.exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "".join(parts) if single else "*".join(parts)


def ideal_from_json(obj) -> tuple[MonomialIdeal, list[str]]:
    """Read ``{"variables": [...], "generators": [...]}`` from parsed JSON;
    any other value, a string included, is an InputError."""
    if not isinstance(obj, dict) or "variables" not in obj or "generators" not in obj:
        raise InputError('ideal JSON needs keys "variables" and "generators"')
    variables = obj["variables"]
    if (not isinstance(variables, list) or not variables
            or any(not isinstance(v, str) or not v for v in variables)
            or len(set(variables)) != len(variables)):
        raise InputError('"variables" must be a non-empty list of distinct names')
    gens_field = obj["generators"]
    if not isinstance(gens_field, list) or any(not isinstance(s, str) for s in gens_field):
        raise InputError('"generators" must be a list of monomial strings')
    gens = [parse_monomial(s, variables) for s in gens_field]
    return MonomialIdeal(len(variables), tuple(gens)), list(variables)


def ideal_to_json(ideal: MonomialIdeal, variables: list[str]) -> dict:
    if len(variables) != ideal.n:
        raise InputError("variable list does not match ideal")
    return {
        "variables": list(variables),
        "generators": [format_monomial(g, variables) for g in ideal.gens],
    }


def ideal_from_strings(generators, variables) -> MonomialIdeal:
    """Convenience constructor from generator strings and variable names."""
    variables = list(variables)
    return MonomialIdeal(len(variables), tuple(parse_monomial(s, variables) for s in generators))
