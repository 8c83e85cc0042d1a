import hashlib
import json
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (
    brute_divides,
    brute_minimalize,
    brute_power,
    canonical_key,
    ideal_of,
    square_corpus,
    squarefree_corpus,
    sturmfels_ideal,
    terai_ideal,
)
import linres.monomials as monomials_mod
from linres.errors import InputError, ResourceGuard
from linres.monomials import (
    Monomial,
    MonomialIdeal,
    default_names,
    format_monomial,
    ideal_from_json,
    ideal_from_strings,
    ideal_to_json,
    monomial_from_support,
    parse_monomial,
)


def m(*exps) -> Monomial:
    return Monomial(tuple(exps))


class TestMonomial:
    def test_degree_support_squarefree(self):
        u = m(1, 0, 2)
        assert u.degree == 3
        assert u.support == (1, 3)
        assert not u.is_squarefree()
        assert m(1, 1, 0).is_squarefree()

    def test_gcd_lcm_divides(self):
        assert m(2, 0).lcm(m(1, 1)) == m(2, 1)

    def test_mul_div(self):
        assert m(1, 1) * m(0, 1) == m(1, 2)

    def test_ring_mismatch(self):
        with pytest.raises(InputError):
            m(1, 0).lcm(m(1, 0, 0))

    def test_list_exponents_kept_as_a_tuple(self):
        u = Monomial([1, 1])
        assert u.exps == (1, 1) and type(u.exps) is tuple
        assert u == Monomial((1, 1)) and hash(u) == hash(Monomial((1, 1)))

    def test_ideal_of_list_exponents_builds(self):
        ideal = MonomialIdeal(2, (Monomial([1, 1]),))
        assert ideal.gens == (m(1, 1),)

    def test_negative_exponent_rejected(self):
        with pytest.raises(InputError):
            Monomial((1, -1))

    def test_from_support_repeats_multiply(self):
        assert monomial_from_support(3, (2, 2)) == m(0, 2, 0)
        with pytest.raises(InputError):
            monomial_from_support(2, (3,))


class TestMinimalGenerators:
    def test_dedup(self):
        ideal = MonomialIdeal(2, (m(1, 1), m(1, 1)))
        assert ideal.gens == (m(1, 1),)

    def test_divisibility_prunes(self):
        ideal = MonomialIdeal(2, (m(1, 0), m(1, 1)))
        assert ideal.gens == (m(1, 0),)

    def test_terai_generators_already_minimal(self):
        assert terai_ideal().num_gens == 10

    def test_empty_input_is_zero_ideal(self):
        ideal = MonomialIdeal(3, ())
        assert ideal.is_zero()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InputError):
            MonomialIdeal(2, (m(1, 0, 0),))

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            max_size=6,
        )
    )
    def test_idempotent_and_antichain(self, exps):
        monomials = [Monomial(e) for e in exps if sum(e) > 0]
        ideal = MonomialIdeal(3, tuple(monomials))
        again = MonomialIdeal(3, ideal.gens)
        assert again == ideal
        for a in ideal.gens:
            for b in ideal.gens:
                assert a == b or not brute_divides(a.exps, b.exps)

    @given(
        st.lists(
            st.tuples(*[st.integers(0, 3)] * 4),
            max_size=14,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_mixed_degrees_match_brute_force(self, exps):
        monomials = [Monomial(e) for e in exps if sum(e) > 0]
        got = MonomialIdeal(4, tuple(monomials)).gens
        assert sorted(got, key=lambda g: g.exps) == sorted(
            brute_minimalize(monomials), key=lambda g: g.exps
        )

    @given(
        st.lists(
            st.tuples(*[st.integers(0, 3)] * 4),
            max_size=14,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_mixed_degree_order_is_the_canonical_key(self, exps):
        monomials = [Monomial(e) for e in exps if sum(e) > 0]
        assume(len({g.degree for g in monomials}) > 1)
        got = MonomialIdeal(4, tuple(monomials)).gens
        assert list(got) == sorted(brute_minimalize(monomials), key=canonical_key)

    def test_equigenerated_power_makes_no_divisibility_test(self, monkeypatch):
        # the products all share one degree, so none can divide another;
        # the mixed-degree ideal shows the counted test is the one in use
        calls = []
        original = monomials_mod._divides

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(monomials_mod, "_divides", counting)
        assert MonomialIdeal(2, (m(1, 0), m(1, 1), m(0, 2))).gens == (m(1, 0), m(0, 2))
        assert calls
        calls.clear()
        cube = sturmfels_ideal().power(3)
        assert cube.is_equigenerated() and cube.num_gens > 0
        assert calls == []

    def test_generator_digest(self):
        # the generators of I, I^2, I^3, the polarization and the reversal
        # relabeling of every corpus ideal, pinned byte for byte
        digest = hashlib.sha256()
        for ideal in [*squarefree_corpus(5), *square_corpus(4)]:
            reversal = tuple(range(ideal.n, 0, -1))
            for derived in (ideal, ideal.power(2), ideal.power(3), ideal.polarize(),
                            ideal.relabel(reversal)):
                digest.update(repr([g.exps for g in derived.gens]).encode())
        assert digest.hexdigest() == (
            "e8508743cade2f9efed5208e949e2aaacb3bf027476f3bffc9b28c96e6f9feed")


class TestIdeal:
    def test_unit_ideal_rejected(self):
        with pytest.raises(InputError):
            MonomialIdeal(2, (m(0, 0),))

    def test_zero_ideal(self):
        z = MonomialIdeal(3, ())
        assert z.is_zero() and z.degree is None

    def test_mixed_degree_has_no_common_degree(self):
        ideal = MonomialIdeal(2, (m(1, 0), m(0, 2)))
        assert ideal.degree is None
        assert not ideal.is_equigenerated()

    def test_canonical_generator_order_is_stable(self):
        a = ideal_of(3, (2, 3), (1, 2), (1, 3))
        b = ideal_of(3, (1, 3), (2, 3), (1, 2))
        assert a == b
        assert a.gens == b.gens


class TestPower:
    def test_square_of_maximal_ideal(self):
        assert MonomialIdeal(2, (m(1, 0), m(0, 1))).power(2) == ideal_of(
            2, (1, 1), (1, 2), (2, 2)
        )

    def test_two_disjoint_edges(self):
        got = ideal_of(4, (1, 2), (3, 4)).power(2)
        assert got == ideal_of(4, (1, 1, 2, 2), (1, 2, 3, 4), (3, 3, 4, 4))

    def test_first_power_is_identity(self):
        ideal = sturmfels_ideal()
        assert ideal.power(1) == ideal

    def test_sturmfels_square_matches_brute_force(self):
        # oracle: all pairwise products, then a naive divisibility sweep
        ideal = sturmfels_ideal()
        products = [u * v for u in ideal.gens for v in ideal.gens]
        expected = brute_minimalize(products)
        got = ideal.power(2)
        assert sorted(g.exps for g in got.gens) == sorted(g.exps for g in expected)

    def test_k_zero_rejected(self):
        with pytest.raises(InputError):
            ideal_of(2, (1, 2)).power(0)

    def test_product_cap(self, monkeypatch):
        # 8 generators: C(9, 2) = 36 products at k = 2
        monkeypatch.setattr(monomials_mod, "POWER_PRODUCT_CAP", 36)
        assert sturmfels_ideal().power(2).num_gens == 36
        monkeypatch.setattr(monomials_mod, "POWER_PRODUCT_CAP", 35)
        with pytest.raises(ResourceGuard, match="^36 products of generators exceed the cap 35$"):
            sturmfels_ideal().power(2)

    def test_slots_wider_than_a_byte(self):
        # 2 * 200 and 3 * 150 pass 255, the largest one-byte slot
        ideal = MonomialIdeal(3, (m(200, 1, 0), m(0, 150, 3), m(7, 0, 1)))
        for k in (1, 2, 3):
            assert list(ideal.power(k).gens) == brute_power(ideal, k)

    @given(
        st.lists(
            st.tuples(*[st.integers(0, 300)] * 3),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_large_exponents_match_the_product_definition(self, exps, k):
        monomials = [Monomial(e) for e in exps if sum(e) > 0]
        assume(monomials)
        ideal = MonomialIdeal(3, tuple(monomials))
        assert list(ideal.power(k).gens) == brute_power(ideal, k)

    def test_corpus_sample_to_the_fourth_power(self):
        corpus = [*squarefree_corpus(5), *square_corpus(4)]
        for ideal in random.Random(2026).sample(corpus, 40):
            for k in (2, 3, 4):
                assert list(ideal.power(k).gens) == brute_power(ideal, k), (ideal, k)

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 2),
        st.integers(1, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_additivity(self, exps, k1, k2):
        monomials = [Monomial(e) for e in exps if sum(e) > 0]
        if not monomials:
            return
        ideal = MonomialIdeal(3, tuple(monomials))
        lhs = ideal.power(k1 + k2)
        products = [u * v for u in ideal.power(k1).gens for v in ideal.power(k2).gens]
        assert lhs == MonomialIdeal(3, tuple(products))


class TestInputErrorTexts:
    # each row names its own id (the one its message once gave it), so
    # adding or removing a row renames no other row
    @pytest.mark.parametrize("build, text", [
        pytest.param(lambda: Monomial((1, -1)), "exponents must be non-negative integers, got (1, -1)",
                     id="<lambda>-exponents must be non-negative integers, got (1, -1)"),
        pytest.param(lambda: Monomial((1, 2.0)), "exponents must be non-negative integers, got (1, 2.0)",
                     id="<lambda>-exponents must be non-negative integers, got (1, 2.0)"),
        pytest.param(lambda: Monomial((0, "a")), "exponents must be non-negative integers, got (0, 'a')",
                     id="<lambda>-exponents must be non-negative integers, got (0, 'a')"),
        pytest.param(lambda: m(1, 0).lcm(m(1,)), "monomials live in different rings: 2 vs 1 variables",
                     id="<lambda>-monomials live in different rings: 2 vs 1 variables0"),
        pytest.param(lambda: m(1, 0) * m(1,), "monomials live in different rings: 2 vs 1 variables",
                     id="<lambda>-monomials live in different rings: 2 vs 1 variables1"),
        pytest.param(lambda: monomial_from_support(2, (3,)), "variable index 3 out of range 1..2",
                     id="<lambda>-variable index 3 out of range 1..2"),
        pytest.param(lambda: MonomialIdeal(-1, ()), "need n >= 0, got -1",
                     id="<lambda>-need n >= 0, got -1"),
        pytest.param(lambda: MonomialIdeal(2, (m(1, 0), m(1, 0, 0))),
                     "generator (1, 0, 0) has 3 variables, ideal has 2",
                     id="<lambda>-generator (1, 0, 0) has 3 variables, ideal has 2"),
        pytest.param(lambda: MonomialIdeal(2, (m(1, 0), m(0, 0))),
                     "unit ideal rejected: generator of degree 0",
                     id="<lambda>-unit ideal rejected: generator of degree 0_0"),
        # the first offending generator names the error
        pytest.param(lambda: MonomialIdeal(2, (m(0, 0), m(1,))),
                     "unit ideal rejected: generator of degree 0",
                     id="<lambda>-unit ideal rejected: generator of degree 0_1"),
        pytest.param(lambda: MonomialIdeal(2, (m(1,), m(0, 0))),
                     "generator (1,) has 1 variables, ideal has 2",
                     id="<lambda>-generator (1,) has 1 variables, ideal has 2"),
        pytest.param(lambda: ideal_of(2, (1, 2)).power(0), "power must be a positive integer, got 0",
                     id="<lambda>-power must be a positive integer, got 0"),
        pytest.param(lambda: ideal_of(2, (1, 2)).relabel((1, 1)),
                     "labeling (1, 1) is not a permutation of 1..2",
                     id="<lambda>-labeling (1, 1) is not a permutation of 1..2"),
        pytest.param(lambda: terai_ideal().polarize(),
                     "operation requires generation in degree 2, found degree 3",
                     id="<lambda>-operation requires generation in degree 2, found degree 3"),
    ])
    def test_text(self, build, text):
        with pytest.raises(InputError, match=f"^{re.escape(text)}$"):
            build()


class TestSquarefreePartAndPolarize:
    def test_polarize_single_square(self):
        assert ideal_of(1, (1, 1)).polarize() == ideal_of(2, (1, 2))

    def test_polarize_mixed(self):
        got = ideal_of(2, (1, 1), (1, 2)).polarize()
        assert got == ideal_of(3, (1, 3), (1, 2))

    def test_polarize_two_squares(self):
        got = ideal_of(2, (1, 1), (2, 2)).polarize()
        assert got == ideal_of(4, (1, 3), (2, 4))

    def test_polarize_is_squarefree_same_size(self):
        for ideal in (
            ideal_of(3, (1, 1), (2, 2), (1, 3)),
            ideal_of(2, (1, 2)),
            terai_ideal(),
        ):
            if ideal.degree != 2:
                continue
            p = ideal.polarize()
            assert p.is_squarefree()
            assert p.num_gens == ideal.num_gens

    def test_degree_three_rejected(self):
        with pytest.raises(InputError):
            terai_ideal().polarize()


class TestRelabel:
    def test_relabel_permutes_variables(self):
        ideal = ideal_of(3, (1, 2))
        assert ideal.relabel((2, 3, 1)) == ideal_of(3, (2, 3))

    def test_relabel_requires_permutation(self):
        with pytest.raises(InputError):
            ideal_of(2, (1, 2)).relabel((1, 1))


class TestParsingAndJson:
    def test_juxtaposed_letters(self):
        assert parse_monomial("abd", list("abcd")) == m(1, 1, 0, 1)

    def test_starred_with_exponent(self):
        names = default_names(3)
        assert parse_monomial("x1*x3^2", names) == m(1, 0, 2)

    def test_caret_on_letters(self):
        assert parse_monomial("a^2", list("ab")) == m(2, 0)

    def test_unknown_variable(self):
        with pytest.raises(InputError):
            parse_monomial("az", list("ab"))

    @pytest.mark.parametrize("text, names", [
        ("x1^*x2", ["x1", "x2"]),
        ("x1^", ["x1", "x2"]),
        ("x1^+2", ["x1", "x2"]),
        ("x1^ 2", ["x1", "x2"]),
        ("x1*x2^", ["x1", "x2"]),
        ("x1^-1*x2", ["x1", "x2"]),
        ("x1^\u00b2", ["x1", "x2"]),
        ("a^b", list("ab")),
        ("a^", list("ab")),
        ("a^+2", list("ab")),
    ])
    def test_caret_needs_ascii_digits(self, text, names):
        with pytest.raises(InputError, match="bad exponent"):
            parse_monomial(text, names)

    def test_zero_exponent(self):
        with pytest.raises(InputError, match="exponent must be >= 1"):
            parse_monomial("x1^0*x2", ["x1", "x2"])

    def test_format_round_trip(self):
        names = default_names(4)
        for u in (m(1, 1, 0, 0), m(0, 2, 0, 1), m(3, 0, 0, 0)):
            assert parse_monomial(format_monomial(u, names), names) == u

    def test_ideal_json_round_trip(self):
        ideal = ideal_of(3, (1, 1), (2, 3))
        blob = json.dumps(ideal_to_json(ideal, default_names(3)))
        back, names = ideal_from_json(json.loads(blob))
        assert back == ideal
        assert names == default_names(3)

    def test_json_text_is_no_ideal(self):
        # JSON is decoded once, by the caller: a string is a value of the wrong shape
        text = json.dumps({"variables": ["x", "y"], "generators": ["x*y"]})
        with pytest.raises(InputError, match='ideal JSON needs keys "variables" and "generators"'):
            ideal_from_json(text)

    @pytest.mark.parametrize("generators", [[1], [None], [["a"]], ["a", {"b": 1}], "ab"])
    def test_generators_must_be_strings(self, generators):
        with pytest.raises(InputError, match="must be a list of monomial strings"):
            ideal_from_json({"variables": ["a", "b"], "generators": generators})

    def test_from_strings(self):
        got = ideal_from_strings(["ab", "b^2"], list("ab"))
        assert got == ideal_of(2, (1, 2), (2, 2))
