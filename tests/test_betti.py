import functools
import hashlib
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    all_graphs,
    brute_koszul_betti,
    brute_strand_facets,
    co_cycle,
    co_path,
    cohomology_dims,
    homology_dims,
    ideal_of,
    rank_bareiss,
    rank_mod_p,
    square_corpus,
    squarefree_corpus,
    sturmfels_ideal,
    terai_ideal,
)
import linres.betti as betti_mod
from linres.betti import (
    GF2,
    QQ,
    BettiTable,
    FieldSpec,
    check_polarization,
    hochster_oracle,
    is_linear_resolution,
    koszul_betti,
    koszul_tables,
    powers_linear_report,
)
from linres.errors import (
    Falsification,
    InputError,
    ResourceGuard,
)
from linres.graphs import complement, edge_ideal, graph_of_ideal, is_chordal
from linres.rank import is_prime, rank_gf2, rank_sparse
from linres.monomials import Monomial, MonomialIdeal


class TestFieldSpec:
    def test_labels(self):
        assert QQ.label == "Q" and GF2.label == "GF(2)"

    @pytest.mark.parametrize("text", ["Q", "QQ", "GF2", "GF:2", "GF(7)"])
    def test_parse_spellings(self, text):
        FieldSpec.parse(text)

    @pytest.mark.parametrize("text, p", [("gf2", 2), ("Gf:3", 3), ("gf(7)", 7), (" GF:5 ", 5)])
    def test_parse_in_any_case(self, text, p):
        assert FieldSpec.parse(text).p == p

    def test_parse_rejects(self):
        with pytest.raises(InputError):
            FieldSpec.parse("R")
        with pytest.raises(InputError):
            FieldSpec(4)

    @pytest.mark.parametrize("text", ["GF(2", "GF2)", "GF:(2)"])
    def test_parse_rejects_other_spellings(self, text):
        # the parentheses come in a pair around the digits, or not at all
        with pytest.raises(InputError):
            FieldSpec.parse(text)

    @pytest.mark.parametrize("text", ["GF\u00b2", "GF(\u0663)"])
    def test_parse_rejects_non_ascii_digits(self, text):
        # str.isdigit accepts a superscript two and an Arabic-Indic three
        with pytest.raises(InputError):
            FieldSpec.parse(text)


class TestIsPrime:
    def test_mersenne_61_accepted_fast(self):
        assert is_prime(2**61 - 1)
        assert FieldSpec.parse("GF:2305843009213693951").p == 2**61 - 1

    @pytest.mark.parametrize("p", [561, (2**31 - 1) * (2**61 - 1)])
    def test_composites_rejected(self, p):
        assert not is_prime(p)
        with pytest.raises(InputError):
            FieldSpec(p)

    def test_matches_trial_division_below_ten_thousand(self):
        def trial(p):
            return p >= 2 and all(p % f for f in range(2, int(p**0.5) + 1))

        assert all(is_prime(p) == trial(p) for p in range(10_000))

    def test_probable_prime_beyond_the_exact_range_is_an_input_error(self):
        with pytest.raises(InputError):
            is_prime(2**89 - 1)


class TestHomologyOraclePair:
    """homology_dims and cohomology_dims are assembled independently;
    over a field they must agree in complementary conventions."""

    def faces_of(self, facets):
        faces = set()
        for f in facets:
            for r in range(len(f) + 1):
                faces.update(frozenset(c) for c in itertools.combinations(f, r))
        return sorted(faces, key=lambda f: (len(f), sorted(f)))

    def test_circle(self):
        faces = self.faces_of([(1, 2), (2, 3), (1, 3)])
        assert homology_dims(faces, QQ) == {1: 1}
        assert cohomology_dims(faces, QQ) == {1: 1}

    def test_two_points(self):
        faces = self.faces_of([(1,), (2,)])
        assert homology_dims(faces, QQ) == {0: 1}

    def test_sphere_boundary(self):
        faces = self.faces_of([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
        assert homology_dims(faces, QQ) == {2: 1}

    def test_projective_plane_characteristic(self):
        # 6-vertex triangulation; torsion shows only over GF(2)
        triangles = [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
        ]
        # this list must triangulate a surface without boundary
        edge_count: dict = {}
        for t in triangles:
            for e in itertools.combinations(t, 2):
                edge_count[e] = edge_count.get(e, 0) + 1
        assert set(edge_count.values()) == {2}
        faces = self.faces_of(triangles)
        assert homology_dims(faces, QQ) == {}
        assert homology_dims(faces, GF2) == {1: 1, 2: 1}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_agreement_random(self, data):
        facets = data.draw(
            st.lists(
                st.sets(st.integers(1, 5), min_size=1, max_size=4),
                min_size=1,
                max_size=5,
            )
        )
        faces = self.faces_of([tuple(sorted(f)) for f in facets])
        for field in (QQ, GF2, FieldSpec(3)):
            assert homology_dims(faces, field) == cohomology_dims(faces, field)


class TestKoszulBetti:
    def test_complete_intersection(self):
        table = koszul_betti(ideal_of(4, (1, 2), (3, 4)))
        assert table.entries == {(0, 2): 2, (1, 4): 1}
        assert table.regularity == 3
        assert not table.is_linear

    def test_two_variables(self):
        table = koszul_betti(MonomialIdeal(2, (Monomial((1, 0)), Monomial((0, 1)))))
        assert table.entries == {(0, 1): 2, (1, 2): 1}

    def test_zero_ideal_rejected(self):
        with pytest.raises(InputError):
            koszul_betti(MonomialIdeal(2, ()))

    def test_terai_tables(self):
        ideal = terai_ideal()
        # oracle first: the independent subcomplex route fixes the numbers
        expect_q = hochster_oracle(ideal, QQ)
        expect_2 = hochster_oracle(ideal, GF2)
        got_q = koszul_betti(ideal, QQ)
        got_2 = koszul_betti(ideal, GF2)
        assert got_q.entries == expect_q.entries
        assert got_2.entries == expect_2.entries
        # pinned verdicts: linear over Q, not over GF(2)
        assert got_q.is_linear and got_q.regularity == 3
        assert not got_2.is_linear
        assert got_2.regularity == 4
        assert got_q.entries == {(0, 3): 10, (1, 4): 15, (2, 5): 6}
        assert got_2.entries == {
            (0, 3): 10, (1, 4): 15, (2, 5): 6, (2, 6): 1, (3, 6): 1,
        }

    def test_more_than_64_variables(self):
        # strand faces are vertex bitmasks; x70 sits above bit 63
        wide = ideal_of(70, (1, 2), (1, 70), (2, 70))
        triangle = ideal_of(3, (1, 2), (1, 3), (2, 3))
        assert koszul_betti(wide, QQ).entries == koszul_betti(triangle, QQ).entries

    def test_resource_guard(self, monkeypatch):
        monkeypatch.setattr(betti_mod, "MULTIDEGREE_CAP", 3)
        with pytest.raises(ResourceGuard):
            koszul_betti(terai_ideal(), QQ)


GF3 = FieldSpec(3)


@st.composite
def monomial_ideals(draw):
    """Nonzero ideals in n <= 4 variables, with squares and mixed degrees."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    gens = draw(st.lists(exps, min_size=1, max_size=6))
    return MonomialIdeal(n, tuple(Monomial(e) for e in gens))


class TestKoszulAgainstBruteForce:
    """koszul_betti skips multidegrees; the brute-force scan skips none.
    One koszul_tables walk over all three fields must give the same tables."""

    @staticmethod
    def check(ideal):
        tables = koszul_tables(ideal, (QQ, GF2, GF3))
        assert list(tables) == ["Q", "GF(2)", "GF(3)"]
        for field in (QQ, GF2, GF3):
            brute = brute_koszul_betti(ideal, field).entries
            assert koszul_betti(ideal, field).entries == brute
            assert tables[field.label].field == field
            assert tables[field.label].entries == brute

    @given(monomial_ideals())
    @settings(max_examples=80, deadline=None)
    def test_random_ideals(self, ideal):
        self.check(ideal)

    @pytest.mark.parametrize("build", [sturmfels_ideal, terai_ideal])
    @pytest.mark.parametrize("k", [2, 3])
    def test_powers(self, build, k):
        self.check(build().power(k))

    @pytest.mark.parametrize("gens", [
        [(2,)], [(3,)], [(2,), (3,)],  # one variable; x1^2, x1^3 is x1^2
        # the last variable divides no generator
        [(1, 1, 0), (0, 1, 1), (1, 0, 1)], [(2, 0, 0), (1, 1, 0), (0, 2, 0)],
        # its exponents up to 4, every one of them at some generator
        [(1, 0, 4), (0, 2, 3), (2, 1, 2), (0, 3, 1), (3, 0, 0)],
        [(1, 1, 0, 4), (0, 1, 1, 3), (1, 0, 1, 2), (0, 2, 0, 1), (2, 0, 0, 0)],
        [(1, 4), (2, 3), (3, 2), (4, 1), (5, 0)],
    ])
    def test_leaves_at_the_edges(self, gens):
        # a leaf is built only at a least exponent of the last variable:
        # the tables are those of the full scan over every multidegree
        ideal = MonomialIdeal(len(gens[0]), tuple(Monomial(g) for g in gens))
        tables = koszul_tables(ideal, (QQ, GF2))
        for field in (QQ, GF2):
            assert tables[field.label].entries == brute_koszul_betti(ideal, field).entries

    def test_one_table_per_label(self):
        tables = koszul_tables(terai_ideal(), (QQ, QQ, GF2))
        assert list(tables) == ["Q", "GF(2)"]
        assert tables["Q"].is_linear and not tables["GF(2)"].is_linear

    @staticmethod
    def count_homology(monkeypatch) -> list[frozenset]:
        """Patch _strand_homology to record each call's facet set (1-based)."""
        calls = []
        original = betti_mod._strand_homology

        def counting(facets, fields):
            calls.append(frozenset(
                frozenset(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)
                for mask in facets))
            return original(facets, fields)

        monkeypatch.setattr(betti_mod, "_strand_homology", counting)
        return calls

    @staticmethod
    def shape(facets: frozenset) -> frozenset:
        """A facet set's vertices renumbered 1, 2, ... by (the number of
        facets holding them, vertex), when a facet has 4 or more vertices."""
        if max(map(len, facets)) <= 3:
            return facets
        held = {v: sum(v in f for f in facets) for f in facets for v in f}
        new = {v: i + 1 for i, v in enumerate(sorted(held, key=lambda v: (held[v], v)))}
        return frozenset(frozenset(new[v] for v in f) for f in facets)

    def test_homology_only_on_non_cone_strands(self, monkeypatch):
        # each distinct shape of the live facet sets is ranked once: the
        # relabeled set, which has the same homology over every field
        calls = self.count_homology(monkeypatch)
        for power in (terai_ideal().power(2), sturmfels_ideal().power(3),
                      co_cycle(6).power(2)):
            calls.clear()
            koszul_tables(power, (QQ, GF2))

            box = [range(max(g.exps[v] for g in power.gens) + 1) for v in range(power.n)]
            live = []
            for a in itertools.product(*box):
                facets = brute_strand_facets(power, a)
                maximal = [f for f in facets if not any(f < other for other in facets)]
                if maximal and not frozenset.intersection(*maximal):
                    live.append(frozenset(maximal))
            assert 0 < len(live) < sum(
                1 for a in itertools.product(*box) if brute_strand_facets(power, a)
            )
            # the same complex recurs at other multidegrees, and is taken once
            assert len(set(live)) < len(live)
            shapes = {self.shape(facets) for facets in live}
            assert len(calls) == len(set(calls)) == len(shapes)
            assert set(calls) == shapes
        # the last walk meets complexes that differ only in the names of
        # their vertices
        assert len(shapes) < len(set(live))

    POWERS_IDEALS = (sturmfels_ideal, terai_ideal, lambda: co_path(6), lambda: co_cycle(6))

    def test_work_counts_of_the_powers_walks(self, monkeypatch):
        # Sturmfels, Terai, co-P6 and co-C6 at k <= 3, each power walked on
        # its own: the leaves that are not cones, and the distinct shapes of
        # their facet sets, each ranked once per walk.  The first count is
        # the same under any relabeling of the variables; the number of
        # leaves and of shapes is not.  A leaf is built only when a class
        # has its least exponent of the last variable there, so no leaf is
        # a cone with apex the last vertex.
        # The leaves are counted where they read the memo's facets table, as
        # a walk reduces only the mask lists it has not met before; the
        # table is given room for every list, so that each read key is
        # still in it after the walk.
        monkeypatch.setattr(betti_mod, "LEAF_TABLE_CAP", 10**6)
        calls = self.count_homology(monkeypatch)
        leaves = live = 0
        for build in self.POWERS_IDEALS:
            for k in (1, 2, 3):
                memo = betti_mod.KoszulMemo()
                memo.facets = log = LeafLog()
                koszul_tables(build().power(k), (QQ, GF2), memo)
                leaves += len(log.reads)
                live += sum(bool(log[key]) for key in log.reads)
        assert (leaves, live) == (8839, 5378)
        assert len(calls) == 1544

    @staticmethod
    def count_reductions(monkeypatch) -> list[tuple[tuple[int, ...], bool]]:
        """Patch _maximal_faces to record each call's mask list and whether
        the leaf is live (not a cone)."""
        calls = []
        original = betti_mod._maximal_faces

        def counting(masks):
            key = tuple(masks)
            facets = original(masks)
            calls.append((key, bool(facets)))
            return facets

        monkeypatch.setattr(betti_mod, "_maximal_faces", counting)
        return calls

    def test_a_walk_reduces_each_distinct_leaf_mask_list_once(self, monkeypatch):
        # the same walks with no memo given: each walk has a memo of its own,
        # so it reduces each distinct leaf mask list once, not every leaf,
        # while the memo's leaf table has room.  No walk meets more lists
        # than LEAF_TABLE_CAP: co-C6^3 meets the most, 987, so none of the
        # tables starts over and no list is reduced again.
        reduced = self.count_reductions(monkeypatch)
        again, distinct = [], []
        for build in self.POWERS_IDEALS:
            for k in (1, 2, 3):
                first = len(reduced)
                koszul_tables(build().power(k), (QQ, GF2))
                lists = [key for key, _ in reduced[first:]]
                distinct.append(len(set(lists)))
                if len(set(lists)) <= betti_mod.LEAF_TABLE_CAP:
                    assert len(lists) == len(set(lists))
                else:
                    again.append(len(lists) - len(set(lists)))
        assert again == [] and max(distinct) == distinct[-1] == 987
        assert (len(reduced), sum(live for _, live in reduced)) == (4270, 2276)

    @pytest.mark.parametrize("cap", [0, 16])
    def test_leaf_table_cap(self, monkeypatch, cap):
        # a full leaf table starts over, and the walk reduces again the
        # lists it no longer holds: the tables stay the same, on one memo
        # shared by many walks as on a memo per walk
        rng = random.Random(20261020)
        sample = rng.sample([*squarefree_corpus(5), *square_corpus(4)], 200)
        powers = [power for ideal in sample for power in (ideal, ideal.power(2))]
        fields = (QQ, GF2, GF3)
        expected = [koszul_tables(power, fields) for power in powers]
        monkeypatch.setattr(betti_mod, "LEAF_TABLE_CAP", cap)
        memo = betti_mod.KoszulMemo()
        for power, tables in zip(powers, expected):
            assert koszul_tables(power, fields, memo) == tables, power
            assert len(memo.facets) <= cap
        # with no room at all, every leaf of the powers walks is reduced
        reduced = self.count_reductions(monkeypatch)
        for build in self.POWERS_IDEALS:
            for k in (1, 2, 3):
                koszul_tables(build().power(k), (QQ, GF2))
        if cap == 0:
            assert (len(reduced), sum(live for _, live in reduced)) == (8839, 5378)
        else:
            assert 4270 < len(reduced) < 8839

    def test_work_counts_of_one_memo_per_ideal(self, monkeypatch):
        # the same walks, with one memo for the powers of each ideal, as
        # powers_linear_report shares it: each distinct leaf mask list is
        # reduced once, and each distinct shape is ranked once
        original = betti_mod._maximal_faces
        reduced = []

        def counting(masks):
            reduced.append(tuple(masks))
            return original(masks)

        monkeypatch.setattr(betti_mod, "_maximal_faces", counting)
        calls = self.count_homology(monkeypatch)
        for build in self.POWERS_IDEALS:
            records = powers_linear_report(build(), (QQ, GF2), max_power=3)
            assert [r["k"] for r in records] == [1, 2, 3]
        assert len(reduced) == 3297
        assert len(calls) == 963

    def test_memo_lives_for_one_call(self, monkeypatch):
        calls = self.count_homology(monkeypatch)
        powers_linear_report(terai_ideal(), (QQ, GF2), max_power=2)
        first = len(calls)
        powers_linear_report(terai_ideal(), (QQ, GF2), max_power=2)
        assert first > 0 and len(calls) == 2 * first

    def test_shared_memo_gives_the_tables_of_separate_walks(self):
        # one memo for a sample of the corpus and the squares of its
        # ideals, walked in turn, against a walk of each with no memo
        rng = random.Random(20261020)
        sample = rng.sample([*squarefree_corpus(5), *square_corpus(4)], 200)
        memo = betti_mod.KoszulMemo()
        for ideal in sample:
            for power in (ideal, ideal.power(2)):
                shared = koszul_tables(power, (QQ, GF2, GF3), memo)
                assert shared == koszul_tables(power, (QQ, GF2, GF3)), power
        assert memo.facets and list(memo.homology) == [(QQ, GF2, GF3)]
        # homology is kept per field list: Terai's strands differ over Q and GF(2)
        memo = betti_mod.KoszulMemo()
        assert koszul_tables(terai_ideal(), (QQ,), memo)["Q"].is_linear
        assert not koszul_tables(terai_ideal(), (GF2,), memo)["GF(2)"].is_linear

    def test_table_digest(self):
        # pinned from the walk that read both face masks of a class at the
        # leaf and added each strand as it met it; a change to any table
        # changes the digest
        ideals = [*squarefree_corpus(5), *square_corpus(4),
                  *(build().power(k) for build in (sturmfels_ideal, terai_ideal)
                    for k in (1, 2, 3))]
        assert len(ideals) == 2123
        digest = hashlib.sha256()
        for ideal in ideals:
            for label, table in koszul_tables(ideal, (QQ, GF2, GF3)).items():
                digest.update(f"{label} {table.items_sorted()}\n".encode())
        assert digest.hexdigest() == (
            "593d29457728c55bd4f3c4463d73fb85b9cdfd11864761f7c7f2d86026625d8e")

    def test_homology_dict_lives_for_one_walk(self, monkeypatch):
        calls = self.count_homology(monkeypatch)
        koszul_tables(terai_ideal().power(2), (QQ, GF2))
        first = len(calls)
        koszul_tables(terai_ideal().power(2), (QQ, GF2))
        assert first > 0 and len(calls) == 2 * first


class LeafLog(dict):
    """A KoszulMemo facets table that records the key of every read."""

    def __init__(self):
        super().__init__()
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)


def facets_met_in_walks(monkeypatch, ideals) -> set[tuple[int, ...]]:
    """The distinct facet sets the walks of *ideals* pass to _strand_homology."""
    seen = set()
    original = betti_mod._strand_homology

    def recording(facets, fields):
        seen.add(tuple(sorted(facets)))
        return original(facets, fields)

    monkeypatch.setattr(betti_mod, "_strand_homology", recording)
    for ideal in ideals:
        koszul_tables(ideal, (QQ,))
    monkeypatch.undo()
    return seen


class TestStrandHomology:
    """_strand_homology takes the two lowest boundary ranks from
    connectivity and lists faces only for complexes of dimension >= 2;
    the boundary-matrix oracle homology_dims ranks every boundary."""

    FIELDS = (QQ, GF2, GF3)

    @classmethod
    def check(cls, facets):
        faces = {
            frozenset(sub)
            for mask in facets
            for r in range(mask.bit_count() + 1)
            for sub in itertools.combinations(
                [v for v in range(mask.bit_length()) if mask >> v & 1], r)
        }
        got = betti_mod._strand_homology(list(facets), cls.FIELDS)
        for field, dims in zip(cls.FIELDS, got):
            # the result is keyed by face size, one above the dimension
            expect = {k + 1: h for k, h in homology_dims(faces, field).items()}
            assert dims == expect, (facets, field)

    @staticmethod
    def maximal(masks):
        masks = set(masks)
        return [m for m in masks if not any(m != o and m & o == m for o in masks)]

    @pytest.mark.parametrize("facets, dims", [
        ([0], {0: 1}),  # {emptyset}: H~_{-1} = 1
        ([0b1, 0b10, 0b100], {1: 2}),  # three isolated points
        ([0b11, 0b1100, 0b10000], {1: 2}),  # two edges and a point
        ([0b11, 0b110, 0b101], {2: 1}),  # a triangle's boundary: a cycle
        # a square and a triangle's boundary, apart: two components, two cycles
        ([0b11, 0b110, 0b1100, 0b1001, 0b110000, 0b1100000, 0b1010000], {1: 1, 2: 2}),
        ([0b111, 0b1011, 0b1101, 0b1110], {3: 1}),  # the boundary of a tetrahedron
        # a 2-sphere and an edge apart from it
        ([0b11110 ^ (1 << v) for v in range(1, 5)] + [0b1100000], {1: 1, 3: 1}),
        ([0b111111 ^ (1 << v) for v in range(6)], {5: 1}),  # a 4-sphere
        # facets below the top that lie in no larger face, so they seed
        # the faces one smaller than a larger face's boundary:
        ([0b111, 0b1000], {1: 1}),  # a solid triangle and a point apart
        ([0b111, 0b11000], {1: 1}),  # a solid triangle and an edge apart
        # a 2-sphere and a cycle of edges through one of its vertices
        ([0b1111 ^ (1 << v) for v in range(4)] + [0b11000, 0b110000, 0b101000], {2: 1, 3: 1}),
        # a solid tetrahedron and three triangles that close up one of
        # its faces into a 2-sphere
        ([0b1111, 0b10110, 0b11100, 0b11010], {3: 1}),
    ])
    def test_named_complexes(self, facets, dims):
        assert betti_mod._strand_homology(facets, self.FIELDS) == [dims] * 3
        self.check(facets)

    def test_projective_plane_over_each_field(self):
        triangles = [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
        ]
        facets = [sum(1 << v for v in t) for t in triangles]
        assert betti_mod._strand_homology(facets, self.FIELDS) == [{}, {2: 1, 3: 1}, {}]
        self.check(facets)

    def test_every_facet_set_of_the_corpus_walks(self, monkeypatch):
        ideals = [*squarefree_corpus(5), *square_corpus(4),
                  sturmfels_ideal().power(2), terai_ideal().power(2)]
        seen = facets_met_in_walks(monkeypatch, ideals)
        assert {max(m.bit_count() for m in f) for f in seen} == {0, 1, 2, 3, 4, 5}
        for facets in seen:
            self.check(facets)

    def test_seeded_random_complexes(self):
        rng = random.Random(20261019)
        tops = set()
        for _ in range(400):
            n = rng.randint(1, 7)
            top = rng.randint(1, min(n, 5))
            masks = [sum(1 << v for v in rng.sample(range(n), rng.randint(1, top)))
                     for _ in range(rng.randint(1, 6))]
            facets = self.maximal(masks)
            tops.add(max(m.bit_count() for m in facets))
            self.check(facets)
        assert tops == {1, 2, 3, 4, 5}

    def test_shape_keeps_homology(self):
        # a shape is an isomorphic complex: the same facet sizes and the
        # same homology over every field; and it is its own shape
        rng = random.Random(20261021)
        relabeled = 0
        for _ in range(300):
            n = rng.randint(3, 9)
            masks = [sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(n, 5))))
                     for _ in range(rng.randint(1, 8))]
            facets = tuple(sorted(self.maximal(masks), reverse=True))
            shape = betti_mod._shape(facets)
            assert betti_mod._shape(shape) == shape
            assert sorted(map(int.bit_count, shape)) == sorted(map(int.bit_count, facets))
            assert (betti_mod._strand_homology(shape, self.FIELDS)
                    == betti_mod._strand_homology(facets, self.FIELDS)), facets
            relabeled += shape != facets
        assert relabeled > 100

    def test_no_boundary_below_size_three(self, monkeypatch):
        original = betti_mod._rank_boundary
        sizes = []

        def guarded(cols, rows, bits, s, fields, ranks):
            if s < 3 or any(f.bit_count() < 3 for f in cols):
                raise AssertionError(f"boundary from faces of size {s} built")
            sizes.append(s)
            return original(cols, rows, bits, s, fields, ranks)

        monkeypatch.setattr(betti_mod, "_rank_boundary", guarded)
        tables = koszul_tables(terai_ideal().power(2), (QQ, GF2))
        assert sizes and min(sizes) == 3
        assert not tables["Q"].is_linear


def gf2_bits(rows):
    """Each row of an integer matrix as the bitmask of its odd entries."""
    return [sum(1 << c for c, x in enumerate(row) if x % 2) for row in rows]


def sparse_rows(rows):
    """Each row of a dense integer matrix as {column: nonzero entry}."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


# entries beyond +-1, so that leads other than units and rows with a
# content above 1 occur
small_matrices = st.integers(1, 8).flatmap(
    lambda m: st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


class TestRankKernels:
    @given(small_matrices)
    @settings(max_examples=200, deadline=None)
    def test_gf2_bitset_rank_matches_elimination(self, rows):
        assert rank_gf2(gf2_bits(rows)) == rank_mod_p(rows, 2)

    @given(small_matrices)
    @settings(max_examples=300, deadline=None)
    def test_sparse_rank_matches_the_dense_references(self, rows):
        sparse = sparse_rows(rows)
        assert rank_sparse(sparse) == rank_bareiss(rows)
        for p in (2, 3, 5):
            assert rank_sparse(sparse, p) == rank_mod_p(rows, p), p
        # the rows given are left as they were
        assert sparse == sparse_rows(rows)

    def test_non_unit_leads(self):
        # the determinant is 6: the second row, led by 4 in column 1,
        # reduces against the first, led by 2, to 2 * r2 - 4 * r1 = -6 in
        # column 0, so the rank is 1 over GF(2) and GF(3) and 2 elsewhere
        rows = [{0: 1, 1: 2}, {0: -1, 1: 4}]
        assert [rank_sparse(rows, p) for p in (None, 2, 3, 5)] == [2, 1, 1, 2]

    def test_signed_columns_built_only_on_terai(self, monkeypatch):
        # over Q the GF(2) rank of a boundary is used when it meets the
        # bound, so the signed columns are built only where it falls
        # below: once, on Terai's RP^2 strand, across the powers of the
        # four inputs the benchmark's powers workload runs
        calls = []
        original = betti_mod._signed_columns

        def counting(faces, row_of):
            calls.append(len(faces))
            return original(faces, row_of)

        monkeypatch.setattr(betti_mod, "_signed_columns", counting)
        built = {}
        for name, ideal in [("sturmfels", sturmfels_ideal()), ("terai", terai_ideal()),
                            ("co-P6", co_path(6)), ("co-C6", co_cycle(6))]:
            calls.clear()
            powers_linear_report(ideal, (QQ, GF2), 3)
            built[name] = len(calls)
        assert built == {"sturmfels": 0, "terai": 1, "co-P6": 0, "co-C6": 0}


class TestHochsterOracle:
    def test_single_edge(self):
        assert hochster_oracle(ideal_of(2, (1, 2))).entries == {(0, 2): 1}

    def test_matches_koszul_on_complete_intersection(self):
        ideal = ideal_of(4, (1, 2), (3, 4))
        assert hochster_oracle(ideal).entries == koszul_betti(ideal).entries

    def test_sturmfels_agreement_both_fields(self):
        ideal = sturmfels_ideal()
        for field in (QQ, GF2):
            assert (
                hochster_oracle(ideal, field).entries
                == koszul_betti(ideal, field).entries
            )

    def test_rejects_squares(self):
        with pytest.raises(InputError):
            hochster_oracle(ideal_of(2, (1, 1)))

    def test_exhaustive_small_edge_ideals(self):
        for n in range(2, 5):
            for graph in all_graphs(n):
                if not graph.edges:
                    continue
                ideal = edge_ideal(graph)
                for field in (QQ, GF2):
                    assert (
                        hochster_oracle(ideal, field).entries
                        == koszul_betti(ideal, field).entries
                    ), ideal

    def test_seeded_sample_n6(self):
        rng = random.Random(20240817)
        pairs = list(itertools.combinations(range(1, 7), 2))
        for _ in range(12):
            chosen = [p for p in pairs if rng.random() < 0.4]
            if not chosen:
                continue
            ideal = ideal_of(6, *chosen)
            assert hochster_oracle(ideal).entries == koszul_betti(ideal).entries

    @staticmethod
    def seeded_ideals(seed, count):
        """Squarefree ideals in n <= 6 variables with generators of degree 2 and 3."""
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(4, 6)
            subsets = [c for d in (2, 3) for c in itertools.combinations(range(1, n + 1), d)]
            yield ideal_of(n, *rng.sample(subsets, rng.randint(2, 10)))

    def test_cone_skip_is_exact_against_brute_force(self):
        # brute_koszul_betti takes homology at every multidegree, skipping none
        for ideal in [terai_ideal(), *self.seeded_ideals(20261019, 30)]:
            for field in (QQ, GF2, GF3):
                assert (
                    hochster_oracle(ideal, field).entries
                    == brute_koszul_betti(ideal, field).entries
                ), (ideal, field)

    def test_cohomology_only_on_unions_of_supports(self, monkeypatch):
        calls = []
        original = betti_mod._mask_cohomology

        def counting(faces, field):
            # every generator has degree >= 2, so each vertex of W is a face
            calls.append(functools.reduce(operator.or_, faces, 0))
            return original(faces, field)

        monkeypatch.setattr(betti_mod, "_mask_cohomology", counting)
        ideals = [terai_ideal(), sturmfels_ideal(), *self.seeded_ideals(7, 5)]
        for ideal in ideals:
            calls.clear()
            hochster_oracle(ideal, QQ)
            supports = [sum(1 << (v - 1) for v in g.support) for g in ideal.gens]
            unions = set()
            for w in range(1 << ideal.n):
                inside = [s for s in supports if s & w == s]
                if functools.reduce(operator.or_, inside, 0) == w:
                    unions.add(w)
            assert len(unions) < 1 << ideal.n, ideal
            assert len(calls) == len(set(calls)) == len(unions), ideal
            assert set(calls) == unions, ideal

    def test_work_bound(self, monkeypatch):
        # 3^13 pairs (W, face inside W) fit under MULTIDEGREE_CAP, 3^14 do not
        assert hochster_oracle(ideal_of(13, (1, 2))).entries == {(0, 2): 1}

        def boom(*args):
            raise AssertionError("no cohomology may run past the bound")

        monkeypatch.setattr(betti_mod, "_mask_cohomology", boom)
        with pytest.raises(ResourceGuard):
            hochster_oracle(ideal_of(14, (1, 2)))


class TestVerdicts:
    def test_two_edges_sharing_a_vertex(self):
        assert is_linear_resolution(ideal_of(3, (1, 2), (1, 3)))

    def test_disjoint_edges_not_linear(self):
        assert not is_linear_resolution(ideal_of(4, (1, 2), (3, 4)))

    def test_sturmfels_linear_both_fields(self):
        ideal = sturmfels_ideal()
        assert is_linear_resolution(ideal, QQ)
        assert is_linear_resolution(ideal, GF2)

    def test_non_equigenerated_rejected(self):
        mixed = MonomialIdeal(2, (Monomial((1, 0)), Monomial((0, 2))))
        with pytest.raises(InputError):
            is_linear_resolution(mixed)

    def test_regularity_examples(self):
        assert koszul_betti(ideal_of(2, (1, 2))).regularity == 2
        assert koszul_betti(ideal_of(4, (1, 2), (3, 4))).regularity == 3

    def test_generator_count_in_degree_row(self):
        for ideal in (sturmfels_ideal(), ideal_of(3, (1, 1), (1, 2))):
            table = koszul_betti(ideal)
            assert table.entries[(0, ideal.degree)] == ideal.num_gens


class TestPolarizationInvariance:
    def test_square_corpus_small(self):
        for ideal in square_corpus(3):
            direct = koszul_betti(ideal, QQ)
            pol = koszul_betti(ideal.polarize(), QQ)
            assert direct.entries == pol.entries, ideal

    def test_field_sensitive_instance_too(self):
        ideal = ideal_of(3, (1, 1), (1, 2), (2, 3), (3, 3))
        for field in (QQ, GF2):
            assert (
                koszul_betti(ideal, field).entries
                == koszul_betti(ideal.polarize(), field).entries
            )

    def test_linearity_via_polarization_is_cross_checked(self):
        # the verdict path computes both tables and insists they agree
        assert is_linear_resolution(ideal_of(2, (1, 1), (1, 2), (2, 2)))

    def test_twelve_generators_with_six_squares(self, monkeypatch):
        # the polarization has 13 variables and many strands with GF(2)
        # homology, so its Q ranks are eliminated, not read off GF(2); the
        # tables were recorded from dense Bareiss elimination, and both
        # the ideal and its polarization are walked
        ideal = ideal_of(7, (1, 1), (2, 2), (4, 4), (5, 5), (6, 6), (7, 7),
                         (1, 2), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3))
        walked = []
        original = betti_mod.koszul_tables

        def counting(ideal, fields, *args):
            walked.append(ideal.n)
            return original(ideal, fields, *args)

        monkeypatch.setattr(betti_mod, "koszul_tables", counting)
        tables = betti_mod.checked_tables(ideal, (QQ, GF2))
        assert walked == [7, 13]
        expect = {(0, 2): 12, (1, 3): 22, (1, 4): 14, (2, 4): 21, (2, 5): 18,
                  (2, 6): 16, (3, 5): 15, (3, 6): 4, (3, 7): 22, (3, 8): 9,
                  (4, 6): 6, (4, 8): 6, (4, 9): 13, (4, 10): 2, (5, 7): 1,
                  (5, 10): 4, (5, 11): 3, (6, 12): 1}
        assert tables["Q"].entries == tables["GF(2)"].entries == expect

    def test_split_from_polarization_is_a_falsification(self):
        ideal = ideal_of(2, (1, 1), (1, 2), (2, 2))
        wrong = koszul_betti(ideal_of(4, (1, 2), (3, 4)), QQ)
        with pytest.raises(Falsification):
            check_polarization(ideal, wrong)


class TestPowers:
    def test_sturmfels_square_not_linear(self):
        report = powers_linear_report(sturmfels_ideal(), fields=(QQ,), max_power=2)
        assert report[0]["linear"]["Q"] is True
        assert report[1]["linear"]["Q"] is False
        assert report[1]["num_gens"] == 36

    def test_terai_square_over_q(self):
        report = powers_linear_report(terai_ideal(), fields=(QQ,), max_power=2)
        assert report[0]["linear"]["Q"] is True
        assert report[1]["linear"]["Q"] is False

    def test_linear_ideal_stays_linear_to_three(self):
        report = powers_linear_report(
            ideal_of(3, (1, 2), (1, 3), (2, 3)), fields=(QQ, GF2), max_power=3
        )
        assert all(all(rec["linear"].values()) for rec in report)

    def test_cap_abort_is_recorded(self, monkeypatch):
        monkeypatch.setattr(betti_mod, "MULTIDEGREE_CAP", 100)
        report = powers_linear_report(sturmfels_ideal(), fields=(QQ,), max_power=3)
        assert "aborted" in report[-1]
        assert report[-1]["linear"] is None

    def test_bad_power_rejected(self):
        with pytest.raises(InputError):
            powers_linear_report(ideal_of(2, (1, 2)), max_power=0)


class TestFieldIndependenceSmall:
    def test_edge_ideals_characteristic_free(self):
        # quadratic squarefree tables agree over Q, GF(2), GF(3) at n <= 4
        for n in range(2, 5):
            for graph in all_graphs(n):
                if not graph.edges:
                    continue
                ideal = edge_ideal(graph)
                base = koszul_betti(ideal, QQ).entries
                assert koszul_betti(ideal, GF2).entries == base
                assert koszul_betti(ideal, FieldSpec(3)).entries == base


@pytest.mark.slow
def test_seeded_quadratic_sweep_beyond_the_corpus():
    # Koszul against Hochster, and linearity against complement chordality
    rng = random.Random(2026)
    for _ in range(40):
        n = rng.randint(6, 8)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        density = rng.uniform(0.2, 0.8)
        chosen = [p for p in pairs if rng.random() < density] or [rng.choice(pairs)]
        ideal = ideal_of(n, *chosen)
        for field in (QQ, GF2):
            table = koszul_betti(ideal, field)
            assert table.entries == hochster_oracle(ideal, field).entries, ideal
            assert table.is_linear == bool(is_chordal(complement(graph_of_ideal(ideal)))), ideal
