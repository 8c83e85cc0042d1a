"""Every graph on 6 and on 7 vertices, up to isomorphism, through analyze.

The acceptance corpus stops at 5 vertices.  Here every isomorphism
class on n vertices goes through pipeline.analyze with its defaults,
and the results are held to checks that read none of the pipeline's
own cross-checks: the brute chordality oracle of tests/corpus.py, and
invariance under a seeded relabeling of the variables.

n = 7 takes over a minute, so it is marked ``exhaustive``: tier-1
deselects it, and CI runs it in a step of its own with ``-m exhaustive``.
"""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from corpus import brute_chordless_cycle_exists, ideal_of
from linres import pipeline
from linres.graphs import Graph, complement

CHUNK = 7  # bits per lookup-table chunk

# per vertex count: the number of isomorphism classes, their counts by
# number of edges, and the graphs with an edge by chordality of their
# complement: of the 94 and 393 chordal graphs on 6 and 7 vertices, the
# complete graph is the complement of the edgeless one, whose ideal is zero
EXPECTED = {
    6: (156, [1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1],
        {True: 93, False: 62}),
    7: (1044, [1, 1, 2, 5, 10, 21, 41, 65, 97, 131, 148, 148, 131, 97, 65, 41, 21, 10, 5,
               2, 1, 1],
        {True: 392, False: 651}),
}


def pairs_of(n: int) -> list[tuple[int, int]]:
    """The vertex pairs on n vertices: bit b of an edge mask is pairs_of(n)[b]."""
    return list(combinations(range(1, n + 1), 2))


def graphs_up_to_isomorphism(n: int) -> list[int]:
    """The least edge mask of each isomorphism class of graphs on n
    vertices, ascending.

    Orbit marking: the masks are walked upward, and each one not yet
    marked starts a class and marks its images under every permutation.
    A permutation's lookup table maps each CHUNK-bit chunk of a mask to
    the image of those edges, so an image is one OR per chunk.
    """
    pairs = pairs_of(n)
    index = {p: b for b, p in enumerate(pairs)}
    starts = range(0, len(pairs), CHUNK)
    tables = []
    for perm in permutations(range(1, n + 1)):
        image = [1 << index[tuple(sorted((perm[a - 1], perm[b - 1])))] for a, b in pairs]
        table = []
        for start in starts:
            chunk = [0] * (1 << min(CHUNK, len(pairs) - start))
            for v in range(1, len(chunk)):
                low = (v & -v).bit_length() - 1
                chunk[v] = chunk[v & (v - 1)] | image[start + low]
            table.append(chunk)
        tables.append(table)
    marked = bytearray(1 << len(pairs))
    classes = []
    for mask in range(len(marked)):
        if marked[mask]:
            continue
        classes.append(mask)
        parts = [mask >> start & ((1 << CHUNK) - 1) for start in starts]
        for table in tables:
            image = 0
            for chunk, part in zip(table, parts):
                image |= chunk[part]
            marked[image] = 1
    return classes


@pytest.fixture(scope="module", params=[6, pytest.param(7, marks=pytest.mark.exhaustive)])
def n(request):
    return request.param


@pytest.fixture(scope="module")
def classes(n):
    return graphs_up_to_isomorphism(n)


def edges_of(n: int, mask: int) -> list[tuple[int, int]]:
    return [p for b, p in enumerate(pairs_of(n)) if mask >> b & 1]


def test_one_mask_per_isomorphism_class(n, classes):
    # the known counts of graphs on n vertices, in all and by number of edges
    count, by_edges, _ = EXPECTED[n]
    assert len(classes) == count
    by_size = Counter(len(edges_of(n, mask)) for mask in classes)
    assert [by_size[k] for k in range(len(pairs_of(n)) + 1)] == by_edges


def test_analyze_on_every_graph(n, classes):
    rng = random.Random(n)  # one relabeling per graph, drawn in class order
    counts = {True: 0, False: 0}  # graphs by chordality of the complement
    for mask in classes:
        edges = edges_of(n, mask)
        ideal = ideal_of(n, *edges)
        labeling = tuple(rng.sample(range(1, n + 1), n))
        report = pipeline.analyze(ideal)
        moved = pipeline.analyze(ideal.relabel(labeling))
        if not edges:
            assert report["verdict"] == moved["verdict"] == "zero ideal: nothing to resolve"
            continue
        graph = Graph(n, frozenset(map(frozenset, edges)), frozenset())
        chordal = not brute_chordless_cycle_exists(complement(graph))
        assert report["linear_resolution"] == {"Q": chordal, "GF(2)": chordal}, edges
        assert report["complement_chordal"]["ok"] is chordal, edges
        for key in ("betti", "linear_resolution"):
            assert moved[key] == report[key], (edges, labeling, key)
        assert moved["linear_quotients"]["ok"] == report["linear_quotients"]["ok"], (edges, labeling)
        assert ([p["linear"] for p in moved["powers"]]
                == [p["linear"] for p in report["powers"]]), (edges, labeling)
        counts[chordal] += 1
    assert counts == EXPECTED[n][2]
