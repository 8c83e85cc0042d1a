"""Every graph on 6 vertices, up to isomorphism, through analyze.

The acceptance corpus stops at 5 vertices.  Here every isomorphism
class on 6 vertices goes through pipeline.analyze with its defaults,
and the results are held to checks that read none of the pipeline's
own cross-checks: the brute chordality oracle of tests/corpus.py, and
invariance under a seeded relabeling of the variables.
"""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from corpus import brute_chordless_cycle_exists, ideal_of
from linres import pipeline
from linres.graphs import Graph, complement

N = 6
PAIRS = list(combinations(range(1, N + 1), 2))  # bit b of an edge mask is PAIRS[b]
CHUNK = 7  # bits per lookup-table chunk


def graphs_up_to_isomorphism() -> list[int]:
    """The least edge mask of each isomorphism class of graphs on N
    vertices, ascending.

    Orbit marking: the masks are walked upward, and each one not yet
    marked starts a class and marks its images under every permutation.
    A permutation's lookup table maps each CHUNK-bit chunk of a mask to
    the image of those edges, so an image is one OR per chunk.
    """
    index = {p: b for b, p in enumerate(PAIRS)}
    starts = range(0, len(PAIRS), CHUNK)
    tables = []
    for perm in permutations(range(1, N + 1)):
        image = [1 << index[tuple(sorted((perm[a - 1], perm[b - 1])))] for a, b in PAIRS]
        table = []
        for start in starts:
            chunk = [0] * (1 << min(CHUNK, len(PAIRS) - start))
            for v in range(1, len(chunk)):
                low = (v & -v).bit_length() - 1
                chunk[v] = chunk[v & (v - 1)] | image[start + low]
            table.append(chunk)
        tables.append(table)
    marked = bytearray(1 << len(PAIRS))
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


@pytest.fixture(scope="module")
def classes():
    return graphs_up_to_isomorphism()


def edges_of(mask: int) -> list[tuple[int, int]]:
    return [p for b, p in enumerate(PAIRS) if mask >> b & 1]


def test_one_mask_per_isomorphism_class(classes):
    # 156 graphs on 6 vertices, and their known counts by number of edges
    assert len(classes) == 156
    by_size = Counter(len(edges_of(mask)) for mask in classes)
    assert [by_size[k] for k in range(len(PAIRS) + 1)] == [
        1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1]


def test_analyze_on_every_graph(classes):
    rng = random.Random(6)  # one relabeling per graph, drawn in class order
    counts = {True: 0, False: 0}  # graphs by chordality of the complement
    for mask in classes:
        edges = edges_of(mask)
        ideal = ideal_of(N, *edges)
        labeling = tuple(rng.sample(range(1, N + 1), N))
        report = pipeline.analyze(ideal)
        moved = pipeline.analyze(ideal.relabel(labeling))
        if not edges:
            assert report["verdict"] == moved["verdict"] == "zero ideal: nothing to resolve"
            continue
        graph = Graph(N, frozenset(map(frozenset, edges)), frozenset())
        chordal = not brute_chordless_cycle_exists(complement(graph))
        assert report["linear_resolution"] == {"Q": chordal, "GF(2)": chordal}, edges
        assert report["complement_chordal"]["ok"] is chordal, edges
        for key in ("betti", "linear_resolution"):
            assert moved[key] == report[key], (edges, labeling, key)
        assert moved["linear_quotients"]["ok"] == report["linear_quotients"]["ok"], (edges, labeling)
        assert ([p["linear"] for p in moved["powers"]]
                == [p["linear"] for p in report["powers"]]), (edges, labeling)
        counts[chordal] += 1
    # 94 chordal graphs on 6 vertices, less the complete graph, whose
    # complement is the empty graph
    assert counts == {True: 93, False: 62}
