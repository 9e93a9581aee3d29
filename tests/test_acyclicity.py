"""is_acyclic against networkx's cycle test: the one-pass proof over the
arrows, and topological_order behind it when that proof fails."""

import random

import pytest

from quiverglue.aside import build_aside
from quiverglue.bside import build_bside
from quiverglue.errors import QuiverError
from quiverglue.mirror import twisted_gluing
from quiverglue.quiver import GradedQuiver
from quiverglue.sweeps import DEFAULT_SEED as SEED, curve_sweep, gluing_sweep

nx = pytest.importorskip("networkx")


def quiver(num_vertices, edges):
    return GradedQuiver([(((v,),), 0) for v in range(num_vertices)],
                        [((i,), (s,), (t,), 0) for i, (s, t) in enumerate(edges)], [])


def nx_acyclic(num_vertices, edges):
    g = nx.DiGraph()
    g.add_nodes_from(range(num_vertices))
    g.add_edges_from(edges)
    return nx.is_directed_acyclic_graph(g)


def random_edges(rng, n):
    """Arbitrary arrows (self-loops and 2-cycles among them), or the
    arrows of a random order on the vertices, which is acyclic but seldom
    raises every vertex id."""
    if rng.random() < 0.5:
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
    order = rng.sample(range(n), n)
    edges = []
    for _ in range(rng.randrange(2 * n)):
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        if i != j:
            edges.append((order[i], order[j]))
    return edges


def counting_topological_order(monkeypatch):
    """Count the fallback's calls."""
    calls = []
    order = GradedQuiver.topological_order

    def counted(self):
        calls.append(self)
        return order(self)

    monkeypatch.setattr(GradedQuiver, "topological_order", counted)
    return calls


@pytest.mark.parametrize("num_vertices, edges, acyclic, fallback", [
    (1, [(0, 0)], False, True),  # a self-loop
    (2, [(0, 1), (1, 0)], False, True),  # a 2-cycle
    (3, [(0, 2), (2, 1)], True, True),  # 2 -> 1 lowers the id into an entered vertex
    (3, [(2, 0), (2, 1), (0, 1)], True, False),  # 2 is a source
    (3, [(0, 1), (1, 2)], True, False),
    (3, [(0, 1), (1, 2), (2, 0)], False, True),
    (2, [], True, False),
])
def test_is_acyclic_on_small_quivers(monkeypatch, num_vertices, edges, acyclic, fallback):
    calls = counting_topological_order(monkeypatch)
    q = quiver(num_vertices, edges)
    assert q.is_acyclic() is acyclic is nx_acyclic(num_vertices, edges)
    assert len(calls) == fallback
    if not acyclic:
        with pytest.raises(QuiverError, match="directed cycle"):
            q.topological_order()


def test_is_acyclic_agrees_with_networkx(monkeypatch):
    calls = counting_topological_order(monkeypatch)
    rng = random.Random(SEED)
    answers = set()
    for _ in range(2000):
        n = rng.randint(1, 7)
        edges = random_edges(rng, n)
        acyclic = nx_acyclic(n, edges)
        fallbacks = len(calls)
        assert quiver(n, edges).is_acyclic() is acyclic, (n, edges)
        # (is acyclic, answered by the fallback)
        answers.add((acyclic, len(calls) > fallbacks))
    assert answers == {(True, False), (True, True), (False, True)}


def test_builders_never_need_the_fallback(monkeypatch):
    # Each numbering raises the vertex id along every chain arrow, and its
    # S vertices are sources, so the one-pass proof answers every builder
    # quiver and topological_order is never asked.
    def refused(self):
        raise AssertionError("topological_order called")

    monkeypatch.setattr(GradedQuiver, "topological_order", refused)
    gluings, curves = gluing_sweep(2, 4), curve_sweep(2, 4)
    quivers = [build_aside(g) for g in gluings]
    for c in curves:
        quivers += build_bside(c), build_aside(twisted_gluing(c))
    for q in quivers:
        assert q.is_acyclic()
        assert q._adjacency is None  # the proof built no arrow lists
        assert nx_acyclic(q.num_vertices, zip(q._src, q._tgt))
    assert len(quivers) == len(gluings) + 2 * len(curves)
