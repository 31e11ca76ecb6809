"""Shared builders and hypothesis strategies for the test suite."""

import hashlib
import json

from hypothesis import strategies as st

from hytrex.families import FamilySpec, generate
from hytrex.graph import BipGraph


def sha256_json(obj) -> str:
    """sha256 of ``json.dumps(obj, sort_keys=True)``, for pinning outputs."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def count_builds(monkeypatch, make) -> int:
    """How many ``BipGraph`` instances ``make()`` constructs."""
    builds = []
    init = BipGraph.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BipGraph, "__init__", counting)
    make()
    return len(builds)


def cycle(n):
    return generate(FamilySpec("cycle", (n,)))


def complete_bipartite(m, n):
    return generate(FamilySpec("complete_bipartite", (m, n)))


def ladder(n):
    return generate(FamilySpec("ladder", (n,)))


def path_graph():
    # v1 - e1 - v2: the smallest tree with both classes non-empty.
    return BipGraph(("v1", "v2"), ("e1",), [(0, 0), (1, 0)])


@st.composite
def connected_bipgraphs(draw, max_v=4, max_e=4):
    """Connected bipartite graphs built as an attachment tree plus extras."""
    n_v = draw(st.integers(min_value=1, max_value=max_v))
    n_e = draw(st.integers(min_value=1, max_value=max_e))
    edges = {(0, 0)}
    placed_v, placed_e = [0], [0]
    for v in range(1, n_v):
        edges.add((v, draw(st.sampled_from(placed_e))))
        placed_v.append(v)
    for e in range(1, n_e):
        edges.add((draw(st.sampled_from(placed_v)), e))
        placed_e.append(e)
    for v in range(n_v):
        for e in range(n_e):
            if (v, e) not in edges and draw(st.booleans()):
                edges.add((v, e))
    return BipGraph(
        tuple(f"v{i + 1}" for i in range(n_v)),
        tuple(f"e{j + 1}" for j in range(n_e)),
        edges,
    )
