"""graph6 codec round-trips and hand-decoded anchors."""

import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from crosscolor.errors import Graph6Error
from crosscolor.graphs import Graph, emit_graph6, parse_graph6


def test_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.edges == ()
    assert emit_graph6(g) == b"@"


def test_hand_decoded_5_vertex():
    # "D?{": header D -> n=5; payload "?{" -> bits 000000 111100; the ten
    # upper-triangle slots (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),(0,4),...,(3,4)
    # put the four set bits on column 4: the star K_{1,4}.
    g = parse_graph6("D?{")
    assert g.n == 5
    assert set(g.edges) == {(0, 4), (1, 4), (2, 4), (3, 4)}
    assert emit_graph6(g) == b"D?{"


def test_k4():
    k4 = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    code = emit_graph6(k4)
    assert parse_graph6(code).edges == k4.edges
    # independent decoder sees the same graph
    h = nx.from_graph6_bytes(code)
    assert set(h.edges()) == set(k4.edges)


@pytest.mark.parametrize("n, header", [(63, b"~??~"), (100, b"~?@c")])
def test_long_form_round_trip(n, header):
    # n > 62 takes the 4-byte form: '~' then n in three 6-bit bytes
    rng = random.Random(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [e for e in pairs if rng.random() < 0.1])
    code = emit_graph6(g)
    assert code[:4] == header
    assert len(code) == 4 + (len(pairs) + 5) // 6
    back = parse_graph6(code)
    assert back.n == n and back.edges == g.edges
    h = nx.from_graph6_bytes(code)
    assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges)


@pytest.mark.parametrize(
    "bad",
    [b"", b"\x01", b"C", b"D????", b"~"],
)
def test_malformed_codes_name_offset(bad):
    with pytest.raises(Graph6Error) as ei:
        parse_graph6(bad)
    assert ei.value.offset is not None


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, picks)


@given(graphs())
def test_round_trip(g):
    assert parse_graph6(emit_graph6(g)).edges == g.edges


@given(graphs(max_n=10))
def test_agrees_with_networkx(g):
    code = emit_graph6(g)
    h = nx.from_graph6_bytes(code)
    assert h.number_of_nodes() == g.n
    assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges)
