import json
import random
from dataclasses import fields, replace

import networkx as nx
import pytest

from domblocker import (
    FormatError,
    LabeledGraph,
    VertexLabel,
    cycle_graph,
    emit_dot,
    emit_edge_list_json,
    emit_graph6,
    parse_edge_list_json,
    parse_graph6,
    build_clawfree,
    build_subcubic,
    satisfiable_fixture,
)
from domblocker import graphio
from domblocker.graphs import LABEL_KINDS


def to_networkx(g: LabeledGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def random_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return LabeledGraph.from_edges(n, edges)


class TestGraph6:
    def test_c5_reference_encoding(self):
        # frozen from the independent reference encoder
        assert emit_graph6(cycle_graph(5)) == "Dhc"
        assert nx.to_graph6_bytes(to_networkx(cycle_graph(5)), header=False).strip() == b"Dhc"

    def test_round_trip_small(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng, rng.randrange(0, 12))
            h = parse_graph6(emit_graph6(g))
            assert h.n == g.n and h.edges() == g.edges()

    def test_matches_reference_encoder(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 15))
            ours = emit_graph6(g)
            theirs = nx.to_graph6_bytes(to_networkx(g), header=False).strip().decode()
            assert ours == theirs

    def test_parses_reference_output_long_form(self):
        # 63 vertices forces the 4-byte count
        g = cycle_graph(63)
        blob = nx.to_graph6_bytes(to_networkx(g), header=False).strip().decode()
        parsed = parse_graph6(blob)
        assert parsed.n == 63 and parsed.edges() == g.edges()
        assert emit_graph6(g) == blob

    def test_long_form_matches_reference_on_random_graph(self):
        rng = random.Random(8)
        g = random_graph(rng, 100)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).strip().decode()
        assert emit_graph6(g) == theirs

    def test_header_accepted(self):
        g = cycle_graph(5)
        assert parse_graph6(">>graph6<<" + emit_graph6(g)).edges() == g.edges()

    def test_large_build_round_trips_identically(self):
        base, _ = build_subcubic(satisfiable_fixture())
        back = parse_graph6(emit_graph6(base))  # 48 vertices: short form
        assert back.n == base.n and back.edges() == base.edges()
        big, _ = build_clawfree(base)  # 666 vertices: long form
        back = parse_graph6(emit_graph6(big))
        assert back.n == big.n and back.edges() == big.edges()

    def test_empty_input_rejected(self):
        with pytest.raises(FormatError):
            parse_graph6("")

    @pytest.mark.parametrize(
        "text, pos, byte",
        [
            ("\x7f", 0, "\x7f"),  # byte 0
            ("~!AB", 1, "!"),  # the 4-byte vertex count, bytes 1-3
            ("~A!B", 2, "!"),
            ("~AB\x7f", 3, "\x7f"),
            ("~~!ABCDE", 2, "!"),  # the 8-byte vertex count, bytes 2-7
            ("~~A!BCDE", 3, "!"),
            ("~~AB!CDE", 4, "!"),
            ("~~ABC!DE", 5, "!"),
            ("~~ABCD!E", 6, "!"),
            ("~~ABCDE\x7f", 7, "\x7f"),
            ("Dh!", 2, "!"),  # a payload byte
            ("D!c", 1, "!"),
        ],
    )
    def test_out_of_range_byte_rejected(self, text, pos, byte):
        with pytest.raises(FormatError) as exc:
            parse_graph6(text)
        assert str(exc.value) == f"byte {pos} out of graph6 range: {byte!r}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("~", "truncated long-form vertex count at byte 1"),
            ("~AB", "truncated long-form vertex count at byte 1"),
            ("~~", "truncated 8-byte vertex count at byte 2"),
            ("~~ABCDE", "truncated 8-byte vertex count at byte 2"),
            # K8 is "G~~~~{": n = 8 needs 5 payload bytes
            ("G~~~~", "truncated graph6 payload: need 5 bytes for n=8, got 4 (at byte 5)"),
        ],
    )
    def test_truncation_rejected(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_graph6(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [0, 62, 63, 258047, 258048, 68719476735])
    def test_vertex_count_round_trip(self, n):
        encoded = graphio._encode_n(n)
        assert len(encoded) == (1 if n <= 62 else 4 if n <= 258047 else 8)
        assert graphio._decode_n(encoded + "?") == (n, len(encoded))

    @pytest.mark.parametrize(
        "n, message",
        [(68719476736, "vertex count 68719476736 too large for graph6"), (-1, "negative vertex count -1")],
    )
    def test_vertex_count_out_of_reach(self, n, message):
        with pytest.raises(FormatError) as exc:
            graphio._encode_n(n)
        assert str(exc.value) == message

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormatError, match="trailing"):
            parse_graph6(emit_graph6(cycle_graph(5)) + "AA")


class TestEdgeListJson:
    def test_round_trip_with_labels(self):
        labels = [
            VertexLabel("true", var=2, index=1),
            VertexLabel("l", clause=0, var=2),
            VertexLabel(),
        ]
        g = LabeledGraph.from_edges(3, [(0, 1), (1, 2)], labels)
        back = parse_edge_list_json(emit_edge_list_json(g))
        assert back == g

    def test_plain_labels_omitted(self):
        g = cycle_graph(4)
        payload = json.loads(emit_edge_list_json(g))
        assert "labels" not in payload
        assert parse_edge_list_json(emit_edge_list_json(g)) == g

    def test_malformed_json(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_edge_list_json("{oops")

    def test_missing_fields(self):
        with pytest.raises(FormatError):
            parse_edge_list_json('{"n": 3}')

    def test_bad_edge_shape(self):
        with pytest.raises(FormatError, match="edge #0"):
            parse_edge_list_json('{"n": 3, "edges": [[1]]}')

    def test_label_length_mismatch(self):
        with pytest.raises(FormatError, match="labels"):
            parse_edge_list_json('{"n": 2, "edges": [], "labels": [{"kind": "plain"}]}')

    def test_out_of_range_edge(self):
        with pytest.raises(FormatError):
            parse_edge_list_json('{"n": 2, "edges": [[0, 5]]}')

    def test_unknown_label_kind(self):
        with pytest.raises(FormatError) as exc:
            parse_edge_list_json('{"n": 1, "edges": [], "labels": [{"kind": "bogus"}]}')
        assert str(exc.value) == "label #0: unknown label kind 'bogus'"


class TestDot:
    def test_colors_and_names_from_labels(self):
        g, rmap = build_subcubic(satisfiable_fixture())
        dot = emit_dot(g)
        assert dot.startswith("graph G {")
        assert "palegreen" in dot  # true vertices
        assert "lightskyblue" in dot  # clause vertices
        assert f"{g.n - 1} " in dot
        assert dot.count(" -- ") == len(g.edges())

    def test_plain_graph(self):
        dot = emit_dot(cycle_graph(3))
        assert "graph G {" in dot and dot.count(" -- ") == 3

    def test_every_optional_field_reaches_the_label_text(self):
        # each field VertexLabel declares after its kind shows in the DOT text:
        # a label that differs from another in that field alone reads
        # differently, and a label with all of them set lists them in
        # declaration order
        def text(lbl: VertexLabel) -> str:
            return emit_dot(LabeledGraph.from_edges(1, (), [lbl])).splitlines()[2]

        base = VertexLabel("true", index=1)
        for f in fields(VertexLabel)[1:]:
            other = replace(base, **{f.name: 3 if f.name == "index" else 7})
            assert text(other) != text(base), f.name
        full = VertexLabel("true", var=4, clause=5, source=6, index=2)
        assert text(full) == '  0 [label="T[x4,c5,s6,2] #0", fillcolor="palegreen"];'

    def test_every_kind_has_a_style(self):
        labels = [VertexLabel(kind, index=1 if indexed else None) for kind, (indexed, _, _) in LABEL_KINDS.items()]
        dot = emit_dot(LabeledGraph.from_edges(len(labels), [], labels))
        for v, (kind, (indexed, name, colour)) in enumerate(LABEL_KINDS.items()):
            text = str(v) if kind == "plain" else f"{name}[{'1' if indexed else ''}] #{v}"
            assert f'  {v} [label="{text}", fillcolor="{colour}"];' in dot, kind
