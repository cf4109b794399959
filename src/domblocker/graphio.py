"""Graph serialization: graph6, DOT, and edge-list JSON.

graph6 follows the standard format (short form for n <= 62, the 4-byte long
form up to n < 258048, and the 8-byte form beyond): upper-triangle adjacency
bits in column-major order, packed 6 bits per printable byte (offset 63).
Labels do not survive graph6; the edge-list JSON form carries them losslessly.

A graph6 payload is base64 in another alphabet (byte 63 + v is digit v), so
both directions work on whole strings: ``str.translate`` and ``base64`` turn
the payload into one integer, and one reversed ``bin()`` string of it holds
each vertex's column of the triangle as a slice, highest vertex first, which
``int(..., 2)`` reads as the column's mask. Only a payload that fails the
range check is walked byte by byte, to name the bad byte.
"""

from __future__ import annotations

import base64
import json
import string
from dataclasses import fields

from .graphs import LABEL_KINDS, GraphError, LabeledGraph, VertexLabel, PLAIN, _bits

GRAPH6_HEADER = ">>graph6<<"

_GRAPH6_DIGITS = "".join(map(chr, range(63, 127)))
_BASE64_DIGITS = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
_TO_BASE64 = str.maketrans(_GRAPH6_DIGITS, _BASE64_DIGITS)
_FROM_BASE64 = str.maketrans(_BASE64_DIGITS, _GRAPH6_DIGITS)


class FormatError(ValueError):
    """Malformed serialized graph, reported with the offending position."""


# graph6's vertex-count forms: the largest n each holds, the bytes 126 that
# lead it, the shifts of its 6-bit groups, and its name in a truncation message
_N_FORMS = (
    (62, "", (0,), "short"),
    (258047, "~", (12, 6, 0), "long-form"),
    (68719476735, "~~", (30, 24, 18, 12, 6, 0), "8-byte"),
)


def _values(chunk: str, start: int) -> list[int]:
    """The 6-bit values of the graph6 bytes ``chunk``, which begins at byte
    ``start``; a byte outside 63..126 is a FormatError naming its position."""
    values = [ord(ch) - 63 for ch in chunk]
    if values and not 0 <= min(values) <= max(values) <= 63:
        pos = next(i for i, b in enumerate(values) if not 0 <= b <= 63)
        raise FormatError(f"byte {start + pos} out of graph6 range: {chunk[pos]!r}")
    return values


def _encode_n(n: int) -> str:
    if n < 0:
        raise FormatError(f"negative vertex count {n}")
    for top, lead, shifts, _ in _N_FORMS:
        if n <= top:
            return lead + "".join(chr((n >> s & 63) + 63) for s in shifts)
    raise FormatError(f"vertex count {n} too large for graph6")


def _decode_n(data: str) -> tuple[int, int]:
    """Returns (n, number of bytes consumed) of a non-empty graph6 string."""
    n = _values(data[0], 0)[0]
    if n < 63:
        return n, 1
    _, lead, shifts, name = _N_FORMS[2 if data[1:2] == "~" else 1]
    end = len(lead) + len(shifts)
    if len(data) < end:
        raise FormatError(f"truncated {name} vertex count at byte {len(lead)}")
    n = 0
    for b in _values(data[len(lead) : end], len(lead)):
        n = n << 6 | b
    return n, end


def emit_graph6(g: LabeledGraph) -> str:
    """Encode the adjacency structure (labels are dropped)."""
    n = g.n
    masks = g.closed_masks
    # bit k of ``column`` is bit k of the payload: column j starts at j(j-1)/2
    column = 0
    for j in range(1, n):
        column |= (masks[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    size = (n * (n - 1) // 2 + 5) // 6
    digits = -(-size // 4) * 4  # whole base64 quanta, cut back to size below
    bits = bin(column)[:1:-1].ljust(6 * digits, "0")
    payload = base64.b64encode(int(bits, 2).to_bytes(3 * digits // 4, "big"))
    return _encode_n(n) + payload.decode("ascii").translate(_FROM_BASE64)[:size]


def parse_graph6(text: str) -> LabeledGraph:
    data = text.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER) :]
    if not data:
        raise FormatError("empty graph6 string")
    n, consumed = _decode_n(data)
    payload = data[consumed:]
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(payload) < need_bytes:
        raise FormatError(
            f"truncated graph6 payload: need {need_bytes} bytes for n={n}, "
            f"got {len(payload)} (at byte {consumed + len(payload)})"
        )
    if len(payload) > need_bytes:
        raise FormatError(f"trailing data after graph6 payload at byte {consumed + need_bytes}")
    if payload and not "?" <= min(payload) <= max(payload) <= "~":
        _values(payload, consumed)  # raises, naming the first bad byte
    digits = payload.translate(_TO_BASE64) + "A" * (-len(payload) % 4)
    # bits[t - 1 - k] is bit k of the payload, so column j, bits j(j-1)/2 on,
    # is a slice that reads vertex j - 1 first
    t = 6 * len(digits)
    bits = bin(int.from_bytes(base64.b64decode(digits), "big"))[:1:-1].ljust(t, "0")
    masks = [1 << v for v in range(n)]
    for j in range(1, n):
        end = t - j * (j - 1) // 2
        lower = int(bits[end - j : end], 2)
        masks[j] |= lower
        for i in _bits(lower):
            masks[i] |= 1 << j
    return LabeledGraph.from_closed_masks(tuple(masks))


# -- edge-list JSON ----------------------------------------------------------


# a label is an object holding its kind and each optional field that is set;
# each optional field's name maps to its DOT prefix, in declaration order
_OPTIONAL_FIELDS = {f.name: f.metadata["dot"] for f in fields(VertexLabel) if f.name != "kind"}


def emit_edge_list_json(g: LabeledGraph) -> str:
    d = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if any(lbl != PLAIN for lbl in g.labels):
        d["labels"] = [{f: x for f, x in vars(lbl).items() if x is not None} for lbl in g.labels]
    return json.dumps(d, indent=2, sort_keys=True)


def _label_from_json(pos: int, x) -> VertexLabel:
    kind = x.get("kind", "plain") if isinstance(x, dict) else None
    if not (isinstance(kind, str) and all(x.get(f) is None or type(x[f]) is int for f in _OPTIONAL_FIELDS)):
        raise FormatError(f"label #{pos} is not a label object: {x!r}")
    try:
        return VertexLabel(kind, **{f: x.get(f) for f in _OPTIONAL_FIELDS})
    except ValueError as exc:
        raise FormatError(f"label #{pos}: {exc}") from exc


def parse_edge_list_json(text: str) -> LabeledGraph:
    """The graph of an edge-list JSON object; every malformed part is a
    ``FormatError`` that names its position."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not (isinstance(d, dict) and "n" in d and "edges" in d):
        raise FormatError('edge-list JSON is not an object with fields "n" and "edges"')
    n, raw_edges = d["n"], d["edges"]
    if type(n) is not int or n < 0:
        raise FormatError(f"bad vertex count {n!r}")
    if not isinstance(raw_edges, list):
        raise FormatError(f"edges is not an array: {raw_edges!r}")
    for pos, e in enumerate(raw_edges):
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise FormatError(f"edge #{pos} is not a pair of vertex numbers: {e!r}")
    labels = d.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n:
            raise FormatError(f"labels is not an array of length {n}")
        labels = [_label_from_json(pos, x) for pos, x in enumerate(labels)]
    try:
        return LabeledGraph.from_edges(n, raw_edges, labels)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


# -- DOT ----------------------------------------------------------------------

def _label_text(v: int, lbl: VertexLabel) -> str:
    if lbl.kind == "plain":
        return str(v)
    values = ((prefix, getattr(lbl, f)) for f, prefix in _OPTIONAL_FIELDS.items())
    parts = [f"{prefix}{x}" for prefix, x in values if x is not None]
    return f"{LABEL_KINDS[lbl.kind][1]}[{','.join(parts)}] #{v}"


def emit_dot(g: LabeledGraph) -> str:
    lines = ["graph G {", "  node [style=filled];"]
    for v, lbl in enumerate(g.labels):
        lines.append(f'  {v} [label="{_label_text(v, lbl)}", fillcolor="{LABEL_KINDS[lbl.kind][2]}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
