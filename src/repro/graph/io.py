"""Task-graph serialization: JSON, DOT (Graphviz), and plain edge lists.

The JSON schema is the library's interchange format (round-trips
losslessly); DOT export exists for visual inspection; the edge-list
format matches the minimal conventions of STG-style benchmark files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import GraphError
from repro.graph.taskgraph import TaskGraph
from repro.graph.validate import validate_graph

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "save_graph_json",
    "load_graph_json",
    "graph_to_dot",
    "parse_edge_list",
    "format_edge_list",
]

_SCHEMA_VERSION = 1


def graph_to_dict(graph: TaskGraph) -> dict[str, Any]:
    """Serialize a graph to a JSON-safe dict (schema v1)."""
    return {
        "schema": _SCHEMA_VERSION,
        "name": graph.name,
        "weights": list(graph.weights),
        "labels": list(graph.labels),
        "edges": [[u, v, c] for (u, v), c in sorted(graph.edges.items())],
    }


def graph_from_dict(data: dict[str, Any]) -> TaskGraph:
    """Deserialize a graph from :func:`graph_to_dict` output.

    Raises
    ------
    GraphError
        On schema mismatch or structural problems, a repeated
        ``(src, dst)`` edge among them (which a mapping would fold into
        its last cost).
    """
    if data.get("schema") != _SCHEMA_VERSION:
        raise GraphError(f"unsupported schema {data.get('schema')!r}")
    try:
        weights = data["weights"]
        edge_rows = data["edges"]
    except KeyError as exc:
        raise GraphError(f"missing field {exc}") from None
    edges: dict[tuple[int, int], float] = {}
    for u, v, c in edge_rows:
        edge = (int(u), int(v))
        if edge in edges:
            raise GraphError(f"duplicate edge {edge}")
        try:
            edges[edge] = float(c)
        except OverflowError:  # an int too large for a float
            raise GraphError(f"edge ({u}, {v}) has non-finite cost {c!r}") from None
    validate_graph(weights, edges)
    return TaskGraph(
        weights,
        edges,
        labels=data.get("labels"),
        name=data.get("name", "taskgraph"),
    )


def save_graph_json(graph: TaskGraph, path: str | Path) -> None:
    """Write a graph to a JSON file."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2))


def load_graph_json(path: str | Path) -> TaskGraph:
    """Read a graph from a JSON file."""
    return graph_from_dict(json.loads(Path(path).read_text()))


def graph_to_dot(graph: TaskGraph) -> str:
    """Render a graph in Graphviz DOT syntax.

    Node labels show ``name (weight)``; edge labels show the
    communication cost.
    """
    lines = [f'digraph "{graph.name}" {{', "  rankdir=TB;"]
    for n in range(graph.num_nodes):
        lines.append(
            f'  {n} [label="{graph.label(n)}\\n({graph.weight(n):g})"];'
        )
    for (u, v), c in sorted(graph.edges.items()):
        lines.append(f'  {u} -> {v} [label="{c:g}"];')
    lines.append("}")
    return "\n".join(lines)


def parse_edge_list(text: str, name: str = "taskgraph") -> TaskGraph:
    """Parse the minimal edge-list format::

        # comment
        node <id> <weight>
        edge <src> <dst> <cost>

    Node ids must be dense 0..v-1 (any declaration order).

    Raises
    ------
    GraphError
        On syntax or structural problems, a node declared twice or a
        repeated edge among them.
    """
    node_weights: dict[int, float] = {}
    edges: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "node" and len(parts) == 3:
                node = int(parts[1])
                if node in node_weights:
                    raise GraphError(f"line {lineno}: node {node} declared twice")
                node_weights[node] = float(parts[2])
            elif parts[0] == "edge" and len(parts) == 4:
                edge = (int(parts[1]), int(parts[2]))
                if edge in edges:
                    raise GraphError(f"line {lineno}: duplicate edge {edge}")
                edges[edge] = float(parts[3])
            else:
                raise ValueError
        except ValueError:
            raise GraphError(f"line {lineno}: cannot parse {raw!r}") from None
    if not node_weights:
        raise GraphError("no node declarations found")
    v = len(node_weights)
    if sorted(node_weights) != list(range(v)):
        raise GraphError("node ids must be dense 0..v-1")
    weights = [node_weights[i] for i in range(v)]
    validate_graph(weights, edges)
    return TaskGraph(weights, edges, name=name)


def format_edge_list(graph: TaskGraph) -> str:
    """Inverse of :func:`parse_edge_list`."""
    lines = [f"# {graph.name}: v={graph.num_nodes} e={graph.num_edges}"]
    for n in range(graph.num_nodes):
        lines.append(f"node {n} {graph.weight(n):g}")
    for (u, v), c in sorted(graph.edges.items()):
        lines.append(f"edge {u} {v} {c:g}")
    return "\n".join(lines) + "\n"
