"""Standard Task Graph (STG) format support.

The STG suite (Tobita & Kasahara) is the de-facto benchmark set for DAG
scheduling research.  Its file format is::

    <number-of-tasks>
    <task-id> <processing-time> <number-of-predecessors> [pred-id ...]
    ...
    # comments after the task lines

with task ids 0..n+1 where 0 is a zero-cost virtual entry and n+1 a
zero-cost virtual exit.  Classic STG carries **no edge weights** (the
suite targets the no-communication model); this reader accepts an
optional extended syntax where each predecessor may be written as
``pred:cost``, and the writer emits it when the graph has non-zero
communication.

Because :class:`~repro.graph.taskgraph.TaskGraph` requires positive node
weights, the zero-cost virtual entry/exit tasks of standard STG files
are replaced by ``epsilon`` (default 1e-6) — negligible for schedule
lengths, explicit in the API.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import GraphError
from repro.graph.taskgraph import TaskGraph

__all__ = ["parse_stg", "format_stg", "load_stg", "save_stg"]


def parse_stg(
    text: str,
    *,
    name: str = "stg",
    default_comm: float = 0.0,
    epsilon: float = 1e-6,
) -> TaskGraph:
    """Parse an STG document into a task graph.

    Parameters
    ----------
    text:
        STG file contents.
    default_comm:
        Edge cost used for predecessors written without ``:cost``.
    epsilon:
        Replacement weight for zero-cost (virtual) tasks.

    Raises
    ------
    GraphError
        On malformed input (wrong counts, unknown predecessors,
        forward references).
    """
    lines = [
        ln.strip() for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise GraphError("empty STG document")
    try:
        count = int(lines[0])
    except ValueError:
        raise GraphError(f"first line must be the task count, got {lines[0]!r}") from None
    body = lines[1 : 1 + count]
    if len(body) != count:
        raise GraphError(f"expected {count} task lines, found {len(body)}")

    weights: list[float] = []
    edges: dict[tuple[int, int], float] = {}
    for expected_id, raw in enumerate(body):
        parts = raw.split()
        try:
            tid = int(parts[0])
            cost = float(parts[1])
            npred = int(parts[2])
        except (IndexError, ValueError):
            raise GraphError(f"cannot parse task line {raw!r}") from None
        if tid != expected_id:
            raise GraphError(f"task ids must be dense 0..n; got {tid}, "
                             f"expected {expected_id}")
        preds = parts[3 : 3 + npred]
        if len(preds) != npred:
            raise GraphError(f"task {tid}: expected {npred} predecessors, "
                             f"found {len(preds)}")
        weights.append(cost if cost > 0 else epsilon)
        for token in preds:
            if ":" in token:
                pred_str, cost_str = token.split(":", 1)
                try:
                    pred, comm = int(pred_str), float(cost_str)
                except ValueError:
                    raise GraphError(f"task {tid}: bad predecessor {token!r}") from None
            else:
                try:
                    pred = int(token)
                except ValueError:
                    raise GraphError(f"task {tid}: bad predecessor {token!r}") from None
                comm = default_comm
            if not (0 <= pred < tid):
                raise GraphError(
                    f"task {tid}: predecessor {pred} must be an earlier task"
                )
            if (pred, tid) in edges:
                raise GraphError(f"task {tid}: duplicate predecessor {pred}")
            edges[(pred, tid)] = comm
    return TaskGraph(weights, edges, name=name)


def format_stg(graph: TaskGraph, *, epsilon: float = 1e-6) -> str:
    """Serialize a graph in (extended) STG syntax.

    Node order follows the graph's ids, which the writer requires to be
    topological (true for every generator in this library).  Edge costs
    are emitted as ``pred:cost`` whenever any edge cost is non-zero.

    Raises
    ------
    GraphError
        When node ids are not topologically ordered (an STG file cannot
        reference a later task as a predecessor).
    """
    for (u, w) in graph.edges:
        if u >= w:
            raise GraphError(
                "STG output requires topologically ordered node ids; "
                f"edge ({u}, {w}) violates this"
            )
    with_costs = any(c != 0 for c in graph.edges.values())
    lines = [str(graph.num_nodes)]
    for n in range(graph.num_nodes):
        w = graph.weight(n)
        weight_repr = 0.0 if w <= epsilon else w
        preds = list(graph.pred_edges(n))
        tokens = [str(n), f"{weight_repr:g}", str(len(preds))]
        for p, c in preds:
            tokens.append(f"{p}:{c:g}" if with_costs else str(p))
        lines.append(" ".join(tokens))
    lines.append(f"# generated by repro from {graph.name!r}")
    return "\n".join(lines) + "\n"


def load_stg(path: str | Path, **kwargs) -> TaskGraph:
    """Read an STG file (see :func:`parse_stg` for keyword options)."""
    p = Path(path)
    return parse_stg(p.read_text(), name=p.stem, **kwargs)


def save_stg(graph: TaskGraph, path: str | Path) -> None:
    """Write a graph as an STG file."""
    Path(path).write_text(format_stg(graph))
