"""EXPLAIN ANALYZE-style query profiles rendered from span trees.

A :class:`QueryProfile` is the user-facing form of one query's trace: the
span tree with wall-times, attribute tallies (solver calls, cache verdicts)
and derived aggregates — total solver calls, batched pool traffic, and the
fault-tolerance trail — tasks that survived a worker crash
(``retried_tasks``) and solves answered from their worst-case fallback
(``degraded_shards``).

Profiles are plain data: ``render()`` gives the indented terminal tree
(``bound --profile``), ``to_dict``/``export_json`` give the machine-readable
form in the same idiom as ``benchmarks/BENCH_PR*.json`` (a ``schema`` tag +
flat records), and ``from_dict``/``from_json`` round-trip it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .trace import Span, Trace

__all__ = ["ProfileNode", "QueryProfile"]

PROFILE_SCHEMA = "repro-query-profile/1"


@dataclass
class ProfileNode:
    """One span in the rendered tree, children ordered by start time."""

    name: str
    span_id: str
    start: float
    duration: float
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["ProfileNode"] = field(default_factory=list)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "ProfileNode | None":
        """First node named ``name`` in pre-order, None when absent."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def find_all(self, name: str) -> list["ProfileNode"]:
        return [node for node in self.walk() if node.name == name]

    def total(self, key: str) -> float:
        """Sum a numeric attribute over this subtree."""
        total = 0.0
        for node in self.walk():
            value = node.attributes.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total += value
        return total

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProfileNode":
        return cls(
            name=data["name"],
            span_id=data["span_id"],
            start=float(data["start"]),
            duration=float(data["duration"]),
            attributes=dict(data.get("attributes") or {}),
            children=[cls.from_dict(child)
                      for child in data.get("children") or []],
        )


def _build_tree(spans: list[Span]) -> ProfileNode | None:
    """Assemble parent/child links; orphans hang under the root.

    Orphans happen when a worker died mid-task and its spans never came
    back, leaving an adopted child whose parent span was re-run elsewhere —
    the profile must degrade gracefully, never corrupt.
    """
    if not spans:
        return None
    nodes: dict[str, ProfileNode] = {}
    for span in spans:
        end = span.end if span.end is not None else span.start
        nodes[span.span_id] = ProfileNode(
            name=span.name, span_id=span.span_id, start=span.start,
            duration=end - span.start, attributes=dict(span.attributes))
    root: ProfileNode | None = None
    orphans: list[tuple[Span, ProfileNode]] = []
    for span in spans:
        node = nodes[span.span_id]
        if span.parent_id is None:
            if root is None:
                root = node
            else:
                orphans.append((span, node))
        elif span.parent_id in nodes:
            nodes[span.parent_id].children.append(node)
        else:
            orphans.append((span, node))
    if root is None:
        # Every span claims a missing parent (shouldn't happen; be safe).
        span, root = orphans.pop(0)
    for span, node in orphans:
        node.attributes.setdefault("orphaned", True)
        root.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.start)
    return root


def _format_attributes(attributes: dict[str, Any]) -> str:
    parts = []
    for key, value in sorted(attributes.items()):
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


@dataclass
class QueryProfile:
    """The profile attached to a report when ``profile=True`` was asked."""

    root: ProfileNode
    trace_id: str

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trace(cls, trace: Trace) -> "QueryProfile | None":
        root = _build_tree(list(trace))
        if root is None:
            return None
        return cls(root=root, trace_id=trace.trace_id)

    # ------------------------------------------------------------------ #
    # Derived aggregates
    # ------------------------------------------------------------------ #
    @property
    def wall_seconds(self) -> float:
        return self.root.duration

    @property
    def solver_calls(self) -> float:
        """Total MILP/SAT solver invocations across every span."""
        return self.root.total("solver_calls")

    def retried_tasks(self) -> int:
        """How many pool task spans came from a re-dispatched task.

        The pool tags a task's root span with ``attempts=N`` (N > 1) when
        the span that finally returned was not the first dispatch — the
        crash-recovery trail EXPLAIN ANALYZE surfaces after a worker died
        mid-round and its work was retried elsewhere."""
        return sum(1 for node in self.root.walk()
                   if isinstance(node.attributes.get("attempts"), int)
                   and node.attributes["attempts"] > 1)

    def degraded_shards(self) -> list[Any]:
        """Positions answered from their worst-case fallback range.

        A bound whose solve failed annotates its span with
        ``degraded_shards=(0,)`` under ``degrade="worst-case"``; an empty
        list means every solve was exact."""
        degraded: list[Any] = []
        for node in self.root.walk():
            value = node.attributes.get("degraded_shards")
            if isinstance(value, (list, tuple)):
                degraded.extend(value)
        return degraded

    def batch_counts(self) -> dict[str, float]:
        """How much pool traffic ran batched: ``batched_tasks`` pool entries
        carrying ``batched_cells`` solves — the amortization EXPLAIN
        ANALYZE surfaces (cells per task is the per-task-floor divisor)."""
        tasks = 0
        cells = 0.0
        for node in self.root.walk():
            if node.name == "pool.analyze_batch":
                tasks += 1
                value = node.attributes.get("cells")
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    cells += value
                else:
                    cells += 1
        return {"batched_tasks": float(tasks), "batched_cells": cells}

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """The indented terminal tree, EXPLAIN ANALYZE-style."""
        lines: list[str] = []
        total = self.root.duration or 1e-12

        def emit(node: ProfileNode, depth: int) -> None:
            pct = 100.0 * node.duration / total
            attrs = _format_attributes(node.attributes)
            line = (f"{'  ' * depth}{node.name:<{max(28 - 2 * depth, 8)}s} "
                    f"{node.duration * 1000:9.3f} ms {pct:5.1f}%")
            if attrs:
                line += f"  [{attrs}]"
            lines.append(line)
            for child in node.children:
                emit(child, depth + 1)

        emit(self.root, 0)
        summary = (f"total {self.wall_seconds * 1000:.3f} ms, "
                   f"solver calls {self.solver_calls:.0f}")
        batches = self.batch_counts()
        if batches["batched_tasks"]:
            summary += (f", batched {batches['batched_cells']:.0f} cell(s) "
                        f"in {batches['batched_tasks']:.0f} task(s)")
        retried = self.retried_tasks()
        if retried:
            summary += f", retried {retried} task(s)"
        degraded = self.degraded_shards()
        if degraded:
            summary += f", degraded {len(degraded)} shard(s)"
        lines.append(summary)
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # JSON round-trip (BENCH_PR*.json idiom: schema tag + plain records)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        batches = self.batch_counts()
        return {
            "schema": PROFILE_SCHEMA,
            "trace_id": self.trace_id,
            "wall_seconds": self.wall_seconds,
            "solver_calls": self.solver_calls,
            "batched_tasks": batches["batched_tasks"],
            "batched_cells": batches["batched_cells"],
            "retried_tasks": self.retried_tasks(),
            "degraded_shards": len(self.degraded_shards()),
            "tree": self.root.to_dict(),
        }

    def export_json(self, path=None, indent: int = 2) -> str:
        """Serialise; when ``path`` is given, also write the file."""
        payload = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryProfile":
        schema = data.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ValueError(f"unsupported profile schema: {schema!r}")
        return cls(root=ProfileNode.from_dict(data["tree"]),
                   trace_id=data["trace_id"])

    @classmethod
    def from_json(cls, payload: str) -> "QueryProfile":
        return cls.from_dict(json.loads(payload))
