"""Random edge tables and chain-join relations (paper §6.6.3).

The join experiments use randomly populated edge tables:

* **Triangle counting** — the query ``|R(a,b) S(b,c) T(c,a)|`` where all
  three relations are the same random directed edge table.
* **Acyclic chain joins** — ``R1(x1,x2) ⋈ R2(x2,x3) ⋈ ... ⋈ R5(x5,x6)`` with
  ``K`` rows per relation.

The generators return :class:`~repro.relational.relation.Relation` objects so
the exact join sizes can be computed with the relational substrate on small
instances, and plain statistics (cardinalities, max degrees) for the bound
comparisons at larger sizes.
"""

from __future__ import annotations

from ..exceptions import DatasetError
from ..relational.relation import Relation
from ..relational.schema import ColumnType, Schema
from .synthetic import make_rng

__all__ = [
    "generate_edge_table",
    "triangle_relations",
    "generate_chain_relations",
    "count_triangles",
]


def generate_edge_table(num_edges: int, num_vertices: int | None = None,
                        seed: int | None = 17, name: str = "edges") -> Relation:
    """A random directed edge table ``edges(src, dst)`` without self-loops."""
    if num_edges <= 0:
        raise DatasetError("num_edges must be positive")
    rng = make_rng(seed)
    vertices = num_vertices if num_vertices is not None else max(
        2, int(round(num_edges ** 0.75)))
    if vertices < 2:
        raise DatasetError("num_vertices must be at least 2")
    src = rng.integers(0, vertices, size=num_edges)
    dst = rng.integers(0, vertices, size=num_edges)
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % vertices
    schema = Schema.from_pairs([("src", ColumnType.INT), ("dst", ColumnType.INT)])
    return Relation(schema, {"src": src, "dst": dst}, name=name)


def triangle_relations(edges: Relation) -> tuple[Relation, Relation, Relation]:
    """The three renamed copies ``R(a,b)``, ``S(b,c)``, ``T(c,a)`` of an edge table."""
    src = edges.column("src")
    dst = edges.column("dst")

    def make(name: str, first: str, second: str) -> Relation:
        schema = Schema.from_pairs([(first, ColumnType.INT), (second, ColumnType.INT)])
        return Relation(schema, {first: src, second: dst}, name=name)

    return make("R", "a", "b"), make("S", "b", "c"), make("T", "c", "a")


def count_triangles(edges: Relation) -> int:
    """The exact value of ``|R(a,b) S(b,c) T(c,a)|`` for the edge table.

    Counts ordered directed triangles (the raw natural-join cardinality the
    paper's query computes), including those formed by parallel duplicate
    edges.
    """
    from ..relational.joins import natural_join_many

    relation_r, relation_s, relation_t = triangle_relations(edges)
    return natural_join_many([relation_r, relation_s, relation_t]).num_rows


def generate_chain_relations(rows_per_relation: int, num_relations: int = 5,
                             domain_size: int | None = None,
                             seed: int | None = 19) -> list[Relation]:
    """Relations ``R1(x1,x2), ..., Rk(xk, xk+1)`` with random integer keys."""
    if rows_per_relation <= 0:
        raise DatasetError("rows_per_relation must be positive")
    if num_relations <= 0:
        raise DatasetError("num_relations must be positive")
    rng = make_rng(seed)
    domain = domain_size if domain_size is not None else max(
        2, int(round(rows_per_relation ** 0.8)))
    relations: list[Relation] = []
    for index in range(num_relations):
        left = f"x{index + 1}"
        right = f"x{index + 2}"
        schema = Schema.from_pairs([(left, ColumnType.INT), (right, ColumnType.INT)])
        columns = {
            left: rng.integers(0, domain, size=rows_per_relation),
            right: rng.integers(0, domain, size=rows_per_relation),
        }
        relations.append(Relation(schema, columns, name=f"R{index + 1}"))
    return relations
