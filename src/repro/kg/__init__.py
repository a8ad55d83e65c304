"""Scored knowledge-graph substrate.

This package plays the role the PostgreSQL backend played in the paper:
it stores ``(subject, predicate, object)`` triples, each with a non-negative
score, and can return the matches of any triple pattern *sorted by
normalised score in descending order* — the only interface the top-k
operators need.

Public surface:

* :class:`~repro.kg.triple.Triple` — an immutable scored triple.
* :class:`~repro.kg.pattern.TriplePattern` / :class:`~repro.kg.pattern.Variable`
  — SPARQL-style triple patterns.
* :class:`~repro.kg.graph.KnowledgeGraph` — the object-backed store.
* :class:`~repro.kg.columnar.ColumnarGraph` /
  :class:`~repro.kg.columnar.ColumnarStore` — the read-only
  dictionary-encoded columnar backend (NumPy-backed; imported lazily so
  the object backend stays dependency-free).
* :class:`~repro.kg.delta.LiveGraph` / :class:`~repro.kg.delta.GraphUpdate`
  — the delta-overlay write path over the immutable backends (adds +
  tombstones, versioned invalidation, LSM-style compaction).
* :mod:`~repro.kg.storage` — scored-TSV / N-triples text formats, the
  mutation TSV (``iter_update_tsv``) and the packed ``.kg2`` snapshot
  format (``save_snapshot_v2`` / ``load_snapshot_v2``).
"""

from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable, is_variable
from repro.kg.triple import Triple
from repro.kg.namespace import Namespace, RDF_TYPE

#: Names served lazily from repro.kg.columnar (keeps NumPy optional for
#: the object backend).
_COLUMNAR_EXPORTS = ("ColumnarGraph", "ColumnarStore", "ColumnarPatternIndex")

#: Names served lazily from repro.kg.sharding (NumPy-backed as well).
_SHARDING_EXPORTS = ("ShardedGraph", "ShardedPatternIndex")

__all__ = [
    "ColumnarGraph",
    "ColumnarPatternIndex",
    "ColumnarStore",
    "GraphUpdate",
    "KnowledgeGraph",
    "LiveGraph",
    "Namespace",
    "RDF_TYPE",
    "ShardedGraph",
    "ShardedPatternIndex",
    "Triple",
    "TriplePattern",
    "Variable",
    "is_variable",
]


def __getattr__(name: str):
    """Lazily resolve the columnar and sharding exports on first access."""
    if name in _COLUMNAR_EXPORTS:
        from repro.kg import columnar

        return getattr(columnar, name)
    if name in _SHARDING_EXPORTS:
        from repro.kg import sharding

        return getattr(sharding, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
