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
  dictionary-encoded columnar backend (NumPy-backed); every graph's
  encoded reads slice one :class:`~repro.kg.columnar.ColumnarStore`.
* :class:`~repro.kg.delta.LiveGraph` / :class:`~repro.kg.delta.GraphUpdate`
  — the delta-overlay write path over the immutable backends (adds +
  tombstones, versioned invalidation, LSM-style compaction).
* :mod:`~repro.kg.storage` — the scored-TSV text format, the
  mutation TSV (``iter_update_tsv``) and the packed ``.kg2`` snapshot
  format (``save_snapshot_v2`` / ``load_snapshot_v2``).
"""

from repro.kg.columnar import ColumnarGraph, ColumnarStore
from repro.kg.delta import GraphUpdate, LiveGraph
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, Variable, is_variable
from repro.kg.triple import Triple
from repro.kg.namespace import Namespace, RDF_TYPE

__all__ = [
    "ColumnarGraph",
    "ColumnarStore",
    "GraphUpdate",
    "KnowledgeGraph",
    "LiveGraph",
    "Namespace",
    "RDF_TYPE",
    "Triple",
    "TriplePattern",
    "Variable",
    "is_variable",
]

