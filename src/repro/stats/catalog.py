"""The precomputed-statistics catalog the planner consumes (§3.1.1).

For every triple pattern (keyed structurally, so variable names are
irrelevant) the catalog stores the paper's four values and the fitted
histogram.  It also owns the join-cardinality estimator.  Building the
catalog is the "offline" phase; :class:`repro.core.planner.SpecQPPlanner`
only reads from it at plan time.

Both kinds of statistic are computed from a pattern's normalized score
column, read from the same :class:`~repro.operators.block.EncodedListStore`
the join counts read their id columns from — so a store-backed graph
never builds a string match list for planning, and the lists a refresh
rebuilds are the ones execution reads next.
"""

from __future__ import annotations

import threading
from typing import Literal, Sequence

import numpy as np

from repro.errors import StatisticsError
from repro.kg.graph import KnowledgeGraph
from repro.kg.index import touched_pattern_keys
from repro.kg.pattern import TriplePattern
from repro.operators.block import EncodedListStore
from repro.query.query import TriplePatternQuery
from repro.stats.histogram import (
    DEFAULT_MASS_FRACTION,
    NBucketHistogram,
    PatternStats,
    TwoBucketHistogram,
    stats_from_scores,
)
from repro.stats.selectivity import JoinCardinalityEstimator, SelectivityMode

HistogramKind = Literal["two-bucket", "n-bucket"]


class StatisticsCatalog:
    """Per-pattern score statistics plus join cardinalities.

    Parameters
    ----------
    graph:
        The knowledge graph to summarise.
    mass_fraction:
        The score-mass fraction defining the bucket boundary (0.8 in the
        paper's 80/20 rule).
    histogram_kind / n_buckets:
        ``"two-bucket"`` reproduces the paper; ``"n-bucket"`` enables the
        §4.5.2 multi-bucket ablation.
    selectivity_mode:
        ``"exact"`` (paper's footnote 3) or ``"independence"``.
    encoded_store:
        The :class:`~repro.operators.block.EncodedListStore` the score
        statistics and join cardinalities read their match lists from.
        Hand in the store the block executor serves from and planning
        warms exactly the lists execution reads next; by default the
        catalog keeps a private bounded store.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        mass_fraction: float = DEFAULT_MASS_FRACTION,
        histogram_kind: HistogramKind = "two-bucket",
        n_buckets: int = 4,
        selectivity_mode: SelectivityMode = "exact",
        encoded_store: EncodedListStore | None = None,
    ) -> None:
        if histogram_kind not in ("two-bucket", "n-bucket"):
            raise StatisticsError(f"unknown histogram kind {histogram_kind!r}")
        self._graph = graph
        self.mass_fraction = mass_fraction
        self.histogram_kind = histogram_kind
        self.n_buckets = n_buckets
        # ``is None``, not truthiness: an empty store has length 0.
        self._lists = EncodedListStore() if encoded_store is None else encoded_store
        self.cardinalities = JoinCardinalityEstimator(
            graph, selectivity_mode, self._lists
        )
        #: Both keyed by ``pattern.list_key()``, like the match lists
        #: they summarise.
        self._stats: dict[tuple, PatternStats] = {}
        self._histograms: dict[tuple, TwoBucketHistogram | NBucketHistogram] = {}
        #: The graph version every cached entry describes.
        self._version = graph.version
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def graph(self) -> KnowledgeGraph:
        return self._graph

    def _current(self) -> None:
        """Refresh first if the graph moved since the last read."""
        if self._graph.version != self._version:
            self.refresh()

    def pattern_stats(self, pattern: TriplePattern) -> PatternStats:
        """The four stored values (m, σ_r, S_r, S_m) for *pattern*."""
        self._current()
        key = pattern.list_key()
        cached = self._stats.get(key)
        if cached is None:
            cached = stats_from_scores(self._scores(pattern), self.mass_fraction)
            self._stats[key] = cached
        return cached

    def histogram(
        self, pattern: TriplePattern
    ) -> TwoBucketHistogram | NBucketHistogram:
        """The fitted score-distribution histogram for *pattern*."""
        self._current()
        key = pattern.list_key()
        cached = self._histograms.get(key)
        if cached is None:
            if self.histogram_kind == "two-bucket":
                cached = TwoBucketHistogram.from_stats(self.pattern_stats(pattern))
            else:
                cached = NBucketHistogram.from_scores(
                    self._scores(pattern), self.n_buckets
                )
            self._histograms[key] = cached
        return cached

    def _scores(self, pattern: TriplePattern) -> np.ndarray:
        """*pattern*'s normalized scores, descending (its list's score column)."""
        return self._lists.get_or_build(self._graph, pattern).scores

    def match_count(self, pattern: TriplePattern) -> int:
        """``m_i`` for *pattern*."""
        return self.pattern_stats(pattern).m

    def cardinality(self, query: TriplePatternQuery) -> int:
        """(Estimated) answer count of *query*."""
        self._current()
        return self.cardinalities.cardinality(query)

    # ------------------------------------------------------------------
    def precompute(
        self,
        patterns: Sequence[TriplePattern] = (),
        queries: Sequence[TriplePatternQuery] = (),
    ) -> dict[str, int]:
        """Warm what PLANGEN reads for a workload (the offline phase):
        the histogram of every pattern and each query's answer count.

        Returns a small summary dict for logging/tests.
        """
        for pattern in patterns:
            self.histogram(pattern)
        if queries:
            for query in queries:
                for pattern in query.patterns:
                    self.histogram(pattern)
            self.cardinalities.precompute(list(queries))
        return {
            "patterns": len(self._histograms),
            "cardinality_cache": self.cardinalities.cache_size,
        }

    def invalidate(self) -> None:
        """Drop all cached statistics (after graph mutation)."""
        self._stats.clear()
        self._histograms.clear()
        self.cardinalities.clear()

    def refresh(self) -> dict[str, int]:
        """Drop only the statistics a write since the last refresh changed.

        Every read calls this first when the graph version moved, so a
        catalog never plans from an older version's statistics.  Over a
        :class:`repro.kg.delta.LiveGraph`, the triple keys written since
        the version the catalog holds
        (:meth:`~repro.kg.delta.LiveGraph.touched_since`) drop exactly the
        stats, histograms and join cardinalities that read a pattern they
        match; the rest — almost all, for a small delta — stay, and the
        dropped ones rebuild lazily from the live match lists.  Graphs
        without a journal, or a journal that cannot answer, fall back to
        :meth:`invalidate`.  Returns ``{"dropped": ..., "kept": ...}``
        over the histogram cache for logging/tests.
        """
        with self._lock:
            # Version first: a write racing this refresh shows next time.
            version = self._graph.version
            touched_since = getattr(self._graph, "touched_since", None)
            touched = touched_since(self._version) if touched_since else None
            self._version = version
            held = self._stats.keys() | self._histograms.keys()
            if touched is None:
                self.invalidate()
                return {"dropped": len(held), "kept": 0}
            touched_keys = touched_pattern_keys(touched)
            # Entries sit under list keys, whose first three slots are the
            # pattern key (a repeated-variable pattern adds a fourth).
            stale = [key for key in held if key[:3] in touched_keys]
            for key in stale:
                self._stats.pop(key, None)
                self._histograms.pop(key, None)
            self.cardinalities.drop_matching(touched_keys)
            return {"dropped": len(stale), "kept": len(self._histograms)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StatisticsCatalog({self.histogram_kind}, "
            f"mass_fraction={self.mass_fraction}, "
            f"patterns={len(self._histograms)})"
        )
