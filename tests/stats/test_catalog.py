"""Unit tests for the statistics catalog."""

import pytest

from repro.errors import StatisticsError
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.query.query import TriplePatternQuery
from repro.stats.catalog import StatisticsCatalog
from repro.stats.histogram import NBucketHistogram, TwoBucketHistogram


def tp(name, v="s"):
    return TriplePattern(var(v), "rdf:type", name)


@pytest.fixture
def graph():
    kg = KnowledgeGraph()
    scores = [100, 80, 40, 10, 5, 2, 1]
    for i, score in enumerate(scores):
        kg.add(f"e{i}", "rdf:type", "t1", score=score)
    for i in range(3):
        kg.add(f"e{i}", "rdf:type", "t2", score=10 * (i + 1))
    return kg


class TestPatternStats:
    def test_match_count(self, graph):
        catalog = StatisticsCatalog(graph)
        assert catalog.match_count(tp("t1")) == 7
        assert catalog.match_count(tp("missing")) == 0

    def test_stats_are_cached_by_key(self, graph):
        catalog = StatisticsCatalog(graph)
        s1 = catalog.pattern_stats(tp("t1", "s"))
        s2 = catalog.pattern_stats(tp("t1", "x"))
        assert s1 is s2

    def test_stats_values(self, graph):
        catalog = StatisticsCatalog(graph)
        stats = catalog.pattern_stats(tp("t1"))
        assert stats.m == 7
        assert 0 < stats.sigma_r <= 1.0
        assert stats.s_r <= stats.s_m


class TestHistograms:
    def test_two_bucket_default(self, graph):
        catalog = StatisticsCatalog(graph)
        hist = catalog.histogram(tp("t1"))
        assert isinstance(hist, TwoBucketHistogram)

    def test_n_bucket_mode(self, graph):
        catalog = StatisticsCatalog(graph, histogram_kind="n-bucket", n_buckets=4)
        hist = catalog.histogram(tp("t1"))
        assert isinstance(hist, NBucketHistogram)
        assert len(hist.masses) == 4

    def test_unknown_kind_rejected(self, graph):
        with pytest.raises(StatisticsError):
            StatisticsCatalog(graph, histogram_kind="wavelet")  # type: ignore[arg-type]

    def test_degenerate_for_empty_pattern(self, graph):
        catalog = StatisticsCatalog(graph)
        assert catalog.histogram(tp("missing")).is_degenerate


class TestCardinalityAndPrecompute:
    def test_cardinality_passthrough(self, graph):
        catalog = StatisticsCatalog(graph)
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        assert catalog.cardinality(q) == 3

    def test_precompute_summary(self, graph):
        catalog = StatisticsCatalog(graph)
        q = TriplePatternQuery((tp("t1"), tp("t2")))
        summary = catalog.precompute(queries=[q])
        assert summary["patterns"] == 2
        # The full-query count PLANGEN reads, not every prefix join.
        assert summary["cardinality_cache"] == 1

    def test_invalidate_clears(self, graph):
        catalog = StatisticsCatalog(graph)
        catalog.histogram(tp("t1"))
        catalog.invalidate()
        graph.add("new", "rdf:type", "t1", score=500)
        assert catalog.match_count(tp("t1")) == 8


class TestTargetedRefresh:
    """refresh() after a write leaves the catalog answering like a fresh
    one, having dropped only what the batch could have changed."""

    TYPES = tuple(f"t{i}" for i in range(6))

    def _live(self, rng):
        from repro.kg.columnar import ColumnarGraph
        from repro.kg.delta import LiveGraph

        kg = KnowledgeGraph()
        for entity in range(40):
            for type_name in rng.sample(self.TYPES, 3):
                kg.add(f"e{entity}", "rdf:type", type_name, score=rng.randint(1, 9))
        return LiveGraph(ColumnarGraph.from_graph(kg), compact_threshold=10)

    def _queries(self):
        types = self.TYPES
        return [
            TriplePatternQuery((tp(a), tp(b), tp(c)))
            for a, b, c in zip(types, types[1:], types[2:])
        ] + [TriplePatternQuery((tp("t0", "s"), tp("t5", "other")))]

    @pytest.mark.parametrize("mode", ["exact", "independence"])
    def test_random_batches_against_a_fresh_catalog(self, mode):
        import random

        from repro.kg.delta import GraphUpdate

        rng = random.Random(11)
        live = self._live(rng)
        queries = self._queries()
        catalog = StatisticsCatalog(live, selectivity_mode=mode)
        catalog.precompute(queries=queries)
        kept_some = False
        for _ in range(12):
            touched_types = rng.sample(self.TYPES, 2)
            batch = [
                GraphUpdate.add(f"e{rng.randrange(50)}", "rdf:type", t, rng.randint(1, 9))
                for t in touched_types
            ] + [GraphUpdate.remove(f"e{rng.randrange(40)}", "rdf:type", touched_types[0])]
            version = live.version
            live.apply_updates(batch)
            # A compaction step also lists the delta adds it folds.
            journaled = {spo[2] for spo in live.touched_since(version)}
            assert journaled >= set(touched_types)
            before = dict(catalog.cardinalities._exact_cache)
            catalog.refresh()
            survivors = catalog.cardinalities._exact_cache
            untouched = {
                patterns
                for patterns in before
                if not any(p.object in journaled for p in patterns)
            }
            assert untouched <= set(survivors)
            kept_some = kept_some or bool(untouched)
            fresh = StatisticsCatalog(live.thaw(), selectivity_mode=mode)
            for patterns, count in survivors.items():
                assert count == fresh.cardinality(TriplePatternQuery(tuple(patterns)))
            for query in queries:
                for n in range(1, len(query) + 1):
                    prefix = query.subquery(query.patterns[:n])
                    assert catalog.cardinality(prefix) == fresh.cardinality(prefix)
                for pattern in query.patterns:
                    assert catalog.pattern_stats(pattern) == fresh.pattern_stats(pattern)
        assert live.compactions >= 1
        assert kept_some or mode == "independence"

    def test_journal_overflow_drops_every_count(self, monkeypatch):
        import random

        from repro.kg import delta
        from repro.kg.delta import GraphUpdate

        live = self._live(random.Random(3))
        catalog = StatisticsCatalog(live)
        catalog.precompute(queries=self._queries())
        assert catalog.cardinalities.cache_size
        monkeypatch.setattr(delta, "MAX_TOUCHED_JOURNAL", 1)
        live.apply_updates(
            [GraphUpdate.add("x", "rdf:type", "t0"), GraphUpdate.add("y", "rdf:type", "t1")]
        )
        assert catalog.refresh()["kept"] == 0
        assert catalog.cardinalities.cache_size == 0
