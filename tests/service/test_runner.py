"""WorkloadRunner: batch execution, concurrency equivalence, cache modes."""

from __future__ import annotations

import pytest

from repro.errors import DatasetError, ExperimentError
from repro.service import WorkloadRunner


@pytest.fixture(autouse=True)
def _restore_shared_graph(tiny_xkg_workload):
    """The session-scoped workload graph outlives these tests: leave it
    with no external cache attached and let indexes rebuild lazily."""
    yield
    tiny_xkg_workload.graph.detach_match_list_cache()


def outcome_signature(report):
    """What must be invariant across execution strategies."""
    return [
        (o.n_answers, o.n_relaxed, round(o.top_score, 9)) for o in report.outcomes
    ]


def test_rejects_bad_arguments(tiny_xkg_workload):
    with pytest.raises(ExperimentError):
        WorkloadRunner(tiny_xkg_workload, n_workers=0)
    with pytest.raises(ExperimentError, match="shards must be 1"):
        WorkloadRunner(tiny_xkg_workload, shards=4)
    runner = WorkloadRunner(tiny_xkg_workload, shards=1)
    with pytest.raises(ExperimentError):
        runner.run([], k=5)
    with pytest.raises(ExperimentError):
        runner.run(mode="lukewarm")


@pytest.mark.parametrize("model", ["process", "fibers"])
def test_rejects_unknown_worker_model(tiny_xkg_workload, model):
    """Threads are the one worker model; the parameter stays only for a
    caller that passes ``"thread"``."""
    with pytest.raises(ExperimentError, match="worker_model must be 'thread'"):
        WorkloadRunner(tiny_xkg_workload, worker_model=model)
    assert WorkloadRunner(tiny_xkg_workload, worker_model="thread").n_workers == 1


@pytest.mark.parametrize("capacity", [0, -1])
def test_rejects_bad_cache_capacity(tiny_xkg_workload, capacity):
    """The same error type as the runner's other bounds, not the bare
    ``ValueError`` the cache itself raises."""
    with pytest.raises(ExperimentError, match="cache_capacity must be >= 1"):
        WorkloadRunner(tiny_xkg_workload, cache_capacity=capacity)


@pytest.mark.parametrize(
    "serve",
    [
        lambda runner, query, k: runner.run([query], k=k, mode="warm"),
        lambda runner, query, k: runner.run([query], k=k, mode="cold"),
        lambda runner, query, k: runner.execute_query(query, k=k),
    ],
    ids=["warm", "cold", "execute_query"],
)
def test_nonpositive_k_is_rejected_not_defaulted(tiny_xkg_workload, serve):
    """``k=0`` is a bad k like ``k=-1``; only ``None`` means the config's k."""
    runner = WorkloadRunner(tiny_xkg_workload)
    query = tiny_xkg_workload.queries[0]
    for k in (0, -1):
        with pytest.raises(ExperimentError, match=f"k must be >= 1, got {k}"):
            serve(runner, query, k)
    served = serve(runner, query, None)
    n_answers = (
        len(served) if isinstance(served, tuple) else served.outcomes[0].n_answers
    )
    assert 0 < n_answers <= runner.config.k


def test_warm_run_reports_whole_batch(tiny_xkg_workload):
    runner = WorkloadRunner(tiny_xkg_workload)
    report = runner.run(k=5)

    assert report.n_queries == len(tiny_xkg_workload.queries)
    assert report.mode == "warm"
    assert report.dataset == tiny_xkg_workload.name
    assert report.wall_seconds > 0
    assert report.cache is not None and report.cache.lookups > 0
    names = [o.query_name for o in report.outcomes]
    assert names == [q.name for q in tiny_xkg_workload.queries]


def test_repeated_queries_hit_both_caches(tiny_xkg_workload):
    # Result cache off: with it on, repeats are served whole answers and
    # never reach the plan cache this test measures.
    runner = WorkloadRunner(tiny_xkg_workload, result_cache_capacity=0)
    queries = tiny_xkg_workload.stretched(3 * len(tiny_xkg_workload.queries))
    report = runner.run(queries, k=5)

    assert report.cache is not None
    assert report.cache.hit_rate > 0.5
    # Rounds 2 and 3 are structural repeats: all planned from cache.
    assert report.extras["plan_cache_hits"] >= 2 * len(tiny_xkg_workload.queries)
    assert report.extras["plan_cache_size"] == len(tiny_xkg_workload.queries)


def test_concurrent_runs_match_sequential(tiny_xkg_workload):
    sequential = WorkloadRunner(tiny_xkg_workload, n_workers=1)
    concurrent = WorkloadRunner(tiny_xkg_workload, n_workers=4)
    queries = tiny_xkg_workload.stretched(2 * len(tiny_xkg_workload.queries))

    seq_report = sequential.run(queries, k=5)
    conc_report = concurrent.run(queries, k=5)

    assert outcome_signature(conc_report) == outcome_signature(seq_report)
    assert conc_report.n_workers == 4
    # Outcomes come back in submission order regardless of completion order.
    assert [o.query_name for o in conc_report.outcomes] == [q.name for q in queries]


def test_cold_matches_warm_answers(tiny_xkg_workload):
    runner = WorkloadRunner(tiny_xkg_workload)
    comparison = runner.compare(k=5)
    assert outcome_signature(comparison["warm"]) == outcome_signature(
        comparison["cold"]
    )
    assert comparison["cold"].mode == "cold"
    assert comparison["cold"].cache is None
    assert comparison["speedup"] > 0


def test_plan_cache_can_be_disabled(tiny_xkg_workload):
    runner = WorkloadRunner(tiny_xkg_workload, plan_cache=False)
    queries = tiny_xkg_workload.stretched(2 * len(tiny_xkg_workload.queries))
    report = runner.run(queries, k=5)
    assert report.extras["plan_cache_hits"] == 0
    assert report.extras["plan_cache_size"] == 0


def test_graph_mutation_between_batches_refreshes_substrate(music_graph, music_rules):
    from repro.datasets.workload import Workload
    from repro.query.query import TriplePatternQuery
    from repro.kg.pattern import TriplePattern, Variable

    s = Variable("s")
    query = TriplePatternQuery(
        (TriplePattern(s, "rdf:type", "singer"),), name="singers"
    )
    workload = Workload("music", music_graph, music_rules, [query])
    runner = WorkloadRunner(workload)

    before = runner.run(k=2)
    catalog_before = runner.catalog
    assert before.outcomes[0].top_score == pytest.approx(1.0)

    music_graph.add("newcomer", "rdf:type", "singer", score=1000.0)
    after = runner.run(k=2)

    # The catalog refreshed itself at the new version: no re-warm-up.
    assert runner.catalog is catalog_before
    assert after.warmup_seconds == 0.0
    top = after.outcomes[0]
    assert top.n_answers == 2
    assert runner.execute_query(query, k=1)[0].bindings == (("s", "newcomer"),)


def test_stretched_and_batches(tiny_xkg_workload):
    queries = tiny_xkg_workload.stretched(30)
    assert len(queries) == 30
    assert len({q.name for q in queries}) == 30  # round suffixes keep names unique
    assert queries[0].patterns == queries[len(tiny_xkg_workload.queries)].patterns

    batches = list(tiny_xkg_workload.iter_batches(8, queries))
    assert [len(b) for b in batches] == [8, 8, 8, 6]
    assert [q for batch in batches for q in batch] == queries

    with pytest.raises(DatasetError):
        tiny_xkg_workload.stretched(0)
    with pytest.raises(DatasetError):
        next(tiny_xkg_workload.iter_batches(0))


# ----------------------------------------------------------------------
# Live updates (apply_updates)
# ----------------------------------------------------------------------
def music_workload(music_graph, music_rules):
    from repro.datasets.workload import Workload
    from repro.kg.pattern import TriplePattern, Variable
    from repro.query.query import TriplePatternQuery

    s = Variable("s")
    queries = [
        TriplePatternQuery((TriplePattern(s, "rdf:type", "singer"),), name="singers"),
        TriplePatternQuery((TriplePattern(s, "rdf:type", "writer"),), name="writers"),
    ]
    return Workload("music", music_graph, music_rules, queries)


def test_apply_updates_wraps_serves_and_invalidates(music_graph, music_rules):
    from repro.kg import GraphUpdate, LiveGraph

    runner = WorkloadRunner(music_workload(music_graph, music_rules))
    before = runner.run(k=3)
    assert before.outcomes[0].n_answers == 3

    result = runner.apply_updates(
        [
            GraphUpdate.add("megastar", "rdf:type", "singer", 1000.0),
            GraphUpdate.remove("taher", "rdf:type", "singer"),
            GraphUpdate.remove("nobody", "rdf:type", "singer"),
        ]
    )
    assert isinstance(runner.graph, LiveGraph)
    assert result["adds"] == 1 and result["removes"] == 1
    assert result["absent_removes"] == 1
    # First update wraps the graph: the frozen graph's entries go with the
    # released binding, so there is nothing left to purge.
    assert result["cache_purged"] == 0 and len(runner.cache) == 0

    after = runner.run(k=3)
    top = after.outcomes[0]
    assert top.top_score == pytest.approx(1.0)  # megastar normalises to 1
    assert "updates_applied" in after.extras
    assert after.extras["updates_applied"] == 2
    assert after.extras["graph_version"] == runner.graph.version
    assert "live updates" in after.render()
    # The workload's original graph object was never mutated.
    assert ("megastar", "rdf:type", "singer") not in music_graph

    # The wrap discarded the catalog with the frozen graph: nothing to refresh.
    assert result["stats_dropped"] == result["stats_kept"] == 0

    # Subsequent updates purge the entries the last batch populated, and
    # refresh the catalog: only what a singer triple can match goes.
    patterns = len({p.key() for q in runner.workload.queries for p in q.patterns})
    result2 = runner.apply_updates(
        [GraphUpdate.add("anotherstar", "rdf:type", "singer", 2000.0)]
    )
    assert result2["cache_purged"] >= 1
    assert result2["stats_dropped"] == 1
    assert result2["stats_kept"] == len(runner.catalog._histograms) >= patterns - 1
    report = runner.run(k=3)
    assert report.extras["update_stats_dropped"] == 1
    assert report.extras["update_stats_kept"] == result2["stats_kept"]
    assert "statistics 1 dropped" in report.render()


def test_apply_updates_answers_match_fresh_runner(music_graph, music_rules):
    """Served answers after updates equal a runner built over the final
    graph — the service-level mutation-equivalence check."""
    from repro.kg import GraphUpdate

    updates = [
        GraphUpdate.add("megastar", "rdf:type", "singer", 500.0),
        GraphUpdate.add("dylan", "rdf:type", "writer", 1.0),  # overwrite
        GraphUpdate.remove("beyonce", "rdf:type", "singer"),
    ]
    runner = WorkloadRunner(music_workload(music_graph, music_rules))
    runner.run(k=4)
    runner.apply_updates(updates)
    live_report = runner.run(k=4)

    fresh_graph = music_graph.__class__(music_graph.triples(), name="fresh")
    for update in updates:
        if update.op == "+":
            fresh_graph.add_triple(update.triple())
        else:
            fresh_graph.remove(*update.spo)
    fresh = WorkloadRunner(music_workload(fresh_graph, music_rules))
    fresh_report = fresh.run(k=4)

    assert outcome_signature(live_report) == outcome_signature(fresh_report)


def test_apply_updates_then_compact_keeps_untouched_answers(tiny_xkg_workload):
    from repro.kg import GraphUpdate

    runner = WorkloadRunner(tiny_xkg_workload)
    queries = tiny_xkg_workload.queries[:6]
    before = runner.run(queries, k=5)
    runner.apply_updates(
        [GraphUpdate.add(f"fresh{i}", "rdf:type", "topic", float(i + 1)) for i in range(8)]
    )
    after = runner.run(queries, k=5)
    assert outcome_signature(after) == outcome_signature(before)  # untouched patterns
    assert ("fresh3", "rdf:type", "topic") in runner.graph

    compacted = runner.apply_updates(
        [GraphUpdate.add("fresh99", "rdf:type", "topic", 9.0)], compact=True
    )
    assert compacted["compacted"] is True
    assert runner.graph.delta_size == 0
    again = runner.run(queries, k=5)
    assert outcome_signature(again) == outcome_signature(before)
    assert runner.update_stats["update_batches"] == 2
    assert runner.update_stats["update_compactions"] == 1


def test_apply_updates_auto_compacts_at_threshold(music_graph, music_rules):
    from repro.kg import GraphUpdate

    runner = WorkloadRunner(
        music_workload(music_graph, music_rules), compact_threshold=3
    )
    result = runner.apply_updates(
        [GraphUpdate.add(f"n{i}", "rdf:type", "singer", float(i + 1)) for i in range(4)]
    )
    assert result["compacted"] is True
    # The threshold is enforced per update, so only the post-compaction
    # residue (here the 4th add) may remain pending.
    assert runner.graph.delta_size < 3


def test_apply_updates_refreshes_catalog_incrementally(music_graph, music_rules):
    from repro.kg import GraphUpdate

    runner = WorkloadRunner(music_workload(music_graph, music_rules))
    runner.run(k=3)
    # First update wraps the graph: the catalog rebuilds over the wrapper.
    runner.apply_updates([GraphUpdate.add("a", "rdf:type", "singer", 2.0)])
    runner.run(k=3)
    catalog = runner.catalog
    # Later updates keep the catalog object, refreshed in place.
    runner.apply_updates([GraphUpdate.add("b", "rdf:type", "singer", 3.0)])
    report = runner.run(k=3)
    assert runner.catalog is catalog
    assert report.warmup_seconds == 0.0  # no full rebuild


def test_apply_updates_waits_for_inflight_batches(music_graph, music_rules):
    """The batch gate: a writer blocks until running batches drain, and
    batches queued behind the writer see the new version."""
    import threading

    from repro.kg import GraphUpdate

    runner = WorkloadRunner(music_workload(music_graph, music_rules))
    runner.run(k=2)  # warm up outside the race

    in_batch = threading.Event()
    release_batch = threading.Event()
    original_execute = runner._execute_warm

    def slow_execute(query, k):
        in_batch.set()
        release_batch.wait(timeout=5)
        return original_execute(query, k)

    runner._execute_warm = slow_execute
    batch_thread = threading.Thread(target=lambda: runner.run(k=2))
    batch_thread.start()
    assert in_batch.wait(timeout=5)

    applied = threading.Event()
    update_thread = threading.Thread(
        target=lambda: (
            runner.apply_updates([GraphUpdate.add("x", "rdf:type", "singer", 1.0)]),
            applied.set(),
        )
    )
    update_thread.start()
    # The writer must wait for the in-flight batch.
    assert not applied.wait(timeout=0.2)
    release_batch.set()
    assert applied.wait(timeout=5)
    batch_thread.join(timeout=5)
    update_thread.join(timeout=5)
    assert ("x", "rdf:type", "singer") in runner.graph


def test_auto_serves_blocks_from_merged_lists_where_it_can(tiny_xkg_workload):
    """``auto`` is block on a backend with id columns — resident lists or
    not — and a repeated batch is served from pre-merged relaxation
    lists; on the object graph it is tuple.  Answers never differ."""
    from repro.datasets.workload import Workload
    from repro.kg.columnar import ColumnarGraph

    columnar = Workload(
        "auto-columnar",
        ColumnarGraph.from_graph(tiny_xkg_workload.graph, name="auto"),
        tiny_xkg_workload.rules,
        tiny_xkg_workload.queries,
    )
    reference = WorkloadRunner(
        columnar, executor="tuple", result_cache_capacity=0
    ).run(k=5)
    runner = WorkloadRunner(columnar, executor="auto", result_cache_capacity=0)
    first, second = runner.run(k=5), runner.run(k=5)
    for report in (first, second):
        assert {o.executor for o in report.outcomes} == {"block"}
        assert outcome_signature(report) == outcome_signature(reference)
    relaxed = sum(o.n_relaxed for o in first.outcomes)
    assert relaxed > 0
    assert first.extras["merged_list_misses"] > 0
    assert second.extras["merged_list_misses"] == 0
    assert second.extras["merged_list_hits"] == relaxed
    assert 0 < second.extras["merged_list_size"] <= first.extras["merged_list_misses"]
    assert "merged relaxation lists" in second.render()

    object_report = WorkloadRunner(
        tiny_xkg_workload, executor="auto", result_cache_capacity=0
    ).run(k=5)
    assert {o.executor for o in object_report.outcomes} == {"tuple"}
    assert outcome_signature(object_report) == outcome_signature(reference)


@pytest.mark.parametrize("executor", ["auto", "block"])
def test_cold_rows_name_the_pipeline_that_served_them(tiny_xkg_workload, executor):
    """A report row names ``"tuple"`` or ``"block"`` — the pipeline that
    ran — in cold mode as in warm, never the configured mode."""
    from repro.datasets.workload import Workload
    from repro.kg.columnar import ColumnarGraph

    columnar = Workload(
        "cold-columnar",
        ColumnarGraph.from_graph(tiny_xkg_workload.graph, name="cold"),
        tiny_xkg_workload.rules,
        tiny_xkg_workload.queries,
    )
    runner = WorkloadRunner(columnar, executor=executor, result_cache_capacity=0)
    for mode in ("cold", "warm"):
        report = runner.run(k=5, mode=mode)
        assert {o.executor for o in report.outcomes} == {"block"}, mode
    object_runner = WorkloadRunner(tiny_xkg_workload, executor=executor)
    cold = object_runner.run(k=5, mode="cold")
    assert {o.executor for o in cold.outcomes} == {"tuple"}
