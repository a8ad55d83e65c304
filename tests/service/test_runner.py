"""WorkloadRunner: batch execution, concurrent readers, shared caches."""

from __future__ import annotations

import pytest

from repro.baselines.naive import NaiveEngine
from repro.core.engine import SpecQPEngine
from repro.errors import DatasetError, ExperimentError
from repro.service import WorkloadRunner


@pytest.fixture(autouse=True)
def _restore_shared_graph(tiny_xkg_workload):
    """The session-scoped workload graph outlives these tests: leave it
    with no external cache attached and let indexes rebuild lazily."""
    yield
    tiny_xkg_workload.graph.detach_match_list_cache()


def outcome_signature(report):
    """What must be invariant across caches and backends."""
    return [
        (o.n_answers, o.n_relaxed, round(o.top_score, 9)) for o in report.outcomes
    ]


def oracle_answers(graph, rules, config, query, k):
    """PLANGEN's plan of *query* over *graph* and the oracle's answers to it."""
    plan = SpecQPEngine(graph, rules, config).plan(query, k).plan
    oracle = NaiveEngine(graph, rules)
    return plan, oracle.evaluate(plan, k, config.max_relaxations_per_pattern)


def oracle_signature(runner, rules, queries, k):
    """:func:`outcome_signature` of the oracle's answers over the
    runner's graph."""
    signature = []
    for query in queries:
        plan, answers = oracle_answers(runner.graph, rules, runner.config, query, k)
        top = answers[0].score if answers else 0.0
        signature.append((len(answers), plan.n_relaxed, round(top, 9)))
    return signature


def answer_rows(answers):
    return [(a.bindings, a.score) for a in answers]


def test_rejects_bad_arguments(tiny_xkg_workload):
    with pytest.raises(ExperimentError, match="shards must be 1"):
        WorkloadRunner(tiny_xkg_workload, shards=4)
    runner = WorkloadRunner(tiny_xkg_workload, shards=1)
    with pytest.raises(ExperimentError):
        runner.run([], k=5)


@pytest.mark.parametrize("model", ["process", "fibers"])
def test_rejects_unknown_worker_model(tiny_xkg_workload, model):
    """Threads are the one worker model; the parameter stays only for a
    caller that passes ``"thread"``."""
    with pytest.raises(ExperimentError, match="worker_model must be 'thread'"):
        WorkloadRunner(tiny_xkg_workload, worker_model=model)
    WorkloadRunner(tiny_xkg_workload, worker_model="thread")


@pytest.mark.parametrize("executor", ["tuple", "block", "simd"])
def test_rejects_every_executor_but_auto(tiny_xkg_workload, executor):
    """The runner serves one pipeline; ``executor`` stays only for a
    caller that passes ``"auto"``."""
    with pytest.raises(ExperimentError, match="executor must be 'auto'"):
        WorkloadRunner(tiny_xkg_workload, executor=executor)
    WorkloadRunner(tiny_xkg_workload, executor="auto")


@pytest.mark.parametrize("n_workers", [0, 2, 4])
def test_rejects_every_worker_count_but_one(tiny_xkg_workload, n_workers):
    """Batches run inline; ``n_workers`` stays only for a caller that
    passes ``1``."""
    with pytest.raises(ExperimentError, match="n_workers must be 1"):
        WorkloadRunner(tiny_xkg_workload, n_workers=n_workers)
    WorkloadRunner(tiny_xkg_workload, n_workers=1)


@pytest.mark.parametrize("capacity", [0, -1])
def test_rejects_bad_cache_capacity(tiny_xkg_workload, capacity):
    """The same error type as the runner's other bounds, not the bare
    ``ValueError`` the cache itself raises."""
    with pytest.raises(ExperimentError, match="cache_capacity must be >= 1"):
        WorkloadRunner(tiny_xkg_workload, cache_capacity=capacity)


@pytest.mark.parametrize(
    "serve",
    [
        lambda runner, query, k: runner.run([query], k=k),
        lambda runner, query, k: runner.execute_query(query, k=k),
    ],
    ids=["run", "execute_query"],
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
    assert report.dataset == tiny_xkg_workload.name
    assert report.wall_seconds > 0
    assert report.extras["encoded_list_hits"] + report.extras["encoded_list_misses"] > 0
    assert {o.executor for o in report.outcomes} == {"block"}
    names = [o.query_name for o in report.outcomes]
    assert names == [q.name for q in tiny_xkg_workload.queries]


def test_repeated_queries_hit_both_caches(tiny_xkg_workload):
    # Result cache off: with it on, repeats are served whole answers and
    # never reach the planner's decision memo this test measures.
    runner = WorkloadRunner(tiny_xkg_workload, result_cache_capacity=0)
    queries = tiny_xkg_workload.stretched(3 * len(tiny_xkg_workload.queries))
    report = runner.run(queries, k=5)

    encoded = report.extras["encoded_list_hits"], report.extras["encoded_list_misses"]
    assert encoded[0] > encoded[1]
    # Rounds 2 and 3 are renamed repeats: every decision replayed from the
    # memo, which the report counts under the plan cache's names.
    assert report.extras["plan_cache_hits"] >= 2 * len(tiny_xkg_workload.queries)
    assert report.extras["plan_cache_size"] == len(tiny_xkg_workload.queries)


@pytest.mark.parametrize("serve", ["run", "execute_query"])
def test_reader_threads_share_the_runner_while_a_writer_applies_batches(
    tiny_xkg_workload, serve
):
    """Threads of the caller's own read through one runner while the main
    thread applies update batches that move the answers: every read
    completes, a ``run`` batch is served at one graph version with its
    rows in submission order, and afterwards every answer equals the
    oracle's over the final graph."""
    import sys
    import threading

    from repro.datasets.workload import Workload
    from repro.kg import ColumnarGraph, ColumnarStore, GraphUpdate

    graph = ColumnarGraph.from_graph(tiny_xkg_workload.graph, name="readers")
    workload = Workload("readers", graph, tiny_xkg_workload.rules, tiny_xkg_workload.queries)
    queries = workload.queries[:6]
    runner = WorkloadRunner(workload, result_cache_capacity=0)
    before = [runner.execute_query(query, 5) for query in queries]
    local, batches_seen, errors = threading.local(), [], []
    serve_warm = runner._serve_warm

    def recording_serve(query, k):
        local.versions.add(runner.graph.version)
        return serve_warm(query, k)

    runner._serve_warm = recording_serve

    def reader():
        try:
            for _ in range(3):
                local.versions = set()
                if serve == "run":
                    report = runner.run(queries, k=5)
                    assert [o.query_name for o in report.outcomes] == [
                        q.name for q in queries
                    ]
                    batches_seen.append(local.versions)
                else:
                    for query in queries:
                        assert 0 < len(runner.execute_query(query, 5)) <= 5
        except BaseException as error:  # pragma: no cover - fails the test
            errors.append(error)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so reads and writes interleave
    try:
        for thread in readers:
            thread.start()
        for at, query in enumerate(queries[:4]):
            pattern = query.patterns[0]
            best = max(
                (t for t in runner.graph.triples() if pattern.matches(t)),
                key=lambda t: (t.score, t.spo),
            )
            fresh = [f"reader:e{at}" if term is None else term for term in pattern.key()]
            runner.apply_updates(
                [GraphUpdate.remove(*best.spo), GraphUpdate.add(*fresh, 1.0)]
            )
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    del runner._serve_warm  # back to the method for the checks below
    assert not any(thread.is_alive() for thread in readers)
    assert errors == [], errors
    assert all(len(versions) == 1 for versions in batches_seen), batches_seen
    final = ColumnarGraph(ColumnarStore.from_triples(runner.graph.triples()))
    after = [runner.execute_query(query, 5) for query in queries]
    assert after != before, "the update batches never moved an answer"
    for query, served in zip(queries, after):
        _, expected = oracle_answers(final, workload.rules, runner.config, query, 5)
        assert answer_rows(served) == answer_rows(expected), query.name


def test_runner_never_attaches_a_match_list_cache(tiny_xkg_workload, music_graph, music_rules):
    """The block pipeline reads encoded lists only: no read or write
    leaves a string match-list cache on the served graph."""
    from repro.kg import GraphUpdate

    runner = WorkloadRunner(tiny_xkg_workload)
    runner.run(k=5)
    runner.execute_query(tiny_xkg_workload.queries[0], 5)
    assert tiny_xkg_workload.graph.match_list_cache is None
    live_runner = WorkloadRunner(music_workload(music_graph, music_rules))
    live_runner.apply_updates([GraphUpdate.add("x", "rdf:type", "singer", 2.0)])
    live_runner.run(k=3)
    assert live_runner.graph.match_list_cache is None
    assert len(live_runner.cache) == 0


def test_live_wrap_releases_a_cache_a_caller_bound(music_graph, music_rules):
    """A caller's engine may attach :attr:`WorkloadRunner.cache` to the
    served graph; the live wrap detaches and releases it, so an engine
    over the live overlay can attach it again, and update batches purge
    what it holds.  Only the tuple pipeline fills that cache, so the
    engines name it."""
    from repro.kg import GraphUpdate

    runner = WorkloadRunner(music_workload(music_graph, music_rules))
    query = runner.workload.queries[0]
    SpecQPEngine(
        runner.graph, music_rules, match_list_cache=runner.cache, executor="tuple"
    ).query(query, 3)
    assert music_graph.match_list_cache is runner.cache and len(runner.cache) > 0
    runner.apply_updates([GraphUpdate.add("x", "rdf:type", "singer", 2.0)])
    assert music_graph.match_list_cache is None and len(runner.cache) == 0
    engine = SpecQPEngine(
        runner.graph, music_rules, match_list_cache=runner.cache, executor="tuple"
    )
    assert engine.query(query, 3).answers == runner.execute_query(query, 3)
    assert len(runner.cache) > 0
    result = runner.apply_updates([GraphUpdate.add("y", "rdf:type", "singer", 3.0)])
    assert result["cache_purged"] > 0 and len(runner.cache) == 0


def test_warm_answers_match_a_fresh_engine_per_query(tiny_xkg_workload):
    """The shared caches must not change what the engine answers: every
    query of a warm batch with repeats, and every answer
    :meth:`~WorkloadRunner.execute_query` serves, equals a fresh
    :meth:`SpecQPEngine.query` — the per-query path that builds its
    catalog and lists from scratch — and the oracle's answers to its plan."""
    workload = tiny_xkg_workload
    oracle = NaiveEngine(workload.graph, workload.rules)
    fresh = {}
    for query in workload.queries:
        result = SpecQPEngine(workload.graph, workload.rules).query(query, 5)
        assert answer_rows(result.answers) == answer_rows(oracle.evaluate(result.plan, 5))
        fresh[query.name] = result
    runner = WorkloadRunner(workload)
    report = runner.run(workload.stretched(3 * len(workload.queries)), k=5)
    # stretched() cycles the query set, so row i is query i % n again.
    expected = [
        (len(r.answers), r.plan.n_relaxed, round(r.answers[0].score, 9))
        for r in (fresh[q.name] for q in workload.queries)
    ]
    assert outcome_signature(report) == 3 * expected
    assert report.extras["result_cache_hits"] == 2 * len(workload.queries)
    for query in workload.queries:
        served = runner.execute_query(query, 5)
        assert [(a.bindings, a.score) for a in served] == [
            (a.bindings, a.score) for a in fresh[query.name].answers
        ], query.name


@pytest.mark.parametrize("result_cache_capacity", [0, 4096])
def test_rules_added_in_place_are_served(tiny_xkg_workload, result_cache_capacity):
    """A rule added to the served ``RuleSet`` moves the answers: cached
    plans and answers planned under the old rules are never replayed, and
    every answer equals the oracle's under the new rules."""
    from repro.datasets.workload import Workload
    from repro.kg.columnar import ColumnarGraph
    from repro.relax.rules import RelaxationRule, RuleSet

    graph = ColumnarGraph.from_graph(tiny_xkg_workload.graph, name="rule-add")
    rules = RuleSet(list(tiny_xkg_workload.rules))
    queries = tiny_xkg_workload.queries
    runner = WorkloadRunner(
        Workload("rule-add", graph, rules, queries),
        result_cache_capacity=result_cache_capacity,
    )
    before = [runner.execute_query(query, 5) for query in queries]
    for rule in list(rules):
        rules.add(RelaxationRule(rule.domain, rule.range, 1.0))
    moved = 0
    for query, old in zip(queries, before):
        expected = answer_rows(oracle_answers(graph, rules, runner.config, query, 5)[1])
        served = runner.execute_query(query, 5)
        assert [(a.bindings, a.score) for a in served] == expected, query.name
        moved += [(a.bindings, a.score) for a in old] != expected
    assert moved > 0, "the added rules never moved an answer"


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
    assert result2["result_cache_purged"] >= 1
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


def test_a_batch_that_fails_after_a_prefix_is_refreshed_and_counted(tiny_xkg_workload):
    """A batch that raises after landing its first updates (the live
    graph keeps them) is still invalidated and counted: the landed
    prefix shows in ``update_stats``, every held list holds a fresh
    build's rows in score order, and reads equal a fresh engine at the
    resulting version."""
    import random

    from held_lists import assert_held_list

    from repro.core.plan import relaxation_inputs
    from repro.errors import KnowledgeGraphError
    from repro.kg import ColumnarGraph, ColumnarStore, GraphUpdate
    from repro.operators.block import build_encoded_match_list, build_merged_match_list

    runner = WorkloadRunner(tiny_xkg_workload)
    queries = tiny_xkg_workload.queries
    runner.apply_updates([GraphUpdate.add("fresh0", "rdf:type", "topic", 1.0)])
    runner.run(queries, k=5)
    graph = runner.graph
    rng = random.Random(3)
    rescored = rng.sample(sorted(graph.triples(), key=lambda t: t.spo), 40)
    batch = [GraphUpdate.add(*t.spo, float(rng.randint(1, 60))) for t in rescored]
    batch.append(GraphUpdate.add("bad\x00term", "rdf:type", "topic", 1.0))
    version = graph.version
    with pytest.raises(KnowledgeGraphError, match="NUL"):
        runner.apply_updates(batch)

    assert graph.version > version  # the prefix landed
    assert runner.update_stats["update_batches"] == 2
    assert runner.update_stats["updates_applied"] == 1 + len(rescored)
    store = runner.encoded_store
    codec = store.codec(graph)
    assert store.stats()["version"] == graph.version
    for key, held in list(store._lists.items()):
        if isinstance(key, tuple):  # a merged list: (pattern, variant)
            pattern, (cap, rules, _) = key
            fresh = build_merged_match_list(graph, relaxation_inputs(pattern, rules, cap), codec)
        else:
            fresh = build_encoded_match_list(graph, key, codec)
        assert_held_list(held, fresh, codec, key=key)
    fresh_engine = SpecQPEngine(
        ColumnarGraph(ColumnarStore.from_triples(graph.triples())),
        tiny_xkg_workload.rules,
        runner.config,
        executor="block",
    )
    for query in queries:
        served = runner.execute_query(query, 5)
        expected = fresh_engine.query(query, 5).answers
        assert [(a.bindings, a.score) for a in served] == [
            (a.bindings, a.score) for a in expected
        ], query.name


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
    original_serve = runner._serve_warm

    def slow_serve(query, k):
        in_batch.set()
        release_batch.wait(timeout=5)
        return original_serve(query, k)

    runner._serve_warm = slow_serve
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
    """The runner serves blocks — resident lists or not — and a repeated
    batch is served from pre-merged relaxation lists; on the object graph
    it is block too.  Answers never differ from the oracle's."""
    from repro.datasets.workload import Workload
    from repro.kg.columnar import ColumnarGraph

    columnar = Workload(
        "auto-columnar",
        ColumnarGraph.from_graph(tiny_xkg_workload.graph, name="auto"),
        tiny_xkg_workload.rules,
        tiny_xkg_workload.queries,
    )
    runner = WorkloadRunner(columnar, result_cache_capacity=0)
    reference = oracle_signature(runner, columnar.rules, columnar.queries, 5)
    first, second = runner.run(k=5), runner.run(k=5)
    for report in (first, second):
        assert {o.executor for o in report.outcomes} == {"block"}
        assert outcome_signature(report) == reference
    relaxed = sum(o.n_relaxed for o in first.outcomes)
    assert relaxed > 0
    assert first.extras["merged_list_misses"] > 0
    assert second.extras["merged_list_misses"] == 0
    assert second.extras["merged_list_hits"] == relaxed
    assert 0 < second.extras["merged_list_size"] <= first.extras["merged_list_misses"]
    assert "merged relaxation lists" in second.render()

    object_report = WorkloadRunner(
        tiny_xkg_workload, result_cache_capacity=0
    ).run(k=5)
    assert {o.executor for o in object_report.outcomes} == {"block"}
    assert outcome_signature(object_report) == reference


def test_rows_name_the_pipeline_that_served_them(tiny_xkg_workload):
    """A report row names the pipeline that ran — ``"block"`` on columns
    and on the object graph alike — and its answers are the oracle's."""
    from repro.datasets.workload import Workload
    from repro.kg.columnar import ColumnarGraph

    columnar = Workload(
        "rows-columnar",
        ColumnarGraph.from_graph(tiny_xkg_workload.graph, name="rows"),
        tiny_xkg_workload.rules,
        tiny_xkg_workload.queries,
    )
    runner = WorkloadRunner(columnar, result_cache_capacity=0)
    report = runner.run(k=5)
    assert {o.executor for o in report.outcomes} == {"block"}
    object_runner = WorkloadRunner(tiny_xkg_workload, result_cache_capacity=0)
    object_report = object_runner.run(k=5)
    assert {o.executor for o in object_report.outcomes} == {"block"}
    assert outcome_signature(object_report) == oracle_signature(
        object_runner, tiny_xkg_workload.rules, tiny_xkg_workload.queries, 5
    )
