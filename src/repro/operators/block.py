"""The block-at-a-time execution substrate: batches of encoded id columns.

The tuple operators (:mod:`repro.operators.base`) move one Python
:class:`~repro.query.answer.PartialAnswer` per pull — a dict of strings, a
float, a frozenset — and probe string-keyed hash tables.  At serving
scale that object churn is the dominant constant factor on the warm read
path.  This module defines the vectorized counterpart the block operators
(:mod:`repro.operators.vector_scan`, :mod:`repro.operators.vector_join`)
exchange instead:

* a :class:`Block` — a fixed-capacity batch of answers as parallel NumPy
  arrays: one int64 **term-id column per variable** plus one float64
  score column, rows in non-increasing score order;
* a :class:`BlockOperator` protocol mirroring
  :class:`~repro.operators.base.Operator` at block granularity (same
  upper-bound contract, so the HRJN threshold argument carries over
  unchanged — see :mod:`repro.operators.vector_join`);
* a :class:`TermCodec` mapping terms to ids: dictionary-encoded backends
  reuse their store ids verbatim, terms outside the store dictionary
  (live-delta adds, object-graph terms) are interned into a side table —
  the mapping is injective, so id equality *is* term equality and joins
  never decode;
* an :class:`EncodedMatchList` — a pattern's Definition-5 match list as
  id columns + normalized scores, sliced straight out of a
  :class:`~repro.kg.columnar.ColumnarStore` without materialising one
  Triple or string (the fast path), or encoded from an ordinary
  :class:`~repro.kg.index.MatchList` for overlay/object backends;
* the :class:`BlockTopK` sink, the only place ids are decoded back to
  strings — and only for the ≤ k (+ boundary ties) winning rows.

Scores are computed with exactly the same float operations as the tuple
engine (elementwise ``weight * normalized`` and left-deep ``+``), and
both sinks share :func:`~repro.operators.topk.finalize_canonical`, so the
two executors return byte-identical answer sequences.
"""

from __future__ import annotations

import abc
import threading
import weakref
from collections import OrderedDict, defaultdict
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.kg.index import touched_pattern_keys
from repro.operators.topk import finalize_canonical
from repro.query.answer import Answer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kg.columnar import ColumnarStore
    from repro.kg.index import MatchList
    from repro.kg.pattern import TriplePattern

#: Rows per emitted block.  A match list that fits is handed out whole,
#: so its stored join-key order serves every probe (see
#: :meth:`EncodedMatchList.key_order`).  Measured on the benchmark's
#: resident relaxed traffic at 1 024 rows: HRJN's corner bound does not
#: fall below the k-th result before the inputs run dry, so 99.6 % of all
#: list rows were pulled anyway, in 6.2 probes a read, and smaller blocks
#: only added probes (256 rows read 0.73x, 32 rows 0.16x of the qps).
#: Leaf lists there are 103-2 954 rows, so 4 096 is on that traffic the
#: same as unbounded while still bounding a block over a pathological list.
DEFAULT_BLOCK_SIZE = 4096

#: A row set's join keys in key order: the packed keys ascending, the row
#: each came from (equal keys in row order), and whether no key repeats.
KeyOrder = tuple[np.ndarray, np.ndarray, bool]


class TermCodec:
    """Injective term ↔ int64 id mapping over an optional store dictionary.

    Ids below ``n_base`` are the backing
    :class:`~repro.kg.columnar.ColumnarStore` dictionary ids (so columns
    sliced from the store need no re-encoding); terms the store does not
    know — live-delta adds, or every term when there is no store — get
    side-table ids ``n_base, n_base + 1, ...`` in first-seen order.

    A codec is only valid for one store object.  A compaction's new store
    extends the old dictionary, so store ids carry over but side ids do
    not: :class:`EncodedListStore` keeps only lists without side ids.

    Interning is thread-safe: one codec is shared by every worker engine
    of a :class:`~repro.service.WorkloadRunner`, and
    :meth:`EncodedListStore.get_or_build` deliberately builds match
    lists outside the store lock, so concurrent :meth:`encode` calls on
    the overlay/object path must not hand the same side id to two
    distinct terms (injectivity is what lets joins and the top-k sink
    compare ids instead of strings).
    """

    __slots__ = ("store", "n_base", "_side_ids", "_side_terms", "_side_lock")

    def __init__(self, store: "ColumnarStore | None" = None) -> None:
        self.store = store
        self.n_base = store.n_terms if store is not None else 0
        self._side_ids: dict[str, int] = {}
        self._side_terms: list[str] = []
        self._side_lock = threading.Lock()

    @property
    def n_ids(self) -> int:
        """Exclusive upper bound on every id handed out so far."""
        return self.n_base + len(self._side_terms)

    def encode(self, term: str) -> int:
        """The id of *term*, interning into the side table when new."""
        if self.store is not None:
            term_id = self.store.term_id(term)
            if term_id is not None:
                return term_id
        side = self._side_ids.get(term)
        if side is None:
            with self._side_lock:
                side = self._side_ids.get(term)
                if side is None:
                    side = self.n_base + len(self._side_terms)
                    # Append before publishing in the dict: any id another
                    # thread can observe must already decode.
                    self._side_terms.append(term)
                    self._side_ids[term] = side
        return side

    def decode(self, term_id: int) -> str:
        """The term of *term_id* (store dictionary or side table)."""
        if term_id < self.n_base:
            assert self.store is not None
            return self.store.term_list()[term_id]
        return self._side_terms[term_id - self.n_base]


def pack_columns(
    columns: Sequence[np.ndarray], n_ids: int, n_rows: int | None = None
) -> np.ndarray | None:
    """One collision-free int64 key per row of the parallel id *columns*.

    Zero columns (a variable-disjoint join's key) pack to zeros — every
    row matches every row, exactly the tuple engine's empty-tuple key.
    Returns ``None`` when ``n_ids ** n_columns`` overflows int64; callers
    fall back to :func:`joint_group_ids`, which is slower but exact.
    """
    if not columns:
        if n_rows is None:
            raise ExecutionError("packing zero columns requires n_rows")
        return np.zeros(n_rows, dtype=np.int64)
    if len(columns) == 1:
        return columns[0].astype(np.int64, copy=False)
    base = max(int(n_ids), 1)
    if base ** len(columns) >= 2**63:
        return None
    packed = columns[0].astype(np.int64, copy=True)
    for column in columns[1:]:
        packed *= base
        packed += column
    return packed


def joint_group_ids(
    a_columns: Sequence[np.ndarray], b_columns: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Consistent group ids for two row sets keyed on the same columns.

    The exact fallback when :func:`pack_columns` cannot pack: rows with
    equal key tuples — within or across the two sets — receive equal
    group ids (via one ``np.unique`` over the stacked columns), so the
    ids are safe to ``searchsorted`` against each other.
    """
    n_a = len(a_columns[0])
    stacked = np.stack(
        [np.concatenate([a, b]) for a, b in zip(a_columns, b_columns)], axis=1
    )
    view = np.ascontiguousarray(stacked).view(
        [("", stacked.dtype)] * stacked.shape[1]
    ).ravel()
    _, inverse = np.unique(view, return_inverse=True)
    inverse = inverse.astype(np.int64, copy=False)
    return inverse[:n_a], inverse[n_a:]


def sorted_key_order(
    columns: Sequence[np.ndarray], n_ids: int, n_rows: int
) -> KeyOrder | None:
    """The :data:`KeyOrder` of the rows keyed by the parallel id *columns*
    (one stable ``argsort`` of :func:`pack_columns`), or ``None`` when
    the keys cannot be packed."""
    packed = pack_columns(columns, n_ids, n_rows=n_rows)
    if packed is None:
        return None
    order = np.argsort(packed, kind="stable")
    keys = packed[order]
    return keys, order, bool((keys[1:] != keys[:-1]).all())


def expand_matches(lo: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row pairs of a probe into a sorted key run.

    Probe row ``i`` matches the run's positions ``lo[i] .. lo[i] +
    counts[i]``.  Returns, one entry per match, the probe row's index and
    the matched position in the run.
    """
    probe_rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    offsets = np.arange(len(probe_rows), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return probe_rows, np.repeat(lo, counts) + offsets


def first_occurrence_keep(packed: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of every distinct value, ascending.

    Dedup-max over a score-descending array: keeping each key's first
    occurrence keeps its maximum score (Definition 8), and ascending
    indices preserve the global score order.

    When the key domain is small against the row count (single-variable
    lists: the keys are term ids) nothing is sorted: a scatter-min
    writes each key's first index into a table over the domain, and a
    row is kept iff it is the one its key points back to.  Domains too
    large to address fall back to ``np.unique``.
    """
    n = len(packed)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    low = int(packed.min())
    span = int(packed.max()) - low + 1
    if span > 16 * n:
        _, first = np.unique(packed, return_index=True)
        return np.sort(first)
    slots = packed - low
    index = np.arange(n)
    first = np.full(span, n)
    np.minimum.at(first, slots, index)
    return np.nonzero(first[slots] == index)[0]


def _variable_positions(
    pattern: "TriplePattern",
) -> tuple[tuple[str, ...], list[int]]:
    """The distinct variable names of *pattern* in S-P-O order, and the
    first position each one occupies."""
    from repro.kg.pattern import Variable

    first_position: dict[str, int] = {}
    for position, term in enumerate(pattern.terms):
        if isinstance(term, Variable):
            first_position.setdefault(term.name, position)
    return tuple(first_position), list(first_position.values())


def _gather_rows(
    store: "ColumnarStore",
    var_names: tuple[str, ...],
    patterns: "Sequence[TriplePattern]",
    row_sets: Sequence[np.ndarray],
    adds: "Sequence[Sequence[tuple[tuple[str, str, str], float]]]",
    slots: "Sequence[np.ndarray | None]",
    codec: "TermCodec | None",
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Several match lists of *store*, gathered back to back.

    ``row_sets[i]`` are the rows of ``patterns[i]``'s list in Definition-5
    order; ``adds[i]`` — ``(spo, raw score)`` rows from outside the store,
    in Definition-5 order — are encoded through *codec* and inserted in
    front of ``row_sets[i][slots[i]]``.  Column ``j`` binds
    ``var_names[j]`` in every list, whichever position the variable holds
    in that list's pattern.  Each list is normalized by its own first —
    maximum — raw score (Definition 5), all-zero when that is not
    positive.  Returns the columns, the normalized scores, and each
    list's length and maximum raw score.
    """
    lengths = np.array([len(rows) for rows in row_sets], dtype=np.int64)
    rows = row_sets[0] if len(row_sets) == 1 else np.concatenate(row_sets)
    position_of = [dict(zip(*_variable_positions(pattern))) for pattern in patterns]
    store_columns = (store.subjects, store.predicates, store.objects)
    columns = []
    for name in var_names:
        positions = [of[name] for of in position_of]
        if len(set(positions)) == 1:
            column = store_columns[positions[0]][rows].astype(np.int64)
        else:  # a rule moved the variable: one gather per position it holds
            per_row = np.repeat(positions, lengths)
            column = np.empty(len(rows), dtype=np.int64)
            for position in set(positions):
                at = per_row == position
                column[at] = store_columns[position][rows[at]]
        columns.append(column)
    raw = store.scores[rows]
    if any(adds):
        assert codec is not None
        encode = codec.encode
        offsets = np.cumsum(lengths) - lengths
        at_slots = np.concatenate(
            [
                np.asarray(list_slots, dtype=np.int64) + offset
                for list_slots, list_adds, offset in zip(slots, adds, offsets)
                if list_adds
            ]
        )
        columns = [
            np.insert(
                column,
                at_slots,
                [
                    encode(spo[of[name]])
                    for of, list_adds in zip(position_of, adds)
                    for spo, _ in list_adds
                ],
            )
            for column, name in zip(columns, var_names)
        ]
        raw = np.insert(
            raw, at_slots, [score for list_adds in adds for _, score in list_adds]
        )
        lengths = lengths + [len(list_adds) for list_adds in adds]
    maxima = np.zeros(len(lengths), dtype=np.float64)
    filled = lengths > 0
    maxima[filled] = raw[(np.cumsum(lengths) - lengths)[filled]]
    positive = maxima > 0
    normalized = raw / np.repeat(np.where(positive, maxima, 1.0), lengths)
    if not positive[filled].all():
        normalized[np.repeat(~positive, lengths)] = 0.0
    return tuple(columns), normalized, lengths, maxima


class EncodedMatchList:
    """A pattern's Definition-5 match list as id columns + scores.

    ``columns[i]`` holds the int64 ids bound to ``var_names[i]`` (the
    pattern's distinct variables in S-P-O position order); ``scores``
    are the *normalized* scores, non-increasing.  Rows are in exactly
    the order the string :class:`~repro.kg.index.MatchList` would hold
    them (raw score descending, ties by ``spo``), so a scan over this
    list emits the same stream as a
    :class:`~repro.operators.scan.SortedScan` minus the objects.

    The arrays are read-only from construction: scans hand them out to
    operators as they are (a list that fits one block) or as views, so no
    operator can corrupt a stored list.  The list also carries its
    **join-key orders** (:meth:`key_order`), built on first use — views of
    the list that live and die with it in the
    :class:`EncodedListStore`.

    ``reads`` are the patterns the list was built from (its own, or every
    input of a merged relaxation list; ``None``: unknown) — a write that
    touches none of their keys leaves the list exact.
    """

    __slots__ = (
        "var_names", "columns", "scores", "max_score", "reads", "_read_keys",
        "_key_orders",
    )

    def __init__(
        self,
        var_names: tuple[str, ...],
        columns: tuple[np.ndarray, ...],
        scores: np.ndarray,
        max_score: float,
        reads: "tuple[TriplePattern, ...] | None" = None,
    ) -> None:
        for array in (*columns, scores):
            array.flags.writeable = False
        self.var_names = var_names
        self.columns = columns
        self.scores = scores
        self.max_score = max_score
        self.reads = reads
        self._read_keys: frozenset | None = None
        #: ``join_vars -> (packing base, KeyOrder | None)``.
        self._key_orders: dict[tuple[str, ...], tuple[int, KeyOrder | None]] = {}

    def __len__(self) -> int:
        return len(self.scores)

    def read_keys(self) -> frozenset:
        """The pattern keys of :attr:`reads` (``{None}``: unknown), computed once."""
        if self._read_keys is None:
            keys = (None,) if self.reads is None else (p.key() for p in self.reads)
            self._read_keys = frozenset(keys)
        return self._read_keys

    def key_order(self, join_vars: tuple[str, ...], n_ids: int) -> KeyOrder | None:
        """The list's rows in the order of their *join_vars* key, packed
        base *n_ids* (``None`` when that overflows).

        Built once per list and key — one ``argsort`` — and shared by
        every join that scans the whole list afterwards; the permutation
        is kept as int32, all arrays read-only.  Racing first builds
        compute the same arrays and either assignment may stand.
        """
        # One column packs to itself whatever the id domain; a wider key
        # is only good for the base it was packed with (side-table ids
        # can grow the domain between two queries of one graph version).
        base = n_ids if len(join_vars) > 1 else 0
        held = self._key_orders.get(join_vars)
        if held is None or held[0] != base:
            built = sorted_key_order(
                tuple(self.columns[self.var_names.index(name)] for name in join_vars),
                n_ids,
                len(self),
            )
            if built is not None:
                keys, order, distinct = built
                order = order.astype(np.int32)
                keys.flags.writeable = order.flags.writeable = False
                built = (keys, order, distinct)
            held = self._key_orders[join_vars] = (base, built)
        return held[1]

    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls, store: "ColumnarStore", pattern: "TriplePattern"
    ) -> "EncodedMatchList":
        """Slice the list straight out of dictionary-encoded columns.

        No row is ever decoded to strings and nothing is sorted: the
        rows come in Definition-5 order from the store's permutation
        index (:meth:`~repro.kg.columnar.ColumnarStore.match_rows`) and
        the variable columns are plain slices.  Ids are store dictionary
        ids, which is what a store-backed :class:`TermCodec` hands out
        for the same terms.
        """
        return cls._from_rows(store, pattern, store.match_rows(pattern))

    @classmethod
    def from_live(
        cls, live, pattern: "TriplePattern", codec: TermCodec
    ) -> "EncodedMatchList":
        """The list of a :class:`~repro.kg.delta.LiveGraph` over a
        store-backed base, sliced from the base's columns.

        The base rows come out of the store as in :meth:`from_store`,
        minus the rows the delta supersedes; the delta's few matching
        adds are encoded through *codec* (their terms may be outside the
        store dictionary) and spliced in at the slots
        :meth:`~repro.kg.delta.LiveGraph.overlay_rows` computed.  The
        result is what :meth:`from_match_list` makes of
        ``live.match_list(pattern)`` — ids, order, scores — without a
        triple or a string list in between.
        """
        (rows,), (adds,), (slots,) = live.overlay_rows((pattern,))
        return cls._from_rows(live.base.store, pattern, rows, adds, slots, codec)

    @classmethod
    def _from_rows(
        cls,
        store: "ColumnarStore",
        pattern: "TriplePattern",
        rows: np.ndarray,
        adds: "Sequence[tuple[tuple[str, str, str], float]]" = (),
        slots: "np.ndarray | None" = None,
        codec: "TermCodec | None" = None,
    ) -> "EncodedMatchList":
        """*rows* of *store*, already in Definition-5 order, as a list,
        with *adds* spliced in at *slots* (see :func:`_gather_rows`)."""
        var_names = _variable_positions(pattern)[0]
        columns, scores, _, maxima = _gather_rows(
            store, var_names, (pattern,), [rows], [adds], [slots], codec
        )
        return cls(var_names, columns, scores, float(maxima[0]), (pattern,))

    @classmethod
    def from_match_list(
        cls,
        match_list: "MatchList",
        pattern: "TriplePattern",
        codec: TermCodec,
    ) -> "EncodedMatchList":
        """Encode an already-built string match list through *codec*.

        The overlay/object-backend path: live graphs serve merged
        base∪delta lists whose delta terms may be outside the store
        dictionary, so each binding is interned (store id when known,
        side id otherwise).  Order and normalized scores are taken from
        the list verbatim — *match_list* must be *pattern*'s own list
        (``graph.match_list(pattern)``, which tells a repeated-variable
        pattern from its unconstrained twin).
        """
        var_names, positions = _variable_positions(pattern)
        triples = match_list.triples
        n = len(triples)
        columns = tuple(np.empty(n, dtype=np.int64) for _ in var_names)
        encode = codec.encode
        for row, triple in enumerate(triples):
            spo = triple.spo
            for column, position in zip(columns, positions):
                column[row] = encode(spo[position])
        scores = np.asarray(match_list.normalized_scores, dtype=np.float64)
        return cls(var_names, columns, scores, match_list.max_score, (pattern,))


def build_encoded_match_list(
    graph, pattern: "TriplePattern", codec: TermCodec
) -> EncodedMatchList:
    """The encoded match list of *pattern* over *graph*.

    Backends exposing a :class:`~repro.kg.columnar.ColumnarStore` that
    matches the codec's dictionary (columnar and sharded graphs — a
    sharded graph's full store produces exactly the merged Definition-5
    list) are sliced without decoding, and so are live overlays whose
    base is such a backend; everything else (object graphs, live
    overlays over them) goes through the graph's ordinary — and cached —
    string match list plus the codec.
    """
    if codec.store is not None:
        if getattr(graph, "store", None) is codec.store:
            return EncodedMatchList.from_store(codec.store, pattern)
        if getattr(getattr(graph, "base", None), "store", None) is codec.store:
            return EncodedMatchList.from_live(graph, pattern, codec)
    return EncodedMatchList.from_match_list(graph.match_list(pattern), pattern, codec)


def build_merged_match_list(
    graph,
    inputs: "Sequence[tuple[TriplePattern, float]]",
    codec: TermCodec,
) -> EncodedMatchList:
    """A relaxed pattern's pre-merged relaxation list: the deduplicated,
    score-descending union of its weighted inputs' lists (Definition 8).

    *inputs* are ``(pattern, weight)`` pairs — the relaxed pattern itself
    (weight 1.0), then each applicable rule's range pattern — binding the
    same variables, though a rule may move one to another position.  No
    per-input list is built: on the backends
    :func:`build_encoded_match_list` slices, every input's rows are
    gathered from the store's id columns in one pass (over a live
    overlay after **one** tombstone exclusion across all inputs, each
    input's adds spliced in at its own slots) and normalized per input;
    other graphs concatenate the inputs'
    :meth:`EncodedMatchList.from_match_list` columns.  Scores become
    ``weight * normalized``, one stable ``argsort`` orders them and
    :func:`first_occurrence_keep` keeps each binding's first — maximum —
    score.  The scores are final (weights applied), hence
    ``max_score=1.0``; equal scores keep input order.
    """
    patterns = [pattern for pattern, _ in inputs]
    var_names = _variable_positions(patterns[0])[0]
    for pattern in patterns[1:]:
        if set(pattern.variable_names) != set(var_names):
            raise ExecutionError(
                "all inputs of a relaxation merge must bind the same "
                f"variables: {sorted(var_names)} vs {sorted(pattern.variable_names)}"
            )
    store = codec.store
    if store is not None and getattr(graph, "store", None) is store:
        row_sets = [store.match_rows(pattern) for pattern in patterns]
        columns, normalized, lengths, _ = _gather_rows(
            store, var_names, patterns, row_sets, [()] * len(patterns),
            [None] * len(patterns), codec,
        )
    elif store is not None and getattr(getattr(graph, "base", None), "store", None) is store:
        columns, normalized, lengths, _ = _gather_rows(
            store, var_names, patterns, *graph.overlay_rows(patterns), codec
        )
    else:
        lists = [
            EncodedMatchList.from_match_list(graph.match_list(pattern), pattern, codec)
            for pattern in patterns
        ]
        columns = tuple(
            np.concatenate([part.columns[part.var_names.index(name)] for part in lists])
            for name in var_names
        )
        normalized = np.concatenate([part.scores for part in lists])
        lengths = np.array([len(part) for part in lists], dtype=np.int64)
    scores = np.repeat([weight for _, weight in inputs], lengths) * normalized
    # Stable sort: equal scores keep input order — irrelevant for the
    # surviving (binding, score) multiset, which dedup-keep-first fixes
    # whatever the order among equal keys, but deterministic.
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    columns = tuple(column[order] for column in columns)
    if len(scores):
        # Every input is encoded, so the id domain is final.
        packed = pack_columns(columns, codec.n_ids, n_rows=len(scores))
        if packed is None:
            packed, _ = joint_group_ids(columns, tuple(c[:0] for c in columns))
        keep = first_occurrence_keep(packed)
        scores = scores[keep]
        columns = tuple(column[keep] for column in columns)
    return EncodedMatchList(var_names, columns, scores, 1.0, tuple(patterns))


class EncodedListStore:
    """Shared, bounded, thread-safe store of encoded match lists.

    The block executor's twin of :class:`repro.service.MatchListCache`:
    one store per engine — or one shared across every worker engine of a
    :class:`~repro.service.WorkloadRunner`, so a pattern is encoded once
    no matter which thread first needs it.  The store owns the
    :class:`TermCodec` too, because cached id columns are only
    meaningful under the codec that produced them.

    When the graph version moves, the store drops only the lists whose
    :attr:`EncodedMatchList.reads` a write touched
    (:meth:`~repro.kg.delta.LiveGraph.touched_since`, in O(touched) through
    an index by pattern key).  The rest stay, key orders included, under
    the same codec, or a fresh one after a compaction; no answer from the
    journal costs a full purge.

    Like :class:`~repro.service.MatchListCache`, a store serves exactly
    **one graph**: the single codec/version slot cannot express two
    graphs' id spaces, and letting a second graph swap the codec
    mid-query would silently mix side-table id generations inside one
    operator tree.  The first graph seen binds the store (weakly);
    serving a different graph raises — call :meth:`release` first when
    the served graph is legitimately replaced (the runner does on its
    frozen → live wrap).

    Beside the per-pattern lists the store keeps **pre-merged relaxation
    lists** (:meth:`get_or_merge`): the deduplicated union of a relaxed
    pattern's own list and its weighted relaxations' lists, which is what
    a relaxed pattern's operator actually streams.  They are entries of
    the same LRU — counted against the same capacity, evicted by the same
    recency, dropped when a write touches an input — so a resident
    relaxed request pays for joins and the top-k sink only.  The per-rule input
    lists of a merge are never entries: a miss gathers them straight
    from the graph (:func:`build_merged_match_list`).
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ExecutionError(f"store capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._owner: "object | None" = None  # weakref.ref to the bound graph
        self._codec: TermCodec | None = None
        self._version = -1
        #: Keyed by pattern, or by ``(pattern, variant)`` for merged lists.
        self._lists: "OrderedDict[object, EncodedMatchList]" = OrderedDict()
        #: Pattern key read -> keys of the entries that read it (``None``:
        #: unknown); built at the first write, so read-only serving pays nothing.
        self._readers: "defaultdict[object, set[object]] | None" = None
        self._counts = dict.fromkeys(
            ("hits", "misses", "merged_hits", "merged_misses"), 0
        )
        self._evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @staticmethod
    def _backing_store(graph) -> "ColumnarStore | None":
        store = getattr(graph, "store", None)
        return store if store is not None else getattr(
            getattr(graph, "base", None), "store", None
        )

    def _sync_locked(self, graph) -> int:
        """Bring the store to *graph*'s version; returns the lists dropped."""
        owner = self._owner() if self._owner is not None else None
        if owner is None:
            self._owner = weakref.ref(graph)
            self._codec = None  # a fresh binding starts from scratch
        elif owner is not graph:
            raise ExecutionError(
                "EncodedListStore is already bound to graph "
                f"{getattr(owner, 'name', owner)!r}; one store serves one "
                "graph — release() it first or give each graph its own store"
            )
        store = self._backing_store(graph)
        codec, held, version = self._codec, self._version, graph.version
        if codec is not None and codec.store is store and held == version:
            return 0
        touched_since = getattr(graph, "touched_since", None)
        touched = touched_since(held) if codec is not None and touched_since else None
        if touched is None:
            dropped = len(self._lists)
            self._clear_locked()
        else:
            if self._readers is None:
                self._readers = defaultdict(set)
                for key, held_list in self._lists.items():
                    self._index_locked(key, held_list)
            dropped = 0
            for read in (*touched_pattern_keys(touched), None):
                for key in self._readers.pop(read, ()):
                    if key in self._lists:
                        self._index_locked(key, self._lists.pop(key), add=False)
                        dropped += 1
        if self._codec is None or codec.store is not store:
            # After a compaction store ids carry over, and every list that
            # held a side id read a folded add, so it is gone.
            self._codec = TermCodec(store)
        # Version read first: a write racing this sync shows next time.
        self._version = version
        return dropped

    def _clear_locked(self) -> None:
        self._lists.clear()
        self._readers = None
        self._codec = None
        self._version = -1

    def _index_locked(self, key: object, held: EncodedMatchList, add=True) -> None:
        """File (or unfile) *key* under every pattern key *held* read, once
        the first write has started the index."""
        if self._readers is None:
            return
        for read in held.read_keys():
            if add:
                self._readers[read].add(key)
            else:
                self._readers[read].discard(key)

    def codec(self, graph) -> TermCodec:
        """The codec valid for *graph* right now (refreshing on staleness)."""
        return self.pin(graph)[0]

    def pin(self, graph) -> tuple[TermCodec, int]:
        """The codec and graph version a query captures at its start and
        hands back as ``expect_codec`` / ``expect_version``."""
        with self._lock:
            self._sync_locked(graph)
            return self._codec, self._version

    def refresh(self, graph) -> dict[str, int]:
        """Sync to *graph*'s version now; returns ``{"dropped", "kept"}`` lists."""
        with self._lock:
            dropped = self._sync_locked(graph)
            return {"dropped": dropped, "kept": len(self._lists)}

    def get_or_build(
        self,
        graph,
        pattern: "TriplePattern",
        expect_codec: TermCodec | None = None,
        expect_version: int | None = None,
    ) -> EncodedMatchList:
        """The encoded match list of *pattern*, built at most once until a
        write touches it.  The cache key is the (hashable) pattern itself,
        not its index key: two patterns with one index key can differ in
        variable structure (repeated variables, repeated names).

        *expect_codec* and *expect_version* pin the call to what a query
        captured at its start (:meth:`pin`): a leaf served after the graph
        moved would bind wrong ids or mix versions, so a pinned call
        raises a clean :class:`~repro.errors.ExecutionError` instead.

        Building happens **outside** the lock (it may sort a cold match
        list), so concurrent workers miss-build in parallel instead of
        serializing on the store — the same discipline as the string
        match-list cache.  Two threads may race to build the same
        pattern; the first insert wins and the loser's copy is dropped.
        """
        return self._cached(
            graph,
            pattern,
            lambda codec: build_encoded_match_list(graph, pattern, codec),
            (expect_codec, expect_version),
            "",
        )

    def get_or_merge(
        self,
        graph,
        pattern: "TriplePattern",
        variant: object,
        merge: "Callable[[], EncodedMatchList]",
        expect_codec: TermCodec | None = None,
        expect_version: int | None = None,
    ) -> EncodedMatchList:
        """The pre-merged relaxation list of *pattern*, merged at most
        once per *variant* until a write touches one of its inputs.

        *variant* is everything besides the pattern and the graph that
        the merge depends on — the relaxation cap and the rule set's
        identity and version — as one hashable; *merge* builds the list
        on a miss (:func:`build_merged_match_list`, which reads no entry
        of this store and records its inputs in ``reads``).  Same lock,
        race, pins and LRU as :meth:`get_or_build`; a hit touches neither
        the rule set nor the graph.
        """
        return self._cached(
            graph, (pattern, variant), lambda codec: merge(),
            (expect_codec, expect_version), "merged_",
        )

    def _cached(
        self,
        graph,
        key: object,
        build: "Callable[[TermCodec], EncodedMatchList]",
        pinned: tuple[TermCodec | None, int | None],
        counter: str,
    ) -> EncodedMatchList:
        counts = self._counts
        with self._lock:
            self._sync_locked(graph)
            codec, version = self._codec, self._version
            if pinned[0] not in (None, codec) or pinned[1] not in (None, version):
                raise ExecutionError(
                    "graph changed during block execution: the encoded "
                    "match-list store moved to another graph version after "
                    "this query pinned one — do not mutate the graph (or "
                    "swap its backing store) while a query is in flight"
                )
            cached = self._lists.get(key)
            if cached is not None:
                self._lists.move_to_end(key)
                counts[counter + "hits"] += 1
                return cached
        built = build(codec)
        with self._lock:
            if (self._codec, self._version, graph.version) != (codec, version, version):
                # The graph moved on during the build, so the list may mix
                # versions: hand it back uncached for this query only, whose
                # captured codec its ids are consistent with.
                counts[counter + "misses"] += 1
                return built
            cached = self._lists.get(key)
            if cached is not None:
                counts[counter + "hits"] += 1
                return cached
            counts[counter + "misses"] += 1
            self._lists[key] = built
            self._index_locked(key, built)
            while len(self._lists) > self._capacity:
                self._index_locked(*self._lists.popitem(last=False), add=False)
                self._evictions += 1
            return built

    def release(self, graph) -> None:
        """Unbind *graph* and drop every cached list.

        Call when the served graph object is legitimately replaced (the
        runner's frozen → live wrap); a no-op if *graph* is not the
        bound owner.
        """
        with self._lock:
            owner = self._owner() if self._owner is not None else None
            if owner is None or owner is graph:
                self._owner = None
                self._clear_locked()

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current shape.

        ``hits``/``misses`` count per-pattern lists, ``merged_*`` the
        pre-merged relaxation lists; ``size`` (and ``evictions``) cover
        both kinds, ``merged_size`` of them are merged lists.
        """
        with self._lock:
            return {
                **self._counts,
                "evictions": self._evictions,
                "size": len(self._lists),
                "merged_size": sum(type(key) is tuple for key in self._lists),
                "capacity": self._capacity,
                "version": self._version,
            }

    def clear(self) -> None:
        """Drop every cached list (codec is rebuilt on next use)."""
        with self._lock:
            self._clear_locked()

    def __len__(self) -> int:
        with self._lock:
            return len(self._lists)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EncodedListStore(size={len(self)}, capacity={self._capacity})"


class Block:
    """One batch of answers: parallel id columns + non-increasing scores.

    *source* is set when the columns are a whole stored list's own
    arrays, so a join can take the rows' key order from the list
    (:meth:`EncodedMatchList.key_order`) instead of sorting them.
    """

    __slots__ = ("var_names", "columns", "scores", "source")

    def __init__(
        self,
        var_names: tuple[str, ...],
        columns: tuple[np.ndarray, ...],
        scores: np.ndarray,
        source: EncodedMatchList | None = None,
    ) -> None:
        if len(var_names) != len(columns):
            raise ExecutionError(
                f"block has {len(var_names)} variables but {len(columns)} columns"
            )
        self.var_names = var_names
        self.columns = columns
        self.scores = scores
        self.source = source

    def __len__(self) -> int:
        return len(self.scores)

    def column(self, name: str) -> np.ndarray:
        """The id column bound to variable *name*."""
        try:
            return self.columns[self.var_names.index(name)]
        except ValueError:
            raise ExecutionError(f"block has no column for variable {name!r}") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Block(vars={self.var_names}, rows={len(self)})"


class BlockOperator(abc.ABC):
    """Pull-based operator exchanging :class:`Block` batches.

    Contract (the :class:`~repro.operators.base.Operator` contract lifted
    to batches):

    * :meth:`next_block` returns the next batch or ``None`` (exhausted);
      once ``None`` is returned, all later calls return ``None``.
    * Concatenating the emitted blocks yields a stream in non-increasing
      score order.
    * :meth:`upper_bound` bounds every future row's score; ``-inf`` once
      exhausted, never increases.
    * :attr:`var_names` is static — every emitted block binds exactly
      these variables — which is what lets joins fix their key columns
      before the first pull (the tuple engine must discover them from
      the first item).
    """

    @abc.abstractmethod
    def next_block(self) -> Block | None:
        """Produce the next batch, or ``None`` when exhausted."""

    @abc.abstractmethod
    def upper_bound(self) -> float:
        """Best score any not-yet-emitted row can have."""

    @property
    @abc.abstractmethod
    def patterns_covered(self) -> frozenset[int]:
        """Indexes (into the query) of the patterns this operator covers."""

    @property
    @abc.abstractmethod
    def var_names(self) -> tuple[str, ...]:
        """The variables every emitted block binds."""

    def __iter__(self) -> Iterator[Block]:
        while True:
            block = self.next_block()
            if block is None:
                return
            yield block


class BlockTopK:
    """Drain a :class:`BlockOperator` into the top-k distinct answers.

    The only decode point of the block pipeline: rows are deduplicated
    on their *projected id tuples* (the codec is injective, so id-tuple
    equality is binding equality), pulled until the k-th distinct score's
    tie run is exhausted, and only the surviving rows are decoded to
    strings for the shared canonical cut
    (:func:`~repro.operators.topk.finalize_canonical`).
    """

    def __init__(
        self,
        source: BlockOperator,
        k: int,
        codec: TermCodec,
        projection: tuple[str, ...] | None = None,
    ) -> None:
        if k < 1:
            raise ExecutionError(f"k must be >= 1, got {k}")
        self._source = source
        self._k = k
        self._codec = codec
        self._projection = projection

    def run(self) -> list[Answer]:
        source = self._source
        names = (
            tuple(sorted(source.var_names))
            if self._projection is None
            else tuple(
                name for name in sorted(self._projection) if name in source.var_names
            )
        )
        k = self._k
        # The sink usually needs only ~k of a block's rows, so columns
        # are materialised to Python lists chunk by chunk — converting a
        # whole block of thousands of rows to visit 10 would dominate warm
        # single-pattern queries.
        chunk = max(32, 2 * k)
        collected: list[tuple[float, tuple[int, ...]]] = []
        seen: set[tuple[int, ...]] = set()
        last_score = float("inf")
        boundary: float | None = None
        done = False
        while not done:
            block = source.next_block()
            if block is None:
                break
            block_columns = [block.column(name) for name in names]
            n_rows = len(block)
            for start in range(0, n_rows, chunk):
                stop = min(start + chunk, n_rows)
                window = slice(start, stop)
                columns = [column[window].tolist() for column in block_columns]
                scores = block.scores[window].tolist()
                for row, score in enumerate(scores):
                    if score > last_score + 1e-9:
                        raise ExecutionError(
                            "block operator emitted rows out of score order: "
                            f"{score:.6f} after {last_score:.6f}"
                        )
                    last_score = score
                    if boundary is not None and score < boundary:
                        done = True
                        break
                    key = tuple(column[row] for column in columns)
                    if key in seen:
                        continue
                    seen.add(key)
                    collected.append((score, key))
                    if len(collected) == k:
                        boundary = score
                if done:
                    break
        decode = self._codec.decode
        results = [
            Answer(tuple(zip(names, (decode(i) for i in key))), score)
            for score, key in collected
        ]
        return finalize_canonical(results, k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockTopK(k={self._k})"
