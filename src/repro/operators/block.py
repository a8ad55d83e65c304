"""The block executor's substrate: match lists as encoded id columns.

The tuple operators (:mod:`repro.operators.base`) move one Python
:class:`~repro.query.answer.PartialAnswer` per pull — a dict of strings, a
float, a frozenset — and probe string-keyed hash tables.  At serving
scale that object churn is the dominant constant factor on the warm read
path.  The block executor instead evaluates a plan over whole lists of
parallel NumPy arrays — one int64 **term-id column per variable** plus one
float64 score column — joined by
:func:`~repro.operators.vector_join.join_lists`.  This module holds:

* a :class:`TermCodec` mapping terms to ids: the graph's
  :meth:`~repro.kg.graph.KnowledgeGraph.column_store` ids verbatim, and
  terms outside its dictionary (live-delta adds) interned into a side
  table — the mapping is injective, so id equality *is* term equality and
  joins never decode;
* an :class:`EncodedMatchList` — a pattern's Definition-5 match list as
  id columns + normalized scores, sliced straight out of that
  :class:`~repro.kg.columnar.ColumnarStore` without materialising one
  Triple or string — and the :class:`EncodedListStore` that keeps and
  patches them;
* the :func:`top_k_cut` sink, the only place ids are decoded back to
  strings — and only for the ≤ k (+ boundary ties) winning rows.

Scores are computed with exactly the same float operations as the tuple
engine (elementwise ``weight * normalized`` and left-deep ``+``), and
both sinks share :func:`~repro.operators.topk.finalize_canonical`, so the
two executors return byte-identical answer sequences.
"""

from __future__ import annotations

import bisect
import math
import threading
import weakref
from collections import OrderedDict, defaultdict
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.kg.columnar import stable_argsort
from repro.kg.index import pattern_keys
from repro.operators.topk import finalize_canonical
from repro.query.answer import Answer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kg.columnar import ColumnarStore
    from repro.kg.pattern import TriplePattern

#: A row set's join keys in key order: the packed keys ascending, the row
#: each came from (equal keys in row order), and whether no key repeats.
KeyOrder = tuple[np.ndarray, np.ndarray, bool]


class TermCodec:
    """Injective term ↔ int64 id mapping over a store dictionary.

    Ids below ``n_base`` are the backing
    :class:`~repro.kg.columnar.ColumnarStore` dictionary ids (so columns
    sliced from the store need no re-encoding); terms the store does not
    know — live-delta adds — get side-table ids ``n_base, n_base + 1,
    ...`` in first-seen order.

    A codec is only valid for one store object.  A compaction's new store
    extends the old dictionary, so store ids carry over but side ids do
    not: :class:`EncodedListStore` keeps only lists without side ids.

    Interning is thread-safe: one codec is shared by every worker thread
    of a :class:`~repro.service.WorkloadRunner`, and
    :meth:`EncodedListStore.get_or_build` deliberately builds match
    lists outside the store lock, so concurrent :meth:`encode` calls on
    the overlay path must not hand the same side id to two distinct
    terms (injectivity is what lets joins and the top-k sink compare ids
    instead of strings).
    """

    __slots__ = ("store", "n_base", "_side_ids", "_side_terms", "_side_lock")

    def __init__(self, store: "ColumnarStore") -> None:
        self.store = store
        self.n_base = store.n_terms
        self._side_ids: dict[str, int] = {}
        self._side_terms: list[str] = []
        self._side_lock = threading.Lock()

    @property
    def n_ids(self) -> int:
        """Exclusive upper bound on every id handed out so far."""
        return self.n_base + len(self._side_terms)

    def encode(self, term: str) -> int:
        """The id of *term*, interning into the side table when new."""
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

    def lookup(self, term: str) -> int | None:
        """The id of *term* if it has one (``None``: no list holds it),
        interning nothing."""
        term_id = self.store.term_id(term)
        return self._side_ids.get(term) if term_id is None else term_id

    def decode(self, term_id: int) -> str:
        """The term of *term_id* (store dictionary or side table)."""
        if term_id < self.n_base:
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
    (one :func:`~repro.kg.columnar.stable_argsort` of
    :func:`pack_columns`), or ``None`` when the keys cannot be packed."""
    packed = pack_columns(columns, n_ids, n_rows=n_rows)
    if packed is None:
        return None
    order = stable_argsort(packed)
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


def _gather_rows(
    store: "ColumnarStore",
    var_names: tuple[str, ...],
    patterns: "Sequence[TriplePattern]",
    rows: np.ndarray,
    lengths: np.ndarray,
    adds: "Sequence[Sequence[tuple[tuple[str, str, str], float]]]",
    slots: "Sequence[np.ndarray | None]",
    codec: TermCodec,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Several match lists of *store*, gathered back to back.

    *rows* holds ``lengths[i]`` rows of ``patterns[i]``'s list after
    another, each run in Definition-5 order; ``adds[i]`` — ``(spo, raw
    score)`` rows from outside the store, in that order too — are encoded
    through *codec* and go in front of the run's ``slots[i]``.  Column
    ``j`` binds ``var_names[j]`` whatever position the variable holds in
    each pattern.  Each list is normalized by its first — maximum — raw
    score (Definition 5), all-zero when that is not positive.  Returns
    the columns, the normalized scores, each list's length and maximum.
    """
    layouts = [pattern.variable_positions() for pattern in patterns]
    rows = rows.astype(np.intp)  # int32 indices gather at half the speed
    store_columns = (store.subjects, store.predicates, store.objects)
    columns = []
    for name in var_names:
        positions = [first[names.index(name)] for names, first in layouts]
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
        encode = codec.encode
        offsets = np.cumsum(lengths) - lengths
        at_slots = np.concatenate(
            [
                list_slots + offset
                for list_slots, list_adds, offset in zip(slots, adds, offsets)
                if list_adds
            ]
        )
        columns = [
            np.insert(
                column,
                at_slots,
                [
                    encode(spo[first[names.index(name)]])
                    for (names, first), list_adds in zip(layouts, adds)
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


def _store_rows(graph, patterns: "Sequence[TriplePattern]", codec: TermCodec):
    """The lists of *patterns* as ``(rows, lengths, adds, slots)`` of the
    codec's store for :func:`_gather_rows`:
    :meth:`~repro.kg.graph.KnowledgeGraph.list_rows`.

    Raises :class:`~repro.errors.ExecutionError` when *graph* no longer
    reads the codec's store: it changed after the codec was taken."""
    gathered = graph.list_rows(patterns)
    # Checked after the read, so rows of a store a racing write swapped in
    # are refused, not gathered under this codec.
    if graph.column_store() is not codec.store:
        raise ExecutionError(
            "graph changed during block execution: it no longer reads the "
            "column store this query's codec encodes — do not mutate the "
            "graph while a query is in flight"
        )
    return gathered


class EncodedMatchList:
    """A pattern's Definition-5 match list as id columns + scores.

    ``columns[i]`` holds the int64 ids bound to ``var_names[i]`` (the
    pattern's distinct variables in S-P-O position order); ``scores``
    are the *normalized* scores, non-increasing.  Rows are in exactly
    the order the string :class:`~repro.kg.index.MatchList` holds
    them (raw score descending, ties by ``spo``): the stream a
    :class:`~repro.operators.scan.SortedScan` emits, minus the objects.
    A join's output (:func:`~repro.operators.vector_join.join_lists`) is
    one too, its rows in no score order and its scores final.

    The arrays are read-only from construction: the executor hands a
    stored list to joins and the sink as it is, so none can corrupt the
    list every later query reads.  The list also carries its **join-key
    orders** (:meth:`key_order`), built on first use — views of the list
    that live and die with it in the :class:`EncodedListStore`.

    What a write needs to patch the list (:func:`patch_match_lists`):
    ``inputs``, the ``(pattern, weight)`` pairs it was built from (its own
    pattern at weight 1.0, or every input of a merged relaxation list;
    ``None``: unknown) and ``maxima``, each input list's raw maximum (its
    first raw score, 0.0 when empty); and, for a merged list of several
    inputs, ``sources``, the input each row came from.  A write that
    touches none of the inputs' keys leaves the list exact.
    """

    __slots__ = (
        "var_names", "columns", "scores", "max_score", "inputs", "maxima", "sources",
        "_read_keys", "_key_orders",
    )

    def __init__(
        self,
        var_names: tuple[str, ...],
        columns: tuple[np.ndarray, ...],
        scores: np.ndarray,
        max_score: float,
        inputs: "tuple[tuple[TriplePattern, float], ...] | None" = None,
        maxima: tuple[float, ...] | None = None,
        sources: np.ndarray | None = None,
    ) -> None:
        for array in (*columns, scores, sources):
            if array is not None:
                array.flags.writeable = False
        self.var_names = var_names
        self.columns = columns
        self.scores = scores
        self.max_score = max_score
        self.inputs = inputs
        self.maxima = maxima
        self.sources = sources
        self._read_keys: frozenset | None = None
        #: ``join_vars -> (packing base, KeyOrder | None)``.
        self._key_orders: dict[tuple[str, ...], tuple[int, KeyOrder | None]] = {}

    def __len__(self) -> int:
        return len(self.scores)

    def _successor(self, columns, scores, sources) -> "EncodedMatchList":
        """A list of the same inputs (a patch of this one)."""
        successor = EncodedMatchList(
            self.var_names, columns, scores, self.max_score, self.inputs, self.maxima,
            sources,
        )
        successor._read_keys = self._read_keys
        return successor

    @property
    def reads(self) -> "tuple[TriplePattern, ...] | None":
        """The patterns of :attr:`inputs` (``None``: unknown)."""
        return None if self.inputs is None else tuple(p for p, _ in self.inputs)

    def read_keys(self) -> frozenset:
        """The pattern keys of :attr:`reads` (``{None}``: unknown), computed once."""
        if self._read_keys is None:
            keys = (None,) if self.inputs is None else (p.key() for p, _ in self.inputs)
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


def build_encoded_match_list(
    graph, pattern: "TriplePattern", codec: TermCodec
) -> EncodedMatchList:
    """The encoded match list of *pattern* over *graph*, sliced from the
    codec's store (:func:`_store_rows`) without decoding a row."""
    var_names = pattern.variable_names
    gathered = _store_rows(graph, (pattern,), codec)
    columns, scores, _, maxima = _gather_rows(
        codec.store, var_names, (pattern,), *gathered, codec
    )
    return EncodedMatchList(
        var_names, columns, scores, float(maxima[0]), ((pattern, 1.0),), (float(maxima[0]),)
    )


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
    per-input list is built: all inputs' rows come from :func:`_store_rows`
    in one batch and are gathered and normalized in one pass.  Scores become
    ``weight * normalized``, one stable ``argsort`` orders them,
    :func:`first_occurrence_keep` keeps each binding's first — maximum —
    score, and the columns are gathered once through the composed
    permutation.  The scores are final, hence ``max_score=1.0``; equal
    scores keep input order, and ``sources`` records each row's input.
    """
    patterns = [pattern for pattern, _ in inputs]
    var_names = patterns[0].variable_names
    for pattern in patterns[1:]:
        names = pattern.variable_names
        if names != var_names and set(names) != set(var_names):
            raise ExecutionError(
                "all inputs of a relaxation merge must bind the same "
                f"variables: {sorted(var_names)} vs {sorted(names)}"
            )
    gathered = _store_rows(graph, patterns, codec)
    columns, normalized, lengths, maxima = _gather_rows(
        codec.store, var_names, patterns, *gathered, codec
    )
    scores = np.repeat([weight for _, weight in inputs], lengths) * normalized
    # Stable sort: equal scores keep input order — irrelevant for the
    # surviving (binding, score) multiset, which dedup-keep-first fixes
    # whatever the order among equal keys, but deterministic, and the
    # order a patch places a row by.
    order = np.argsort(-scores, kind="stable")
    if len(scores):
        # Every input is encoded, so the id domain is final.
        packed = pack_columns(columns, codec.n_ids, n_rows=len(scores))
        if packed is None:
            packed, _ = joint_group_ids(columns, tuple(c[:0] for c in columns))
        order = order[first_occurrence_keep(packed[order])]
    sources = None
    if len(inputs) > 1:
        sources = np.repeat(
            np.arange(len(inputs), dtype=np.min_scalar_type(len(inputs) - 1)), lengths
        )[order]
    return EncodedMatchList(
        var_names, tuple(column[order] for column in columns), scores[order], 1.0,
        tuple(inputs), tuple(maxima.tolist()), sources,
    )


# ----------------------------------------------------------------------
# Patching held lists after a write
# ----------------------------------------------------------------------
#: A fully bound triple key.
Spo = tuple[str, str, str]

#: A binding's row: score, input, raw score in that input, that input's
#: triple, and the binding (values of the list's variables).
_Row = tuple[float, int, float, Spo, tuple[str, ...]]


def _triple(pattern: "TriplePattern", var_names: tuple[str, ...], binding) -> Spo:
    """*pattern*'s triple for *binding*, the values of *var_names*."""
    s, p, o = pattern.key()
    if s is None:
        s = binding[var_names.index(pattern.subject.name)]
    if p is None:
        p = binding[var_names.index(pattern.predicate.name)]
    if o is None:
        o = binding[var_names.index(pattern.object.name)]
    return s, p, o


def _read(
    graph, store: "ColumnarStore", triples: list[Spo], patterns: Sequence = ()
) -> tuple[dict[Spo, float | None], dict]:
    """One :meth:`~repro.kg.graph.KnowledgeGraph.list_rows` of *triples*
    (as fully bound patterns) and *patterns*: each triple's raw score now
    (``None``: absent), and each pattern's raw maximum now."""
    from repro.kg.pattern import TriplePattern

    rows, lengths, adds, _ = graph.list_rows(
        [TriplePattern(*spo) for spo in triples] + list(patterns)
    )
    raws = store.scores[rows]
    starts = (np.cumsum(lengths) - lengths).tolist()
    lengths = lengths.tolist()
    scores = {
        spo: float(raws[start]) if length else (added[0][1] if added else None)
        for spo, start, length, added in zip(triples, starts, lengths, adds)
    }
    tops = {}
    for at, pattern in enumerate(patterns, len(triples)):
        heads = [float(raws[starts[at]])] if lengths[at] else []
        tops[pattern] = max(heads + [score for _, score in adds[at][:1]], default=0.0)
    return scores, tops


def _find_row(columns: tuple[np.ndarray, ...], ids: list[int]) -> int | None:
    """The row binding *ids* (a list holds a binding at most once)."""
    at = np.flatnonzero(columns[0] == ids[0])
    for column, term_id in zip(columns[1:], ids[1:]):
        at = at[column[at] == term_id]
    return int(at[0]) if len(at) else None


class _Plan(NamedTuple):
    """One list's patch: per touched binding, the inputs a write touched
    (``{input: triple}``) and its held row, if any; and the inputs whose
    maximum is read because the write may have changed a row holding it."""

    touched: dict[tuple[str, ...], dict[int, Spo]]
    rows: dict[tuple[str, ...], int]
    maxima: set[int]


def _plan(held: EncodedMatchList, codec: TermCodec, hits) -> _Plan:
    """The :class:`_Plan` of *held* for the ``(read key, triple)`` *hits*."""
    inputs, var_names = held.inputs, held.var_names
    by_key: dict[object, list[int]] = {}
    for j, (pattern, _) in enumerate(inputs):
        by_key.setdefault(pattern.key(), []).append(j)
    touched: dict[tuple[str, ...], dict[int, Spo]] = {}
    for read, spo in hits:
        for j in by_key.get(read, ()):
            pattern = inputs[j][0]
            if any(spo[a] != spo[b] for a, b in pattern.repeated_positions):
                continue
            names, first = pattern.variable_positions()
            binding = tuple(spo[first[names.index(name)]] for name in var_names)
            touched.setdefault(binding, {})[j] = spo
    rows, maxima = {}, set()
    for binding, by_input in touched.items():
        if var_names:
            ids = [codec.lookup(term) for term in binding]
            row = None if None in ids else _find_row(held.columns, ids)
        else:  # a pattern without variables holds one row at most
            row = 0 if len(held) else None
        if row is None:
            continue
        rows[binding] = row
        # An input's row at its maximum scores its weight, so only a row
        # scoring at least that can hold (or hide) one.
        maxima.update(j for j in by_input if held.scores[row] >= inputs[j][1])
    return _Plan(touched, rows, maxima)


def _score(weight: float, maximum: float, raw: float) -> float:
    """An input's raw score normalised by its *maximum* and weighted, as
    a build does."""
    return weight * (raw / maximum if maximum > 0 else 0.0)


def _top(
    held: EncodedMatchList, candidates, binding, raws: dict[Spo, float | None]
) -> "_Row | None":
    """The best of *held*'s ``(input, triple)`` *candidates*, in input
    order: the highest score, on a tie the first input (``None``: none is
    present)."""
    best = None
    for j, spo in candidates:
        raw = raws[spo]
        if raw is not None:
            score = _score(held.inputs[j][1], held.maxima[j], raw)
            if best is None or score > best[0]:
                best = (score, j, raw, spo, binding)
    return best


def _held(held: EncodedMatchList, row: int) -> tuple[float, int]:
    """The score and input of *held*'s row *row*."""
    return float(held.scores[row]), 0 if held.sources is None else int(held.sources[row])


def _sole_raw(held: EncodedMatchList, j: int, raw: float, score: float) -> bool:
    """Whether *raw* is the only raw score input *j* maps to *score*: then
    every row of *held* from that input scoring *score* has raw score
    *raw* (normalising and weighting are monotone, so the raw scores that
    map to one score are an interval of floats)."""
    weight, maximum = held.inputs[j][1], held.maxima[j]
    return all(
        _score(weight, maximum, neighbour) != score
        for neighbour in (math.nextafter(raw, -math.inf), math.nextafter(raw, math.inf))
    )


#: :func:`_best`'s answer for a binding whose held row stands.
_STANDS = object()


def _best(held: EncodedMatchList, plan: _Plan, raws: dict[Spo, float | None]) -> dict:
    """Each touched binding's row now — ``None`` when no input matches it
    — from its touched inputs and its held row, whose input, if untouched,
    kept its score and beats every other untouched input.  A binding
    whose held row came from a touched input that now ranks below it
    maps instead to the ``(input, triple)`` of every untouched input,
    which must be read."""
    best_rows = {}
    for binding, by_input in plan.touched.items():
        best = _top(held, sorted(by_input.items()), binding, raws)
        row = plan.rows.get(binding)
        if row is not None:
            score, source = _held(held, row)
            ranks_below = best is None or (best[0], -best[1]) < (score, -source)
            if source not in by_input:
                if ranks_below:
                    best_rows[binding] = _STANDS
                    continue
            elif ranks_below:
                # An input scores at most its weight: read only those that
                # could still rank above the touched inputs' best.
                best = [
                    (j, _triple(pattern, held.var_names, binding))
                    for j, (pattern, weight) in enumerate(held.inputs)
                    if j not in by_input
                    and (best is None or (weight, -j) > (best[0], -best[1]))
                ]
        best_rows[binding] = best
    return best_rows


def patch_match_lists(
    graph, codec: TermCodec, hits: "dict[object, list[tuple[object, Spo]]]", lists: dict
) -> "Iterator[tuple[object, EncodedMatchList | None]]":
    """Each list ``lists[key]`` (built with its inputs known) brought to
    *graph*'s version by rewriting the rows of the bindings the ``(read
    key, triple)`` pairs ``hits[key]`` give it, or ``None`` where it must
    be rebuilt.  The graph is read before this returns, and *lists* is
    emptied; the patched lists are made as the ``(key, list)`` pairs are
    consumed.

    The written triples are read in one batched :func:`_read`, normalised
    by each input's held maximum and weighted; a binding keeps its best
    score, on a tie its first input (Definition 8).  Where a binding's
    held row came from a written input that now ranks below it, its
    triples under the other inputs are read in a second batch.  Rows
    that changed are taken out and put back where a fresh build orders
    them; where several raw scores map to the score of the rows a row
    lands among, their raw scores are read in a third batch.  An input
    whose maximum the write may have moved has it read with the first
    batch.  A list is refused when an input's maximum moved or is not
    positive.  A list the write leaves as it was is returned as the same
    object.
    """
    store = codec.store
    entries = [(key, held, _plan(held, codec, hits[key])) for key, held in lists.items()]
    lists.clear()  # the entries hold the lists now
    triples = {spo: None for *_, p in entries for t in p.touched.values() for spo in t.values()}
    maxima = {held.inputs[j][0]: None for _, held, p in entries for j in p.maxima}
    raws, tops = _read(graph, store, list(triples), list(maxima)) if entries else ({}, {})
    bests = [_best(held, plan, raws) for _, held, plan in entries]
    more = {
        spo: None
        for rows in bests
        for row in rows.values()
        if isinstance(row, list)
        for _, spo in row
        if spo not in raws
    }
    if more:
        raws.update(_read(graph, store, list(more))[0])
    changes = []
    for (_, held, plan), rows in zip(entries, bests):
        for binding, row in rows.items():
            if isinstance(row, list):
                candidates = sorted([*plan.touched[binding].items(), *row])
                rows[binding] = _top(held, candidates, binding, raws)
        changes.append(_changes(held, codec, plan, rows, raws, tops))
    ties = [spo for change in changes if type(change) is tuple for spo in change[3]]
    if ties:
        raws.update(_read(graph, store, ties)[0])

    def patched() -> "Iterator[tuple[object, EncodedMatchList | None]]":
        # Lazily, letting each held list go as soon as its patch is made.
        for at, change in enumerate(changes):
            key, held, plan = entries[at]
            entries[at] = None
            if type(change) is tuple:
                change = _spliced(held, codec, plan.rows, *change[:3], raws)
            yield key, change

    return patched()


def _changes(
    held: EncodedMatchList,
    codec: TermCodec,
    plan: _Plan,
    best_rows: dict,
    raws: dict[Spo, float | None],
    tops: dict,
):
    """What a patch changes in *held*: ``None`` when it must be rebuilt
    instead (an input's maximum moved or is not positive), *held* when
    nothing, else the rows it removes (ascending), the rows it adds (in
    rebuild order), per added row ``(lo, hi)`` — the held rows of its
    input and score whose raw scores place it (``lo == hi``: its place is
    ``lo``) — and the triples of those rows, to be read."""
    inputs = held.inputs
    for by_input in plan.touched.values():
        for j, spo in by_input.items():
            raw, maximum = raws[spo], held.maxima[j]
            if not maximum > 0 or (raw is not None and raw > maximum):
                return None
    if any(tops[inputs[j][0]] != held.maxima[j] for j in plan.maxima):
        return None
    removed: list[int] = []
    added: list[_Row] = []
    for binding, best in best_rows.items():
        if best is _STANDS:
            continue
        row = plan.rows.get(binding)
        if row is not None:
            if (
                best is not None
                and best[:2] == _held(held, row)
                and _sole_raw(held, best[1], best[2], best[0])
            ):
                continue  # the held row stands: same score, input and raw score
            removed.append(row)
        if best is not None:
            added.append(best)
    if not removed and not added:
        return held
    # A fresh build orders rows by score descending, then input, then the
    # input's own order: raw score descending, ties by ``spo``.  Each new
    # row is placed among the held rows — removed ones included, since
    # they keep that order.
    added.sort(key=lambda r: (-r[0], r[1], -r[2], r[3]))
    removed.sort()
    n = len(held)
    ascending = held.scores[::-1]
    runs, reads = [], []
    for score, j, raw, spo, _ in added:
        lo = n - int(ascending.searchsorted(score, "right"))
        hi = n - int(ascending.searchsorted(score, "left"))
        if lo < hi and held.sources is not None:
            run = held.sources[lo:hi]
            lo, hi = lo + int(run.searchsorted(j, "left")), lo + int(run.searchsorted(j, "right"))
        if lo < hi and _sole_raw(held, j, raw, score):
            pattern = inputs[j][0]
            while lo < hi:  # every raw score is *raw*: bisect by spo
                middle = (lo + hi) // 2
                if _row_triple(held, codec, pattern, middle) < spo:
                    lo = middle + 1
                else:
                    hi = middle
        elif lo < hi:
            # Several raw scores map to this score: the kept rows' are read
            # (a kept row's raw score did not change).
            pattern = inputs[j][0]
            reads += (
                _row_triple(held, codec, pattern, row)
                for row in range(lo, hi)
                if row not in removed
            )
        runs.append((lo, hi))
    return removed, added, runs, reads


def _row_triple(held: EncodedMatchList, codec: TermCodec, pattern, row: int) -> Spo:
    """*pattern*'s triple for the binding of *held*'s row *row*."""
    return _triple(
        pattern, held.var_names, tuple(codec.decode(int(c[row])) for c in held.columns)
    )


def _spliced(
    held: EncodedMatchList,
    codec: TermCodec,
    rows: dict,
    removed: list[int],
    added: list[_Row],
    runs: list[tuple[int, int]],
    raws: dict[Spo, float | None],
) -> EncodedMatchList:
    """*held* with the *removed* rows taken out and the *added* rows put
    in, each in its run (see :func:`_changes`), the raw scores of the
    rows there read into *raws*."""
    slots = []
    for (score, j, raw, spo, _), (lo, hi) in zip(added, runs):
        if lo < hi:  # go before the first kept row that ranks after
            pattern = held.inputs[j][0]
            kept = [row for row in range(lo, hi) if row not in removed]
            ranks = [(-raws[t], t) for t in (_row_triple(held, codec, pattern, r) for r in kept)]
            before = sum(rank < (-raw, spo) for rank in ranks)
            lo = kept[before] if before < len(kept) else hi
        slots.append(lo - bisect.bisect_left(removed, lo))
    # The new list: kept rows in order, each added row before kept row
    # ``slots[u]`` and after the added rows before it.
    n = len(held)
    at = np.array(slots, dtype=np.int64) + np.arange(len(slots))
    take = np.empty(n - len(removed) + len(added), dtype=np.intp)
    kept_at = np.ones(len(take), dtype=bool)
    kept_at[at] = False
    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    take[kept_at] = np.flatnonzero(keep)
    take[at] = 0

    def splice(array: np.ndarray, values: list) -> np.ndarray:
        spliced = array.take(take)
        spliced[at] = values
        return spliced

    patched = held._successor(
        tuple(
            splice(column, [codec.encode(r[4][c]) for r in added])
            for c, column in enumerate(held.columns)
        ),
        splice(held.scores, [r[0] for r in added]),
        None if held.sources is None else splice(held.sources, [r[1] for r in added]),
    )
    moves = len(removed) == len(added) and all(r[4] in rows for r in added)
    _carry_key_orders(
        held, patched, codec, keep, kept_at, at,
        [rows[r[4]] for r in added] if moves else None,
    )
    return patched


def _carry_key_orders(
    held: EncodedMatchList,
    patched: EncodedMatchList,
    codec: TermCodec,
    keep: np.ndarray,
    kept_at: np.ndarray,
    at: np.ndarray,
    moved_from: list[int] | None,
) -> None:
    """Hand *patched* the key orders *held* cached.  *held*'s rows where
    *keep* is set are *patched*'s where *kept_at* is; the rest of
    *patched*'s rows, *at*, are new, or, when *moved_from* is given, the
    rows of those bindings moved from there.  Moving keeps the keys, so a
    key order only has its rows renumbered, unless that leaves two rows
    of one key out of row order; any other is sorted afresh (one radix
    argsort, cheaper than splicing it)."""
    renumber = None
    for join_vars, (base, built) in held._key_orders.items():
        if moved_from is not None and built is not None:
            if renumber is None:
                renumber = np.empty(len(held), dtype=np.int32)
                renumber[keep] = np.flatnonzero(kept_at)
                renumber[moved_from] = at
            keys, order, distinct = built
            order = renumber[order]
            if distinct or not (
                (keys[1:] == keys[:-1]) & (order[1:] < order[:-1])
            ).any():
                order.flags.writeable = False
                patched._key_orders[join_vars] = (base, (keys, order, distinct))
                continue
        patched.key_order(join_vars, codec.n_ids)


def _recoded(held: EncodedMatchList, old: TermCodec, new: TermCodec) -> EncodedMatchList:
    """*held* under codec *new* of a compacted store: store ids carry
    over, side ids are decoded and encoded again (*held* itself when it
    holds none; key orders, which sort ids, are not carried)."""
    side = [column >= old.n_base for column in held.columns]
    if not any(mask.any() for mask in side):
        return held
    columns = []
    for column, mask in zip(held.columns, side):
        if mask.any():
            column = column.copy()
            column[mask] = [new.encode(old.decode(i)) for i in column[mask].tolist()]
        columns.append(column)
    return held._successor(tuple(columns), held.scores, held.sources)


class EncodedListStore:
    """Shared, bounded, thread-safe store of encoded match lists.

    The block executor's twin of :class:`repro.service.MatchListCache`:
    one store per engine — or one shared by every thread of a
    :class:`~repro.service.WorkloadRunner`, so a pattern is encoded once
    no matter which thread first needs it.  The store owns the
    :class:`TermCodec` too, because cached id columns are only
    meaningful under the codec that produced them.

    When the graph version moves, the store patches the lists whose
    :attr:`EncodedMatchList.reads` a write touched
    (:meth:`~repro.kg.graph.KnowledgeGraph.touched_since`, found in
    O(touched) through an index by pattern key): :func:`patch_match_lists`
    rewrites the rows of the bindings the write touched, so the list —
    and each key order it caches, renumbered or sorted afresh — equals a
    fresh build at the new version.  It drops a touched list instead, to be rebuilt on
    its next read, when an input's maximum moved or is not positive (every
    normalised score would change), when the list's inputs are unknown,
    or when a write raced the patch's reads.  A compaction swaps in a codec
    over the new store: store ids carry over and the touched lists' side
    ids are encoded again before they are patched.  The rest stay as they
    are, key orders included; no answer from the journal costs a full
    purge.

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
    recency, patched when a write touches an input — so a resident
    relaxed request pays for joins and the top-k sink only.  The per-rule input
    lists of a merge are never entries: a miss gathers them straight
    from the graph (:func:`build_merged_match_list`).

    It keeps its own dict rather than sharing the service layer's
    :class:`~repro.service.cache.VersionedLRU` core: eviction must unfile
    the entry from the reader index, staleness is decided per read key
    rather than by one version tag, and the store owns the codec its
    entries are only meaningful under.  Sharing the core would make it
    branch on its caller.
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

    def _sync_locked(self, graph) -> dict[str, int]:
        """Bring the store to *graph*'s version; returns how many held
        lists were ``kept`` as they are, ``patched`` and ``dropped``."""
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
        version = graph.version
        store = graph.column_store()
        codec, held = self._codec, self._version
        counts = {"kept": len(self._lists), "patched": 0, "dropped": 0}
        if codec is not None and codec.store is store and held == version:
            return counts
        touched = None if codec is None else graph.touched_since(held)
        if touched is None:
            counts.update(kept=0, dropped=len(self._lists))
            self._clear_locked()
        else:
            if self._readers is None:
                self._readers = defaultdict(set)
                for key, held_list in self._lists.items():
                    self._index_locked(key, held_list)
            readers = self._readers
            # Held list -> the (read key, touched triple) pairs it read (a
            # list whose reads are unknown is filed under None and goes).
            by_read: dict[object, list] = {}
            for spo in touched:
                for read in pattern_keys(spo):
                    by_read.setdefault(read, []).append((read, spo))
            hits: dict[object, list] = {key: [] for key in readers.get(None, ())}
            for read, pairs in by_read.items():
                for key in readers.get(read, ()):
                    hits.setdefault(key, []).extend(pairs)
            lists = {
                key: self._lists[key] for key in hits if self._lists[key].inputs is not None
            }
            if codec.store is not store:
                # A compaction: store ids carry over, and the lists holding
                # a side id read a folded add, so they are all in *hits*.
                new_codec = TermCodec(store)
                lists = {key: _recoded(held, codec, new_codec) for key, held in lists.items()}
                codec = self._codec = new_codec
            patches = patch_match_lists(graph, codec, hits, lists)
            if graph.version != version or graph.column_store() is not store:
                patches = ()  # a write raced the reads: rebuild instead
            for key, new in patches:
                if new is not None:
                    counts["patched"] += new is not self._lists[key]
                    self._lists[key] = new  # same inputs, same reader entries
                    del hits[key]
            for key in hits:  # not patched
                self._index_locked(key, self._lists.pop(key), add=False)
                counts["dropped"] += 1
            counts["kept"] = len(self._lists) - counts["patched"]
        if self._codec is None:
            self._codec = TermCodec(store)
        # Version read first: a write racing this sync shows next time.
        self._version = version
        return counts

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
        """Sync to *graph*'s version now; returns how many held lists were
        ``kept`` as they are, ``patched`` and ``dropped``."""
        with self._lock:
            return self._sync_locked(graph)

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


def top_k_cut(
    rows: EncodedMatchList,
    k: int,
    codec: TermCodec,
    projection: tuple[str, ...] | None = None,
) -> list[Answer]:
    """The top-k distinct answers among *rows*, a plan's whole result.

    The only decode point of the block pipeline.  The rows are sorted by
    score (a join's output is in no score order), each *projected* binding
    keeps its first — maximum — row (Definition 8; the codec is injective,
    so id-tuple equality is binding equality), the cut takes the first k
    distinct bindings and the rest of the k-th score's tie run, and only
    those are decoded to strings for the shared canonical cut
    (:func:`~repro.operators.topk.finalize_canonical`).
    """
    if k < 1:
        raise ExecutionError(f"k must be >= 1, got {k}")
    names = tuple(
        name
        for name in sorted(rows.var_names if projection is None else projection)
        if name in rows.var_names
    )
    order = np.argsort(-rows.scores, kind="stable")
    columns = [rows.columns[rows.var_names.index(name)][order] for name in names]
    packed = pack_columns(columns, codec.n_ids, n_rows=len(order))
    if packed is None:
        packed, _ = joint_group_ids(columns, tuple(c[:0] for c in columns))
    keep = first_occurrence_keep(packed)
    scores = rows.scores[order[keep]]
    if len(keep) > k:
        # Every distinct binding scoring the k-th score goes to the cut.
        keep = keep[: int(np.searchsorted(-scores, -scores[k - 1], side="right"))]
        scores = scores[: len(keep)]
    decode = codec.decode
    decoded = [[decode(i) for i in column[keep].tolist()] for column in columns]
    results = [
        Answer(tuple(zip(names, (values[row] for values in decoded))), score)
        for row, score in enumerate(scores.tolist())
    ]
    return finalize_canonical(results, k)
