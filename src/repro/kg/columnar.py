"""Columnar dictionary-encoded storage backend.

The default :class:`~repro.kg.graph.KnowledgeGraph` keeps every triple as
a Python object inside a dict — perfect for small graphs and mutation,
but Python-object overhead caps graph size and makes (re)loading a large
graph dominated by object churn.  This module is the production-scale
counterpart, the extensional-database layout classic OBDA systems use:

* one **term dictionary** mapping every distinct term (subject, predicate
  or object string) to a small integer id, and
* four parallel **columns** — subject ids, predicate ids, object ids and
  raw scores — as NumPy arrays.

:class:`ColumnarGraph` wraps the columns behind the exact
:class:`~repro.kg.graph.KnowledgeGraph` interface, so engines, statistics
catalogs, operators and the service-layer caches run on it unchanged.
Match lists (Definition 5) are *opened, not computed* — the sorted
access the paper's top-k operators presuppose.  The store has one read
primitive, :meth:`ColumnarStore.ordered_rows`: the rows agreeing with a
pattern key, already in Definition-5 order, as a slice of a lazily built
per-shape **permutation index** (the packed bound ids of every row,
stably sorted over the rows taken in Definition-5 order; a lookup is two
``searchsorted`` and a slice).  "Rows in Definition-5 order" costs
nothing where the columns are stored that way — every ``.kg2`` attach,
every compacted base — which one vectorised
adjacent-row check establishes; only a store interned in arrival order
pays one sort of all its rows (:meth:`ColumnarStore.score_order`), once.
The indexes are plain attributes of the immutable store and die with it.

The column layout is also the on-disk **snapshot** layout: see
:func:`repro.kg.storage.save_snapshot_v2` / ``load_snapshot_v2``, which
persist a store to a packed ``.kg2`` file and attach it back without
reparsing text or re-interning terms.  ``docs/storage.md`` specifies the
format.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import KnowledgeGraphError
from repro.kg.graph import KnowledgeGraph
from repro.kg.index import MatchList, PatternIndex, PatternKey
from repro.kg.pattern import TriplePattern
from repro.kg.triple import Triple

#: Dtype of the three id columns.  int32 caps the dictionary at ~2.1e9
#: distinct terms — far beyond what one process holds in RAM anyway —
#: and halves snapshot size versus int64.
ID_DTYPE = np.int32

#: Rows decoded per chunk when iterating triples (bounds peak memory).
_DECODE_CHUNK = 65536


def _as_id_column(values: object, name: str) -> np.ndarray:
    """Coerce *values* into a 1-D id column, rejecting junk early."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise KnowledgeGraphError(f"{name} column must be 1-D, got shape {array.shape}")
    if array.dtype.kind not in "iu":
        raise KnowledgeGraphError(
            f"{name} column must be integer ids, got dtype {array.dtype}"
        )
    return array.astype(ID_DTYPE, copy=False)


class ColumnarStore:
    """Dictionary-encoded ``(s, p, o, score)`` columns over one term table.

    The store is an immutable value object: four parallel arrays plus the
    id → term dictionary, with lazily built lookup structures (term → id
    map, lexicographic term ranks, the score-ordered permutation indexes
    behind :meth:`ordered_rows`).  Build one with
    :meth:`from_triples` (interns as it streams) or :meth:`from_arrays`
    (validates pre-encoded columns, e.g. from a snapshot or a generator).

    Attributes
    ----------
    terms:
        1-D unicode array; index is the term id.
    subjects, predicates, objects:
        int32 id columns, one entry per triple.
    scores:
        float64 raw scores, one entry per triple.
    """

    __slots__ = (
        "terms",
        "subjects",
        "predicates",
        "objects",
        "scores",
        "_term_list",
        "_term_ids",
        "_term_rank",
        "_score_perm",
        "_shape_indexes",
    )

    def __init__(
        self,
        terms: np.ndarray,
        subjects: np.ndarray,
        predicates: np.ndarray,
        objects: np.ndarray,
        scores: np.ndarray,
    ) -> None:
        self.terms = np.asarray(terms)
        self.subjects = _as_id_column(subjects, "subject")
        self.predicates = _as_id_column(predicates, "predicate")
        self.objects = _as_id_column(objects, "object")
        self.scores = np.asarray(scores, dtype=np.float64)
        n = len(self.subjects)
        if not (len(self.predicates) == len(self.objects) == len(self.scores) == n):
            raise KnowledgeGraphError(
                "column length mismatch: "
                f"s={len(self.subjects)} p={len(self.predicates)} "
                f"o={len(self.objects)} scores={len(self.scores)}"
            )
        if self.terms.ndim != 1 or (self.terms.size and self.terms.dtype.kind != "U"):
            raise KnowledgeGraphError("terms must be a 1-D unicode array")
        self._term_list: list[str] | None = None
        self._term_ids: dict[str, int] | None = None
        self._term_rank: np.ndarray | None = None
        #: 1-tuple once decided: the Definition-5 permutation of all rows,
        #: or ``None`` inside when the stored row order already is it.
        self._score_perm: tuple[np.ndarray | None] | None = None
        #: Per key shape: (sorted packed bound ids, their rows).
        self._shape_indexes: dict[tuple[bool, ...], tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "ColumnarStore":
        """Intern a stream of :class:`Triple` into a fresh store.

        Duplicate ``(s, p, o)`` rows keep the *last* score seen, matching
        :meth:`KnowledgeGraph.add_triple` semantics, so converting a graph
        or a TSV stream is lossless.
        """
        term_ids: dict[str, int] = {}

        def intern(term: str) -> int:
            term_id = term_ids.get(term)
            if term_id is None:
                if "\x00" in term:
                    raise KnowledgeGraphError(
                        f"term {term!r} contains NUL, unsupported by columnar storage"
                    )
                term_id = len(term_ids)
                term_ids[term] = term_id
            return term_id

        rows: dict[tuple[int, int, int], float] = {}
        for triple in triples:
            if not isinstance(triple, Triple):
                raise KnowledgeGraphError(
                    f"expected Triple, got {type(triple).__name__}"
                )
            key = (intern(triple.subject), intern(triple.predicate), intern(triple.object))
            rows[key] = float(triple.score)

        terms = np.array(list(term_ids), dtype=str) if term_ids else np.empty(0, dtype="<U1")
        if rows:
            ids = np.fromiter(
                (component for key in rows for component in key),
                dtype=ID_DTYPE,
                count=3 * len(rows),
            ).reshape(-1, 3)
            subjects, predicates, objects = ids[:, 0], ids[:, 1], ids[:, 2]
            scores = np.fromiter(rows.values(), dtype=np.float64, count=len(rows))
        else:
            subjects = predicates = objects = np.empty(0, dtype=ID_DTYPE)
            scores = np.empty(0, dtype=np.float64)
        store = cls(terms, subjects, predicates, objects, scores)
        store._term_ids = term_ids  # already built; no need to rebuild lazily
        return store

    @classmethod
    def from_arrays(
        cls,
        terms: np.ndarray,
        subjects: np.ndarray,
        predicates: np.ndarray,
        objects: np.ndarray,
        scores: np.ndarray,
        *,
        validate: bool = True,
    ) -> "ColumnarStore":
        """Wrap pre-encoded columns, optionally validating the invariants.

        Validation (vectorised, cheap even at millions of rows) checks
        that ids are in range, scores are finite and non-negative, terms
        are non-empty / NUL-free / distinct, and ``(s, p, o)`` rows are
        unique.  Pass ``validate=False`` only for columns produced by
        trusted code in the same process.
        """
        store = cls(terms, subjects, predicates, objects, scores)
        if validate:
            store.validate()
        return store

    @classmethod
    def open_mmap(cls, path: "str | object", *, verify: bool = False) -> "ColumnarStore":
        """Attach a v2 packed snapshot (``.kg2``) as memory-mapped columns.

        O(ms) regardless of graph size: the columns (and the precomputed
        lexicographic term ranks) are ``np.memmap`` views over the file,
        so pages fault in on demand and every process attaching the same
        snapshot shares one physical copy through the page cache.  The
        returned store is read-only; mutating code must go through the
        delta overlay (:mod:`repro.kg.delta`) like any other frozen
        store.  ``verify=True`` additionally checks the per-section
        checksums and full invariants (reads the whole file).  Format
        spec: ``docs/storage.md``; written by
        :func:`repro.kg.storage.save_snapshot_v2`.
        """
        from repro.kg.storage import open_snapshot_v2_store

        return open_snapshot_v2_store(path, verify=verify)

    def validate(self) -> None:
        """Check every store invariant; raise :class:`KnowledgeGraphError`."""
        n_terms = self.n_terms
        for name, column in (
            ("subject", self.subjects),
            ("predicate", self.predicates),
            ("object", self.objects),
        ):
            if column.size and (column.min() < 0 or column.max() >= n_terms):
                raise KnowledgeGraphError(
                    f"{name} ids out of range [0, {n_terms}) "
                    f"(min={column.min()}, max={column.max()})"
                )
        if self.scores.size:
            if not np.isfinite(self.scores).all():
                raise KnowledgeGraphError("scores must be finite")
            if (self.scores < 0).any():
                raise KnowledgeGraphError("scores must be >= 0")
        if self.terms.size:
            decoded = self.term_list()
            if any(not term for term in decoded):
                raise KnowledgeGraphError("terms must be non-empty strings")
            if any("\x00" in term for term in decoded):
                raise KnowledgeGraphError("terms must not contain NUL")
            # sort + adjacent compare beats np.unique by an order of
            # magnitude here, and validation is on the snapshot-load path
            ordered_terms = np.sort(self.terms)
            if (ordered_terms[1:] == ordered_terms[:-1]).any():
                raise KnowledgeGraphError("terms must be distinct")
        if self.n_triples:
            ordered_rows = np.sort(self._packed_rows())
            if (ordered_rows[1:] == ordered_rows[:-1]).any():
                raise KnowledgeGraphError("(s, p, o) rows must be unique")

    def _packed_rows(self) -> np.ndarray:
        """Each row packed into one comparable value for uniqueness checks:
        a single int64 while ``n_terms**3`` fits (collision-free base-n
        encoding), a structured void view beyond that."""
        n = self.n_terms
        if n**3 < 2**63:
            return (
                self.subjects.astype(np.int64) * n + self.predicates
            ) * n + self.objects
        stacked = np.ascontiguousarray(
            np.stack([self.subjects, self.predicates, self.objects], axis=1)
        )
        return stacked.view([("", ID_DTYPE)] * 3).ravel()

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_triples(self) -> int:
        """Number of rows (distinct triples)."""
        return len(self.subjects)

    @property
    def n_terms(self) -> int:
        """Number of dictionary entries (distinct terms)."""
        return len(self.terms)

    def nbytes(self) -> int:
        """Approximate in-memory footprint of the arrays, in bytes."""
        return int(
            self.terms.nbytes
            + self.subjects.nbytes
            + self.predicates.nbytes
            + self.objects.nbytes
            + self.scores.nbytes
        )

    # ------------------------------------------------------------------
    # Lazy lookup structures
    # ------------------------------------------------------------------
    def term_list(self) -> list[str]:
        """The dictionary as plain Python strings (id → term), built lazily."""
        if self._term_list is None:
            self._term_list = self.terms.tolist()
        return self._term_list

    def term_id(self, term: str) -> int | None:
        """Id of *term*, or ``None`` if it is not in the dictionary."""
        if self._term_ids is None:
            self._term_ids = {t: i for i, t in enumerate(self.term_list())}
        return self._term_ids.get(term)

    def _ranks(self) -> np.ndarray:
        """Lexicographic rank of each term id (order-isomorphic to the
        term strings, so integer tie-breaks reproduce string tie-breaks).
        Memory-mapped stores carry the ranks as a snapshot section, so
        attaching never argsorts the dictionary."""
        if self._term_rank is None:
            order = np.argsort(self.terms, kind="stable")
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order))
            self._term_rank = rank
        return self._term_rank

    def row_of(self, subject: str, predicate: str, object_: str) -> int | None:
        """Row index of a fully-bound triple, or ``None``."""
        rows = self.ordered_rows((subject, predicate, object_))
        return int(rows[0]) if len(rows) else None

    def has_row(self, subject: str, predicate: str, object_: str) -> bool:
        """Whether a fully-bound triple is present.

        Membership probes (the live-update write path checks every
        mutated key against the base) are one :meth:`ordered_rows`
        lookup like :meth:`row_of`: ``O(log n)`` per probe, no Python
        row dict.
        """
        return self.row_of(subject, predicate, object_) is not None

    # ------------------------------------------------------------------
    # Sorted access
    # ------------------------------------------------------------------
    def _is_score_ordered(self) -> bool:
        """Whether the rows are stored in Definition-5 order already.

        One vectorised adjacent-row check: scores must not increase, and
        rows tying on score must not decrease in ``(s, p, o)`` rank.
        """
        scores = self.scores
        if not (scores[:-1] >= scores[1:]).all():  # also rejects NaN
            return False
        ties = np.nonzero(scores[:-1] == scores[1:])[0]
        if len(ties) == 0:
            return True
        ranks = self._ranks()
        for column in (self.subjects, self.predicates, self.objects):
            earlier, later = ranks[column[ties]], ranks[column[ties + 1]]
            if (earlier > later).any():
                return False
            ties = ties[earlier == later]
            if len(ties) == 0:
                break
        return True

    def _score_rows(self) -> np.ndarray | None:
        """All rows in Definition-5 order; ``None`` stands for the
        identity, i.e. the store is already ordered (every ``.kg2``
        attach, every :meth:`with_updates` output) and nothing is sorted
        or kept."""
        if self._score_perm is None:
            if self._is_score_ordered():
                self._score_perm = (None,)
            else:
                order = self.score_order().astype(ID_DTYPE)
                order.flags.writeable = False
                self._score_perm = (order,)
        return self._score_perm[0]

    def _shape_index(self, shape: tuple[bool, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The permutation index of one key shape (one or two bound
        positions): the packed bound ids of every row, sorted, and the
        rows they belong to — rows of equal key in Definition-5 order,
        because the sort is stable over rows taken in that order."""
        index = self._shape_indexes.get(shape)
        if index is None:
            bound = [
                column
                for column, is_bound in zip(
                    (self.subjects, self.predicates, self.objects), shape
                )
                if is_bound
            ]
            keys = np.asarray(bound[0])
            if len(bound) == 2:
                # Two ids pack into ID_DTYPE while n_terms² fits it, and
                # always into int64 (ids are int32).
                fits = self.n_terms**2 <= np.iinfo(ID_DTYPE).max
                keys = keys.astype(ID_DTYPE if fits else np.int64)  # a copy
                keys *= self.n_terms
                keys += bound[1]
            perm = self._score_rows()
            if perm is not None:
                keys = keys[perm]
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            rows = order.astype(ID_DTYPE) if perm is None else perm[order]
            keys.flags.writeable = rows.flags.writeable = False  # lookups hand out views
            index = self._shape_indexes[shape] = (keys, rows)
        return index

    def ordered_rows(self, key: PatternKey) -> np.ndarray:
        """Row indices agreeing with the bound positions of *key*, in
        Definition-5 order (raw score descending, ties by ``(s, p, o)``).

        The store's one read primitive — sorted access: a lookup is two
        ``searchsorted`` into the key shape's lazily built permutation
        index and a read-only slice of it.  A term
        absent from the dictionary matches nothing; a fully unbound key
        matches every row; a fully bound one reads the ``(s, p)`` index
        and filters on the object.
        """
        ids = []
        for term in key:
            if term is not None:
                term_id = self.term_id(term)
                if term_id is None:
                    return np.empty(0, dtype=ID_DTYPE)
                ids.append(term_id)
        if not ids:
            perm = self._score_rows()
            return np.arange(self.n_triples, dtype=ID_DTYPE) if perm is None else perm
        fully_bound = len(ids) == 3
        keys, rows = self._shape_index(
            (True, True, False) if fully_bound else tuple(term is not None for term in key)
        )
        packed = ids[0] if len(ids) == 1 else ids[0] * self.n_terms + ids[1]
        packed = keys.dtype.type(packed)  # a mismatched dtype would cast *keys*
        rows = rows[keys.searchsorted(packed, "left") : keys.searchsorted(packed, "right")]
        return rows[self.objects[rows] == ids[2]] if fully_bound else rows

    def match_rows(self, pattern: TriplePattern) -> np.ndarray:
        """The rows of *pattern*'s match list, in Definition-5 order:
        :meth:`ordered_rows` of its key, minus rows where a repeated
        variable would bind inconsistently (``(?x, p, ?x)`` keeps the
        diagonal) — an order-preserving mask."""
        rows = self.ordered_rows(pattern.key())
        columns = (self.subjects, self.predicates, self.objects)
        for first, other in pattern.repeated_positions:
            rows = rows[columns[first][rows] == columns[other][rows]]
        return rows

    def _encode_keys(
        self, keys: Iterable[tuple[str, str, str]]
    ) -> list[tuple[int, int, int]]:
        """Resolve ``(s, p, o)`` string keys to id triples.

        A key with any term absent from the dictionary cannot name a row
        and is skipped.
        """
        encoded: list[tuple[int, int, int]] = []
        for s, p, o in keys:
            sid = self.term_id(s)
            if sid is None:
                continue
            pid = self.term_id(p)
            if pid is None:
                continue
            oid = self.term_id(o)
            if oid is None:
                continue
            encoded.append((sid, pid, oid))
        return encoded

    def pack_keys(
        self, keys: Iterable[tuple[str, str, str]]
    ) -> np.ndarray | None:
        """Packed int64 encodings of the *keys* this dictionary resolves.

        Keys with any unknown term are skipped (they cannot name a row).
        Returns ``None`` when the dictionary is too large to pack into
        int64 — callers must fall back to :meth:`exclude_keys` without a
        precomputed array.  Lets a caller encode a key set once and mask
        many row sets (e.g. one superseded-key set per delta state).
        """
        n = self.n_terms
        if n**3 >= 2**63:
            return None
        encoded = self._encode_keys(keys)
        return np.fromiter(
            ((s * n + p) * n + o for s, p, o in encoded),
            dtype=np.int64,
            count=len(encoded),
        )

    def exclude_keys(
        self,
        rows: np.ndarray,
        keys: AbstractSet[tuple[str, str, str]],
        packed_keys: np.ndarray | None = None,
    ) -> np.ndarray:
        """*rows* with every row naming a key in *keys* dropped.

        The tombstone mask of the live-update overlay
        (:mod:`repro.kg.delta`): vectorised via the same packed-row
        encoding the uniqueness check uses, so masking a match list's
        candidate rows costs one ``isin`` — no decoding.  Pass
        *packed_keys* (from :meth:`pack_keys` on this store) to skip
        re-encoding *keys* per call.
        """
        keep = self.kept_rows_mask(rows, keys, packed_keys)
        return rows if keep is None else rows[keep]

    def kept_rows_mask(
        self,
        rows: np.ndarray,
        keys: AbstractSet[tuple[str, str, str]],
        packed_keys: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """The boolean mask :meth:`exclude_keys` applies to *rows*, or
        ``None`` when it keeps every row."""
        if len(rows) == 0 or not keys:
            return None
        n = self.n_terms
        if packed_keys is None and n**3 < 2**63:
            packed_keys = self.pack_keys(keys)
        if packed_keys is not None:
            if len(packed_keys) == 0:
                return None
            packed = (
                self.subjects[rows].astype(np.int64) * n + self.predicates[rows]
            ) * n + self.objects[rows]
            return ~np.isin(packed, packed_keys)
        encoded = self._encode_keys(keys)
        if not encoded:
            return None
        drop = set(encoded)
        return np.fromiter(
            (
                ids not in drop
                for ids in zip(
                    self.subjects[rows].tolist(),
                    self.predicates[rows].tolist(),
                    self.objects[rows].tolist(),
                )
            ),
            dtype=bool,
            count=len(rows),
        )

    def insertion_slots(
        self, rows: np.ndarray, adds: Sequence[tuple[tuple[str, str, str], float]]
    ) -> np.ndarray:
        """Where *adds* go among *rows* to keep Definition-5 order.

        *rows* are rows of this store in Definition-5 order, *adds* are
        ``(spo, raw score)`` rows from outside it, in the same order;
        ``np.insert(column[rows], slots, add_column)`` is then the merged
        column.  No row is decoded: positions come from the scores, and
        only where an add ties a run of rows on score is that run
        bisected by ``(s, p, o)`` strings.
        """
        if not adds or len(rows) == 0:
            return np.zeros(len(adds), dtype=np.int64)
        descending = -self.scores[rows]
        add_keys = np.array([-score for _, score in adds])
        slots = np.searchsorted(descending, add_keys, side="left")
        tie_ends = np.searchsorted(descending, add_keys, side="right")
        terms = self.term_list()
        for index in np.nonzero(slots < tie_ends)[0].tolist():
            spo, lo, hi = adds[index][0], int(slots[index]), int(tie_ends[index])
            while lo < hi:
                middle = (lo + hi) // 2
                row = rows[middle]
                if (
                    terms[self.subjects[row]],
                    terms[self.predicates[row]],
                    terms[self.objects[row]],
                ) < spo:
                    lo = middle + 1
                else:
                    hi = middle
            slots[index] = lo
        return slots

    def with_updates(
        self,
        adds: Mapping[tuple[str, str, str], float],
        drops: AbstractSet[tuple[str, str, str]] = frozenset(),
    ) -> "ColumnarStore":
        """A fresh store with *drops* rows removed and *adds* merged in,
        its rows in Definition-5 order.

        The compaction step of the live-update overlay: base rows named
        by an add key are dropped too (the add's score wins), mirroring
        :meth:`KnowledgeGraph.add_triple` overwrite semantics, so the
        result holds exactly the overlay's merged triple set.  The base
        side is vectorised (one key-exclusion mask over the rows in
        Definition-5 order, column slices); only the (small) delta is
        interned and placed (:meth:`insertion_slots`) in Python, so the
        next read sorts nothing.  New terms extend the dictionary in
        first-seen order — which leaves the relative rank of every
        existing term alone — keeping the store snapshot-compatible.
        """
        if not adds and not drops:
            return self
        drop_keys = set(drops) | set(adds)
        keep_rows = self.exclude_keys(self.ordered_rows((None, None, None)), drop_keys)
        term_ids = (
            dict(self._term_ids)
            if self._term_ids is not None
            else {term: i for i, term in enumerate(self.term_list())}
        )
        new_terms: list[str] = []

        def intern(term: str) -> int:
            term_id = term_ids.get(term)
            if term_id is None:
                if "\x00" in term:
                    raise KnowledgeGraphError(
                        f"term {term!r} contains NUL, unsupported by columnar storage"
                    )
                term_id = len(term_ids)
                term_ids[term] = term_id
                new_terms.append(term)
            return term_id

        ordered_adds = sorted(adds.items(), key=lambda add: (-add[1], add[0]))
        slots = self.insertion_slots(keep_rows, ordered_adds)
        ids = np.fromiter(
            (intern(term) for spo, _ in ordered_adds for term in spo),
            dtype=ID_DTYPE,
            count=3 * len(ordered_adds),
        ).reshape(-1, 3)
        terms = self.terms
        if new_terms:
            appended = np.array(new_terms, dtype=str)
            terms = np.concatenate([terms, appended]) if terms.size else appended
        columns = [
            np.insert(column[keep_rows], slots, ids[:, position])
            for position, column in enumerate(
                (self.subjects, self.predicates, self.objects)
            )
        ]
        scores = np.insert(
            self.scores[keep_rows], slots, [score for _, score in ordered_adds]
        )
        store = ColumnarStore(terms, *columns, scores)
        store._term_ids = term_ids
        return store

    def score_order(self) -> np.ndarray:
        """All rows by raw score descending, ties by ``(s, p, o)``.

        Exactly the Definition-5 order the Python backend produces with
        ``sorted(key=lambda t: (-t.score, t.spo))``: a stable sort on
        the scores over :meth:`spo_order`.
        """
        by_terms = self.spo_order()
        return by_terms[np.argsort(-self.scores[by_terms], kind="stable")]

    def spo_order(self) -> np.ndarray:
        """All rows in lexicographic ``(s, p, o)`` order (the TSV order)."""
        ranks = self._ranks()
        s, p, o = ranks[self.subjects], ranks[self.predicates], ranks[self.objects]
        n = self.n_terms
        if n**3 < 2**63:
            # Rows are distinct, so the three ranks pack into one
            # collision-free key and a single unstable sort orders them.
            return np.argsort((s * n + p) * n + o)
        return np.lexsort((o, p, s))

    def decode_rows(self, rows: np.ndarray) -> list[Triple]:
        """Materialise :class:`Triple` objects for *rows*, in order."""
        terms = self.term_list()
        return [
            Triple(terms[s], terms[p], terms[o], score)
            for s, p, o, score in zip(
                self.subjects[rows].tolist(),
                self.predicates[rows].tolist(),
                self.objects[rows].tolist(),
                self.scores[rows].tolist(),
            )
        ]

    def iter_triples(self) -> Iterator[Triple]:
        """Stream every triple, decoding in chunks to bound peak memory."""
        terms = self.term_list()
        for start in range(0, self.n_triples, _DECODE_CHUNK):
            stop = min(start + _DECODE_CHUNK, self.n_triples)
            yield from (
                Triple(terms[s], terms[p], terms[o], score)
                for s, p, o, score in zip(
                    self.subjects[start:stop].tolist(),
                    self.predicates[start:stop].tolist(),
                    self.objects[start:stop].tolist(),
                    self.scores[start:stop].tolist(),
                )
            )

    def tsv_lines(self) -> Iterator[str]:
        """Scored-TSV lines in ``(s, p, o)`` order, no Triple objects.

        The vectorised twin of :func:`repro.kg.storage.save_tsv`'s
        object path; byte-identical output for the same graph.
        """
        terms = self.term_list()
        order = self.spo_order()
        for s, p, o, score in zip(
            self.subjects[order].tolist(),
            self.predicates[order].tolist(),
            self.objects[order].tolist(),
            self.scores[order].tolist(),
        ):
            yield f"{terms[s]}\t{terms[p]}\t{terms[o]}\t{score:.10g}\n"

    def unique_terms(self, *columns: np.ndarray) -> set[str]:
        """Distinct decoded terms appearing in the given id columns."""
        if not columns:
            return set()
        ids = np.unique(np.concatenate(columns)) if len(columns) > 1 else np.unique(columns[0])
        terms = self.term_list()
        return {terms[i] for i in ids.tolist()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarStore(n_triples={self.n_triples}, n_terms={self.n_terms}, "
            f"~{self.nbytes() / 1e6:.1f} MB)"
        )


class ColumnarPatternIndex(PatternIndex):
    """A :class:`PatternIndex` that answers from columns, not hash maps.

    Candidates and match lists are slices of the store's score-ordered
    permutation indexes (:meth:`ColumnarStore.ordered_rows`) —
    :meth:`PatternIndex.match_list`'s caching (internal dict or the
    attached external :class:`~repro.service.MatchListCache`) is
    inherited untouched, so the service layer cannot tell the backends
    apart.
    """

    def candidates(self, key: PatternKey) -> list[Triple]:
        """Triples agreeing with the bound positions of *key*."""
        self._invalidate_if_stale()
        store = self._store()
        return store.decode_rows(store.ordered_rows(key))

    def _store(self) -> ColumnarStore:
        return self._graph.store  # type: ignore[attr-defined]

    def _build_match_list(self, pattern: TriplePattern, key: PatternKey) -> MatchList:
        store = self._store()
        rows = store.match_rows(pattern)
        triples = tuple(store.decode_rows(rows))
        if not triples:
            return MatchList(key, (), 0.0, ())
        scores = store.scores[rows]
        max_score = float(scores[0])
        if max_score > 0:
            normalized = tuple((scores / max_score).tolist())
        else:
            normalized = tuple(0.0 for _ in triples)
        return MatchList(key, triples, max_score, normalized)

    def stats(self) -> dict[str, int]:
        """Diagnostics; columnar indexes keep no shape hash maps."""
        base = super().stats()
        base["columnar"] = 1
        return base


class ColumnarGraph(KnowledgeGraph):
    """A read-only :class:`KnowledgeGraph` backed by a :class:`ColumnarStore`.

    Same public interface — pattern matching, Definition-5 match lists,
    external cache hooks, statistics — but triples live in dictionary-
    encoded NumPy columns instead of a Python dict, so million-triple
    graphs load in well under a second from a snapshot and match lists
    sort without per-triple Python comparisons.

    The graph is immutable: :meth:`add_triple`, :meth:`add_triples` and
    :meth:`remove` raise.  Call :meth:`thaw` for a mutable object-backed
    copy, or rebuild via :meth:`from_graph` after editing.

    >>> from repro.kg import ColumnarGraph, KnowledgeGraph
    >>> kg = KnowledgeGraph()
    >>> kg.add("shakira", "rdf:type", "singer", score=120.0)
    >>> frozen = ColumnarGraph.from_graph(kg)
    >>> frozen.size
    1
    """

    def __init__(self, store: ColumnarStore, name: str = "kg") -> None:
        self.name = name
        self._store = store
        self._version = 0
        self._index = ColumnarPatternIndex(self)

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: KnowledgeGraph, name: str | None = None) -> "ColumnarGraph":
        """Freeze any :class:`KnowledgeGraph` into columnar form."""
        if isinstance(graph, ColumnarGraph):
            return cls(graph.store, name=name or graph.name)
        return cls(ColumnarStore.from_triples(graph.triples()), name=name or graph.name)

    @classmethod
    def from_triples(cls, triples: Iterable[Triple], name: str = "kg") -> "ColumnarGraph":
        """Intern a triple stream straight into a columnar graph."""
        return cls(ColumnarStore.from_triples(triples), name=name)

    def thaw(self) -> KnowledgeGraph:
        """A mutable object-backed copy with the same triples and name."""
        return KnowledgeGraph(self.triples(), name=self.name)

    @property
    def store(self) -> ColumnarStore:
        """The underlying dictionary-encoded columns."""
        return self._store

    # ------------------------------------------------------------------
    # Mutation: refused (freeze-thaw model)
    # ------------------------------------------------------------------
    def add_triple(self, triple: Triple) -> None:
        """Unsupported; columnar graphs are immutable.  Use :meth:`thaw`."""
        raise KnowledgeGraphError(
            "ColumnarGraph is immutable; thaw() to a mutable KnowledgeGraph "
            "or rebuild with ColumnarGraph.from_graph / from_triples"
        )

    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Unsupported; columnar graphs are immutable.  Use :meth:`thaw`."""
        raise KnowledgeGraphError(
            "ColumnarGraph is immutable; thaw() to a mutable KnowledgeGraph "
            "or rebuild with ColumnarGraph.from_graph / from_triples"
        )

    def remove(self, subject: str, predicate: str, obj: str) -> bool:
        """Unsupported; columnar graphs are immutable.  Use :meth:`thaw`."""
        raise KnowledgeGraphError(
            "ColumnarGraph is immutable; thaw() to a mutable KnowledgeGraph first"
        )

    # ------------------------------------------------------------------
    # Introspection (columnar implementations of the base interface)
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of distinct triples."""
        return self._store.n_triples

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Triple):
            item = item.spo
        if isinstance(item, tuple) and len(item) == 3:
            return self._store.has_row(*item)
        return False

    def triples(self) -> Iterator[Triple]:
        """Iterate over all triples (row order; stable)."""
        return self._store.iter_triples()

    def score_of(self, subject: str, predicate: str, obj: str) -> float:
        """Raw score of a triple; raises if absent."""
        row = self._store.row_of(subject, predicate, obj)
        if row is None:
            raise KnowledgeGraphError(
                f"triple ({subject!r}, {predicate!r}, {obj!r}) not in graph"
            )
        return float(self._store.scores[row])

    def entities(self) -> set[str]:
        """All subjects and objects."""
        return self._store.unique_terms(self._store.subjects, self._store.objects)

    def predicates(self) -> set[str]:
        """All predicates."""
        return self._store.unique_terms(self._store.predicates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnarGraph(name={self.name!r}, size={self.size})"
