"""(De)serialisation of scored knowledge graphs.

Three formats:

* **Scored TSV** — ``subject<TAB>predicate<TAB>object<TAB>score`` per line,
  the native text format of this repo (lossless, trivially diffable).
* **Binary snapshot** — a versioned ``.npz`` container holding the
  dictionary-encoded columns of :class:`~repro.kg.columnar.ColumnarStore`;
  loads an order of magnitude faster than TSV at scale because nothing is
  reparsed or re-interned.  Format spec: ``docs/storage.md``.
* **N-triples-ish** — ``<s> <p> <o> .`` lines without scores, for
  interoperability with standard RDF tooling; scores default to 1.0 on
  load and are dropped on save.

Plus the **mutation TSV** (:func:`iter_update_tsv`) — ``+``/``-``
prefixed lines describing adds, overwrites and removes, the feed of the
live-update overlay (:mod:`repro.kg.delta`) and the ``update`` CLI
subcommand.

The snapshot helpers import NumPy lazily, so the text formats remain
dependency-free.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import os
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

from repro.errors import KnowledgeGraphError
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kg.columnar import ColumnarGraph, ColumnarStore
    from repro.kg.delta import GraphUpdate

#: Magic string identifying a snapshot ``.npz`` as ours.
SNAPSHOT_FORMAT = "spec-qp/kg-snapshot"

#: Highest ``.npz`` container version this reader understands.
SNAPSHOT_VERSION = 1

#: Format version of the v2 packed snapshot (``.kg2``).
SNAPSHOT_V2_VERSION = 2

#: Leading magic bytes of a v2 packed snapshot (``.kg2``).  PNG-style:
#: high bit + CRLF + ^Z + LF catch text-mode mangling and truncation.
SNAPSHOT_V2_MAGIC = b"\x89KG2\r\n\x1a\n"

#: Conventional suffix of v2 packed snapshots.
SNAPSHOT_V2_SUFFIX = ".kg2"

#: Section start alignment inside a v2 file (cache-line sized).
_V2_ALIGN = 64

#: v2 sections in file order.  ``term_rank`` persists the lexicographic
#: ranks :meth:`ColumnarStore._ranks` would otherwise argsort on first
#: use, so attaching never touches the dictionary.
_V2_SECTIONS = ("terms", "term_rank", "subjects", "predicates", "objects", "scores")

_V2_HINT = (
    "expected a v2 packed snapshot (magic %r); v1 snapshots are .npz "
    "containers readable by load_snapshot — see docs/storage.md" % SNAPSHOT_V2_MAGIC
)


def _open_text(path: str | Path, mode: str) -> TextIO:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _parse_score(raw_score: str, path: str | Path, line_no: int) -> float:
    """Parse a TSV score field, rejecting junk with the offending line.

    ``float()`` happily parses ``'nan'``/``'inf'``/``'-inf'``; a score
    that is not a finite number poisons every normalised match list
    downstream, so reject it at the source.
    """
    try:
        score = float(raw_score)
    except ValueError:
        raise KnowledgeGraphError(
            f"{path}:{line_no}: bad score {raw_score!r}"
        ) from None
    if not math.isfinite(score):
        raise KnowledgeGraphError(
            f"{path}:{line_no}: non-finite score {raw_score!r}"
        )
    return score


# ----------------------------------------------------------------------
# Scored TSV
# ----------------------------------------------------------------------
def save_tsv(graph: KnowledgeGraph, path: str | Path) -> int:
    """Write *graph* as scored TSV; returns the number of lines written.

    Columnar graphs take a vectorised path (no Triple objects built);
    the bytes written are identical either way.
    """
    count = 0
    with _open_text(path, "w") as handle:
        for line in _tsv_lines(graph):
            handle.write(line)
            count += 1
    return count


def _tsv_lines(graph: KnowledgeGraph) -> Iterator[str]:
    store = getattr(graph, "store", None)
    if store is not None:
        from repro.kg.columnar import ColumnarStore

        if isinstance(store, ColumnarStore):
            yield from store.tsv_lines()
            return
    for triple in sorted(graph.triples(), key=lambda t: t.spo):
        yield (
            f"{triple.subject}\t{triple.predicate}\t{triple.object}\t{triple.score:.10g}\n"
        )


def iter_tsv(path: str | Path) -> Iterator[Triple]:
    """Yield triples from a scored TSV file, validating as we go."""
    with _open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 3:
                s, p, o = parts
                score = 1.0
            elif len(parts) == 4:
                s, p, o, raw_score = parts
                score = _parse_score(raw_score, path, line_no)
            else:
                raise KnowledgeGraphError(
                    f"{path}:{line_no}: expected 3 or 4 tab-separated fields, "
                    f"got {len(parts)}"
                )
            yield Triple(s, p, o, score)


def load_tsv(path: str | Path, name: str | None = None) -> KnowledgeGraph:
    """Load a scored TSV file into a fresh :class:`KnowledgeGraph`."""
    graph = KnowledgeGraph(name=name or Path(path).stem)
    graph.add_triples(iter_tsv(path))
    return graph


# ----------------------------------------------------------------------
# Mutation TSV (the live-update feed)
# ----------------------------------------------------------------------
def iter_update_tsv(path: str | Path) -> "Iterator[GraphUpdate]":
    """Yield graph updates from a mutation TSV, validating as we go.

    One mutation per line: ``+<TAB>s<TAB>p<TAB>o<TAB>score`` adds or
    overwrites a scored triple (the score field is optional, defaulting
    to 1.0), ``-<TAB>s<TAB>p<TAB>o`` removes one.  Blank lines and ``#``
    comments are skipped.  This is the on-disk feed of the ``update``
    CLI subcommand and of :meth:`repro.kg.delta.LiveGraph.apply_updates`.
    """
    from repro.kg.delta import GraphUpdate

    with _open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            op = parts[0]
            if op == "+":
                if len(parts) == 4:
                    score = 1.0
                elif len(parts) == 5:
                    score = _parse_score(parts[4], path, line_no)
                else:
                    raise KnowledgeGraphError(
                        f"{path}:{line_no}: '+' update expects 4 or 5 "
                        f"tab-separated fields, got {len(parts)}"
                    )
                yield GraphUpdate.add(parts[1], parts[2], parts[3], score)
            elif op == "-":
                if len(parts) != 4:
                    raise KnowledgeGraphError(
                        f"{path}:{line_no}: '-' update expects 4 "
                        f"tab-separated fields, got {len(parts)}"
                    )
                yield GraphUpdate.remove(parts[1], parts[2], parts[3])
            else:
                raise KnowledgeGraphError(
                    f"{path}:{line_no}: update op must be '+' or '-', got {op!r}"
                )


# ----------------------------------------------------------------------
# Binary snapshots (columnar .npz)
# ----------------------------------------------------------------------
def _columnar_store_of(graph: KnowledgeGraph) -> "ColumnarStore":
    """The graph's columnar store, interning on the fly if needed.

    Non-columnar graphs (object-backed, live-update overlays) are frozen
    through :meth:`ColumnarStore.from_triples`, which sees the *merged*
    triple set — so snapshotting a :class:`~repro.kg.delta.LiveGraph`
    implicitly compacts it on disk.
    """
    from repro.kg.columnar import ColumnarStore

    store = getattr(graph, "store", None)
    if isinstance(store, ColumnarStore):
        return store
    return ColumnarStore.from_triples(graph.triples())


class _AtomicBinaryWriter:
    """Write-to-temp-then-``os.replace`` so crashed writers never leave a
    truncated snapshot at the destination path.  ``os.replace`` is atomic
    on POSIX and Windows for same-filesystem paths, which holds because
    the temp file lives next to the destination."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.temp = path.with_name(f".{path.name}.tmp-{os.getpid()}")

    def __enter__(self) -> io.BufferedWriter:
        self._handle = open(self.temp, "wb")
        return self._handle

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._handle.close()
        if exc_type is None:
            os.replace(self.temp, self.path)
        else:
            try:
                os.unlink(self.temp)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def save_snapshot(graph: KnowledgeGraph, path: str | Path) -> int:
    """Persist *graph* as a versioned binary snapshot; returns triple count.

    The snapshot is a compressed ``.npz`` holding the graph's
    dictionary-encoded columns plus a header (format magic, version,
    graph name) — see ``docs/storage.md`` for the exact layout.  Any
    graph can be saved; non-columnar graphs are interned on the fly.
    Loading with :func:`load_snapshot` skips parsing and interning
    entirely, which is the whole point of the format.
    """
    import numpy as np

    store = _columnar_store_of(graph)
    # Refuse to write a file load_snapshot would reject (e.g. a NaN score
    # smuggled past Triple's `score < 0` check): fail at save time.
    store.validate()
    path = Path(path)
    with _AtomicBinaryWriter(path) as handle:
        np.savez_compressed(
            handle,
            format=np.array(SNAPSHOT_FORMAT),
            version=np.array(SNAPSHOT_VERSION, dtype=np.int64),
            name=np.array(graph.name),
            terms=store.terms,
            subjects=store.subjects,
            predicates=store.predicates,
            objects=store.objects,
            scores=store.scores,
        )
    return store.n_triples


def load_snapshot(
    path: str | Path,
    name: str | None = None,
    mutable: bool = False,
) -> KnowledgeGraph:
    """Load a binary snapshot written by :func:`save_snapshot`.

    Returns a read-only :class:`~repro.kg.columnar.ColumnarGraph` by
    default (columns are adopted as-is after validation — no per-triple
    work).  Pass ``mutable=True`` to decode into an ordinary object-backed
    :class:`KnowledgeGraph` instead.  A file that is not a snapshot, or a
    snapshot from a newer format version, raises
    :class:`~repro.errors.KnowledgeGraphError`.

    Dispatches on content, not suffix: a v2 packed snapshot (see
    :func:`save_snapshot_v2`) is recognised by its magic bytes and
    attached via :func:`load_snapshot_v2` (memory-mapped, O(ms)).
    """
    import zipfile

    import numpy as np

    from repro.kg.columnar import ColumnarGraph, ColumnarStore

    path = Path(path)
    if _sniff_v2(path):
        return load_snapshot_v2(path, name=name, mutable=mutable)
    try:
        with np.load(path, allow_pickle=False) as data:
            try:
                magic = str(data["format"][()])
                version = int(data["version"][()])
                stored_name = str(data["name"][()])
                arrays = {
                    key: data[key]
                    for key in ("terms", "subjects", "predicates", "objects", "scores")
                }
            except KeyError as missing:
                raise KnowledgeGraphError(
                    f"{path}: not a knowledge-graph snapshot "
                    f"(missing member {missing}; a v1 .npz snapshot carries "
                    f"format/version/name/terms/columns — see docs/storage.md)"
                ) from None
    except (zipfile.BadZipFile, ValueError, OSError) as error:
        raise KnowledgeGraphError(
            f"{path}: cannot read snapshot: {error} "
            f"(v1 snapshots are .npz containers, v2 packed snapshots start "
            f"with the {SNAPSHOT_V2_MAGIC!r} magic — see docs/storage.md)"
        ) from None
    if magic != SNAPSHOT_FORMAT:
        raise KnowledgeGraphError(
            f"{path}: bad snapshot magic {magic!r} (expected {SNAPSHOT_FORMAT!r})"
        )
    if not 1 <= version <= SNAPSHOT_VERSION:
        raise KnowledgeGraphError(
            f"{path}: snapshot version {version} unsupported "
            f"(this reader handles 1..{SNAPSHOT_VERSION})"
        )
    try:
        store = ColumnarStore.from_arrays(
            arrays["terms"],
            arrays["subjects"],
            arrays["predicates"],
            arrays["objects"],
            arrays["scores"],
            validate=True,
        )
    except KnowledgeGraphError as error:
        raise KnowledgeGraphError(f"{path}: corrupt snapshot: {error}") from None
    graph = ColumnarGraph(store, name=name or stored_name or path.stem)
    return graph.thaw() if mutable else graph


# ----------------------------------------------------------------------
# v2 packed snapshots (.kg2): mmap-attachable raw columns + JSON manifest
# ----------------------------------------------------------------------
def _sniff_v2(path: Path) -> bool:
    """Whether *path* starts with the v2 packed-snapshot magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(SNAPSHOT_V2_MAGIC)) == SNAPSHOT_V2_MAGIC
    except OSError:
        return False


def _v2_error(path: str | Path, why: str) -> KnowledgeGraphError:
    return KnowledgeGraphError(f"{path}: {why} ({_V2_HINT})")


def save_snapshot_v2(graph: KnowledgeGraph, path: str | Path) -> int:
    """Persist *graph* as a v2 packed snapshot; returns the triple count.

    Layout (all integers little-endian, see ``docs/storage.md``)::

        magic (8 B) | section bytes, each start 64-byte aligned | JSON
        manifest | uint64 manifest length

    The manifest footer keeps section offsets independent of the
    manifest's own size; sections are raw C-contiguous array bytes that
    :func:`numpy.memmap` can attach with zero copies.  Two sections go
    beyond the v1 members: ``term_rank`` persists the lexicographic term
    ranks (so attaching never argsorts the dictionary), and the four row
    columns are stored in canonical Definition-5 score order — every
    match list is then a gather over *forward-contiguous* file regions,
    which is what keeps cold page-cache misses sequential.  Row order is
    not part of the graph's identity: every user-visible ordering (match
    lists, answers, TSV export) re-sorts by total orders.

    Writes are atomic (temp file + ``os.replace``); a crashed writer
    never leaves a truncated file at *path*.
    """
    import numpy as np

    store = _columnar_store_of(graph)
    store.validate()
    order = store.ordered_rows((None, None, None))
    term_width = store.terms.dtype.itemsize // 4 if store.terms.size else 1
    arrays = {
        "terms": np.ascontiguousarray(store.terms, dtype=f"<U{term_width}"),
        "term_rank": np.ascontiguousarray(store._ranks(), dtype="<i8"),
        "subjects": np.ascontiguousarray(store.subjects[order], dtype="<i4"),
        "predicates": np.ascontiguousarray(store.predicates[order], dtype="<i4"),
        "objects": np.ascontiguousarray(store.objects[order], dtype="<i4"),
        "scores": np.ascontiguousarray(store.scores[order], dtype="<f8"),
    }
    path = Path(path)
    sections: dict[str, dict[str, object]] = {}
    with _AtomicBinaryWriter(path) as handle:
        handle.write(SNAPSHOT_V2_MAGIC)
        position = len(SNAPSHOT_V2_MAGIC)
        for name in _V2_SECTIONS:
            array = arrays[name]
            pad = (-position) % _V2_ALIGN
            handle.write(b"\x00" * pad)
            position += pad
            data = array.tobytes()
            handle.write(data)
            sections[name] = {
                "dtype": array.dtype.str,
                "shape": [int(array.shape[0])],
                "offset": position,
                "nbytes": len(data),
                "crc32": zlib.crc32(data),
            }
            position += len(data)
        manifest = json.dumps(
            {
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_V2_VERSION,
                "name": graph.name,
                "n_triples": store.n_triples,
                "n_terms": store.n_terms,
                "row_order": "score",
                "checksum": "crc32",
                "sections": sections,
            },
            sort_keys=True,
        ).encode("utf-8")
        handle.write(manifest)
        handle.write(struct.pack("<Q", len(manifest)))
    return store.n_triples


def read_snapshot_v2_manifest(path: str | Path) -> dict:
    """Parse and structurally validate a v2 snapshot's JSON manifest.

    Every failure mode — wrong magic, truncation, mangled JSON, missing
    or malformed sections, out-of-bounds offsets — raises
    :class:`KnowledgeGraphError` naming the path and the expected format,
    never a raw ``KeyError``/``json`` traceback.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(SNAPSHOT_V2_MAGIC))
            if head != SNAPSHOT_V2_MAGIC:
                if head[:2] == b"PK":
                    raise _v2_error(
                        path,
                        "this is a zip container — likely a v1 .npz snapshot; "
                        "use load_snapshot",
                    )
                raise _v2_error(path, f"bad magic {head!r}")
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size < len(SNAPSHOT_V2_MAGIC) + 8:
                raise _v2_error(path, f"truncated file ({size} bytes)")
            handle.seek(size - 8)
            (manifest_len,) = struct.unpack("<Q", handle.read(8))
            if not 2 <= manifest_len <= size - len(SNAPSHOT_V2_MAGIC) - 8:
                raise _v2_error(
                    path, f"manifest length {manifest_len} outside file bounds"
                )
            handle.seek(size - 8 - manifest_len)
            raw = handle.read(manifest_len)
    except OSError as error:
        raise KnowledgeGraphError(f"{path}: cannot read snapshot: {error}") from None
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _v2_error(path, f"manifest is not valid JSON: {error}") from None
    if not isinstance(manifest, dict):
        raise _v2_error(path, "manifest must be a JSON object")
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise _v2_error(
            path, f"bad snapshot magic {manifest.get('format')!r} in manifest"
        )
    version = manifest.get("version")
    if version != SNAPSHOT_V2_VERSION:
        raise _v2_error(
            path,
            f"snapshot version {version!r} unsupported "
            f"(this reader handles packed version {SNAPSHOT_V2_VERSION})",
        )
    sections = manifest.get("sections")
    if not isinstance(sections, dict):
        raise _v2_error(path, "manifest has no sections table")
    for name in _V2_SECTIONS:
        section = sections.get(name)
        if not isinstance(section, dict):
            raise _v2_error(path, f"manifest is missing section {name!r}")
        try:
            offset = int(section["offset"])
            nbytes = int(section["nbytes"])
            (length,) = (int(value) for value in section["shape"])
            dtype = str(section["dtype"])
        except (KeyError, TypeError, ValueError) as error:
            raise _v2_error(
                path, f"malformed section {name!r}: {error!r}"
            ) from None
        if offset < len(SNAPSHOT_V2_MAGIC) or offset + nbytes > size - 8 - manifest_len:
            raise _v2_error(
                path,
                f"section {name!r} [{offset}, {offset + nbytes}) "
                f"outside file bounds",
            )
        if length < 0 or (dtype[:2] not in ("<U", "<i", "<f")):
            raise _v2_error(path, f"section {name!r} has bad dtype/shape")
    return manifest


def _v2_section_arrays(path: Path, manifest: dict, verify: bool) -> dict:
    import numpy as np

    arrays: dict[str, np.ndarray] = {}
    for name in _V2_SECTIONS:
        section = manifest["sections"][name]
        try:
            dtype = np.dtype(str(section["dtype"]))
        except TypeError as error:
            raise _v2_error(path, f"section {name!r}: {error}") from None
        length = int(section["shape"][0])
        if length * dtype.itemsize != int(section["nbytes"]):
            raise _v2_error(
                path,
                f"section {name!r} declares {section['nbytes']} bytes for "
                f"{length} x {dtype}",
            )
        if length:
            array = np.memmap(
                path, dtype=dtype, mode="r",
                offset=int(section["offset"]), shape=(length,),
            )
        else:
            array = np.empty(0, dtype=dtype)
        if verify:
            checksum = zlib.crc32(array.tobytes())
            if checksum != int(section.get("crc32", -1)):
                raise _v2_error(
                    path,
                    f"section {name!r} checksum mismatch "
                    f"(stored {section.get('crc32')}, computed {checksum})",
                )
        arrays[name] = array
    return arrays


def open_snapshot_v2_store(path: str | Path, *, verify: bool = False) -> "ColumnarStore":
    """Attach a v2 packed snapshot as a memory-mapped :class:`ColumnarStore`.

    The implementation behind :meth:`ColumnarStore.open_mmap` — O(ms):
    one manifest parse plus six ``np.memmap`` views; no column is read,
    validated, decompressed or copied.  ``verify=True`` checks section
    checksums and full store invariants (reads everything — the choice
    between trust-and-attach and verify-and-attach is the caller's).
    """
    store, _ = _attach_v2(Path(path), verify=verify)
    return store


def _attach_v2(path: Path, verify: bool) -> "tuple[ColumnarStore, dict]":
    from repro.kg.columnar import ColumnarStore

    manifest = read_snapshot_v2_manifest(path)
    arrays = _v2_section_arrays(path, manifest, verify)
    if len(arrays["term_rank"]) != len(arrays["terms"]):
        raise _v2_error(
            path,
            f"term_rank length {len(arrays['term_rank'])} != "
            f"n_terms {len(arrays['terms'])}",
        )
    try:
        store = ColumnarStore(
            arrays["terms"],
            arrays["subjects"],
            arrays["predicates"],
            arrays["objects"],
            arrays["scores"],
        )
    except KnowledgeGraphError as error:
        raise _v2_error(path, f"corrupt snapshot: {error}") from None
    store._term_rank = arrays["term_rank"]
    store.source_path = str(path)
    if verify:
        try:
            store.validate()
        except KnowledgeGraphError as error:
            raise _v2_error(path, f"corrupt snapshot: {error}") from None
    return store, manifest


def load_snapshot_v2(
    path: str | Path,
    name: str | None = None,
    mutable: bool = False,
    *,
    mmap: bool = True,
    verify: bool = False,
) -> KnowledgeGraph:
    """Load a v2 packed snapshot written by :func:`save_snapshot_v2`.

    Returns a read-only :class:`~repro.kg.columnar.ColumnarGraph` whose
    columns are ``np.memmap`` views over the file (pass ``mmap=False``
    to copy them into process-private memory, or ``mutable=True`` for an
    object-backed editable graph).  Attach time is O(ms) independent of
    graph size; processes attaching the same file share one physical
    copy of the columns through the page cache.
    """
    import numpy as np

    from repro.kg.columnar import ColumnarGraph

    path = Path(path)
    store, manifest = _attach_v2(path, verify=verify)
    if not mmap:
        from repro.kg.columnar import ColumnarStore

        copied = ColumnarStore(
            np.array(store.terms),
            np.array(store.subjects),
            np.array(store.predicates),
            np.array(store.objects),
            np.array(store.scores),
        )
        copied._term_rank = np.array(store._ranks())
        store = copied
    stored_name = str(manifest.get("name", "")) or path.stem
    graph = ColumnarGraph(store, name=name or stored_name)
    return graph.thaw() if mutable else graph


# ----------------------------------------------------------------------
# N-triples-ish
# ----------------------------------------------------------------------
def _angle(term: str) -> str:
    return f"<{term}>"


def _unangle(token: str, where: str) -> str:
    if len(token) >= 2 and token[0] == "<" and token[-1] == ">":
        return token[1:-1]
    raise KnowledgeGraphError(f"{where}: expected <term>, got {token!r}")


def save_ntriples(graph: KnowledgeGraph, path: str | Path) -> int:
    """Write *graph* without scores in a simple N-triples-like syntax."""
    count = 0
    with _open_text(path, "w") as handle:
        for triple in sorted(graph.triples(), key=lambda t: t.spo):
            handle.write(
                f"{_angle(triple.subject)} {_angle(triple.predicate)} "
                f"{_angle(triple.object)} .\n"
            )
            count += 1
    return count


def iter_ntriples(path: str | Path) -> Iterator[Triple]:
    """Yield triples from an N-triples-ish file (scores default to 1.0)."""
    with _open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not line.endswith("."):
                raise KnowledgeGraphError(f"{path}:{line_no}: missing trailing '.'")
            tokens = line[:-1].split()
            if len(tokens) != 3:
                raise KnowledgeGraphError(
                    f"{path}:{line_no}: expected 3 terms, got {len(tokens)}"
                )
            where = f"{path}:{line_no}"
            yield Triple(
                _unangle(tokens[0], where),
                _unangle(tokens[1], where),
                _unangle(tokens[2], where),
                1.0,
            )


def load_ntriples(path: str | Path, name: str | None = None) -> KnowledgeGraph:
    """Load an N-triples-ish file into a fresh :class:`KnowledgeGraph`."""
    graph = KnowledgeGraph(name=name or Path(path).stem)
    graph.add_triples(iter_ntriples(path))
    return graph


# ----------------------------------------------------------------------
# Convenience
# ----------------------------------------------------------------------
def from_tuples(
    rows: Iterable[tuple[str, str, str] | tuple[str, str, str, float]],
    name: str = "kg",
) -> KnowledgeGraph:
    """Build a graph from plain tuples, a convenience for tests/examples."""
    graph = KnowledgeGraph(name=name)
    for row in rows:
        if len(row) == 3:
            graph.add(*row)  # type: ignore[misc]
        elif len(row) == 4:
            graph.add(row[0], row[1], row[2], score=float(row[3]))
        else:
            raise KnowledgeGraphError(f"expected 3- or 4-tuple, got {row!r}")
    return graph
