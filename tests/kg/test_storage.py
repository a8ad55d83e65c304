"""Unit tests for repro.kg.storage."""

import os
import subprocess
import sys

import pytest

from repro.datasets.workload import Workload
from repro.errors import KnowledgeGraphError
from repro.kg import storage
from repro.kg.delta import GraphUpdate
from repro.kg.graph import KnowledgeGraph
from repro.kg.pattern import TriplePattern, var
from repro.query.query import TriplePatternQuery
from repro.relax.rules import RuleSet
from repro.service import WorkloadRunner


@pytest.fixture
def graph():
    kg = KnowledgeGraph()
    kg.add("a", "type", "t1", score=10.0)
    kg.add("b", "type", "t1", score=5.0)
    kg.add("c", "likes", "a", score=2.5)
    return kg


class TestTSVRoundTrip:
    def test_round_trip(self, graph, tmp_path):
        path = tmp_path / "kg.tsv"
        written = storage.save_tsv(graph, path)
        assert written == 3
        loaded = storage.load_tsv(path)
        assert loaded.size == 3
        assert loaded.score_of("a", "type", "t1") == 10.0

    def test_gzip_round_trip(self, graph, tmp_path):
        path = tmp_path / "kg.tsv.gz"
        storage.save_tsv(graph, path)
        loaded = storage.load_tsv(path)
        assert loaded.size == 3

    def test_three_column_defaults_score(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("a\tp\tb\n")
        loaded = storage.load_tsv(path)
        assert loaded.score_of("a", "p", "b") == 1.0

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("# header\n\na\tp\tb\t2\n")
        assert storage.load_tsv(path).size == 1

    def test_bad_column_count_raises(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("a\tp\n")
        with pytest.raises(KnowledgeGraphError):
            storage.load_tsv(path)

    def test_bad_score_raises(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("a\tp\tb\tnot-a-number\n")
        with pytest.raises(KnowledgeGraphError):
            storage.load_tsv(path)

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_score_rejected_with_line(self, tmp_path, raw):
        path = tmp_path / "kg.tsv"
        path.write_text(f"a\tp\tb\t1\nc\tp\td\t{raw}\n")
        with pytest.raises(KnowledgeGraphError, match=r":2: non-finite score"):
            storage.load_tsv(path)


class TestSnapshotSaveValidation:
    def test_save_tsv_ignores_unrelated_store_attribute(self, graph, tmp_path):
        graph.store = object()  # duck-typed attr that is not a ColumnarStore
        path = tmp_path / "kg.tsv"
        assert storage.save_tsv(graph, path) == 3
        assert storage.load_tsv(path).size == 3


class TestUpdateTSV:
    def write(self, tmp_path, text):
        path = tmp_path / "edits.tsv"
        path.write_text(text)
        return path

    def test_iter_update_tsv_parses_ops(self, tmp_path):
        path = self.write(
            tmp_path,
            "# comment\n\n+\ts\tp\to\t2.5\n-\ts\tp\to\n+\tx\ty\tz\n",
        )
        updates = list(storage.iter_update_tsv(path))
        assert [u.op for u in updates] == ["+", "-", "+"]
        assert updates[0].triple().score == 2.5
        assert updates[1].spo == ("s", "p", "o")
        assert updates[2].score == 1.0  # optional score defaults

    def test_gzip_round_trip(self, tmp_path):
        import gzip

        path = tmp_path / "edits.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("+\ts\tp\to\t3\n")
        (update,) = storage.iter_update_tsv(path)
        assert update.spo == ("s", "p", "o")
        assert update.triple().score == 3.0

    @pytest.mark.parametrize(
        "line, message",
        [
            ("*\ts\tp\to", "update op"),
            ("+\ts\tp", "4 or 5"),
            ("+\ts\tp\to\tbad", "bad score"),
            ("+\ts\tp\to\tinf", "non-finite"),
            ("-\ts\tp\to\textra", "4 tab-separated"),
            ("-\ts\tp", "4 tab-separated"),
        ],
    )
    def test_malformed_lines_rejected_with_line_number(self, tmp_path, line, message):
        path = self.write(tmp_path, f"+\tok\tok\tok\n{line}\n")
        with pytest.raises(KnowledgeGraphError) as excinfo:
            list(storage.iter_update_tsv(path))
        assert message in str(excinfo.value)
        assert ":2:" in str(excinfo.value)


class TestSnapshotV2:
    """The packed mmap format: save_snapshot_v2 / load_snapshot_v2."""

    def test_round_trip_preserves_graph(self, graph, tmp_path):
        path = tmp_path / "kg.kg2"
        written = storage.save_snapshot_v2(graph, path)
        assert written == 3
        loaded = storage.load_snapshot_v2(path)
        assert set(loaded.triples()) == set(graph.triples())
        assert loaded.score_of("a", "type", "t1") == 10.0

    def test_snapshot_file_untouched_by_updates(self, graph, tmp_path):
        """A runner's updates over an attached graph land in a
        copy-on-write overlay, never in the file."""
        path = tmp_path / "kg.kg2"
        storage.save_snapshot_v2(graph, path)
        before = path.read_bytes()
        query = TriplePatternQuery((TriplePattern(var("s"), "type", "t1"),), name="t1")
        runner = WorkloadRunner(
            Workload("mmap", storage.load_snapshot_v2(path), RuleSet(), [query])
        )
        runner.apply_updates(
            [GraphUpdate.add("d", "type", "t1", 20.0), GraphUpdate.remove("a", "type", "t1")]
        )
        assert runner.run([query], k=5).outcomes[0].n_answers == 2
        assert path.read_bytes() == before

    def test_columns_are_memory_mapped(self, graph, tmp_path):
        import numpy as np

        def is_mapped(array):
            return isinstance(array, np.memmap) or isinstance(array.base, np.memmap)

        path = tmp_path / "kg.kg2"
        storage.save_snapshot_v2(graph, path)
        loaded = storage.load_snapshot_v2(path)
        # Constructor views may strip the np.memmap subclass, but the
        # buffer must still be the mapped file (zero copies).
        assert is_mapped(loaded.store.scores)
        assert is_mapped(loaded.store.subjects)

    def test_mmap_false_copies_into_memory(self, graph, tmp_path):
        import numpy as np

        path = tmp_path / "kg.kg2"
        storage.save_snapshot_v2(graph, path)
        loaded = storage.load_snapshot_v2(path, mmap=False)
        assert not isinstance(loaded.store.scores, np.memmap)
        assert set(loaded.triples()) == set(graph.triples())

    def test_name_stored_and_overridable(self, graph, tmp_path):
        path = tmp_path / "kg.kg2"
        graph.name = "the-graph"
        storage.save_snapshot_v2(graph, path)
        assert storage.load_snapshot_v2(path).name == "the-graph"
        assert storage.load_snapshot_v2(path, name="other").name == "other"

    def test_mutable_round_trip(self, graph, tmp_path):
        path = tmp_path / "kg.kg2"
        storage.save_snapshot_v2(graph, path)
        loaded = storage.load_snapshot_v2(path, mutable=True)
        assert type(loaded) is KnowledgeGraph
        loaded.add("x", "y", "z")
        assert loaded.size == 4

    def test_empty_graph_round_trip(self, tmp_path):
        path = tmp_path / "empty.kg2"
        assert storage.save_snapshot_v2(KnowledgeGraph(), path) == 0
        loaded = storage.load_snapshot_v2(path)
        assert loaded.size == 0

    def test_verify_accepts_good_file(self, graph, tmp_path):
        path = tmp_path / "kg.kg2"
        storage.save_snapshot_v2(graph, path)
        loaded = storage.load_snapshot_v2(path, verify=True)
        assert set(loaded.triples()) == set(graph.triples())

    def test_live_graph_snapshot_compacts(self, graph, tmp_path):
        from repro.kg.delta import GraphUpdate, LiveGraph

        live = LiveGraph(graph)
        live.apply_updates(
            [GraphUpdate.add("x", "type", "t1", 7.0), GraphUpdate.remove("c", "likes", "a")]
        )
        path = tmp_path / "kg.kg2"
        assert storage.save_snapshot_v2(live, path) == 3
        loaded = storage.load_snapshot_v2(path)
        assert set(loaded.triples()) == set(live.triples())

    def test_nan_score_rejected_before_writing(self, tmp_path):
        kg = KnowledgeGraph()
        kg.add("a", "p", "b", score=float("nan"))
        with pytest.raises(KnowledgeGraphError, match="finite"):
            storage.save_snapshot_v2(kg, tmp_path / "kg.kg2")
        assert not (tmp_path / "kg.kg2").exists()


class TestSnapshotV2Errors:
    """Every corruption mode names the path and hints at the format."""

    def _save(self, graph, tmp_path):
        path = tmp_path / "kg.kg2"
        storage.save_snapshot_v2(graph, path)
        return path

    def test_truncated_file(self, graph, tmp_path):
        path = self._save(graph, tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(KnowledgeGraphError, match=r"kg\.kg2.*truncated"):
            storage.load_snapshot_v2(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "kg.kg2"
        path.write_bytes(b"not a packed snapshot at all" + b"\x00" * 64)
        with pytest.raises(KnowledgeGraphError, match=r"kg\.kg2.*bad magic"):
            storage.load_snapshot_v2(path)

    def test_zip_container_is_refused_by_path(self, tmp_path):
        import zipfile

        path = tmp_path / "kg.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("terms.npy", b"not ours")
        with pytest.raises(KnowledgeGraphError, match=r"kg\.npz.*zip container"):
            storage.load_snapshot_v2(path)

    def test_garbage_manifest_tail(self, graph, tmp_path):
        import struct

        path = self._save(graph, tmp_path)
        data = path.read_bytes()
        (manifest_len,) = struct.unpack("<Q", data[-8:])
        body = data[: len(data) - 8 - manifest_len]
        garbage = b"{not json!!"
        path.write_bytes(body + garbage + struct.pack("<Q", len(garbage)))
        with pytest.raises(KnowledgeGraphError, match=r"kg\.kg2.*not valid JSON"):
            storage.load_snapshot_v2(path)

    def test_manifest_length_out_of_bounds(self, graph, tmp_path):
        import struct

        path = self._save(graph, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-8] + struct.pack("<Q", 2**40))
        with pytest.raises(KnowledgeGraphError, match="manifest length.*outside"):
            storage.load_snapshot_v2(path)

    def _rewrite_manifest(self, path, mutate):
        import json
        import struct

        data = path.read_bytes()
        (manifest_len,) = struct.unpack("<Q", data[-8:])
        manifest = json.loads(data[len(data) - 8 - manifest_len : -8])
        mutate(manifest)
        raw = json.dumps(manifest, sort_keys=True).encode()
        path.write_bytes(
            data[: len(data) - 8 - manifest_len] + raw + struct.pack("<Q", len(raw))
        )

    def test_future_version_rejected_with_hint(self, graph, tmp_path):
        path = self._save(graph, tmp_path)
        self._rewrite_manifest(path, lambda m: m.update(version=99))
        with pytest.raises(KnowledgeGraphError, match="version 99.*packed version 2"):
            storage.load_snapshot_v2(path)

    def test_foreign_format_rejected(self, graph, tmp_path):
        path = self._save(graph, tmp_path)
        self._rewrite_manifest(path, lambda m: m.update(format="someone/else"))
        with pytest.raises(KnowledgeGraphError, match="bad snapshot magic"):
            storage.load_snapshot_v2(path)

    def test_missing_section_named(self, graph, tmp_path):
        path = self._save(graph, tmp_path)
        self._rewrite_manifest(path, lambda m: m["sections"].pop("scores"))
        with pytest.raises(KnowledgeGraphError, match="missing section 'scores'"):
            storage.load_snapshot_v2(path)

    def test_section_offset_out_of_bounds(self, graph, tmp_path):
        path = self._save(graph, tmp_path)
        self._rewrite_manifest(
            path, lambda m: m["sections"]["scores"].update(offset=2**40)
        )
        with pytest.raises(KnowledgeGraphError, match="'scores'.*outside file bounds"):
            storage.load_snapshot_v2(path)

    def test_section_shape_nbytes_mismatch(self, graph, tmp_path):
        path = self._save(graph, tmp_path)
        self._rewrite_manifest(
            path, lambda m: m["sections"]["scores"].update(shape=[999])
        )
        with pytest.raises(KnowledgeGraphError):
            storage.load_snapshot_v2(path)

    @pytest.mark.parametrize("section", ["subjects", "scores", "terms"])
    def test_verify_catches_flipped_bytes_in_every_section(
        self, graph, tmp_path, section
    ):
        """Corruption *inside a section* (offsets from the manifest, not
        guessed — padding bytes are meaningless by design) fails verify."""
        path = self._save(graph, tmp_path)
        manifest = storage.read_snapshot_v2_manifest(path)
        meta = manifest["sections"][section]
        data = bytearray(path.read_bytes())
        where = int(meta["offset"]) + int(meta["nbytes"]) // 2
        data[where] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(KnowledgeGraphError, match=f"'{section}' checksum mismatch"):
            storage.load_snapshot_v2(path, verify=True)

    def test_unreadable_path_names_file(self, tmp_path):
        with pytest.raises(KnowledgeGraphError, match="no-such"):
            storage.load_snapshot_v2(tmp_path / "no-such.kg2")


class TestAtomicSnapshotWrites:
    """A crashed writer never leaves a file (or ruins one) at the target."""

    class _Boom(RuntimeError):
        pass

    def _crashing_graph(self, graph):
        """A graph whose column extraction succeeds but whose terms blow
        up mid-serialisation — simulating a writer crash after the
        destination would already have been opened by a naive writer."""
        crasher = self

        class CrashingStore:
            def __getattr__(self, name):
                raise crasher._Boom("mid-write failure")

        graph.store = CrashingStore()
        return graph

    def test_failed_write_leaves_no_file(self, tmp_path):
        bad = KnowledgeGraph()
        bad.add("a", "p", "b", score=float("nan"))  # crashes validation
        target = tmp_path / "kg.bin"
        with pytest.raises(KnowledgeGraphError):
            storage.save_snapshot_v2(bad, target)
        assert list(tmp_path.iterdir()) == []  # no target, no temp litter

    def test_failed_write_preserves_previous_snapshot(self, graph, tmp_path):
        target = tmp_path / "kg.bin"
        storage.save_snapshot_v2(graph, target)
        before = target.read_bytes()
        bad = KnowledgeGraph()
        bad.add("x", "p", "y", score=float("nan"))
        with pytest.raises(KnowledgeGraphError):
            storage.save_snapshot_v2(bad, target)
        assert target.read_bytes() == before  # old snapshot intact
        assert list(tmp_path.iterdir()) == [target]

    def test_mid_stream_crash_cleans_temp(self, graph, tmp_path, monkeypatch):
        """Even a crash *during* byte writing (post-validation) must not
        leave a partial file at the destination."""
        target = tmp_path / "kg.kg2"
        real_dumps = storage.json.dumps

        def exploding_dumps(*args, **kwargs):
            raise self._Boom("mid-write failure")

        monkeypatch.setattr(storage.json, "dumps", exploding_dumps)
        with pytest.raises(self._Boom):
            storage.save_snapshot_v2(graph, target)
        monkeypatch.setattr(storage.json, "dumps", real_dumps)
        assert list(tmp_path.iterdir()) == []


class TestStaleTempSweep:
    """A writer killed mid-save leaves ``.<name>.tmp-<pid>`` behind; the
    next save to the same path removes it if that pid is gone."""

    @pytest.mark.skipif(os.name != "posix", reason="pid probing is POSIX-only")
    def test_temp_of_an_exited_writer_is_swept(self, graph, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: the pid names no process
        target = tmp_path / "kg.kg2"
        stale = tmp_path / f".{target.name}.tmp-{child.pid}"
        stale.write_bytes(b"half a snapshot")
        storage.save_snapshot_v2(graph, target)
        assert not stale.exists()
        assert sorted(tmp_path.iterdir()) == [target]

    def test_temp_of_a_live_writer_stays(self, graph, tmp_path):
        target = tmp_path / "kg.kg2"
        live = tmp_path / f".{target.name}.tmp-{os.getppid()}"
        other = tmp_path / ".other.kg2.tmp-999999999"
        live.write_bytes(b"being written")
        other.write_bytes(b"another path's temp")
        storage.save_snapshot_v2(graph, target)
        assert live.read_bytes() == b"being written"
        assert other.exists()
