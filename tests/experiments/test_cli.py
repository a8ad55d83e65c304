"""Unit tests for the CLI entry point."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.cli import build_workload, main, run_experiment
from repro.experiments.session import ExperimentSession
from repro.metrics.efficiency import TimingProtocol


class TestBuildWorkload:
    def test_small_xkg(self):
        w = build_workload("xkg", "small", seed=None)
        assert w.name == "xkg"
        assert len(w.queries) == 24

    def test_seed_override(self):
        w1 = build_workload("twitter", "small", seed=1)
        w2 = build_workload("twitter", "small", seed=1)
        assert [q.patterns for q in w1.queries] == [q.patterns for q in w2.queries]

    def test_unknown_dataset(self):
        with pytest.raises(ExperimentError):
            build_workload("freebase", "small", None)

    def test_unknown_scale(self):
        with pytest.raises(ExperimentError):
            build_workload("xkg", "galactic", None)


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def session(self):
        workload = build_workload("twitter", "small", seed=3)
        # Trim to a handful of queries to keep CLI tests fast.
        workload.queries = workload.queries[:6]
        return ExperimentSession(
            workload, ks=(3,), protocol=TimingProtocol(1, 1)
        )

    def test_tables_render(self, session):
        for name in ("table2", "table3", "table4"):
            assert name.replace("table", "Table ") in run_experiment(name, session)

    def test_twitter_figures(self, session):
        assert "Figure 8" in run_experiment("fig8", session)
        assert "Figure 9" in run_experiment("fig9", session)

    def test_wrong_dataset_figure_rejected(self, session):
        with pytest.raises(ExperimentError):
            run_experiment("fig6", session)

    def test_unknown_experiment(self, session):
        with pytest.raises(ExperimentError):
            run_experiment("table9", session)


class TestMain:
    def test_main_runs_table2(self, capsys):
        code = main(
            [
                "table2",
                "--dataset", "twitter",
                "--scale", "small",
                "--ks", "3",
                "--runs", "1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Table 2" in output
        assert "workload" in output

    def test_main_figure_with_chart(self, capsys):
        code = main(
            [
                "fig8",
                "--dataset", "twitter",
                "--scale", "small",
                "--ks", "3",
                "--runs", "1",
                "--chart",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 8" in output
        assert "█" in output  # chart bars rendered

    def test_workload_auto_rows_read_block(self, capsys, monkeypatch):
        """Generated data is served from columns, so ``--executor auto``
        runs the block pipeline on every row."""
        from repro.service import WorkloadRunner

        reports = []
        run = WorkloadRunner.run

        def recording_run(self, *args, **kwargs):
            reports.append(run(self, *args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(WorkloadRunner, "run", recording_run)
        code = main(
            ["workload", "--dataset", "xkg", "--scale", "small",
             "--min-queries", "0", "--executor", "auto", "--result-cache", "0"]
        )
        assert code == 0
        assert "falls back" not in capsys.readouterr().out
        assert len(reports) == 1
        assert {o.executor for o in reports[0].outcomes} == {"block"}

    def test_workload_rejects_k_zero(self, capsys):
        """``--k 0`` is an error, not the default k served under a header
        that says ``k=0``."""
        code = main(
            ["workload", "--dataset", "xkg", "--scale", "small",
             "--min-queries", "0", "--k", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "k must be >= 1, got 0" in captured.err
        assert "WorkloadReport" not in captured.out


class TestConvert:
    @pytest.fixture
    def tsv_path(self, tmp_path):
        path = tmp_path / "mini.tsv"
        path.write_text("a\tp\tb\t2\nc\tp\td\t5\n")
        return path

    def test_tsv_to_snapshot_and_back(self, tsv_path, tmp_path, capsys):
        snapshot = tmp_path / "mini.kg2"
        assert main(["convert", "--input", str(tsv_path), "--output", str(snapshot)]) == 0
        assert "2 triples" in capsys.readouterr().out
        assert snapshot.exists()

        back = tmp_path / "back.tsv"
        assert main(["convert", "--input", str(snapshot), "--output", str(back)]) == 0
        assert back.read_bytes() == tsv_path.read_bytes()

    def test_graph_name_override(self, tsv_path, tmp_path):
        from repro.kg import storage

        snapshot = tmp_path / "named.kg2"
        code = main(
            [
                "convert",
                "--input", str(tsv_path),
                "--output", str(snapshot),
                "--graph-name", "renamed",
            ]
        )
        assert code == 0
        assert storage.load_snapshot_v2(snapshot).name == "renamed"

    def test_v1_snapshot_imports_one_way(self, tsv_path, tmp_path, capsys):
        import numpy as np

        from repro.kg import storage
        from repro.kg.columnar import ColumnarStore

        store = ColumnarStore.from_triples(storage.iter_tsv(tsv_path))
        v1 = tmp_path / "old.npz"
        with open(v1, "wb") as handle:
            np.savez(
                handle,
                format=np.array(storage.SNAPSHOT_FORMAT),
                version=np.array(storage.SNAPSHOT_VERSION),
                name=np.array("old"),
                terms=store.terms,
                subjects=store.subjects,
                predicates=store.predicates,
                objects=store.objects,
                scores=store.scores,
            )
        packed, back = tmp_path / "new.kg2", tmp_path / "back.tsv"
        assert main(["convert", "--input", str(v1), "--output", str(packed)]) == 0
        assert "(snapshot-v1) -> " in capsys.readouterr().out
        assert storage.load_snapshot_v2(packed).name == "old"
        assert main(["convert", "--input", str(packed), "--output", str(back)]) == 0
        assert back.read_bytes() == tsv_path.read_bytes()
        # One way only: nothing writes v1, and only convert reads it.
        assert main(["convert", "--input", str(packed), "--output", str(v1)]) == 2
        assert "import-only" in capsys.readouterr().err
        updates = tmp_path / "edits.tsv"
        updates.write_text("+\tx\tp\ty\t1\n")
        code = main(
            ["update", "--input", str(v1), "--updates", str(updates),
             "--output", str(tmp_path / "u.kg2")]
        )
        assert code == 2
        assert "import it with `convert" in capsys.readouterr().err

    def test_missing_arguments_fail(self, capsys):
        assert main(["convert"]) == 2
        assert "requires --input and --output" in capsys.readouterr().err

    def test_unknown_suffix_fails(self, tsv_path, capsys):
        code = main(["convert", "--input", str(tsv_path), "--output", "out.parquet"])
        assert code == 2
        assert "cannot infer storage format" in capsys.readouterr().err

    def test_bad_tsv_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tp\tb\tinf\n")
        code = main(["convert", "--input", str(bad), "--output", str(tmp_path / "o.kg2")])
        assert code == 2
        assert "non-finite score" in capsys.readouterr().err

    def test_missing_input_file_fails_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "convert",
                "--input", str(tmp_path / "absent.tsv"),
                "--output", str(tmp_path / "o.kg2"),
            ]
        )
        assert code == 2
        assert "convert failed" in capsys.readouterr().err


class TestUpdate:
    @pytest.fixture
    def tsv_path(self, tmp_path):
        path = tmp_path / "mini.tsv"
        path.write_text("a\tp\tb\t2\nc\tp\td\t5\ne\tp\tf\t3\n")
        return path

    @pytest.fixture
    def updates_path(self, tmp_path):
        path = tmp_path / "edits.tsv"
        path.write_text(
            "# mutation feed\n"
            "+\tg\tp\th\t9\n"     # fresh add
            "+\ta\tp\tb\t7\n"     # score overwrite
            "-\tc\tp\td\n"        # remove
            "-\tno\tsuch\trow\n"  # absent remove
            "+\ti\tp\tj\n"        # score defaults to 1.0
        )
        return path

    def test_update_tsv_to_snapshot(self, tsv_path, updates_path, tmp_path, capsys):
        from repro.kg import storage

        out = tmp_path / "updated.kg2"
        code = main(
            [
                "update",
                "--input", str(tsv_path),
                "--updates", str(updates_path),
                "--output", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "3 adds / 1 removes (1 absent)" in printed
        graph = storage.load_snapshot_v2(out)
        rows = {t.spo: t.score for t in graph.triples()}
        assert rows == {
            ("a", "p", "b"): 7.0,
            ("e", "p", "f"): 3.0,
            ("g", "p", "h"): 9.0,
            ("i", "p", "j"): 1.0,
        }

    def test_update_with_compact_threshold(self, tsv_path, updates_path, tmp_path, capsys):
        out = tmp_path / "updated.tsv"
        code = main(
            [
                "update",
                "--input", str(tsv_path),
                "--updates", str(updates_path),
                "--output", str(out),
                "--compact-threshold", "2",
            ]
        )
        assert code == 0
        assert "compactions" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 4

    def test_missing_arguments_fail(self, tsv_path, capsys):
        assert main(["update", "--input", str(tsv_path)]) == 2
        assert "requires --input, --updates and --output" in capsys.readouterr().err

    def test_bad_update_line_fails_cleanly(self, tsv_path, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("*\ta\tp\tb\n")
        code = main(
            [
                "update",
                "--input", str(tsv_path),
                "--updates", str(bad),
                "--output", str(tmp_path / "o.kg2"),
            ]
        )
        assert code == 2
        assert "update op" in capsys.readouterr().err


class TestScenarioFlag:
    def test_workload_serves_a_pack(self, capsys):
        code = main(
            ["workload", "--scenario", "adversarial-ties", "--min-queries", "0"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "# scenario: adversarial-ties (seed 809)" in printed
        assert "scenario:adversarial-ties" in printed

    def test_workload_k_defaults_to_the_packs_k(self, capsys):
        code = main(
            ["workload", "--scenario", "adversarial-edge-k", "--min-queries", "0"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "k=25" in printed
        # Update-carrying pack in warm mode: the stream replays and a
        # second post-update batch is reported.
        assert "# scenario update stream:" in printed
        assert printed.count("WorkloadReport") == 2

    def test_workload_without_scenario_keeps_default_k(self, capsys):
        code = main(
            ["workload", "--dataset", "xkg", "--scale", "small",
             "--min-queries", "0"]
        )
        assert code == 0
        assert "k=10" in capsys.readouterr().out

    def test_workload_seed_overrides_the_packs_seed(self, capsys):
        code = main(
            ["workload", "--scenario", "media-base", "--seed", "3",
             "--min-queries", "0"]
        )
        assert code == 0
        assert "# scenario: media-base (seed 3)" in capsys.readouterr().out

    def test_workload_unknown_scenario_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["workload", "--scenario", "nope"])
        assert "--scenario" in capsys.readouterr().err

    def test_update_replays_the_packs_stream(self, tmp_path, capsys):
        out = tmp_path / "post-update.kg2"
        code = main(
            ["update", "--scenario", "social-update-heavy",
             "--output", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "scenario social-update-heavy (seed 613)" in printed
        assert "applied 160 adds / 80 removes" in printed
        assert out.exists()

    def test_update_rejects_packs_without_a_stream(self, capsys):
        code = main(["update", "--scenario", "commerce-base"])
        assert code == 2
        assert "ships no update stream" in capsys.readouterr().err

    @pytest.mark.slow_scenario
    def test_every_shipped_pack_serves_end_to_end(self, capsys):
        """`make scenarios` coverage: `workload --scenario NAME` runs
        every registered pack through the full serving path."""
        from repro.datasets import scenario_names

        for name in scenario_names():
            code = main(
                ["workload", "--scenario", name, "--min-queries", "0",
                 "--executor", "auto"]
            )
            printed = capsys.readouterr().out
            assert code == 0, name
            assert f"# scenario: {name}" in printed
