"""Smoke tests: every example script must run to completion.

The heavier generator-backed examples are exercised through their
importable pieces; the two hand-built ones run fully.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesExist:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart",
            "music_exploration",
            "twitter_trends",
            "planner_ablation",
        ],
    )
    def test_example_file_present(self, name):
        assert (EXAMPLES_DIR / f"{name}.py").exists()


class TestQuickstart:
    def test_runs_to_completion(self, capsys):
        module = load_example("quickstart")
        module.main()
        output = capsys.readouterr().out
        assert "TriniT" in output
        assert "Spec-QP" in output
        assert "precision" in output

    def test_graph_and_rules_shape(self):
        module = load_example("quickstart")
        kg = module.build_graph()
        rules = module.build_rules()
        assert kg.size > 30
        assert len(rules) == 7  # Table 1 has 7 relaxations

