"""Every ``examples/*.py`` script runs: the hand-driven ``build_world``
+ ``run_rollout`` spelling the library keeps has a caller in tier-1."""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples")
    .glob("*.py"))


def test_examples_are_discovered():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(
        f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
