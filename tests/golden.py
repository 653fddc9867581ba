"""The golden-fixture check every fixture test shares.

A fixture is the pretty, key-sorted JSON of a test's document under
``tests/data``.  To regenerate fixtures after an intentional behaviour
change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/<module>.py

and review the fixture diff like any other code change.
"""

import difflib
import json
import os
import pathlib

import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"


def render(document) -> str:
    """The fixture text of ``document``."""
    return json.dumps(document, indent=2, sort_keys=True,
                      default=str) + "\n"


def check_golden(path: pathlib.Path, document) -> None:
    """Fail with a unified diff when ``document`` no longer renders to
    the checked-in fixture at ``path``; with ``REGEN_GOLDEN`` set,
    rewrite the fixture and skip."""
    rendered = render(document)
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing fixture {path}; run with REGEN_GOLDEN=1 to create it")
    expected = path.read_text()
    if rendered != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            rendered.splitlines(keepends=True),
            fromfile=f"{path.name} (checked in)",
            tofile=f"{path.name} (this run)"))
        pytest.fail(f"golden fixture {path.name} drifted; if intentional, "
                    f"regenerate with REGEN_GOLDEN=1 and review.\n{diff}")
