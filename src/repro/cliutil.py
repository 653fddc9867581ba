"""Flag conventions every ``python -m repro`` subcommand shares.

Imports nothing from :mod:`repro`, so any subcommand module can use it
without an import cycle.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Callable, Iterator, Optional, TextIO


def json_document(parse: Callable, what: str) -> Callable:
    """argparse type for a JSON document given inline or as ``@path``,
    handed to ``parse`` up front so an unreadable or malformed one is a
    usage error (exit code 2), never a mid-run crash."""

    def read(text: str):
        try:
            if text.startswith("@"):
                with open(text[1:]) as handle:
                    text = handle.read()
            return parse(json.loads(text))
        except OSError as exc:
            raise argparse.ArgumentTypeError(
                f"cannot read {what}: {exc}") from None
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {what}: {exc}") from None

    return read


def positive_int(text: str) -> int:
    """argparse type for counts (workers, shards, sessions, days): a
    strictly positive integer, rejected with exit code 2 (the
    usage-error contract) otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


@contextlib.contextmanager
def output(path: Optional[str]) -> Iterator[TextIO]:
    """The stream ``--out`` selects: the named file (announced on
    stderr once written), else stdout -- resolved at call time, so
    output capture works."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as handle:
        yield handle
    print(f"wrote {path}", file=sys.stderr)
