"""Flag conventions every ``python -m repro`` subcommand shares.

Imports nothing from :mod:`repro`, so any subcommand module can use it
without an import cycle.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Iterator, Optional, TextIO


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
