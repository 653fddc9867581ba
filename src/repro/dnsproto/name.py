"""Domain-name encoding and decoding with RFC 1035 compression.

Names are handled as canonical strings: lowercase, no trailing dot, the
root zone being the empty string.  The encoder compresses by pointing
at previously written name suffixes; the decoder follows pointers with
a jump budget so malicious or corrupt pointer loops terminate.

Which layer owns which check.  This module owns everything RFC 1035
says about a *name*: non-empty ASCII labels of at most 63 bytes, at
most 255 bytes encoded, no literal dot inside a wire label, no
reserved label type, pointers only backwards and at most
``_MAX_POINTER_JUMPS`` of them -- plus the truncation checks of the
bytes it walks itself (it reads ``reader.data`` with local ints rather
than calling :class:`WireReader` per byte).  The encode-side checks run
once per distinct name, inside :func:`_name_plan`; the decode-side
label checks once per distinct label, inside :func:`_label_text`.  Both
memos are bounded LRUs keyed on the input alone, and a check that
raises is never cached, so a bad name raises every time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.dnsproto.types import MAX_LABEL_LENGTH, MAX_NAME_LENGTH
from repro.dnsproto.wire import WireFormatError, WireReader, WireWriter

#: Compression pointers are flagged by the two top bits of the length.
_POINTER_MASK = 0xC0
_POINTER_WORD = _POINTER_MASK << 8
#: A name can never legitimately need more jumps than bytes/2.
_MAX_POINTER_JUMPS = 64
#: Entries per memo.  The simulator's worlds use a few dozen names;
#: the bound is what keeps a stream of hostile names (echoed back by
#: ``make_response``) from growing the process.
MEMO_SIZE = 4096


def normalize_name(name: str) -> str:
    """Canonicalize a domain name: lowercase, no trailing dot.

    DNS names are case-insensitive (RFC 1035 2.3.3), so everything in
    the resolver stack -- zone lookups, cache keys, query matching --
    uses this canonical form.

    Deliberately does NOT strip whitespace: labels may legally contain
    arbitrary bytes, and a name decoded off the wire must survive
    normalization byte-for-byte (fuzzing found that stripping a
    leading ``\\t`` label corrupts the round trip).
    """
    name = name.lower()
    if name.endswith("."):
        name = name[:-1]
    return name


@lru_cache(maxsize=MEMO_SIZE)
def _name_plan(name: str) -> Tuple[Tuple[str, bytes], ...]:
    """The validated encoding of ``name``, one entry per label.

    Each entry is ``(suffix, chunk)``: the canonical suffix starting at
    that label (the compression-table key) and the label's wire bytes
    with their length prefix.  Raises for a name that cannot be
    encoded, which ``lru_cache`` does not remember.
    """
    canonical = normalize_name(name)
    if not canonical:
        return ()
    labels = canonical.split(".")
    plan = []
    encoded_length = 1
    for index, label in enumerate(labels):
        if not label:
            raise WireFormatError(f"empty label in name {canonical!r}")
        try:
            raw = label.encode("ascii", errors="strict")
        except UnicodeEncodeError as exc:
            raise WireFormatError(f"non-ASCII name {name!r}") from exc
        if len(raw) > MAX_LABEL_LENGTH:
            raise WireFormatError(
                f"label too long ({len(raw)} > {MAX_LABEL_LENGTH}): "
                f"{label!r}")
        encoded_length += len(raw) + 1
        plan.append((".".join(labels[index:]), bytes((len(raw),)) + raw))
    if encoded_length > MAX_NAME_LENGTH:
        raise WireFormatError(f"name too long: {name!r}")
    return tuple(plan)


def encode_name(
    writer: WireWriter,
    name: str,
    compress: Optional[Dict[str, int]] = None,
) -> None:
    """Write a domain name, optionally using/recording compression.

    ``compress`` maps canonical suffix strings to the message offset
    where that suffix was first written.  Pass the same dict for every
    name in a message to get cross-record compression; pass None to
    disable compression entirely.
    """
    plan = _name_plan(name)
    buf = writer.buf
    if compress is None:
        for _suffix, chunk in plan:
            buf += chunk
    else:
        for suffix, chunk in plan:
            target = compress.get(suffix)
            if target is not None and target <= 0x3FFF:
                buf += (_POINTER_WORD | target).to_bytes(2, "big")
                return
            compress[suffix] = len(buf)
            buf += chunk
    buf.append(0)


@lru_cache(maxsize=MEMO_SIZE)
def _label_text(raw: bytes) -> str:
    """One wire label as canonical text; the same ``str`` object for
    every occurrence of the label while it stays in the memo."""
    if b"." in raw:
        # A literal dot inside a label is legal on the wire but
        # inexpressible in our dotted-string canonical form (real
        # software escapes it as \046); reject rather than produce
        # a name that cannot round-trip.
        raise WireFormatError(f"dot inside label {raw!r}")
    try:
        return raw.decode("ascii").lower()
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"non-ASCII label {raw!r}") from exc


def decode_name(reader: WireReader) -> str:
    """Read a (possibly compressed) domain name from the message.

    The reader position ends just past the name in the *original*
    stream, regardless of any pointer jumps taken.
    """
    data = reader.data
    end = reader.end
    pos = reader.pos
    labels: List[str] = []
    jumps = 0
    return_pos = -1
    total_length = 1

    while True:
        if pos >= end:
            raise WireFormatError("truncated message (name)")
        length = data[pos]
        if length >= _POINTER_MASK:
            # Two-byte compression pointer.
            if pos + 1 >= end:
                raise WireFormatError("truncated message (pointer)")
            target = ((length & ~_POINTER_MASK) << 8) | data[pos + 1]
            jumps += 1
            if jumps > _MAX_POINTER_JUMPS:
                raise WireFormatError("compression pointer loop")
            if target >= pos:
                # Pointers must reference strictly earlier offsets;
                # combined with the jump budget this kills loops.
                raise WireFormatError("forward compression pointer")
            if return_pos < 0:
                return_pos = pos + 2
            pos = target
            continue
        if length & _POINTER_MASK:
            raise WireFormatError(f"reserved label type: {length:#x}")
        pos += 1
        if length == 0:
            break
        total_length += length + 1
        if total_length > MAX_NAME_LENGTH:
            raise WireFormatError("decoded name too long")
        stop = pos + length
        if stop > end:
            raise WireFormatError("truncated message (label)")
        labels.append(_label_text(data[pos:stop]))
        pos = stop

    reader.pos = pos if return_pos < 0 else return_pos
    return ".".join(labels)
