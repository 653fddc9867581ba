"""Byte-level reader/writer for the DNS wire format.

Which layer owns which check.  This module owns *bounds*: every
``WireReader`` accessor refuses to read past the buffer and every
``WireWriter`` integer method refuses a value that does not fit its
field.  The hot decoders in :mod:`repro.dnsproto.name`,
:mod:`repro.dnsproto.message` and :mod:`repro.dnsproto.edns` do not go
through those methods field by field -- a method call per byte was the
codec's cost -- but read ``reader.data`` / ``reader.pos`` /
``reader.end`` and append to ``writer.buf`` directly.  They keep the
same guarantees a different way: fixed layouts go through a
precompiled :class:`struct.Struct`, whose ``struct.error`` (buffer too
short, value out of range) each call site translates into the same
:class:`WireFormatError`, and variable slices are compared against
``reader.end`` before they are taken.
``rdata.py`` and the tests keep using the checked methods.
"""

from __future__ import annotations


class WireFormatError(Exception):
    """Raised when a DNS message cannot be parsed or encoded.

    Servers translate this into a FORMERR response; it must never
    escape the resolver stack as a crash.
    """


class WireWriter:
    """Append-only big-endian byte writer with offset tracking.

    The current offset is exposed so the name encoder can record
    compression-pointer targets as it writes.  ``buf`` is the
    underlying bytearray: encoders that have already range-checked
    their fields (``struct`` packing raises on a misfit) append to it
    directly.
    """

    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    @property
    def offset(self) -> int:
        return len(self.buf)

    def u8(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise WireFormatError(f"u8 out of range: {value}")
        self.buf.append(value)

    def u16(self, value: int) -> None:
        if not 0 <= value <= 0xFFFF:
            raise WireFormatError(f"u16 out of range: {value}")
        self.buf += value.to_bytes(2, "big")

    def u32(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise WireFormatError(f"u32 out of range: {value}")
        self.buf += value.to_bytes(4, "big")

    def write(self, data: bytes) -> None:
        self.buf += data

    def patch_u16(self, offset: int, value: int) -> None:
        """Overwrite a previously written u16 (RDLENGTH backfill)."""
        if not 0 <= value <= 0xFFFF:
            raise WireFormatError(f"u16 out of range: {value}")
        if offset + 2 > len(self.buf):
            raise WireFormatError("patch offset beyond buffer")
        self.buf[offset:offset + 2] = value.to_bytes(2, "big")

    def getvalue(self) -> bytes:
        return bytes(self.buf)


class WireReader:
    """Bounds-checked big-endian byte reader with seekable position.

    Seeking is required by name-compression pointers, which jump to
    earlier offsets in the message.  ``data`` (always ``bytes``),
    ``pos`` and ``end`` (``len(data)``) are plain attributes for the
    single-pass decoders; a decoder that advances ``pos`` itself must
    have checked the new position against ``end`` first.
    """

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes) -> None:
        self.data = data if type(data) is bytes else bytes(data)
        self.pos = 0
        self.end = len(self.data)

    @property
    def remaining(self) -> int:
        return self.end - self.pos

    def seek(self, pos: int) -> None:
        if not 0 <= pos <= self.end:
            raise WireFormatError(f"seek out of bounds: {pos}")
        self.pos = pos

    def u8(self) -> int:
        if self.end - self.pos < 1:
            raise WireFormatError("truncated message (u8)")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def u16(self) -> int:
        if self.end - self.pos < 2:
            raise WireFormatError("truncated message (u16)")
        value = int.from_bytes(self.data[self.pos:self.pos + 2], "big")
        self.pos += 2
        return value

    def u32(self) -> int:
        if self.end - self.pos < 4:
            raise WireFormatError("truncated message (u32)")
        value = int.from_bytes(self.data[self.pos:self.pos + 4], "big")
        self.pos += 4
        return value

    def read(self, length: int) -> bytes:
        if length < 0:
            raise WireFormatError(f"negative read: {length}")
        if self.end - self.pos < length:
            raise WireFormatError("truncated message (read)")
        data = self.data[self.pos:self.pos + length]
        self.pos += length
        return data
