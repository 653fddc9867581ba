"""Typed RDATA for the record types the mapping system serves.

Each rdata class knows how to encode itself into a message (optionally
participating in name compression) and how to decode itself from the
RDATA slice of a record.  Unknown types round-trip through
:class:`OpaqueRdata` so a resolver can forward records it does not
understand -- required behaviour for a well-behaved recursive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple, Type

from repro.dnsproto.name import decode_name, encode_name, normalize_name
from repro.dnsproto.types import QType
from repro.dnsproto.wire import WireFormatError, WireReader, WireWriter
from repro.net.ipv4 import format_ipv4


class Rdata:
    """Base class; subclasses register themselves by record type."""

    rtype: ClassVar[int] = 0
    _registry: ClassVar[Dict[int, Type["Rdata"]]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if getattr(cls, "rtype", 0):
            Rdata._registry[cls.rtype] = cls

    def encode(self, writer: WireWriter,
               compress: Optional[Dict[str, int]]) -> None:
        raise NotImplementedError

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "Rdata":
        raise NotImplementedError

    @staticmethod
    def decoder_for(rtype: int) -> Optional[Type["Rdata"]]:
        return Rdata._registry.get(rtype)


@dataclass(frozen=True, slots=True)
class ARdata(Rdata):
    """IPv4 address record; the payload of every mapping answer."""

    address: int
    rtype: ClassVar[int] = QType.A

    def __post_init__(self) -> None:
        if not 0 <= self.address < (1 << 32):
            raise WireFormatError(f"bad IPv4 address: {self.address}")

    def encode(self, writer: WireWriter,
               compress: Optional[Dict[str, int]]) -> None:
        writer.u32(self.address)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "ARdata":
        if rdlength != 4:
            raise WireFormatError(f"A rdata must be 4 bytes, got {rdlength}")
        return cls(reader.u32())

    def __str__(self) -> str:
        return format_ipv4(self.address)


@dataclass(frozen=True, slots=True)
class NSRdata(Rdata):
    """Name-server delegation record (global load-balancer output)."""

    nsdname: str
    rtype: ClassVar[int] = QType.NS

    def encode(self, writer: WireWriter,
               compress: Optional[Dict[str, int]]) -> None:
        encode_name(writer, self.nsdname, compress)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "NSRdata":
        return cls(decode_name(reader))

    def __str__(self) -> str:
        return self.nsdname


@dataclass(frozen=True, slots=True)
class CNAMERdata(Rdata):
    """Alias record: content-provider domain -> CDN domain."""

    target: str
    rtype: ClassVar[int] = QType.CNAME

    def encode(self, writer: WireWriter,
               compress: Optional[Dict[str, int]]) -> None:
        encode_name(writer, self.target, compress)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "CNAMERdata":
        return cls(decode_name(reader))

    def __str__(self) -> str:
        return self.target


@dataclass(frozen=True, slots=True)
class SOARdata(Rdata):
    """Start-of-authority record for served zones."""

    mname: str
    rname: str
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int
    rtype: ClassVar[int] = QType.SOA

    def encode(self, writer: WireWriter,
               compress: Optional[Dict[str, int]]) -> None:
        encode_name(writer, self.mname, compress)
        encode_name(writer, self.rname, compress)
        for field in (self.serial, self.refresh, self.retry, self.expire,
                      self.minimum):
            writer.u32(field)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "SOARdata":
        mname = decode_name(reader)
        rname = decode_name(reader)
        return cls(mname, rname, reader.u32(), reader.u32(), reader.u32(),
                   reader.u32(), reader.u32())


@dataclass(frozen=True, slots=True)
class TXTRdata(Rdata):
    """Text record; used by the whoami diagnostic zone."""

    strings: Tuple[bytes, ...]
    rtype: ClassVar[int] = QType.TXT

    @classmethod
    def from_text(cls, *texts: str) -> "TXTRdata":
        return cls(tuple(t.encode("ascii") for t in texts))

    def encode(self, writer: WireWriter,
               compress: Optional[Dict[str, int]]) -> None:
        if not self.strings:
            raise WireFormatError("TXT record needs at least one string")
        for chunk in self.strings:
            if len(chunk) > 255:
                raise WireFormatError("TXT chunk longer than 255 bytes")
            writer.u8(len(chunk))
            writer.write(chunk)

    @classmethod
    def decode(cls, reader: WireReader, rdlength: int) -> "TXTRdata":
        end = reader.pos + rdlength
        strings = []
        while reader.pos < end:
            length = reader.u8()
            strings.append(reader.read(length))
        if reader.pos != end:
            raise WireFormatError("TXT rdata length mismatch")
        return cls(tuple(strings))

    def __str__(self) -> str:
        return " ".join(repr(s.decode("ascii", "replace"))
                        for s in self.strings)


@dataclass(frozen=True, slots=True)
class OpaqueRdata(Rdata):
    """Uninterpreted RDATA for record types we do not model."""

    type_code: int
    payload: bytes

    def encode(self, writer: WireWriter,
               compress: Optional[Dict[str, int]]) -> None:
        writer.write(self.payload)

    @classmethod
    def decode_opaque(cls, reader: WireReader, rtype: int,
                      rdlength: int) -> "OpaqueRdata":
        return cls(rtype, reader.read(rdlength))


def decode_rdata(reader: WireReader, rtype: int, rdlength: int) -> Rdata:
    """Decode RDATA by type, falling back to opaque passthrough.

    Enforces that the decoder consumed exactly ``rdlength`` bytes --
    a mismatch means a malformed record and must FORMERR rather than
    silently desynchronize the section parse.
    """
    end = reader.pos + rdlength
    if end > reader.end:
        raise WireFormatError("rdata extends past message end")
    decoder = Rdata.decoder_for(rtype)
    if decoder is None:
        rdata: Rdata = OpaqueRdata.decode_opaque(reader, rtype, rdlength)
    else:
        rdata = decoder.decode(reader, rdlength)
    if reader.pos != end:
        raise WireFormatError(
            f"rdata length mismatch for type {rtype}: "
            f"expected end {end}, got {reader.pos}")
    return rdata


def canonical_rdata(rdata: Rdata) -> Rdata:
    """Normalize embedded names for comparisons and cache keys."""
    if isinstance(rdata, NSRdata):
        return NSRdata(normalize_name(rdata.nsdname))
    if isinstance(rdata, CNAMERdata):
        return CNAMERdata(normalize_name(rdata.target))
    return rdata
