"""EDNS0 (RFC 6891) and the client-subnet option (RFC 7871).

The client-subnet option is the protocol mechanism end-user mapping is
built on (paper Section 2.1): a recursive resolver forwards a truncated
prefix of the client's IP ("SOURCE PREFIX-LENGTH", conventionally /24
for privacy) inside its query, and the authoritative answers with a
"SCOPE PREFIX-LENGTH" /y declaring the block of clients for which the
answer may be cached and reused, where y <= x is allowed to widen the
answer's applicability.

Which layer owns which check.  This module owns what RFC 6891/7871 say
about the *contents* of OPT: EDNS version 0, the option TLVs adding up
to RDLENGTH, at most one ECS option per family, a known family, SOURCE
within the family's width, exactly the address bytes SOURCE calls for
and no address bit beyond it.  SCOPE's range is checked by the option
dataclasses themselves, so it holds however the object was built.  The
fixed layouts are module-level ``struct.Struct``s; ``struct.error``
becomes :class:`WireFormatError` where it is caught.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.dnsproto.types import (
    DEFAULT_EDNS_PAYLOAD,
    ECS_FAMILY_IPV4,
    ECS_FAMILY_IPV6,
    EDNS_CLIENT_SUBNET,
    QType,
)
from repro.dnsproto.wire import WireFormatError, WireReader, WireWriter
from repro.net.ipv4 import Prefix, mask_of

#: Root owner, TYPE, CLASS (= UDP payload size), TTL (= extended rcode,
#: version, flags), RDLENGTH.
_OPT_FIXED = struct.Struct("!BHHIH")
#: OPTION-CODE, OPTION-LENGTH.
_OPTION_HEADER = struct.Struct("!HH")
#: FAMILY, SOURCE PREFIX-LENGTH, SCOPE PREFIX-LENGTH.
_ECS_FIXED = struct.Struct("!HBB")
#: The host bits of an IPv4 address under each prefix length.
_HOST_BITS = tuple(~mask_of(length) & 0xFFFFFFFF for length in range(33))
#: Writes a field of a frozen dataclass instance under construction.
_set_slot = object.__setattr__


def _encode_option(code: int, body: bytes) -> bytes:
    try:
        return _OPTION_HEADER.pack(code, len(body)) + body
    except struct.error as exc:
        raise WireFormatError(f"option field out of range: {exc}") from None


def _encode_ecs(family: int, source_len: int, scope_len: int,
                address: bytes) -> bytes:
    try:
        fixed = _ECS_FIXED.pack(family, source_len, scope_len)
    except struct.error as exc:
        raise WireFormatError(f"ECS field out of range: {exc}") from None
    return fixed + address[:(source_len + 7) // 8]


def _decode_ecs(data: bytes, family: int, width: int) -> Tuple[int, int, int]:
    """Split an ECS option body into (address, source, scope).

    ``width`` is the family's address size in bits.  The address comes
    back left-aligned in that width.
    """
    try:
        got_family, source_len, scope_len = _ECS_FIXED.unpack_from(data)
    except struct.error:
        raise WireFormatError("truncated ECS option") from None
    if got_family != family:
        raise WireFormatError(
            f"unsupported ECS family {got_family} (expected {family})")
    if source_len > width:
        raise WireFormatError(f"bad ECS source length {source_len}")
    raw = data[_ECS_FIXED.size:]
    addr_bytes = (source_len + 7) // 8
    if len(raw) < addr_bytes:
        raise WireFormatError("truncated ECS address")
    if len(raw) > addr_bytes:
        raise WireFormatError("trailing bytes in ECS option")
    address = int.from_bytes(raw, "big") << (width - 8 * addr_bytes)
    return address, source_len, scope_len


@dataclass(frozen=True, slots=True)
class ClientSubnetOption:
    """RFC 7871 client-subnet option (IPv4).

    ``prefix`` carries the client block: its length is the SOURCE
    PREFIX-LENGTH in queries.  ``scope_prefix_len`` is zero in queries
    and set by the authoritative in responses.
    """

    prefix: Prefix
    scope_prefix_len: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.scope_prefix_len <= 32:
            raise WireFormatError(
                f"bad scope prefix length: {self.scope_prefix_len}")

    @property
    def source_prefix_len(self) -> int:
        return self.prefix.length

    @property
    def scope_prefix(self) -> Prefix:
        """The block of clients this (response) option is valid for.

        RFC 7871: a response with SCOPE y covers every client whose
        first y bits match the query's address -- i.e. the /y supernet
        of the query prefix.
        """
        return self.prefix.supernet(min(self.scope_prefix_len,
                                        self.prefix.length))

    def for_response(self, scope_prefix_len: int) -> "ClientSubnetOption":
        """Build the response option for this query option.

        RFC 7871 Section 7.1.2: the response must echo FAMILY, SOURCE
        PREFIX-LENGTH, and ADDRESS, changing only SCOPE PREFIX-LENGTH.
        """
        return ClientSubnetOption(self.prefix, scope_prefix_len)

    def encode(self) -> bytes:
        """Encode to option wire format (without the option TLV header)."""
        source_len = self.prefix.length
        address = self.prefix.network & mask_of(source_len)
        return _encode_ecs(ECS_FAMILY_IPV4, source_len,
                           self.scope_prefix_len, address.to_bytes(4, "big"))

    @classmethod
    def decode(cls, data: bytes) -> "ClientSubnetOption":
        address, source_len, scope_len = _decode_ecs(
            data, ECS_FAMILY_IPV4, 32)
        if address & _HOST_BITS[source_len]:
            # RFC 7871 Section 6: bits beyond SOURCE PREFIX-LENGTH must
            # be zero; anything else gets FORMERR.
            raise WireFormatError("ECS address bits set beyond source "
                                  "prefix length")
        # Everything Prefix checks was just checked: SOURCE is at most
        # 32, the address fits in 32 bits and has no host bit set.
        prefix = object.__new__(Prefix)
        _set_slot(prefix, "network", address)
        _set_slot(prefix, "length", source_len)
        return cls(prefix, scope_len)

    def __str__(self) -> str:
        return f"ECS {self.prefix} scope /{self.scope_prefix_len}"


@dataclass(frozen=True, slots=True)
class ClientSubnetV6Option:
    """RFC 7871 client-subnet option, IPv6 family.

    The simulator's Internet is IPv4, so the mapping system never
    *acts* on a v6 option -- but a standards-conforming authoritative
    must parse, validate, and echo it rather than FORMERR, and the
    codec supports that.
    """

    address: int
    """128-bit address with bits beyond ``source_prefix_len`` zero."""
    source_prefix_len: int
    scope_prefix_len: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.source_prefix_len <= 128:
            raise WireFormatError(
                f"bad v6 source length {self.source_prefix_len}")
        if not 0 <= self.scope_prefix_len <= 128:
            raise WireFormatError(
                f"bad v6 scope length {self.scope_prefix_len}")
        if not 0 <= self.address < (1 << 128):
            raise WireFormatError("v6 address out of range")
        if self.source_prefix_len < 128:
            host_mask = (1 << (128 - self.source_prefix_len)) - 1
            if self.address & host_mask:
                raise WireFormatError(
                    "v6 ECS address bits set beyond source prefix")

    def for_response(self, scope_prefix_len: int) -> "ClientSubnetV6Option":
        return ClientSubnetV6Option(self.address, self.source_prefix_len,
                                    scope_prefix_len)

    def encode(self) -> bytes:
        return _encode_ecs(ECS_FAMILY_IPV6, self.source_prefix_len,
                           self.scope_prefix_len,
                           self.address.to_bytes(16, "big"))

    @classmethod
    def decode(cls, data: bytes) -> "ClientSubnetV6Option":
        return cls(*_decode_ecs(data, ECS_FAMILY_IPV6, 128))


@dataclass(frozen=True, slots=True)
class EdnsOptions:
    """Decoded contents of an OPT pseudo-record."""

    payload_size: int = DEFAULT_EDNS_PAYLOAD
    extended_rcode: int = 0
    version: int = 0
    dnssec_ok: bool = False
    client_subnet: Optional[ClientSubnetOption] = None
    client_subnet_v6: Optional[ClientSubnetV6Option] = None
    unknown_options: Tuple[Tuple[int, bytes], ...] = ()


@dataclass(frozen=True, slots=True)
class OptRecord:
    """The OPT pseudo-RR that carries EDNS0 in the additional section.

    Stored separately from normal records because its fixed fields are
    reinterpreted (CLASS = UDP payload size, TTL = flags).
    """

    options: EdnsOptions = field(default_factory=EdnsOptions)

    def encode(self, writer: WireWriter) -> None:
        opts = self.options
        ttl = (opts.extended_rcode << 24) | (opts.version << 16)
        if opts.dnssec_ok:
            ttl |= 0x8000
        rdata = b""
        if opts.client_subnet is not None:
            rdata = _encode_option(EDNS_CLIENT_SUBNET,
                                   opts.client_subnet.encode())
        if opts.client_subnet_v6 is not None:
            rdata += _encode_option(EDNS_CLIENT_SUBNET,
                                    opts.client_subnet_v6.encode())
        for code, body in opts.unknown_options:
            rdata += _encode_option(code, body)
        try:
            writer.buf += _OPT_FIXED.pack(
                0, QType.OPT, opts.payload_size, ttl, len(rdata))
        except struct.error as exc:
            raise WireFormatError(f"OPT field out of range: {exc}") from None
        writer.buf += rdata

    @classmethod
    def decode_body(cls, reader: WireReader, rclass: int,
                    ttl: int, rdlength: int) -> "OptRecord":
        """Decode the OPT record given its already-read fixed fields."""
        extended_rcode = (ttl >> 24) & 0xFF
        version = (ttl >> 16) & 0xFF
        if version != 0:
            raise WireFormatError(f"unsupported EDNS version {version}")
        dnssec_ok = bool(ttl & 0x8000)
        data = reader.data
        pos = reader.pos
        end = pos + rdlength
        client_subnet: Optional[ClientSubnetOption] = None
        client_subnet_v6: Optional[ClientSubnetV6Option] = None
        unknown: List[Tuple[int, bytes]] = []
        while pos < end:
            try:
                code, length = _OPTION_HEADER.unpack_from(data, pos)
            except struct.error:
                raise WireFormatError("truncated message (option)") from None
            pos += _OPTION_HEADER.size + length
            if pos > reader.end:
                raise WireFormatError("truncated message (option body)")
            body = data[pos - length:pos]
            if code == EDNS_CLIENT_SUBNET:
                if len(body) < 2:
                    raise WireFormatError("ECS option too short")
                family = int.from_bytes(body[:2], "big")
                if family == ECS_FAMILY_IPV6:
                    if client_subnet_v6 is not None:
                        raise WireFormatError("duplicate v6 ECS option")
                    client_subnet_v6 = ClientSubnetV6Option.decode(body)
                else:
                    if client_subnet is not None:
                        raise WireFormatError("duplicate ECS option")
                    client_subnet = ClientSubnetOption.decode(body)
            else:
                unknown.append((code, body))
        if pos != end:
            raise WireFormatError("OPT rdata length mismatch")
        reader.pos = pos
        # Positional: keyword binding is a third of this constructor's
        # cost, and the field order is the dataclass above.
        return cls(EdnsOptions(rclass, extended_rcode, version, dnssec_ok,
                               client_subnet, client_subnet_v6,
                               tuple(unknown)))
