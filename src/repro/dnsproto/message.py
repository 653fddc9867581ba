"""DNS message framing: header, question, and record sections.

Implements RFC 1035 message encode/decode with name compression plus
EDNS0 via the OPT pseudo-record.  The in-memory transport still encodes
every message to bytes and decodes on receipt, so protocol details
(compression, ECS validation, truncation of malformed input) are
exercised on every simulated query.

Which layer owns which check.  This module owns *framing*: the section
counts, the fixed record header, RDLENGTH agreeing with the rdata
decoded, where OPT may appear (once, owned by the root) and that
nothing trails the last record.  The fixed layouts are module-level
``struct.Struct``s, packed and unpacked in one call each; a
``struct.error`` (message too short, field does not fit) becomes
:class:`WireFormatError` where it is caught.  Name rules belong to
:mod:`repro.dnsproto.name`, rdata and option contents to
:mod:`repro.dnsproto.rdata` and :mod:`repro.dnsproto.edns`, and value
ranges that hold for the object as well as the wire (TTL, addresses,
prefix lengths) to the dataclasses' ``__post_init__``.

What a repeated message costs.  Consecutive exchanges for one name
differ in the 2-byte ID and, when ECS is on, the client subnet; the
parser and the encoder sit behind two bounded memos keyed on everything
*but* the ID (:func:`_decode_payload`, :func:`_encode_payload`), so a
message seen before costs a lookup, its ID and a new :class:`Message`.
A message whose only additional record is an OPT carrying one IPv4
client-subnet option (source > 0) and nothing else ends in that
option's address bytes; such a message is also looked up without them
-- a *client-subnet template* -- and the real address is decoded (and
validated) or patched in, so a new client /24 costs no parse and no
encode.  The memos hold this codec's own output for equal input --
bytes it has not seen go through :func:`_parse_message`, a call that
raises is never remembered -- and the parts they share between callers
are the frozen ``Flags``/``Question``/``ResourceRecord``/``OptRecord``
objects, never a list.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dnsproto.edns import ClientSubnetOption, EdnsOptions, OptRecord
from repro.dnsproto.name import (
    MEMO_SIZE,
    decode_name,
    encode_name,
    normalize_name,
)
from repro.dnsproto.rdata import Rdata, decode_rdata
from repro.dnsproto.types import Opcode, QClass, QType, Rcode
from repro.dnsproto.wire import WireFormatError, WireReader, WireWriter
from repro.net.ipv4 import Prefix, mask_of

#: ID, flags, QDCOUNT, ANCOUNT, NSCOUNT, ARCOUNT (RFC 1035 4.1.1).
_HEADER = struct.Struct("!HHHHHH")
#: QTYPE, QCLASS after a question's name.
_QUESTION_TAIL = struct.Struct("!HH")
#: TYPE, CLASS, TTL, RDLENGTH after a record's owner name.
_RR_FIXED = struct.Struct("!HHIH")
_RDLENGTH = struct.Struct("!H")
_ID = struct.Struct("!H")
_OPT_RTYPE = int(QType.OPT).to_bytes(2, "big")
#: Writes a field of a frozen dataclass instance under construction.
_set_slot = object.__setattr__


@dataclass(frozen=True, slots=True)
class Flags:
    """Header flag bits (RFC 1035 4.1.1)."""

    qr: bool = False
    opcode: int = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False
    rcode: int = Rcode.NOERROR

    def encode(self) -> int:
        value = 0
        if self.qr:
            value |= 0x8000
        value |= (self.opcode & 0xF) << 11
        if self.aa:
            value |= 0x0400
        if self.tc:
            value |= 0x0200
        if self.rd:
            value |= 0x0100
        if self.ra:
            value |= 0x0080
        value |= self.rcode & 0xF
        return value

    @staticmethod
    @lru_cache(maxsize=1024)
    def decode(value: int) -> "Flags":
        """The flags of a header word; one shared (frozen) instance
        per word while it stays in the memo."""
        return Flags(
            qr=bool(value & 0x8000),
            opcode=(value >> 11) & 0xF,
            aa=bool(value & 0x0400),
            tc=bool(value & 0x0200),
            rd=bool(value & 0x0100),
            ra=bool(value & 0x0080),
            rcode=value & 0xF,
        )


@dataclass(frozen=True, slots=True)
class Question:
    """One entry of the question section."""

    name: str
    qtype: int = QType.A
    qclass: int = QClass.IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))

    def encode(self, writer: WireWriter,
               compress: Optional[Dict[str, int]]) -> None:
        encode_name(writer, self.name, compress)
        try:
            writer.buf += _QUESTION_TAIL.pack(self.qtype, self.qclass)
        except struct.error as exc:
            raise WireFormatError(
                f"question field out of range: {exc}") from None

    @classmethod
    def decode(cls, reader: WireReader) -> "Question":
        name = decode_name(reader)
        try:
            qtype, qclass = _QUESTION_TAIL.unpack_from(reader.data,
                                                       reader.pos)
        except struct.error:
            raise WireFormatError("truncated message (question)") from None
        reader.pos += _QUESTION_TAIL.size
        return cls(name, qtype, qclass)


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """One resource record with typed RDATA."""

    name: str
    rtype: int
    ttl: int
    rdata: Rdata
    rclass: int = QClass.IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))
        if self.ttl < 0 or self.ttl > 0x7FFFFFFF:
            raise WireFormatError(f"TTL out of range: {self.ttl}")

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """This record under another TTL (cache aging); the record
        itself when the TTL does not change.

        A copy skips ``__post_init__``: the owner name is already
        canonical, so only the TTL needs its range check.
        """
        if ttl == self.ttl:
            return self
        if ttl < 0 or ttl > 0x7FFFFFFF:
            raise WireFormatError(f"TTL out of range: {ttl}")
        copy = object.__new__(ResourceRecord)
        _set_slot(copy, "name", self.name)
        _set_slot(copy, "rtype", self.rtype)
        _set_slot(copy, "ttl", ttl)
        _set_slot(copy, "rdata", self.rdata)
        _set_slot(copy, "rclass", self.rclass)
        return copy

    def encode(self, writer: WireWriter,
               compress: Optional[Dict[str, int]]) -> None:
        encode_name(writer, self.name, compress)
        buf = writer.buf
        try:
            # RDLENGTH is a placeholder, patched once the rdata is out.
            buf += _RR_FIXED.pack(self.rtype, self.rclass, self.ttl, 0)
            rdata_start = len(buf)
            self.rdata.encode(writer, compress)
            _RDLENGTH.pack_into(buf, rdata_start - _RDLENGTH.size,
                                len(buf) - rdata_start)
        except struct.error as exc:
            raise WireFormatError(
                f"record field out of range: {exc}") from None

    @classmethod
    def decode(cls, reader: WireReader) -> "ResourceRecord":
        name = decode_name(reader)
        try:
            rtype, rclass, ttl, rdlength = _RR_FIXED.unpack_from(
                reader.data, reader.pos)
        except struct.error:
            raise WireFormatError("truncated message (record)") from None
        reader.pos += _RR_FIXED.size
        rdata = decode_rdata(reader, rtype, rdlength)
        return cls(name, rtype, ttl, rdata, rclass)


@dataclass(slots=True)
class Message:
    """A complete DNS message.

    The OPT pseudo-record lives in ``opt``, not ``additionals``; the
    codec moves it in and out of the additional section on the wire.
    """

    msg_id: int = 0
    flags: Flags = field(default_factory=Flags)
    questions: List[Question] = field(default_factory=list)
    answers: List[ResourceRecord] = field(default_factory=list)
    authorities: List[ResourceRecord] = field(default_factory=list)
    additionals: List[ResourceRecord] = field(default_factory=list)
    opt: Optional[OptRecord] = None

    # -- EDNS / ECS convenience -------------------------------------------

    @property
    def client_subnet(self) -> Optional[ClientSubnetOption]:
        if self.opt is None:
            return None
        return self.opt.options.client_subnet

    def with_client_subnet(self, ecs: ClientSubnetOption) -> "Message":
        """Attach (or replace) the ECS option, adding EDNS if needed."""
        base = self.opt.options if self.opt else EdnsOptions()
        self.opt = OptRecord(replace(base, client_subnet=ecs))
        return self

    @property
    def question(self) -> Question:
        if not self.questions:
            raise WireFormatError("message has no question")
        return self.questions[0]

    # -- codec --------------------------------------------------------------

    def encode(self) -> bytes:
        try:
            head = _ID.pack(self.msg_id)
        except struct.error as exc:
            raise WireFormatError(
                f"header field out of range: {exc}") from None
        answers = tuple(self.answers)
        authorities = tuple(self.authorities)
        additionals = tuple(self.additionals)
        sections = (self.flags, tuple(self.questions), answers, authorities,
                    additionals, self.opt)
        for record in (*answers, *authorities, *additionals):
            if type(record.ttl) is not int:
                # 20.0 and True hash and compare equal to 20 and 1 but
                # do not pack like them: keep them out of the key space.
                return head + _encode_payload.__wrapped__(*sections)
        key = sections
        address = b""
        if self.opt is not None and not additionals:
            # The client-subnet template: the same message with its ECS
            # address zeroed, whose last bytes are then that address.
            key_opt, address = _address_template(self.opt)
            if address:
                key = sections[:5] + (key_opt,)
        try:
            payload = _encode_payload(*key)
        except TypeError:
            # A field that cannot be hashed (a TXT built on a list) is
            # no key; the encoder does not mind it.
            return head + _encode_payload.__wrapped__(*sections)
        if address:
            return head + payload[:-len(address)] + address
        return head + payload

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        if type(data) is not bytes:
            data = bytes(data)
        sections = _decode_by_template(data)
        try:
            if sections is None:
                sections = _decode_payload(data[2:])
        except WireFormatError:
            # Malformed, or a compression pointer aimed at the ID
            # bytes the key leaves out: the parser says which, on the
            # real bytes.
            msg_id, *sections = _parse_message(data)
        else:
            msg_id = (data[0] << 8) | data[1]
        flags, questions, answers, authorities, additionals, opt = sections
        return cls(msg_id, flags, list(questions), list(answers),
                   list(authorities), list(additionals), opt)

    def __str__(self) -> str:
        kind = "response" if self.flags.qr else "query"
        parts = [f"{kind} id={self.msg_id} rcode={self.flags.rcode}"]
        for question in self.questions:
            parts.append(f"  ? {question.name} type={question.qtype}")
        for record in self.answers:
            parts.append(f"  = {record.name} {record.ttl}s {record.rdata}")
        ecs = self.client_subnet
        if ecs is not None:
            parts.append(f"  + {ecs}")
        return "\n".join(parts)


#: Entries per whole-message memo, about 1 KiB each.  Of the four
#: messages in a CNAME + A resolution only the A reply varies with
#: more than the name, so a world's working set is a few hundred.
_PAYLOAD_MEMO_SIZE = 2048
#: Stands in for the ID when a payload is parsed without one.  A name
#: walk that a compression pointer sends to offset 0 or 1 finds a
#: forward pointer there and raises, so nothing that was parsed under
#: this placeholder can depend on the real ID.
_ID_TRAP = b"\xc0\xc0"


def _parse_message(data: bytes) -> tuple:
    """The parser: ``(msg_id, *sections)`` of a whole message."""
    reader = WireReader(data)
    data = reader.data
    try:
        (msg_id, flag_word, qdcount, ancount, nscount,
         arcount) = _HEADER.unpack_from(data, 0)
    except struct.error:
        raise WireFormatError("truncated message (header)") from None
    reader.pos = _HEADER.size
    flags = Flags.decode(flag_word)
    questions = [Question.decode(reader) for _ in range(qdcount)]
    # A comprehension costs a call even over an empty range, and
    # most messages have an empty answer or authority section.
    answers = ([ResourceRecord.decode(reader) for _ in range(ancount)]
               if ancount else ())
    authorities = ([ResourceRecord.decode(reader)
                    for _ in range(nscount)] if nscount else ())
    additionals: List[ResourceRecord] = []
    opt: Optional[OptRecord] = None
    for _ in range(arcount):
        mark = reader.pos
        name = decode_name(reader)
        fixed_at = reader.pos
        if data[fixed_at:fixed_at + 2] != _OPT_RTYPE:
            # Not OPT (or too short to tell, which the record
            # decoder reports): an ordinary additional record.
            reader.pos = mark
            additionals.append(ResourceRecord.decode(reader))
            continue
        if name:
            raise WireFormatError("OPT owner name must be root")
        if opt is not None:
            raise WireFormatError("duplicate OPT record")
        try:
            _rtype, rclass, ttl, rdlength = _RR_FIXED.unpack_from(
                data, fixed_at)
        except struct.error:
            raise WireFormatError("truncated message (OPT)") from None
        reader.pos = fixed_at + _RR_FIXED.size
        opt = OptRecord.decode_body(reader, rclass, ttl, rdlength)
    if reader.pos != reader.end:
        raise WireFormatError(
            f"{reader.remaining} trailing bytes after message")
    return (msg_id, flags, tuple(questions), tuple(answers),
            tuple(authorities), tuple(additionals), opt)


@lru_cache(maxsize=_PAYLOAD_MEMO_SIZE)
def _decode_payload(payload: bytes, address_len: int = 0) -> tuple:
    """``(flags, questions, answers, authorities, additionals, opt)``
    of the message whose bytes after the ID are ``payload``, sections
    as tuples; shared (all frozen) while the payload stays in the
    memo.

    With ``address_len`` k > 0, ``payload`` lacks the message's last k
    bytes and the result is its client-subnet template: the sections
    of the message with those bytes zeroed, which must be the address
    of the OPT's only option, an IPv4 ECS of a source k calls for, and
    that OPT the only additional record.  Anything else raises (and
    so is not kept).  OPT's owner is the root and compression pointers
    only point backwards, so nothing before the option reads those
    bytes: every message with this prefix parses to these sections but
    for the option's address.
    """
    if not address_len:
        return _parse_message(_ID_TRAP + payload)[1:]
    sections = _parse_message(_ID_TRAP + payload + bytes(address_len))[1:]
    opt = sections[5]
    if sections[4] or opt is None:
        raise WireFormatError("no client-subnet template")
    options = opt.options
    ecs = options.client_subnet
    if (ecs is None or options.client_subnet_v6 is not None
            or options.unknown_options
            or (ecs.prefix.length + 7) // 8 != address_len):
        raise WireFormatError("no client-subnet template")
    return sections


#: The tail of a message that may fit a client-subnet template, by
#: address length k: OPT's RDLENGTH (8 + k), then the option's code
#: (ECS), length (4 + k) and family (IPv4), the 8 bytes before SOURCE
#: and SCOPE.  Most common length first (a /24 or a /22).
_ECS_TAILS = tuple(
    (k, bytes((0, 8 + k, 0, 8, 0, 4 + k, 0, 1))) for k in (3, 4, 2, 1))
#: Root owner and TYPE OPT, 19 + k bytes from the end.
_OPT_HEAD = b"\x00" + _OPT_RTYPE


def _ecs_address_len(data: bytes) -> int:
    """k when ``data`` looks like a message with a client-subnet
    template whose address is its last k bytes, else 0.  A guess from
    the framing only: the template's own parse decides."""
    if len(data) < 32 or data[11] != 1 or data[10]:
        return 0
    for k, tail in _ECS_TAILS:
        # RDLENGTH's low byte first: one index rules most k out.
        if (data[-9 - k] == 8 + k
                and data[-10 - k:-2 - k] == tail
                and (data[-2 - k] + 7) >> 3 == k
                and data[-19 - k:-16 - k] == _OPT_HEAD):
            return k
    return 0


def _decode_by_template(data: bytes) -> Optional[tuple]:
    """The sections of ``data`` through its client-subnet template, or
    None when it has none (or is malformed: the caller's parse says
    how).  The option is decoded from the real bytes every time, so
    its address is validated every time."""
    k = _ecs_address_len(data)
    if not k:
        return None
    try:
        ecs = ClientSubnetOption.decode(data[-4 - k:])
        (flags, questions, answers, authorities, additionals,
         opt) = _decode_payload(data[2:-k], k)
    except WireFormatError:
        return None
    options = opt.options
    return (flags, questions, answers, authorities, additionals,
            OptRecord(EdnsOptions(options.payload_size,
                                  options.extended_rcode, options.version,
                                  options.dnssec_ok, ecs)))


def _address_template(opt: OptRecord) -> Tuple[OptRecord, bytes]:
    """``(opt with its ECS address zeroed, the address bytes the
    encoder writes)`` when ``opt`` holds exactly one option, an IPv4
    ECS with source > 0; ``(opt, b"")`` otherwise."""
    options = opt.options
    ecs = options.client_subnet
    if (ecs is None or options.client_subnet_v6 is not None
            or options.unknown_options):
        return opt, b""
    prefix = ecs.prefix
    source = prefix.length
    if not source:
        return opt, b""
    address = (prefix.network & mask_of(source)).to_bytes(4, "big")
    return (_zeroed_opt(options.payload_size, options.extended_rcode,
                        options.version, options.dnssec_ok, source,
                        ecs.scope_prefix_len),
            address[:(source + 7) >> 3])


@lru_cache(maxsize=1024, typed=True)
def _zeroed_opt(payload_size: int, extended_rcode: int, version: int,
                dnssec_ok: bool, source: int, scope: int) -> OptRecord:
    """The OPT whose only option is an IPv4 ECS for ``0.0.0.0/source``:
    the encode key every client subnet of that shape shares."""
    return OptRecord(EdnsOptions(
        payload_size, extended_rcode, version, dnssec_ok,
        ClientSubnetOption(Prefix(0, source), scope)))


@lru_cache(maxsize=_PAYLOAD_MEMO_SIZE)
def _encode_payload(flags: Flags, questions: Tuple[Question, ...],
                    answers: Tuple[ResourceRecord, ...],
                    authorities: Tuple[ResourceRecord, ...],
                    additionals: Tuple[ResourceRecord, ...],
                    opt: Optional[OptRecord]) -> bytes:
    """The encoder: the bytes after the ID of a message with these
    sections.  Compression offsets count from the start of the
    message, so it is written whole, under ID 0."""
    writer = WireWriter()
    compress: Dict[str, int] = {}
    try:
        writer.buf += _HEADER.pack(
            0, flags.encode(), len(questions), len(answers),
            len(authorities), len(additionals) + (1 if opt else 0))
    except struct.error as exc:
        raise WireFormatError(
            f"header field out of range: {exc}") from None
    for question in questions:
        question.encode(writer, compress)
    for record in answers:
        record.encode(writer, compress)
    for record in authorities:
        record.encode(writer, compress)
    for record in additionals:
        record.encode(writer, compress)
    if opt is not None:
        opt.encode(writer)
    return bytes(writer.buf[_ID.size:])


_QUERY_RD = Flags(qr=False, rd=True)
_QUERY_NO_RD = Flags(qr=False, rd=False)
#: EDNS0 with nothing in it: what every non-ECS query and reply carries.
_PLAIN_OPT = OptRecord()


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def _question(name: str, qtype: int) -> Question:
    """One shared ``Question`` per spelling of ``(name, qtype)``;
    ``typed`` so that ``1.0`` never answers for ``1``."""
    return Question(name, qtype)


@lru_cache(maxsize=1024, typed=True)
def _response_flags(opcode: int, authoritative: bool, rd: bool,
                    rcode: int) -> Flags:
    return Flags(qr=True, opcode=opcode, aa=authoritative, rd=rd, ra=False,
                 rcode=rcode)


def make_query(
    name: str,
    qtype: int = QType.A,
    msg_id: int = 0,
    ecs: Optional[ClientSubnetOption] = None,
    recursion_desired: bool = True,
) -> Message:
    """Build a query message, optionally carrying an ECS option."""
    return Message(
        msg_id,
        _QUERY_RD if recursion_desired else _QUERY_NO_RD,
        [_question(name, qtype)],
        opt=(_PLAIN_OPT if ecs is None
             else OptRecord(EdnsOptions(client_subnet=ecs))),
    )


_QUERY = Opcode.QUERY


def refusal_rcode(message: Message) -> Optional[int]:
    """The rcode a server owes a message it must not dispatch, None
    for a standard query.

    FORMERR for a response (answering one would let two servers
    reflect each other) and for a query without a question; NOTIMP for
    any opcode but QUERY -- STATUS, NOTIFY and UPDATE ask nothing a
    zone or a recursion could answer.
    """
    flags = message.flags
    if flags.qr:
        return Rcode.FORMERR
    if flags.opcode != _QUERY:
        return Rcode.NOTIMP
    if not message.questions:
        return Rcode.FORMERR
    return None


def make_response(
    query: Message,
    answers: Sequence[ResourceRecord] = (),
    rcode: int = Rcode.NOERROR,
    authoritative: bool = True,
    scope_prefix_len: Optional[int] = None,
    authorities: Sequence[ResourceRecord] = (),
    additionals: Sequence[ResourceRecord] = (),
) -> Message:
    """Build a response echoing the query's id, opcode, question and
    EDNS.

    A query without OPT gets none back (RFC 6891 Section 7).
    ``scope_prefix_len`` sets the RFC 7871 SCOPE PREFIX-LENGTH when the
    query carried an ECS option; None echoes scope 0 (answer valid for
    all clients), which is what a non-ECS-aware authority would do.
    """
    opt = query.opt
    if opt is not None:
        query_ecs = opt.options.client_subnet
        if query_ecs is None:
            opt = _PLAIN_OPT
        else:
            opt = OptRecord(EdnsOptions(client_subnet=query_ecs.for_response(
                scope_prefix_len if scope_prefix_len is not None else 0)))
    flags = query.flags
    return Message(
        query.msg_id,
        _response_flags(flags.opcode, authoritative, flags.rd, rcode),
        list(query.questions), list(answers), list(authorities),
        list(additionals), opt)
