"""Authoritative DNS servers.

Three answer sources are provided:

* :class:`StaticZone` -- fixed records (content-provider zones that
  CNAME onto the CDN, test fixtures).
* :class:`WhoAmIZone` -- answers with the *querying resolver's* address
  in a TXT record.  This is the trick NetSession clients use to learn
  their LDNS ("dig whoami.akamai.net", paper Section 3.1): the client
  asks its LDNS, the LDNS asks us, and we reflect the LDNS's source IP
  back down the chain.
* :class:`AnswerSource` -- protocol implemented by the mapping system:
  given the question and the ECS option (if any), return server IPs and
  an answer scope.

The server is transport-facing: it decodes wire bytes, dispatches, and
encodes responses, answering FORMERR/SERVFAIL instead of crashing on
bad input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Protocol, Tuple

from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.message import (
    Flags,
    Message,
    ResourceRecord,
    make_response,
    refusal_rcode,
)  # Flags used for FORMERR and truncation replies
from repro.dnsproto.name import MEMO_SIZE, normalize_name
from repro.dnsproto.rdata import TXTRdata
from repro.dnsproto.types import QType, Rcode
from repro.dnsproto.wire import WireFormatError
from repro.net.ipv4 import format_ipv4
from repro.obs import NOOP, NULL_SPAN, Observability

#: Read once: an enum member read off its class costs a metaclass
#: lookup.
_CNAME = QType.CNAME


@dataclass(slots=True)
class ZoneAnswer:
    """What an answer source returns for one question."""

    records: Tuple[ResourceRecord, ...] = ()
    rcode: int = Rcode.NOERROR
    scope_prefix_len: Optional[int] = None
    """RFC 7871 scope to attach when the query carried ECS.  None means
    'not client-specific' and is sent as scope 0."""


class AnswerSource(Protocol):
    """Pluggable zone logic (the mapping system implements this)."""

    def answer(
        self,
        qname: str,
        qtype: int,
        ecs: Optional[ClientSubnetOption],
        src_ip: int,
        now: float,
    ) -> ZoneAnswer: ...


@dataclass
class StaticZone:
    """A zone answering from a fixed record set."""

    records: Dict[Tuple[str, int], Tuple[ResourceRecord, ...]] = field(
        default_factory=dict)
    names: set = field(default_factory=set)

    def add(self, record: ResourceRecord) -> "StaticZone":
        key = (record.name, record.rtype)
        self.records[key] = self.records.get(key, ()) + (record,)
        self.names.add(record.name)
        return self

    def answer(self, qname: str, qtype: int,
               ecs: Optional[ClientSubnetOption], src_ip: int,
               now: float) -> ZoneAnswer:
        qname = normalize_name(qname)
        exact = self.records.get((qname, qtype))
        if exact:
            return ZoneAnswer(exact)
        # CNAME applies regardless of qtype (RFC 1034 3.6.2).
        cname = self.records.get((qname, _CNAME))
        if cname and qtype != _CNAME:
            return ZoneAnswer(cname)
        if qname in self.names:
            return ZoneAnswer(rcode=Rcode.NOERROR)  # NODATA
        return ZoneAnswer(rcode=Rcode.NXDOMAIN)


@dataclass
class WhoAmIZone:
    """Reflects the querying resolver's identity.

    The TXT answer carries the source IP of the query we received --
    i.e. the LDNS's IP when the query arrived via a recursive.  TTL is
    zero so the answer is never cached and always reflects the current
    resolver.
    """

    zone_name: str = "whoami.cdn.example"

    def answer(self, qname: str, qtype: int,
               ecs: Optional[ClientSubnetOption], src_ip: int,
               now: float) -> ZoneAnswer:
        qname = normalize_name(qname)
        if qname != normalize_name(self.zone_name):
            return ZoneAnswer(rcode=Rcode.NXDOMAIN)
        texts = [f"resolver={format_ipv4(src_ip)}"]
        if ecs is not None:
            texts.append(f"ecs={ecs.prefix}")
        record = ResourceRecord(qname, QType.TXT, 0,
                                TXTRdata.from_text(*texts))
        return ZoneAnswer(records=(record,))


class AuthoritativeServer:
    """One authoritative name-server deployment.

    Dispatches questions to the answer source for the longest matching
    zone suffix.  Counts every query it serves (total and per source
    address) -- the raw data behind Figures 2, 23, and 24.
    """

    #: UDP payload limit for queries without EDNS0 (RFC 1035).
    CLASSIC_UDP_LIMIT = 512

    def __init__(self, ip: int, server_name: str = "ns.cdn.example",
                 obs: Optional[Observability] = None) -> None:
        self._ip = ip
        self.obs = obs if obs is not None else NOOP
        self.server_name = server_name
        self._zones: Dict[str, AnswerSource] = {}
        # A world asks about a few dozen names; the bound is for the
        # names a hostile querier makes up.
        self._zone_memo = lru_cache(maxsize=MEMO_SIZE)(self._match_zone)
        self.alive = True
        self.queries_received = 0
        self.responses_sent = 0
        self.formerr_count = 0
        self.notimp_count = 0
        self.truncated_count = 0
        self.tcp_queries = 0

    @property
    def ip(self) -> int:
        return self._ip

    def attach_zone(self, zone: str, source: AnswerSource) -> None:
        self._zones[normalize_name(zone)] = source
        self._zone_memo.cache_clear()

    def zone_for(self, qname: str) -> Optional[AnswerSource]:
        """The answer source of the longest zone suffix of ``qname``,
        matched once per spelling of the name."""
        return self._zone_memo(qname)

    def _match_zone(self, qname: str) -> Optional[AnswerSource]:
        labels = normalize_name(qname).split(".")
        for start in range(len(labels)):
            source = self._zones.get(".".join(labels[start:]))
            if source is not None:
                return source
        return self._zones.get("")

    def fail(self) -> None:
        """Take the server down (queries time out)."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def handle_query(self, wire: bytes, src_ip: int, now: float,
                     tcp: bool = False) -> Optional[bytes]:
        if not self.alive:
            return None  # querier times out
        self.queries_received += 1
        if tcp:
            self.tcp_queries += 1
        tracer = self.obs.tracer
        traced = tracer.active
        with (tracer.span("authoritative", server=self.server_name)
              if traced else NULL_SPAN) as span:
            try:
                query = Message.decode(wire)
            except WireFormatError:
                self.formerr_count += 1
                span.set(rcode=int(Rcode.FORMERR))
                return self._formerr(wire)
            refusal = refusal_rcode(query)
            if refusal is not None:
                if refusal == Rcode.NOTIMP:
                    self.notimp_count += 1
                else:
                    self.formerr_count += 1
                span.set(rcode=int(refusal))
                return make_response(query, rcode=refusal,
                                     authoritative=False).encode()
            question = query.question
            source = self.zone_for(question.name)
            if source is None:
                response = make_response(query, rcode=Rcode.REFUSED,
                                         authoritative=False)
            else:
                answer = source.answer(question.name, question.qtype,
                                       query.client_subnet, src_ip, now)
                response = make_response(
                    query, answer.records, answer.rcode, True,
                    answer.scope_prefix_len)
            try:
                encoded = response.encode()
            except WireFormatError:
                # The zone handed us something the wire cannot carry
                # (an over-long label, an empty TXT): our fault, not
                # the querier's.
                response = make_response(query, rcode=Rcode.SERVFAIL,
                                         authoritative=False)
                encoded = response.encode()
            self.responses_sent += 1
            if traced:
                span.set(rcode=int(response.flags.rcode),
                         answers=len(response.answers))
            if not tcp and len(encoded) > self._udp_limit(query):
                # RFC 1035 4.2.1: signal truncation; the resolver
                # retries over TCP.  The truncated reply carries no
                # answers (the common conservative server behaviour).
                self.truncated_count += 1
                span.set(truncated=True)
                truncated = make_response(query, rcode=Rcode.NOERROR)
                truncated.flags = Flags(
                    qr=True, aa=response.flags.aa, tc=True,
                    rd=query.flags.rd, rcode=Rcode.NOERROR)
                return truncated.encode()
            return encoded

    def _udp_limit(self, query: Message) -> int:
        if query.opt is not None:
            return max(query.opt.options.payload_size,
                       self.CLASSIC_UDP_LIMIT)
        return self.CLASSIC_UDP_LIMIT

    @staticmethod
    def _formerr(wire: bytes) -> Optional[bytes]:
        """Best-effort FORMERR echoing the query id if parseable."""
        if len(wire) < 2:
            return None
        msg_id = int.from_bytes(wire[:2], "big")
        return Message(msg_id=msg_id,
                       flags=Flags(qr=True, rcode=Rcode.FORMERR)).encode()
