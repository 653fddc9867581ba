"""The recursive resolver (LDNS).

Implements the behaviour of the paper's "local DNS server": answer from
cache when possible, otherwise query the authoritative server for the
zone and cache the result -- with full EDNS0 client-subnet semantics
when ECS is enabled:

* Outgoing queries carry a truncated ``/ecs_source_len`` prefix of the
  client's address (conventionally /24, "a prefix longer than /24 is
  discouraged to retain client's privacy", paper footnote 4).
* Responses are cached under the *scope* the authoritative returned:
  scope 0 answers are shared by all clients, scope /y answers only by
  clients in the same /y block.  One popular name can therefore occupy
  many cache entries -- the paper's query-inflation mechanism.
* A response whose ECS option echoes another family, source length or
  address than the query sent is dropped as if it were lost (RFC 7871
  Section 7.3): caching it would serve one subnet's answer to another.

CNAME chains are chased iteratively (content-provider domains CNAME
onto CDN domains, Section 2.2), each link resolved through the same
cache machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.message import (
    Message,
    ResourceRecord,
    make_query,
    make_response,
    refusal_rcode,
)
from repro.dnsproto.name import normalize_name
from repro.dnsproto.rdata import CNAMERdata
from repro.dnsproto.types import QType, Rcode
from repro.dnsproto.wire import WireFormatError
from repro.dnssrv.cache import EcsAwareCache, aged
from repro.dnssrv.transport import AuthorityDirectory, Network
from repro.net.ipv4 import Prefix, prefix_of
from repro.obs import NOOP, NULL_SPAN, Observability

_MAX_CNAME_CHAIN = 8
# Reading a member off an enum class goes through the metaclass, about
# 0.1 us a time; the hit loop compares against these on every step.
_NOERROR = Rcode.NOERROR
_SERVFAIL = Rcode.SERVFAIL
_A = QType.A
_CNAME = QType.CNAME
_DEFAULT_NEGATIVE_TTL = 30
#: Extra wait burned on a server that never answers (retry timer).
#: Retries against the same server back off exponentially from here.
_TIMEOUT_PENALTY_MS = 400.0
#: TTL stamped on answers revived from an expired cache entry
#: (RFC 8767 Section 5 recommends a short value).
_STALE_TTL = 30


#: One step of a resolution: the records as the cache stores them and
#: when they were stored (the resolve time, for a step answered
#: upstream).  A hit shares its entry's pair (``CacheEntry.answer``).
Step = Tuple[Tuple[ResourceRecord, ...], float]


class AgedAnswer:
    """Answer records as the cache holds them, aged when read.

    A hit keeps the stored tuple and when it was stored, plus the
    resolve time ``now``, instead of copying every record under a
    reduced TTL that most callers never look at.  All are fixed at
    resolve time and record tuples are immutable, so whenever
    :attr:`records` is first read it shows the TTLs the client was owed
    at that moment -- a later eviction or overwrite of the cache entry
    cannot change them.  The steps are a tuple of pairs the cache
    entries already hold, so an answer kept by its caller costs two
    GC-tracked objects (itself and that tuple), not one per step more.
    """

    __slots__ = ("steps", "now", "_records")

    def __init__(self, steps: Tuple[Step, ...], now: float) -> None:
        self.steps = steps
        self.now = now
        self._records: Optional[Tuple[ResourceRecord, ...]] = None

    @property
    def records(self) -> Tuple[ResourceRecord, ...]:
        """The answer chain in order, TTLs reduced by the whole seconds
        each step had spent in cache; built on first read, then kept."""
        records = self._records
        if records is None:
            steps, now = self.steps, self.now
            if len(steps) == 1:
                stored, stored_at = steps[0]
                records = aged(stored, int(now - stored_at))
            else:
                records = tuple(
                    record for stored, stored_at in steps
                    for record in aged(stored, int(now - stored_at)))
            self._records = records
        return records

    @property
    def addresses(self) -> List[int]:
        """A-record addresses in answer order."""
        return [record.rdata.address for records, _ in self.steps
                for record in records if record.rtype == _A]

    def __repr__(self) -> str:
        fields = [f"{name}={getattr(self, name)!r}"
                  for name in type(self).__slots__]
        return (f"{type(self).__name__}({', '.join(fields)}, "
                f"records={self.records!r})")


class RecursionResult(AgedAnswer):
    """Outcome of one client resolution at the LDNS."""

    __slots__ = ("rcode", "cache_hit", "upstream_queries",
                 "upstream_rtt_ms", "stale")

    def __init__(self, steps: Tuple[Step, ...], now: float, rcode: int,
                 cache_hit: bool, upstream_queries: int,
                 upstream_rtt_ms: float,
                 stale: bool = False) -> None:
        AgedAnswer.__init__(self, steps, now)
        self.rcode = rcode
        self.cache_hit = cache_hit
        """True when no upstream query was needed at all."""
        self.upstream_queries = upstream_queries
        self.upstream_rtt_ms = upstream_rtt_ms
        """Total time spent talking to authoritative servers."""
        self.stale = stale
        """True when any step was answered from an expired cache entry
        because every authority was unreachable (RFC 8767
        serve-stale)."""


@dataclass
class _StepResult:
    """One step of the chain that had to go upstream."""

    records: Tuple[ResourceRecord, ...]
    rcode: int
    queries: int
    rtt_ms: float
    stale: bool = False


class RecursiveResolver:
    """One LDNS deployment with an ECS-aware cache."""

    def __init__(
        self,
        ip: int,
        network: Network,
        directory: AuthorityDirectory,
        ecs_enabled: bool = False,
        ecs_source_len: int = 24,
        cache: Optional[EcsAwareCache] = None,
        name: str = "ldns",
        obs: Optional[Observability] = None,
        max_retries: int = 1,
    ) -> None:
        if not 0 < ecs_source_len <= 32:
            raise ValueError(f"bad ECS source length {ecs_source_len}")
        if max_retries < 0:
            raise ValueError(f"negative max_retries: {max_retries}")
        self._ip = ip
        self.obs = obs if obs is not None else NOOP
        self.name = name
        self.network = network
        self.directory = directory
        self.ecs_enabled = ecs_enabled
        self.ecs_source_len = ecs_source_len
        self.ecs_stripped = False
        """Fault-injection flag: the resolver silently drops the ECS
        option it would otherwise send (the stripping behaviour public
        resolvers exhibit in the wild)."""
        self.ecs_whitelisted = True
        """Provider ECS policy: whether the CDN's authorities are on
        this operator's ECS whitelist.  Revoked (set False) either by
        an :class:`~repro.topology.resolvers.EcsPolicy` with
        ``whitelist_enabled=False`` or by an ``ecs_whitelist_revoke``
        fault.  Distinct from ``ecs_stripped`` so overlapping strip
        and revoke faults revert independently."""
        self.ecs_scope_ceiling = 32
        """Provider ECS policy: the finest client prefix this operator
        reveals.  The effective source length is
        ``min(ecs_source_len, ecs_scope_ceiling)``; the default of 32
        never narrows, reproducing pre-policy behaviour exactly."""
        self.alive = True
        """False during an injected LDNS blackout: the resolver stops
        answering on the wire and stubs must fail over."""
        self.max_retries = max_retries
        """Re-queries against one server before failing over to the
        next authority in the ranking (exponential backoff)."""
        self.cache = cache if cache is not None else EcsAwareCache()
        self.client_queries = 0
        self.upstream_queries_total = 0
        self.tcp_retries = 0
        self.timeout_failovers = 0
        self.tcp_failovers = 0
        self.servfail_responses = 0
        self.notimp_count = 0
        self.stale_served = 0
        self.ecs_mismatches = 0
        """Responses dropped because their ECS echo was not the
        query's (RFC 7871 Section 7.3)."""
        self.retry_penalty_ms_total = 0.0
        """Cumulative retry-timer backoff charged while re-querying
        unresponsive authorities (the latency cost of outages that
        never shows up in per-hop RTT)."""
        self._next_id = 1
        # Server ranking memo per zone: delegation data and RTT
        # rankings are long-lived, so real resolvers stick with the
        # fastest server too (and fail over down the ranking).
        self._server_ranking: dict = {}

    @property
    def ip(self) -> int:
        return self._ip

    @property
    def failovers(self) -> int:
        """Total abandonments of an authority, either because it timed
        out on UDP (``timeout_failovers``) or because the TCP retry
        after truncation also died (``tcp_failovers``).  The split
        counters distinguish the two RFC-distinct paths."""
        return self.timeout_failovers + self.tcp_failovers

    @property
    def _ecs_active(self) -> bool:
        """ECS is actually sent: enabled, whitelisted, not stripped."""
        return (self.ecs_enabled and self.ecs_whitelisted
                and not self.ecs_stripped)

    @property
    def _effective_source_len(self) -> int:
        """The source prefix actually sent, after the policy ceiling."""
        return min(self.ecs_source_len, self.ecs_scope_ceiling)

    def fail(self) -> None:
        """Blackout: stop answering client queries on the wire."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    # -- client-facing API ------------------------------------------------

    def resolve(self, qname: str, qtype: int, client_ip: int,
                now: float) -> RecursionResult:
        """Resolve a name on behalf of a client, chasing CNAMEs.

        A step the cache answers costs the lookup and a pair kept for
        :class:`AgedAnswer`; only a miss opens a span of its own and
        goes upstream.  Span attributes are computed while a trace is
        open and not otherwise.
        """
        self.client_queries += 1
        qname = normalize_name(qname)
        tracer = self.obs.tracer
        traced = tracer.active
        cache_addr = client_ip if self._ecs_active else None
        steps: List[Step] = []
        total_queries = 0
        total_rtt = 0.0
        every_step_hit = True
        any_stale = False
        rcode = _NOERROR

        with (tracer.span("recursive", resolver=self.name, qname=qname)
              if traced else NULL_SPAN) as span:
            current = qname
            visited = [qname]
            for _ in range(_MAX_CNAME_CHAIN):
                entry = self.cache.lookup(current, qtype, cache_addr, now)
                if entry is not None:
                    records = entry.records
                    rcode = entry.rcode
                    steps.append(entry.answer)
                    if traced:
                        tracer.event(
                            "step", qname=current, cache="hit",
                            scope=(str(entry.scope)
                                   if entry.scope is not None else None))
                else:
                    every_step_hit = False
                    with (tracer.span("step", qname=current, cache="miss")
                          if traced else NULL_SPAN) as step_span:
                        step = self._query_upstream(
                            current, qtype, client_ip, now, step_span)
                    records = step.records
                    rcode = step.rcode
                    steps.append((records, now))
                    total_queries += step.queries
                    total_rtt += step.rtt_ms
                    any_stale = any_stale or step.stale
                if rcode != _NOERROR:
                    break
                target = _cname_target(records, current)
                if target is None or qtype == _CNAME:
                    break
                if _has_answer(records, target, qtype):
                    break
                if target in visited:
                    # The chain bites its tail: no answer to be had.
                    steps, rcode = (), _SERVFAIL
                    break
                visited.append(target)
                current = target
            else:
                # Still a CNAME after the last step we will chase.
                steps, rcode = (), _SERVFAIL
            if traced:
                span.set(cache_hit=every_step_hit, rcode=int(rcode),
                         upstream_queries=total_queries,
                         upstream_rtt_ms=total_rtt)
                if any_stale:
                    span.set(stale=True)
        if rcode == _SERVFAIL:
            self.servfail_responses += 1
        return RecursionResult(tuple(steps), now, rcode, every_step_hit,
                               total_queries, total_rtt, any_stale)

    def handle_query(self, wire: bytes, src_ip: int, now: float,
                     tcp: bool = False) -> Optional[bytes]:
        """DNS endpoint interface for stub resolvers on the wire."""
        if not self.alive:
            return None  # blackout: the client's query times out
        try:
            query = Message.decode(wire)
        except WireFormatError:
            return None
        refusal = refusal_rcode(query)
        if refusal is not None:
            if refusal == Rcode.NOTIMP:
                self.notimp_count += 1
            return make_response(query, rcode=refusal,
                                 authoritative=False).encode()
        question = query.question
        result = self.resolve(question.name, question.qtype, src_ip, now)
        response = make_response(query, answers=result.records,
                                 rcode=result.rcode, authoritative=False)
        response.flags = response.flags.__class__(
            qr=True, aa=False, rd=query.flags.rd, ra=True,
            rcode=result.rcode)
        return response.encode()

    # -- internals ----------------------------------------------------------

    def _query_upstream(self, qname: str, qtype: int, client_ip: int,
                        now: float, span=NULL_SPAN) -> _StepResult:
        authority = self.directory.authority_for(qname)
        if authority is None:
            return _StepResult((), Rcode.SERVFAIL, 0, 0.0)
        zone, server_ips = authority
        ranking = self._server_ranking.get(zone)
        if ranking is None:
            ranking = sorted(
                server_ips,
                key=lambda ip: self.network.rtt_ms(self._ip, ip))
            self._server_ranking[zone] = ranking

        ecs: Optional[ClientSubnetOption] = None
        if self._ecs_active:
            ecs = ClientSubnetOption(
                prefix_of(client_ip, self._effective_source_len))
            if span is not NULL_SPAN:
                span.set(ecs_source=str(ecs.prefix))

        total_rtt = 0.0
        queries = 0
        for server_ip in ranking:
            response = None
            for attempt in range(1 + self.max_retries):
                query = make_query(qname, qtype, msg_id=self._take_id(),
                                   ecs=ecs)
                hop = self.network.query(self._ip, server_ip, query, now)
                self.upstream_queries_total += 1
                queries += 1
                if hop.response is not None:
                    if _echoes(hop.response, ecs):
                        total_rtt += hop.rtt_ms
                        response = hop.response
                        break
                    self.ecs_mismatches += 1
                # Timed out, or the reply was dropped: burn an
                # exponentially backed-off retry timer, then re-query
                # the same server (RFC 1035 suggests retrying before
                # abandoning an authority).
                penalty = _TIMEOUT_PENALTY_MS * (2.0 ** attempt)
                hop.span.set(penalty_ms=penalty)
                self.retry_penalty_ms_total += penalty
                total_rtt += hop.rtt_ms + penalty
            if response is None:
                # Retry budget exhausted: this authority is dead, fail
                # over to the next one in the ranking.
                self.timeout_failovers += 1
                continue
            if response.flags.tc:
                # Answer did not fit in UDP: retry this server over
                # TCP (RFC 1035 4.2.2).
                self.tcp_retries += 1
                tcp_hop = self.network.query(self._ip, server_ip, query,
                                             now, tcp=True)
                self.upstream_queries_total += 1
                queries += 1
                total_rtt += tcp_hop.rtt_ms
                response = tcp_hop.response
                if response is not None and not _echoes(response, ecs):
                    self.ecs_mismatches += 1
                    response = None
                if response is None:
                    self.tcp_failovers += 1
                    tcp_hop.span.set(penalty_ms=_TIMEOUT_PENALTY_MS)
                    self.retry_penalty_ms_total += _TIMEOUT_PENALTY_MS
                    total_rtt += _TIMEOUT_PENALTY_MS
                    continue
            return self._process_response(qname, qtype, client_ip,
                                          response, now, queries,
                                          total_rtt, span)
        # Every authority is unreachable.  Degrade before failing: an
        # expired cache entry inside the serve-stale window keeps the
        # client alive with slightly old data (RFC 8767).
        stale = self.cache.lookup_stale(
            qname, qtype,
            client_ip if self._ecs_active else None, now)
        if stale is not None:
            self.stale_served += 1
            span.set(stale=True)
            return _StepResult(stale.stale_records(_STALE_TTL),
                               Rcode.NOERROR, queries, total_rtt,
                               stale=True)
        return _StepResult((), Rcode.SERVFAIL, queries, total_rtt)

    def _process_response(self, qname: str, qtype: int, client_ip: int,
                          response: Message, now: float, queries: int,
                          total_rtt: float,
                          span=NULL_SPAN) -> _StepResult:
        rcode = response.flags.rcode
        scope = self._scope_for(response, client_ip)
        if span is not NULL_SPAN:
            span.set(scope=str(scope) if scope is not None else None)
        if rcode == Rcode.NXDOMAIN or (
                rcode == Rcode.NOERROR and not response.answers):
            # Negative caching (RFC 2308): remember that the name does
            # not exist / has no data so misses do not hammer the
            # authority.
            self.cache.store(qname, qtype, scope, (),
                             _DEFAULT_NEGATIVE_TTL, now, rcode=rcode)
            return _StepResult((), rcode, queries, total_rtt)
        if rcode != Rcode.NOERROR:
            # Transient server errors are not cached.
            return _StepResult((), rcode, queries, total_rtt)
        records = tuple(response.answers)
        ttl = min(r.ttl for r in records)
        self.cache.store(qname, qtype, scope, records, ttl, now)
        return _StepResult(records, Rcode.NOERROR, queries, total_rtt)

    def _scope_for(self, response: Message,
                   client_ip: int) -> Optional[Prefix]:
        """Cache scope per RFC 7871 Section 7.3.1."""
        if not self.ecs_enabled:
            return None
        resp_ecs = response.client_subnet
        if resp_ecs is None:
            # Authority ignored ECS: answer is client-independent.
            return None
        scope_len = min(resp_ecs.scope_prefix_len,
                        self._effective_source_len)
        if scope_len == 0:
            return None
        return prefix_of(client_ip, scope_len)

    def _take_id(self) -> int:
        msg_id = self._next_id
        self._next_id = (self._next_id + 1) % 0x10000 or 1
        return msg_id


def _echoes(response: Message, ecs: Optional[ClientSubnetOption]) -> bool:
    """Whether ``response`` may answer a query that sent ``ecs``: RFC
    7871 Section 7.3 has FAMILY, SOURCE PREFIX-LENGTH and the ADDRESS
    bits under it echoed unchanged.  No ECS sent, or none echoed (an
    authority that ignores the option), always may."""
    if ecs is None or response.opt is None:
        return True
    options = response.opt.options
    if options.client_subnet_v6 is not None:
        return False
    echo = options.client_subnet
    return echo is None or echo.prefix == ecs.prefix


def _cname_target(records: Tuple[ResourceRecord, ...],
                  qname: str) -> Optional[str]:
    for record in records:
        if record.rtype == _CNAME and record.name == qname:
            assert isinstance(record.rdata, CNAMERdata)
            return record.rdata.target
    return None


def _has_answer(records: Tuple[ResourceRecord, ...], name: str,
                qtype: int) -> bool:
    for record in records:
        if record.name == name and record.rtype == qtype:
            return True
    return False
