"""In-memory DNS transport with simulated latency.

The :class:`Network` routes encoded DNS messages between registered
endpoints.  Every hop pays the latency model's RTT for the two IPs
involved (geolocated through the topology's geo database), and every
message is round-tripped through the wire codec, so the protocol layer
is exercised for real -- a resolver bug that produces malformed wire
data surfaces as a FORMERR here, exactly as it would on the Internet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Protocol, Tuple

from repro.dnsproto.message import Message
from repro.dnsproto.name import MEMO_SIZE, normalize_name
from repro.geo.database import GeoDatabase
from repro.net.ipv4 import format_ipv4
from repro.net.latency import LatencyModel, _mix64
from repro.obs import NOOP, NULL_SPAN, Observability


class DnsEndpoint(Protocol):
    """Anything that can be registered on the network and answer DNS.

    ``tcp`` distinguishes the retry-over-TCP path (RFC 1035 4.2.2):
    servers apply UDP payload limits only when it is False.  Returning
    None models an unresponsive endpoint (the querier times out).
    """

    @property
    def ip(self) -> int: ...

    def handle_query(self, wire: bytes, src_ip: int, now: float,
                     tcp: bool = False) -> Optional[bytes]: ...


class QuerySink(Protocol):
    """Observer of queries arriving at an endpoint (query accounting)."""

    def record_query(self, now: float, dst_ip: int, src_ip: int,
                     message: Message) -> None: ...


@dataclass(frozen=True)
class LinkImpairment:
    """A degraded network path: inflated latency plus packet loss.

    Loss is decided by a deterministic counter-driven hash (no RNG
    state shared with the rest of the simulation), so an impaired run
    replays byte-identically under the same schedule.
    """

    latency_factor: float = 1.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_factor < 1.0:
            raise ValueError(
                f"latency_factor must be >= 1: {self.latency_factor}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1): "
                             f"{self.loss_rate}")


@dataclass
class HopResult:
    """Outcome of one query/response exchange over the network."""

    response: Optional[Message]
    rtt_ms: float
    span: object = NULL_SPAN
    """The (already closed) trace span of this hop, so callers can
    annotate it after the fact -- e.g. the retry-timer penalty a
    recursive charges for a timeout."""


class Network:
    """Registry of endpoints plus a latency oracle between them."""

    def __init__(
        self,
        geodb: GeoDatabase,
        latency_model: Optional[LatencyModel] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self._geodb = geodb
        self._latency = latency_model or LatencyModel()
        self.obs = obs if obs is not None else NOOP
        self._endpoints: Dict[int, DnsEndpoint] = {}
        self._dotted: Dict[int, str] = {}
        """Each endpoint's address as the hop span spells it."""
        self._sinks: List[QuerySink] = []
        self.queries_sent = 0
        self.bytes_sent = 0
        self.packets_lost = 0
        # RTT memo keyed by /24 pairs: latency is a pure function of
        # the two geo records, and geo granularity is the /24 block.
        self._rtt_cache: Dict[Tuple[int, int], float] = {}
        # Fault injection: per-endpoint link impairments.  The loss
        # counter only advances while an impairment with loss is
        # active, so healthy runs replay byte-identically.
        self._impairments: Dict[int, LinkImpairment] = {}
        self._loss_counter = 0

    def impair(self, ip: int, latency_factor: float = 1.0,
               loss_rate: float = 0.0) -> None:
        """Degrade every hop to or from ``ip`` (fault injection)."""
        self._impairments[ip] = LinkImpairment(
            latency_factor=latency_factor, loss_rate=loss_rate)

    def clear_impairment(self, ip: int) -> None:
        self._impairments.pop(ip, None)

    def _loss_draw(self) -> float:
        """Deterministic uniform [0,1) stream for packet-loss coin
        flips (SplitMix64 over a private counter)."""
        self._loss_counter += 1
        mixed = _mix64(self._loss_counter * 0x9E3779B97F4A7C15)
        return (mixed >> 11) / float(1 << 53)

    def register(self, endpoint: DnsEndpoint) -> None:
        existing = self._endpoints.get(endpoint.ip)
        if existing is not None and existing is not endpoint:
            raise ValueError(
                f"endpoint IP collision at {format_ipv4(endpoint.ip)}")
        self._endpoints[endpoint.ip] = endpoint
        self._dotted[endpoint.ip] = format_ipv4(endpoint.ip)

    def add_sink(self, sink: QuerySink) -> None:
        self._sinks.append(sink)

    def endpoint(self, ip: int) -> Optional[DnsEndpoint]:
        return self._endpoints.get(ip)

    def rtt_ms(self, src_ip: int, dst_ip: int) -> float:
        """RTT between two addresses, via geolocation."""
        key = (src_ip >> 8, dst_ip >> 8)
        cached = self._rtt_cache.get(key)
        if cached is not None:
            return cached
        src = self._geodb.lookup(src_ip)
        dst = self._geodb.lookup(dst_ip)
        if src is None or dst is None:
            raise KeyError(
                f"cannot geolocate {format_ipv4(src_ip)} -> "
                f"{format_ipv4(dst_ip)}")
        rtt = self._latency.base_rtt_ms(src.geo, src.asn, dst.geo, dst.asn)
        self._rtt_cache[key] = rtt
        return rtt

    def query(self, src_ip: int, dst_ip: int, message: Message,
              now: float, tcp: bool = False) -> HopResult:
        """Send a query and wait for the response (synchronous hop).

        A TCP hop costs an extra round trip (the handshake) on top of
        the query/response exchange.  Raises :class:`KeyError` for an
        unregistered destination -- a wiring bug in the simulation,
        not a protocol condition.
        """
        endpoint = self._endpoints.get(dst_ip)
        if endpoint is None:
            raise KeyError(
                f"no DNS endpoint at {format_ipv4(dst_ip)}")
        wire = message.encode()
        self.queries_sent += 1
        self.bytes_sent += len(wire)
        for sink in self._sinks:
            sink.record_query(now, dst_ip, src_ip, message)
        rtt = self.rtt_ms(src_ip, dst_ip)
        if tcp:
            rtt *= 2.0  # SYN/SYN-ACK before the query can be sent
        impairment = None
        if self._impairments:
            impairment = (self._impairments.get(dst_ip)
                          or self._impairments.get(src_ip))
        lost = False
        if impairment is not None:
            rtt *= impairment.latency_factor
            lost = (impairment.loss_rate > 0
                    and self._loss_draw() < impairment.loss_rate)
        # The hop span wraps the destination's handling, so spans the
        # endpoint opens (authoritative dispatch, mapping decision)
        # nest under this hop in the trace tree.
        tracer = self.obs.tracer
        traced = tracer.active
        with (tracer.span("hop", dst=self._dotted[dst_ip], tcp=tcp)
              if traced else NULL_SPAN) as hop:
            if lost:
                self.packets_lost += 1
                response_wire = None
                hop.set(lost=True)
            else:
                response_wire = endpoint.handle_query(wire, src_ip, now,
                                                      tcp=tcp)
            if traced:
                hop.set(rtt_ms=rtt, timeout=response_wire is None)
        if response_wire is None:
            return HopResult(response=None, rtt_ms=rtt, span=hop)
        self.bytes_sent += len(response_wire)
        return HopResult(response=Message.decode(response_wire),
                         rtt_ms=rtt, span=hop)


class AuthorityDirectory:
    """Maps domain suffixes to the authoritative servers for the zone.

    Stands in for the delegation walk a real recursive performs from
    the root: the simulator's recursives consult this directory instead
    of resolving NS chains, which is faithful enough because delegation
    data is long-lived and cached in practice.

    Multiple server IPs per zone are supported; the recursive picks the
    lowest-RTT one, mirroring real resolvers' server-selection
    behaviour (and the paper's observation that Akamai delegates each
    LDNS to a nearby name server, Section 2.2).
    """

    def __init__(self) -> None:
        self._zones: Dict[str, List[int]] = {}
        # Bounded because a resolver looks up whatever name a client
        # sends it.
        self._authority_memo = lru_cache(maxsize=MEMO_SIZE)(
            self._match_authority)

    def delegate(self, zone: str, server_ips: List[int]) -> None:
        if not server_ips:
            raise ValueError(f"zone {zone!r} needs at least one server")
        self._zones[normalize_name(zone)] = list(server_ips)
        self._authority_memo.cache_clear()

    def authority_for(self, name: str) -> Optional[Tuple[str, List[int]]]:
        """Longest-suffix zone match: (zone, server IPs) or None;
        matched once per spelling of the name."""
        return self._authority_memo(name)

    def _match_authority(
            self, name: str) -> Optional[Tuple[str, List[int]]]:
        name = normalize_name(name)
        labels = name.split(".") if name else []
        for start in range(len(labels)):
            zone = ".".join(labels[start:])
            servers = self._zones.get(zone)
            if servers:
                return zone, servers
        root = self._zones.get("")
        if root:
            return "", root
        return None

    def zones(self) -> List[str]:
        return sorted(self._zones)
