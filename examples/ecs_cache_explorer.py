#!/usr/bin/env python
"""EDNS0 client-subnet cache semantics, observable on the wire.

Demonstrates the protocol mechanics of RFC 7871 that the paper's
Section 5 scaling analysis rests on, using one LDNS and clients in
three different /24 blocks:

* without ECS: one cache entry serves every client (1 upstream query);
* with ECS: the authoritative answers with scope /24, so each client
  block gets its own entry and its own upstream query -- the query
  inflation of Figure 23;
* a scope-/0 answer (non-client-specific zone) collapses back to one
  shared entry even with ECS on.

Run:  python examples/ecs_cache_explorer.py
"""

from repro.dnsproto.types import QType
from repro.net.ipv4 import format_ipv4, parse_ipv4
from repro.api import build_world
from repro.simulation import WorldConfig


def show_cache(ldns, name):
    entries = ldns.cache.entries_for(name, QType.A)
    print(f"    cache entries for {name!r}: {len(entries)}")
    for entry in entries:
        scope = str(entry.scope) if entry.scope else "global"
        addresses = ", ".join(format_ipv4(r.rdata.address)
                              for r in entry.records
                              if r.rtype == QType.A)
        print(f"      scope {scope:<18} -> {addresses}")


def main():
    world = build_world(WorldConfig.tiny())
    provider = world.catalog.providers[0]
    name = provider.domain
    # The provider domain CNAMEs onto the CDN hostname; the mapping
    # answers (and their ECS scopes) are cached under the latter.
    cdn_name = provider.cdn_hostname

    # One public LDNS and three clients in different /24 blocks.
    public_id = world.public_ldns_ids()[0]
    ldns = world.ldns_registry[public_id]
    blocks = world.internet.blocks[:3]
    clients = [block.prefix.network | 9 for block in blocks]

    print(f"LDNS: {public_id}")
    print(f"clients: "
          f"{', '.join(format_ipv4(c) for c in clients)}\n")

    print("== Phase 1: ECS disabled (classic resolver) ==")
    world.enable_ecs([])
    upstream = 0
    for i, client in enumerate(clients):
        outcome = ldns.resolve(name, QType.A, client, now=float(i))
        upstream += outcome.upstream_queries
    print(f"    upstream queries for 3 clients: {upstream}")
    show_cache(ldns, cdn_name)

    print("\n== Phase 2: ECS enabled (scope /24 answers) ==")
    world.enable_ecs([public_id])
    ldns.cache.flush()
    upstream = 0
    for i, client in enumerate(clients):
        outcome = ldns.resolve(name, QType.A, client, now=100.0 + i)
        upstream += outcome.upstream_queries
    print(f"    upstream queries for 3 clients: {upstream}")
    show_cache(ldns, cdn_name)
    print("    -> one entry and one upstream query per client block: "
          "this is the paper's 8x query inflation mechanism")

    print("\n== Phase 3: same-block clients share the scoped entry ==")
    sibling = blocks[0].prefix.network | 200
    outcome = ldns.resolve(name, QType.A, sibling, now=200.0)
    print(f"    client {format_ipv4(sibling)} (same /24 as client 1): "
          f"cache_hit={outcome.cache_hit}, "
          f"upstream={outcome.upstream_queries}")

    print("\n== Phase 4: the whoami zone answers are never cached ==")
    whoami = "whoami.cdn.example"
    outcome = ldns.resolve(whoami, QType.TXT,
                           parse_ipv4(format_ipv4(clients[0])), 300.0)
    print(f"    {whoami} -> {outcome.records[0].rdata} (TTL "
          f"{outcome.records[0].ttl})")


if __name__ == "__main__":
    main()
