"""The mapping system: the paper's primary contribution.

Mirrors the three-component architecture of Figure 3:

1. **Network measurement** (:mod:`repro.core.measurement`): latency
   oracle between deployments and mapping targets, liveness and load
   feeds, ping-target selection.
2. **Server assignment** (:mod:`repro.core.scoring`,
   :mod:`repro.core.loadbalancer`): topology discovery + scoring of
   candidate clusters per mapping unit, then hierarchical load
   balancing (global: pick a cluster; local: pick servers within it).
3. **Name servers**: the mapping system plugs into
   :class:`repro.dnssrv.AuthoritativeServer` as an answer source via
   :class:`repro.core.system.MappingSystem`.

The three request-routing policies of Section 6 are in
:mod:`repro.core.policies`: NS-based (Equation 1), end-user mapping
(Equation 2), and client-aware NS-based (CANS).  Mapping units --
per-LDNS, /x client blocks, BGP-CIDR-merged, per-/24 geo+AS, and
routing-aware clusters -- are built by the pluggable ``UnitBuilder``
registry in :mod:`repro.core.units` (Section 5.1).
"""

from repro.core.discovery import CandidateIndex, nearest_cluster
from repro.core.loadbalancer import (
    GlobalLoadBalancer,
    LoadBalancerConfig,
    LocalLoadBalancer,
)
from repro.core.units import (
    MapUnit,
    MapUnitScheme,
    UnitBuilder,
    available_schemes,
    build_units,
    get_builder,
    parse_unit_scheme,
    register_builder,
)
from repro.core.measurement import (
    MeasurementService,
    PingTarget,
    TargetGrid,
    build_ping_targets,
    nearest_target_id,
)
from repro.core.redirection import (
    RedirectionKind,
    RedirectionMapper,
    breakeven_transfer_bytes,
)
from repro.core.reporting import StatusReport, build_status_report
from repro.core.policies import (
    CANSMappingPolicy,
    ClientClusterIndex,
    EUMappingPolicy,
    MappingPolicy,
    MapTarget,
    NSMappingPolicy,
)
from repro.core.scoring import Scorer, ScoringWeights, TrafficClass
from repro.core.system import MappingStats, MappingSystem

__all__ = [
    "CANSMappingPolicy",
    "CandidateIndex",
    "ClientClusterIndex",
    "nearest_cluster",
    "EUMappingPolicy",
    "GlobalLoadBalancer",
    "LoadBalancerConfig",
    "LocalLoadBalancer",
    "MapTarget",
    "MapUnit",
    "MapUnitScheme",
    "MappingPolicy",
    "MappingStats",
    "MappingSystem",
    "MeasurementService",
    "NSMappingPolicy",
    "PingTarget",
    "TargetGrid",
    "nearest_target_id",
    "RedirectionKind",
    "RedirectionMapper",
    "StatusReport",
    "breakeven_transfer_bytes",
    "build_status_report",
    "Scorer",
    "ScoringWeights",
    "TrafficClass",
    "UnitBuilder",
    "available_schemes",
    "build_ping_targets",
    "build_units",
    "get_builder",
    "parse_unit_scheme",
    "register_builder",
]
