"""The mapping control plane (`repro.core.mapmaker`).

Paper Section 5 splits the mapping system into two halves: a periodic
*map-making* pipeline that scores the Internet and compiles mapping
units into ranked cluster lists, and a real-time *name-server* path
that only reads the latest published map.  This package is that split
made explicit:

* :mod:`repro.core.mapmaker.published` -- the immutable, versioned,
  checksummed :class:`PublishedMap` artifact plus the static
  geo/anycast map of last resort.
* :mod:`repro.core.mapmaker.maker` -- :class:`MapMaker`, the periodic
  compiler process (primary or hot standby) with fault hooks, and the
  map's key format (:func:`eu_key` / :func:`ns_key`).
* :mod:`repro.core.mapmaker.service` -- :class:`MapPublicationService`,
  the publication store, the mapping-unit set every map compiles over,
  watchdog failover, and the age-bounded degradation ladder the
  name-server path reads through.
"""

from repro.core.mapmaker.maker import (
    MapMaker,
    compile_entries,
    eu_key,
    ns_key,
)
from repro.core.mapmaker.published import PublishedMap, StaticGeoMap
from repro.core.mapmaker.service import (
    DEFAULT_UNIT_SCHEME,
    MapMakerConfig,
    MapPublicationService,
    TIERS,
)

__all__ = [
    "DEFAULT_UNIT_SCHEME",
    "MapMaker",
    "MapMakerConfig",
    "MapPublicationService",
    "PublishedMap",
    "StaticGeoMap",
    "TIERS",
    "compile_entries",
    "eu_key",
    "ns_key",
]
