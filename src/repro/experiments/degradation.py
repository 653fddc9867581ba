"""Extension experiment: graceful degradation under injected faults.

The paper's mapping system treats Internet failure as routine: recursive
resolvers retry and fail over between authoritatives, the mapping falls
back from end-user to NS granularity when client-subnet data is missing,
and the roll-out itself was phased so regressions could be caught and
reversed (Section 4).  This experiment makes that robustness story
measurable: it replays the same roll-out timeline once fault-free and
once per :class:`~repro.faults.FaultKind`, each with a single
deterministic fault window, and compares TTFB/RTT/DNS quantiles inside
that window against the baseline.

The degradation ladder under test (see DESIGN.md):

* authoritative outage  -> bounded retry, exponential backoff, failover
* cluster outage        -> mapping reroutes load to live clusters
* ECS stripped          -> end-user mapping degrades to NS mapping
* LDNS blackout         -> stub fails over to a public resolver
* lossy/slow links      -> retries absorb loss; latency shows up in DNS

A scenario "degrades gracefully" when sessions complete (availability
stays above 99%), the monitor's fault-plane alerts fire during the
window and resolve after it, and degraded handling is confined to the
window.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.api import ScenarioRun, ScenarioSpec
from repro.api import run as run_scenario
from repro.experiments.base import ExperimentResult, ratio
from repro.experiments.scales import get_scale
from repro.faults import FaultEvent, FaultKind, FaultSchedule

EXPERIMENT_ID = "degradation"
TITLE = "Graceful degradation: per-fault-kind quantiles vs baseline"
PAPER_CLAIM = ("Sections 2.2 and 4: mapping must absorb routine "
               "resolver/authority/cluster failures -- degrade "
               "(EU -> NS -> stale -> SERVFAIL), never hard-fail; "
               "availability stays high and monitoring surfaces every "
               "outage as an alert that later resolves")

BASELINE = "baseline"

#: Day the early fault window opens (well before the ECS roll-out ramp).
FAULT_START = 5
#: Length of every fault window, in days.
FAULT_DAYS = 7

#: Alert rules owned by the fault plane (silent in a healthy run).
FAULT_RULES = ("auth_timeout_spike", "availability_low", "dns_servfail",
               "mapping_degraded")

#: Per-kind fault target (index grammar; resolved against the world).
TARGETS = {
    FaultKind.AUTH_OUTAGE: "ns:0",
    FaultKind.CLUSTER_OUTAGE: "cluster:0",
    FaultKind.ECS_STRIP: "public:*",
    FaultKind.LDNS_BLACKOUT: "isp:*",
    FaultKind.LINK_DEGRADATION: "isp:*",
}


def _fault_window(kind: str, rollout) -> Tuple[int, int]:
    """[start, end) day window for one fault kind.

    ECS stripping is only observable once the roll-out has flipped the
    public resolvers to client-subnet, so its window sits after
    ``rollout_end``; every other kind uses the early window.
    """
    if kind == FaultKind.ECS_STRIP:
        start = rollout.day_index(rollout.rollout_end) + 3
    else:
        start = FAULT_START
    return start, start + FAULT_DAYS


def _schedule_for(kind: str, rollout) -> FaultSchedule:
    start, _ = _fault_window(kind, rollout)
    params: Tuple[Tuple[str, float], ...] = ()
    if kind == FaultKind.LINK_DEGRADATION:
        params = (("latency_factor", 3.0), ("loss_rate", 0.15))
    return FaultSchedule((FaultEvent(
        start_day=start, duration_days=FAULT_DAYS, target=TARGETS[kind],
        kind=kind, params=params),))


def _spec_for(kind: str, scale_spec, sessions: int) -> ScenarioSpec:
    rollout = replace(scale_spec.rollout, sessions_per_day=sessions)
    world = replace(scale_spec.world, serve_stale_window=900.0)
    faults = (FaultSchedule() if kind == BASELINE
              else _schedule_for(kind, rollout))
    return ScenarioSpec(world=world, rollout=rollout, faults=faults)


def _availability(outcome: ScenarioRun) -> Tuple[float, int]:
    """(overall availability, failed sessions) for one scenario."""
    failed = sum(outcome.result.failed_sessions_per_day.values())
    completed = len(outcome.result.rum)
    return ratio(completed, completed + failed) if (completed + failed) \
        else 1.0, failed


def _alert_kinds(outcome: ScenarioRun, rule: str) -> List[str]:
    """Chronological fire/resolve transitions of one rule."""
    return [alert.kind for alert in outcome.monitor.engine.log
            if alert.rule == rule]


def _nonzero_days(outcome: ScenarioRun, series_name: str) -> List[int]:
    series = outcome.monitor.store.get(series_name)
    if series is None:
        return []
    return [step for step, value in zip(series.steps, series.values)
            if value > 0]


def _quantiles(outcome: ScenarioRun, metric: str,
               window: Tuple[int, int]) -> Dict[float, float]:
    rum = outcome.result.rum
    return {q: rum.percentile(metric, q, via_public=None,
                              day_range=window)
            for q in (0.50, 0.99)}


def run(scale: str) -> ExperimentResult:
    scale_spec = get_scale(scale)
    # A sixth of the scale's roll-out load keeps six scenarios within
    # one scale's budget while leaving every per-day signal visible.
    sessions = max(30, scale_spec.rollout.sessions_per_day // 6)
    result = ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE,
                              scale=scale, paper_claim=PAPER_CLAIM)

    outcomes: Dict[str, ScenarioRun] = {}
    for kind in (BASELINE,) + FaultKind.DATA_PLANE:
        spec = _spec_for(kind, scale_spec, sessions)
        outcomes[kind] = run_scenario(spec)

    baseline = outcomes[BASELINE]
    worst_availability = 1.0
    for kind in (BASELINE,) + FaultKind.DATA_PLANE:
        outcome = outcomes[kind]
        window = _fault_window(kind if kind != BASELINE
                               else FaultKind.AUTH_OUTAGE,
                               outcome.spec.rollout)
        availability, failed = _availability(outcome)
        worst_availability = min(worst_availability, availability)
        ttfb = _quantiles(outcome, "ttfb_ms", window)
        rtt = _quantiles(outcome, "rtt_ms", window)
        dns = _quantiles(outcome, "dns_ms", window)
        base_ttfb = _quantiles(baseline, "ttfb_ms", window)
        result.rows.append({
            "kind": kind,
            "window": f"{window[0]}-{window[1]}",
            "availability": availability,
            "failed": failed,
            "degraded_days": len(_nonzero_days(
                outcome, "mapping.degraded_share")),
            "ttfb_p50": ttfb[0.50],
            "ttfb_p99": ttfb[0.99],
            "ttfb_p50_vs_base": ratio(ttfb[0.50], base_ttfb[0.50]),
            "rtt_p50": rtt[0.50],
            "rtt_p99": rtt[0.99],
            "dns_p50": dns[0.50],
            "dns_p99": dns[0.99],
        })

    # -- checks -----------------------------------------------------------

    result.check(
        "availability_under_faults", worst_availability > 0.99,
        f"worst overall availability {worst_availability:.4f} across "
        f"all fault kinds (require > 0.99)")

    auth_alerts = _alert_kinds(outcomes[FaultKind.AUTH_OUTAGE],
                               "auth_timeout_spike")
    result.check(
        "auth_outage_alert_lifecycle",
        "fired" in auth_alerts and "resolved" in auth_alerts,
        f"auth_timeout_spike transitions during auth outage: "
        f"{auth_alerts or 'none'}")

    strip = outcomes[FaultKind.ECS_STRIP]
    strip_window = _fault_window(FaultKind.ECS_STRIP, strip.spec.rollout)
    degraded_days = _nonzero_days(strip, "mapping.degraded_share")
    confined = bool(degraded_days) and all(
        strip_window[0] <= day < strip_window[1] for day in degraded_days)
    result.check(
        "ecs_strip_degrades_in_window_only", confined,
        f"degraded mapping on days {degraded_days} vs strip window "
        f"{strip_window}")

    baseline_fired = sorted({alert.rule for alert
                             in baseline.monitor.engine.log
                             if alert.rule in FAULT_RULES})
    baseline_availability, baseline_failed = _availability(baseline)
    result.check(
        "baseline_clean",
        not baseline_fired and not baseline_failed
        and baseline_availability == 1.0,
        f"fault-free run: fault alerts {baseline_fired or 'none'}, "
        f"{baseline_failed} failed sessions")

    link = outcomes[FaultKind.LINK_DEGRADATION]
    lost = link.world.network.packets_lost
    base_dns = _quantiles(baseline, "dns_ms", _fault_window(
        FaultKind.LINK_DEGRADATION, link.spec.rollout))
    link_dns = _quantiles(link, "dns_ms", _fault_window(
        FaultKind.LINK_DEGRADATION, link.spec.rollout))
    result.check(
        "link_degradation_visible",
        lost > 0 and link_dns[0.99] > base_dns[0.99],
        f"{lost} packets lost; in-window dns p99 "
        f"{link_dns[0.99]:.1f}ms vs baseline {base_dns[0.99]:.1f}ms")

    result.summary = {
        "scenarios": len(outcomes),
        "sessions_per_day": sessions,
        "worst_availability": worst_availability,
        "auth_timeout_alerts": len(auth_alerts),
        "link_packets_lost": lost,
    }
    return result
