"""Link-infidelity analysis: how COMPAS's advantage degrades with hop noise.

Extends the Sec 5.5 / Fig 10 per-teleoperation bounds
(:mod:`repro.analysis.network`) to the *physical* network model: each
recorded Bell event of a built protocol (hop distance, purpose) contributes
the Appendix-B fidelity floor of its teleoperation kind, evaluated at the
**hop-weighted** link error rate of a :class:`~repro.api.NetworkSpec` —

* data teleportation (teledata moves, naive redistribution):
  ``F >= 1 - r/2``,
* cat-mediated gates (telegate CNOT/Toffoli layers, GHZ fusion links):
  ``F >= 1 - 3r/4``,

with ``r = 1 - (1 - p_link)^h (1 - p_swap)^(h-1)`` for an ``h``-hop pair.
Multiplying floors over every event of the lowered program bounds the whole
protocol, so COMPAS and the naive redistribution can be compared on the
same physical network.  Because the naive scheme concentrates long-range
(multi-hop) events whose error rate *saturates* with ``h`` while COMPAS
spends many short-range events, the two bounds can cross as ``p_link``
grows — :func:`crossover_link_rate` locates that point by bisection, or
reports that there is none.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import replace

from ..core.protocol import FAMILY, family_builds
from ..network.bell import BellEvent
from ..network.topology import Topology

__all__ = [
    "event_fidelity_floor",
    "protocol_fidelity_bound",
    "protocol_comparison",
    "crossover_link_rate",
]

#: Bell-event purposes that are data teleportations (floor 1 - r/2); every
#: other purpose is a cat-mediated gate (floor 1 - 3r/4).
_TELEPORT_PURPOSES = ("teledata-in", "teledata-out", "naive-redistribute")

#: ``crossover_link_rate`` brackets a sign change on a scan of this many
#: equal steps over (0, 0.5], then bisects the bracket to this width.
_SCAN_STEPS = 200
_SCAN_MAX = 0.5
_BISECT_TOL = 1e-6
#: Bounds at ``p_link = 0`` closer than this are tied (rounding of the
#: floor products), and the initial slopes decide.
_TIE_TOL = 1e-12


def _floor_weight(event: BellEvent) -> float:
    """``c`` in the event's Appendix-B floor ``1 - c r``."""
    return 0.5 if event.purpose in _TELEPORT_PURPOSES else 0.75


def event_fidelity_floor(event: BellEvent, network) -> float:
    """Appendix-B worst-case fidelity of one teleoperation on noisy links."""
    return max(1.0 - _floor_weight(event) * network.link_error_rate(event.hops), 0.0)


def protocol_fidelity_bound(events: Iterable[BellEvent], network) -> float:
    """Product of per-event floors: a lower bound on the whole protocol."""
    bound = 1.0
    for event in events:
        bound *= event_fidelity_floor(event, network)
    return bound


def _family_events(member: str, n: int, k: int, topology: Topology | None) -> list[BellEvent]:
    """Aggregate Bell events of one family member (all campaign circuits)."""
    events: list[BellEvent] = []
    for build in family_builds(member, k, n, basis="x", topology=topology):
        events.extend(build.program.ledger.events)
    return events


def protocol_comparison(
    n: int,
    k: int,
    network,
    topology: Topology | None = None,
    schemes: Sequence[str] | None = None,
) -> list[dict]:
    """Rank every protocol-family member's fidelity bound on one network.

    Builds each member of ``schemes`` (default: the whole :data:`FAMILY`)
    on ``topology`` (or its default line) and multiplies the Appendix-B
    floor of every recorded Bell event — the multi-state campaign's
    ``C(k, 2)`` circuits aggregate, matching its sequential execution.
    Rows come back sorted best-bound-first, each carrying the logical and
    hop-weighted physical pair counts behind the bound.
    """
    members = tuple(schemes) if schemes is not None else FAMILY
    rows = []
    for member in members:
        events = _family_events(member, n, k, topology)
        rows.append(
            {
                "scheme": member,
                "bound": protocol_fidelity_bound(events, network),
                "logical_pairs": len(events),
                "physical_pairs": sum(e.hops for e in events),
            }
        )
    rows.sort(key=lambda row: row["bound"], reverse=True)
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def _initial_slope(events: Sequence[BellEvent], swap_penalty: float = 0.0) -> float:
    """``-d ln(bound) / d p_link`` at ``p_link = 0``.

    An ``h``-hop pair's rate is ``r = 1 - (1 - p)^h (1 - s)^(h-1)``, so at
    ``p = 0`` it is ``r0 = 1 - (1 - s)^(h-1)`` and grows as
    ``h (1 - s)^(h-1) p``; each floor ``1 - c r`` then contributes
    ``c h (1 - s)^(h-1) / (1 - c r0)``.  With no swap penalty this is
    ``sum(c h)``: the product of floors starts as ``1 - p * sum(c h)``.
    Two bounds equal at ``p = 0`` are ordered just above it by this slope.
    """
    slope = 0.0
    for event in events:
        c, h = _floor_weight(event), event.hops
        survive = (1.0 - swap_penalty) ** (h - 1)
        slope += c * h * survive / (1.0 - c * (1.0 - survive))
    return slope


def _crossover(
    events: Sequence[BellEvent], naive: Sequence[BellEvent], network=None
) -> float | str:
    """Smallest ``p_link`` at which ``events``' bound falls below naive's.

    Probes vary only ``link_depolarizing`` of ``network`` (default: ideal
    links), so its swap penalty counts throughout.  ``"always"`` when the
    bound is already below as ``p_link -> 0+``: below at ``p_link = 0``
    (the swap penalty alone separates them), or tied there with a steeper
    slope, or tied with an equal slope and a bisection that never leaves
    0.  ``"never"`` when no sign change lies in (0, 0.5]; otherwise the
    first sign change, bracketed on a scan and bisected.
    """
    from ..api.specs import NetworkSpec

    network = network if network is not None else NetworkSpec()

    def gap(p_link: float) -> float:
        probe = replace(network, link_depolarizing=p_link)
        return protocol_fidelity_bound(events, probe) - protocol_fidelity_bound(
            naive, probe
        )

    start = gap(0.0)
    if start < -_TIE_TOL:
        return "always"
    if start <= _TIE_TOL and _initial_slope(events, network.swap_penalty) > _initial_slope(
        naive, network.swap_penalty
    ):
        return "always"
    low = 0.0
    for step in range(1, _SCAN_STEPS + 1):
        high = _SCAN_MAX * step / _SCAN_STEPS
        if gap(high) < 0.0:
            break
        low = high
    else:
        return "never"
    while high - low > _BISECT_TOL:
        mid = 0.5 * (low + high)
        if gap(mid) < 0.0:
            high = mid
        else:
            low = mid
    return high if low > 0.0 else "always"


def crossover_link_rate(
    n: int,
    k: int,
    *,
    schemes: Sequence[str] = FAMILY,
    topologies: Sequence[str] | None = None,
    network=None,
) -> dict[str, list[dict]]:
    """Per-topology family ranking with each scheme's crossover vs naive.

    One entry per topology name in ``topologies`` (default: every named
    topology): the :func:`protocol_comparison` rows of ``schemes`` at the
    reference ``network`` (default: 2% link depolarizing), each with a
    ``crossover_vs_naive`` — the smallest ``p_link`` at which that
    scheme's bound falls below the naive redistribution's on the same
    topology (to within 1e-6), ``"always"`` if it is below for every small
    ``p_link``, or ``"never"`` if it stays at or above naive's on
    (0, 0.5].  The crossover probes keep every other field of
    ``network`` (its swap penalty included) and vary only
    ``link_depolarizing``.  A crossover exists when naive's few long-range events
    saturate with hop count while the scheme's many short-range events
    keep compounding.
    """
    from ..api.specs import TOPOLOGIES, NetworkSpec

    if network is None:
        network = NetworkSpec(link_depolarizing=0.02)
    names = tuple(topologies) if topologies is not None else tuple(TOPOLOGIES)
    qpus = [f"qpu{p}" for p in range(k)]
    comparison: dict[str, list[dict]] = {}
    for name in names:
        if name not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {tuple(TOPOLOGIES)}, got {name!r}")
        topo = TOPOLOGIES[name](qpus)
        rows = protocol_comparison(n, k, network, topology=topo, schemes=schemes)
        naive = _family_events("naive", n, k, topo)
        for row in rows:
            events = _family_events(row["scheme"], n, k, topo)
            row["crossover_vs_naive"] = _crossover(events, naive, network)
        comparison[name] = rows
    return comparison
