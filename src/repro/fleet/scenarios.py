"""Injected scenario events for fleet simulations.

A :class:`Scenario` is a declarative list of events on the fleet's simulated
timeline.  Every event fires at an absolute simulated time in seconds
(``at_seconds``), and expiries (``recovery_at`` / ``until_at``) are absolute
times too, so events can fire mid-window and sites with different
``window_duration`` s share one scenario.  To place an event at the start of
window ``k`` of a site, pass ``at_seconds=k * window_duration``.

* :class:`FlashCrowd` — a burst of new streams arrives and must be admitted
  (optionally aimed at one site, e.g. a stadium camera cluster coming online).
* :class:`SiteFailure` — a site goes dark; its streams are force-evacuated to
  the surviving sites, paying full migration cost, and the site optionally
  comes back at ``recovery_at``.
* :class:`WanDegradation` — a site's WAN bandwidth is scaled down (congestion,
  backhaul fault), making migrations in and out of it more expensive, until
  an optional ``until_at``.
* :class:`GpuFailure` — ``num_gpus`` of a site's GPUs fail (partial site
  degradation: the site keeps running on its remaining capacity instead of
  going dark), optionally recovering at ``recovery_at``.
  Losses stack: the failure removes up to ``num_gpus`` from whatever
  capacity is currently left, and its recovery restores exactly the count
  it took.

Every event is validated at construction (missing or negative trigger time,
expiry not after the trigger) and again when handed to a
:class:`~repro.fleet.simulator.FleetSimulator`, which checks the named sites
exist — a bad scenario fails up front, not windows into a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, List, Optional, Union

from ..exceptions import FleetError


def _validate_trigger(event: "ScenarioEvent") -> None:
    """Every event needs a non-negative ``at_seconds``."""
    if event.at_seconds is None:
        raise FleetError(f"{type(event).__name__} needs at_seconds=")
    if event.at_seconds < 0:
        raise FleetError("event at_seconds must be non-negative")


def _validate_expiry(event: "ScenarioEvent", expiry_at: Optional[float], label: str) -> None:
    """An expiry must come after its trigger."""
    if expiry_at is not None and expiry_at <= event.at_seconds:
        raise FleetError(f"{label}_at must be after the trigger time")


@dataclass(frozen=True)
class FlashCrowd:
    """``num_streams`` new streams of ``dataset`` arrive at ``at_seconds``."""

    num_streams: int = 1
    dataset: str = "cityscapes"
    #: Admit all arrivals to this site instead of asking the admission policy
    #: (models a geographically pinned burst).  ``None`` = policy decides.
    site: Optional[str] = None
    at_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        if self.num_streams < 1:
            raise FleetError("a flash crowd needs at least one stream")


@dataclass(frozen=True)
class SiteFailure:
    """Site ``site`` fails at ``at_seconds`` and optionally recovers later."""

    site: str = ""
    at_seconds: Optional[float] = None
    #: When the site comes back (``None`` = down for the rest of the run).
    recovery_at: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        if not self.site:
            raise FleetError("SiteFailure needs a site name")
        _validate_expiry(self, self.recovery_at, "recovery")


@dataclass(frozen=True)
class WanDegradation:
    """Scale ``site``'s WAN bandwidth by the given factors from the trigger on.

    Factors apply to the site's *provisioned* link, so a later degradation on
    the same site replaces (does not compose with) an earlier one, and the
    latest event's expiry is the one that restores the link.
    """

    site: str = ""
    uplink_factor: float = 1.0
    downlink_factor: float = 1.0
    at_seconds: Optional[float] = None
    #: When the link returns to its provisioned bandwidth (``None`` =
    #: degraded for the rest of the run).
    until_at: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        if not self.site:
            raise FleetError("WanDegradation needs a site name")
        if self.uplink_factor <= 0 or self.downlink_factor <= 0:
            raise FleetError("bandwidth factors must be positive")
        _validate_expiry(self, self.until_at, "until")


@dataclass(frozen=True)
class GpuFailure:
    """``num_gpus`` of ``site``'s GPUs fail at ``at_seconds``.

    Partial degradation, not all-or-nothing: the site stays healthy and
    keeps serving its streams on the remaining capacity (a site down to
    zero effective GPUs skips windows entirely until a recovery).  The
    site's in-flight retrainings are rescaled at the failure instant (a
    loss down to zero GPUs cancels them), and its next boundary plans for
    the smaller machine.
    """

    site: str = ""
    num_gpus: int = 1
    at_seconds: Optional[float] = None
    #: When the GPUs come back (``None`` = lost for the rest of the run).
    recovery_at: Optional[float] = None

    def __post_init__(self) -> None:
        _validate_trigger(self)
        if not self.site:
            raise FleetError("GpuFailure needs a site name")
        if self.num_gpus < 1:
            raise FleetError("GpuFailure needs num_gpus >= 1")
        _validate_expiry(self, self.recovery_at, "recovery")


ScenarioEvent = Union[FlashCrowd, SiteFailure, WanDegradation, GpuFailure]


@dataclass
class Scenario:
    """An ordered collection of scenario events on the fleet timeline."""

    events: List[ScenarioEvent] = field(default_factory=list)

    def validate(self, site_names: Collection[str]) -> None:
        """Fail fast on events naming a site that is not in ``site_names``."""
        known = set(site_names)
        for event in self.events:
            site = getattr(event, "site", None)
            if site and site not in known:
                raise FleetError(
                    f"{type(event).__name__} names unknown site {site!r}; "
                    f"fleet sites are {sorted(known)}"
                )
