"""Flexibility aggregator engine: resource model, clearing, DR scheduling.

Models flexible resources as CSP variables whose domains are admissible
setpoint actions. A flexibility request is cleared against prosumer bids,
the winning resources are assembled into a constraint instance with one
high-order delivery constraint, and the solved assignment becomes a DR
schedule. After the service window every touched resource is restored to
its baseline operation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

from .clock import STEP_MS, SimClock
from .csp import Constraint, CspInstance, check_assignment, solve_csp
from .errors import StateError, TimingError, ValidationError
from .market import Bid, MarketResult, clear_market as _clear
from .workflow import Event, EventKind, WorkflowEngine, WorkflowState

logger = logging.getLogger(__name__)

# Bid deadlines count simulated seconds so they dwarf ledger batching delays
# yet stay well inside one 30-minute market step.
DEFAULT_BID_DEADLINE_TICKS = 100
TICK_MS = 1000


class ResourceKind(Enum):
    DG = "DG"
    HW = "HW"
    HVAC = "HVAC"
    ESS = "ESS"


class ActionType(Enum):
    OUTPUT_MAX = "OUTPUT_MAX"
    OFF = "OFF"
    DISCHARGE = "DISCHARGE"
    CHARGE = "CHARGE"
    ON = "ON"
    IDLE = "IDLE"


class RequestShape(Enum):
    SHED = "shed"
    SHIFT = "shift"
    SHAPE = "shape"
    SHIMMY = "shimmy"


class Direction(Enum):
    INCREASE_SUPPLY = "increase_supply"
    DECREASE_DEMAND = "decrease_demand"


# Which actions each resource kind admits.
_KIND_ACTIONS = {
    ResourceKind.DG: {ActionType.OUTPUT_MAX, ActionType.ON, ActionType.IDLE},
    ResourceKind.HW: {ActionType.OFF, ActionType.ON, ActionType.IDLE},
    ResourceKind.HVAC: {ActionType.OFF, ActionType.ON, ActionType.IDLE},
    ResourceKind.ESS: {ActionType.DISCHARGE, ActionType.CHARGE, ActionType.IDLE},
}


@dataclass(frozen=True)
class SetpointAction:
    action: ActionType
    level_kw: float = 0.0


@dataclass(frozen=True)
class FlexResource:
    resource_id: str
    kind: ResourceKind
    controllable: bool
    capacity_kw: float
    baseline_setpoint: SetpointAction
    owner: str

    def __post_init__(self):
        if self.capacity_kw <= 0:
            raise ValidationError(f"resource {self.resource_id}: capacity must be positive")
        validate_action(self, self.baseline_setpoint)


def validate_action(resource: FlexResource, action: SetpointAction) -> None:
    if action.action not in _KIND_ACTIONS[resource.kind]:
        raise ValidationError(
            f"{action.action.value} not admissible for {resource.kind.value} "
            f"resource {resource.resource_id}"
        )
    if abs(action.level_kw) > resource.capacity_kw + 1e-9:
        raise ValidationError(
            f"resource {resource.resource_id}: |level| exceeds capacity"
        )


def delivered_kw(resource: FlexResource, action: SetpointAction) -> float:
    """Flexibility contribution of one setpoint.

    Switching a load off sheds its baseline draw; generation and storage
    discharge contribute their own level. Charging and idling deliver none.
    """
    if action.action is ActionType.OUTPUT_MAX:
        return abs(action.level_kw)
    if action.action is ActionType.OFF:
        return abs(resource.baseline_setpoint.level_kw)
    if action.action is ActionType.DISCHARGE:
        return abs(action.level_kw)
    return 0.0


@dataclass(frozen=True)
class Window:
    start_step: int
    duration_steps: int

    def __post_init__(self):
        if self.duration_steps < 1:
            raise ValidationError("window duration must be at least one step")
        if self.start_step < 0:
            raise ValidationError("window start must be non-negative")

    @property
    def end_step(self) -> int:
        return self.start_step + self.duration_steps

    @property
    def start_ms(self) -> int:
        return self.start_step * STEP_MS

    @property
    def end_ms(self) -> int:
        return self.end_step * STEP_MS


@dataclass(frozen=True)
class FlexRequest:
    request_id: str
    window: Window
    shape: RequestShape
    quantity_kw: float
    direction: Direction
    incentive_per_kw: float
    issuer: str

    def __post_init__(self):
        if self.quantity_kw <= 0:
            raise ValidationError(f"request {self.request_id}: quantity must be positive")

    def to_payload(self) -> dict:
        return {
            "request_id": self.request_id,
            "window": {"start": self.window.start_step, "duration": self.window.duration_steps},
            "shape": self.shape.value,
            "quantity_kw": self.quantity_kw,
            "direction": self.direction.value,
            "incentive_per_kw": self.incentive_per_kw,
            "issuer": self.issuer,
        }


@dataclass
class Schedule:
    request_id: str
    assignment: dict                 # resource_id -> SetpointAction
    window: Window
    selected_bids: tuple
    total_cost: float

    def delivered_total(self, resources: dict) -> float:
        return sum(
            delivered_kw(resources[rid], act) for rid, act in self.assignment.items()
        )

    def to_record(self) -> dict:
        return {
            "request_id": self.request_id,
            "window": {"start": self.window.start_step, "duration": self.window.duration_steps},
            "assignment": {
                rid: {"action": act.action.value, "level_kw": act.level_kw}
                for rid, act in sorted(self.assignment.items())
            },
            "selected_bids": [b.bid_id for b in self.selected_bids],
            "total_cost": self.total_cost,
        }


# ---------------------------------------------------------------------------
# Pure operations
# ---------------------------------------------------------------------------

def islanding_domain(resource: FlexResource) -> list:
    """Hard-wired domain table for the grid-islanding service.

    Generation runs at maximum output, heat and HVAC loads switch off
    (shedding their baseline draw), and storage discharges at capacity.
    """
    if resource.kind is ResourceKind.DG:
        return [SetpointAction(ActionType.OUTPUT_MAX, resource.capacity_kw)]
    if resource.kind in (ResourceKind.HW, ResourceKind.HVAC):
        return [SetpointAction(ActionType.OFF, abs(resource.baseline_setpoint.level_kw))]
    return [SetpointAction(ActionType.DISCHARGE, resource.capacity_kw)]


def build_csp(
    req: FlexRequest,
    resources: Sequence[FlexResource],
    domain_table: Optional[Callable[[FlexResource], list]] = None,
) -> CspInstance:
    """Assemble the constraint instance for a request over chosen resources.

    One unary domain restriction per resource plus a single high-order
    constraint requiring the summed delivery to reach the quantity.
    """
    for r in resources:
        if not r.controllable:
            raise ValidationError(f"resource {r.resource_id} is not controllable")
    table = domain_table or islanding_domain
    by_id = {r.resource_id: r for r in resources}
    variables = sorted(by_id)
    domains = {}
    for rid in variables:
        actions = table(by_id[rid])
        for act in actions:
            validate_action(by_id[rid], act)
        domains[rid] = actions

    def enough(assignment: dict) -> bool:
        total = sum(delivered_kw(by_id[rid], act) for rid, act in assignment.items())
        return total >= req.quantity_kw - 1e-9

    quantity = Constraint(scope=tuple(variables), predicate=enough, name="delivery-quantity")
    return CspInstance(variables=variables, domains=domains, constraints=[quantity])


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

@dataclass
class _RequestCtx:
    request: FlexRequest
    workflow_id: str
    bids: list = field(default_factory=list)
    bid_deadline_ms: int = 0
    bidding_closed: bool = False
    clearing: Optional[MarketResult] = None
    instance: Optional[CspInstance] = None
    schedule: Optional[Schedule] = None
    applied: bool = False
    settled: bool = False


class DfAggregator:
    """Orchestrates the four-step trading workflow over registered resources."""

    def __init__(
        self,
        engine: WorkflowEngine,
        clock: SimClock,
        bid_deadline_ticks: int = DEFAULT_BID_DEADLINE_TICKS,
    ):
        self.engine = engine
        self.clock = clock
        self.bid_deadline_ticks = bid_deadline_ticks
        self.resources: dict[str, FlexResource] = {}
        self.setpoints: dict[str, SetpointAction] = {}
        self.requests: dict[str, _RequestCtx] = {}

    # -- resource registry --------------------------------------------------

    def register_resource(self, resource: FlexResource) -> None:
        if resource.resource_id in self.resources:
            raise ValidationError(f"resource {resource.resource_id!r} already registered")
        self.resources[resource.resource_id] = resource
        self.setpoints[resource.resource_id] = resource.baseline_setpoint

    def current_setpoint(self, resource_id: str) -> SetpointAction:
        return self.setpoints[resource_id]

    # -- step 1: request ------------------------------------------------------

    def create_flex_request(self, req: FlexRequest) -> Event:
        if req.request_id in self.requests:
            raise ValidationError(f"request {req.request_id!r} already exists")
        wf = self.engine.create_workflow([req.issuer])
        now = self.clock.now()
        ctx = _RequestCtx(
            request=req,
            workflow_id=wf.workflow_id,
            bid_deadline_ms=now + self.bid_deadline_ticks * TICK_MS,
        )
        self.requests[req.request_id] = ctx
        event = Event(EventKind.CREATE_FLEX_REQUEST, req.to_payload(), now)
        self.engine.advance(wf.workflow_id, event, publisher=req.issuer)
        return event

    # -- step 2: bidding --------------------------------------------------------

    def submit_bid(self, bid: Bid, request_id: str) -> Event:
        ctx = self._ctx(request_id)
        wf = self.engine.workflows[ctx.workflow_id]
        if wf.state is not WorkflowState.BIDDING or ctx.bidding_closed:
            raise StateError(f"bidding closed for request {request_id}")
        if self.clock.now() > ctx.bid_deadline_ms:
            ctx.bidding_closed = True
            raise StateError(f"bid deadline passed for request {request_id}")
        backing = 0.0
        for rid in bid.resource_ids:
            res = self.resources.get(rid)
            if res is None:
                raise ValidationError(f"bid {bid.bid_id} cites unknown resource {rid!r}")
            if not res.controllable:
                raise ValidationError(f"bid {bid.bid_id} cites uncontrollable resource {rid!r}")
            backing += res.capacity_kw
        if bid.offered_kw > backing + 1e-9:
            raise ValidationError(
                f"bid {bid.bid_id} offers {bid.offered_kw} kW over {backing} kW backing"
            )
        ctx.bids.append(bid)
        event = Event(EventKind.BID_OFFER, {"request_id": request_id, "bid_id": bid.bid_id,
                                            "offered_kw": bid.offered_kw,
                                            "price_per_kw": bid.price_per_kw},
                      self.clock.now())
        self.engine.advance(ctx.workflow_id, event, publisher=bid.prosumer_id)
        return event

    # -- step 3: clearing and scheduling ---------------------------------------

    def clear(self, request_id: str) -> Optional[MarketResult]:
        """Clear the market; success closes bidding, insufficiency leaves it open."""
        ctx = self._ctx(request_id)
        result = _clear(ctx.bids, ctx.request.quantity_kw)
        if result is None:
            logger.info("request %s: aggregate flexibility insufficient", request_id)
            return None
        ctx.clearing = result
        ctx.bidding_closed = True
        return result

    def build_instance(self, request_id: str) -> CspInstance:
        ctx = self._ctx(request_id)
        if ctx.clearing is None:
            raise StateError(f"market not cleared for request {request_id}")
        rids = sorted({rid for b in ctx.clearing.selected for rid in b.resource_ids})
        ctx.instance = build_csp(ctx.request, [self.resources[r] for r in rids])
        return ctx.instance

    def schedule_dr(self, assignment: dict, window: Window, request_id: str) -> Schedule:
        ctx = self._ctx(request_id)
        if ctx.instance is None:
            raise StateError(f"no constraint instance for request {request_id}")
        if not check_assignment(ctx.instance, assignment):
            raise ValidationError("assignment violates the request's constraints")
        if self.clock.now() > window.start_ms:
            raise ValidationError("schedule window starts in the past")
        schedule = Schedule(
            request_id=request_id,
            assignment=dict(assignment),
            window=window,
            selected_bids=ctx.clearing.selected,
            total_cost=ctx.clearing.total_cost,
        )
        ctx.schedule = schedule
        event = Event(EventKind.CREATE_DF_SCHEDULING, schedule.to_record(), self.clock.now())
        self.engine.advance(ctx.workflow_id, event)
        self._apply_due()
        return schedule

    # -- step 4: activation and settlement -----------------------------------------

    def activation_and_settlement(self, request_id: str) -> Event:
        """Restore baselines once the service window has elapsed.

        Monetary settlement happens outside this system; only the fulfilment
        event and the restoration are recorded.
        """
        ctx = self._ctx(request_id)
        if ctx.schedule is None:
            raise StateError(f"request {request_id} has no schedule")
        self._apply_due()
        if self.clock.now() < ctx.schedule.window.end_ms:
            raise TimingError(
                f"window for {request_id} ends at {ctx.schedule.window.end_ms} ms"
            )
        for rid in ctx.schedule.assignment:
            self.setpoints[rid] = self.resources[rid].baseline_setpoint
        ctx.settled = True
        event = Event(
            EventKind.ACTIVATION_SETTLEMENT,
            {"request_id": request_id, "fulfilled": True},
            self.clock.now(),
        )
        self.engine.advance(ctx.workflow_id, event)
        return event

    # -- plumbing ---------------------------------------------------------------

    def _apply_due(self) -> None:
        """Apply scheduled setpoints whose window has started."""
        now = self.clock.now()
        for ctx in self.requests.values():
            sched = ctx.schedule
            if sched is None or ctx.applied or ctx.settled:
                continue
            if now >= sched.window.start_ms:
                for rid, act in sched.assignment.items():
                    self.setpoints[rid] = act
                ctx.applied = True

    def tick(self) -> None:
        """Call after advancing the shared clock to apply due schedules."""
        self._apply_due()

    def run_request(self, req: FlexRequest, bids: Sequence[Bid]) -> Optional[Schedule]:
        """Steps 1-3 in one call: create, bid, clear, solve, schedule.

        Returns None when the market cannot cover the request.
        """
        self.create_flex_request(req)
        for bid in bids:
            self.submit_bid(bid, req.request_id)
        if self.clear(req.request_id) is None:
            return None
        inst = self.build_instance(req.request_id)
        assignment = solve_csp(inst)
        if assignment is None:
            return None
        return self.schedule_dr(assignment, req.window, req.request_id)

    def workflow_state(self, request_id: str) -> WorkflowState:
        ctx = self._ctx(request_id)
        return self.engine.workflows[ctx.workflow_id].state

    def _ctx(self, request_id: str) -> _RequestCtx:
        ctx = self.requests.get(request_id)
        if ctx is None:
            raise ValidationError(f"unknown request {request_id!r}")
        return ctx
