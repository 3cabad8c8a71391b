"""Event-driven trading workflow: state machine, actors, and notifications.

Each workflow walks Created -> Bidding -> Scheduled -> Fulfilled, driven by
four event kinds. Every advance is recorded on the ledger as an event
transaction and publishes the notification topic paired with that event.
Delivery is synchronous and exactly-once per subscriber, in subscription
order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .clock import SimClock
from .errors import StateError, ValidationError
from .identity import SigningKey
from .ledger import LedgerSim

logger = logging.getLogger(__name__)


class WorkflowState(Enum):
    CREATED = 0
    BIDDING = 1
    SCHEDULED = 2
    FULFILLED = 3


class EventKind(Enum):
    CREATE_FLEX_REQUEST = "CREATE_FLEX_REQUEST"
    BID_OFFER = "BID_OFFER"
    CREATE_DF_SCHEDULING = "CREATE_DF_SCHEDULING"
    ACTIVATION_SETTLEMENT = "ACTIVATION_SETTLEMENT"


class Topic(Enum):
    FLEX_BID_REQUEST = "flex_bid_request"
    BID_OFFER = "bid_offer"
    DF_SCHEDULING = "df_scheduling"
    DF_FULFILLED = "df_fulfilled"


class ActorRole(Enum):
    PROSUMER = "prosumer"
    DSO_TSO = "dso_tso"
    DFASC_CONTRACT = "dfasc_contract"
    RESOURCE = "resource"


# Legal transitions; BID_OFFER loops so several bids can land while bidding.
TRANSITIONS = {
    (WorkflowState.CREATED, EventKind.CREATE_FLEX_REQUEST): WorkflowState.BIDDING,
    (WorkflowState.BIDDING, EventKind.BID_OFFER): WorkflowState.BIDDING,
    (WorkflowState.BIDDING, EventKind.CREATE_DF_SCHEDULING): WorkflowState.SCHEDULED,
    (WorkflowState.SCHEDULED, EventKind.ACTIVATION_SETTLEMENT): WorkflowState.FULFILLED,
}

# Each event kind publishes exactly one topic.
EVENT_TOPIC = {
    EventKind.CREATE_FLEX_REQUEST: Topic.FLEX_BID_REQUEST,
    EventKind.BID_OFFER: Topic.BID_OFFER,
    EventKind.CREATE_DF_SCHEDULING: Topic.DF_SCHEDULING,
    EventKind.ACTIVATION_SETTLEMENT: Topic.DF_FULFILLED,
}


@dataclass
class Event:
    kind: EventKind
    payload: dict
    sim_time: int


@dataclass
class Notification:
    topic: Topic
    payload: dict
    publisher: str


@dataclass
class Actor:
    actor_id: str
    role: ActorRole
    subscriptions: set = field(default_factory=set)
    token_id: Optional[str] = None
    inbox: list = field(default_factory=list)

    def received(self, topic: Topic) -> list:
        return [n for n in self.inbox if n.topic is topic]


@dataclass
class Workflow:
    workflow_id: str
    state: WorkflowState = WorkflowState.CREATED
    event_history: list = field(default_factory=list)


class WorkflowEngine:
    """Dispatches events, records them on the ledger, fans out notifications."""

    def __init__(self, ledger: LedgerSim, clock: SimClock, contract_key: SigningKey):
        self.ledger = ledger
        self.clock = clock
        self.contract_key = contract_key
        self.actors: dict[str, Actor] = {}
        self._subs: dict[Topic, list[str]] = {t: [] for t in Topic}
        self.workflows: dict[str, Workflow] = {}
        self.trace: list[dict] = []

    # -- actors and pub/sub --------------------------------------------------

    def register_actor(self, actor: Actor) -> Actor:
        if actor.actor_id in self.actors:
            raise ValidationError(f"actor {actor.actor_id!r} already registered")
        self.actors[actor.actor_id] = actor
        for topic in sorted(actor.subscriptions, key=lambda t: t.value):
            self.subscribe(actor.actor_id, topic)
        return actor

    def subscribe(self, actor_id: str, topic: Topic) -> None:
        if not isinstance(topic, Topic):
            raise ValidationError(f"unknown topic {topic!r}")
        if actor_id not in self.actors:
            raise ValidationError(f"unknown actor {actor_id!r}")
        listeners = self._subs[topic]
        if actor_id not in listeners:
            listeners.append(actor_id)
        self.actors[actor_id].subscriptions.add(topic)

    def publish(self, topic: Topic, payload: dict, publisher: str) -> int:
        """Deliver to every current subscriber exactly once; returns count."""
        if not isinstance(topic, Topic):
            raise ValidationError(f"unknown topic {topic!r}")
        note = Notification(topic=topic, payload=payload, publisher=publisher)
        recipients = list(self._subs[topic])
        for actor_id in recipients:
            self.actors[actor_id].inbox.append(note)
        logger.debug("published %s to %d subscribers", topic.value, len(recipients))
        return len(recipients)

    def subscribers(self, topic: Topic) -> list:
        return list(self._subs[topic])

    # -- workflows -------------------------------------------------------------

    def create_workflow(self) -> Workflow:
        # Ids count the workflows held, so one dropped right after creation
        # frees its id for the next.
        wf = Workflow(workflow_id=f"wf-{len(self.workflows) + 1:04d}")
        self.workflows[wf.workflow_id] = wf
        return wf

    def advance(self, workflow_id: str, event: Event, publisher: str = "dfasc") -> WorkflowState:
        """Apply one event: transition, ledger record, then notification."""
        wf = self.workflows.get(workflow_id)
        if wf is None:
            raise ValidationError(f"unknown workflow {workflow_id!r}")
        nxt = TRANSITIONS.get((wf.state, event.kind))
        if nxt is None:
            raise StateError(
                f"{event.kind.value} illegal in state {wf.state.name} "
                f"for workflow {workflow_id}"
            )
        self.ledger.record_event(workflow_id, event.kind.value, event.payload, self.contract_key)
        wf.event_history.append(event)
        wf.state = nxt
        topic = EVENT_TOPIC[event.kind]
        recipients = self.subscribers(topic)
        self.publish(topic, event.payload, publisher)
        self.trace.append(
            {
                "sim_time": event.sim_time,
                "workflow_id": workflow_id,
                "event_kind": event.kind.value,
                "notification_topic": topic.value,
                "recipients": recipients,
            }
        )
        return wf.state
