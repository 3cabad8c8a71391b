import pytest

from plexisim.errors import StateError, ValidationError
from plexisim.workflow import (
    Actor,
    ActorRole,
    Event,
    EventKind,
    Topic,
    WorkflowState,
)


def make_engine(stack):
    _, _, _, engine, _ = stack
    return engine


def ev(kind, t=0, payload=None):
    return Event(kind, payload or {}, t)


class TestTransitions:
    def test_created_plus_request_is_bidding(self, stack):
        engine = make_engine(stack)
        wf = engine.create_workflow()
        state = engine.advance(wf.workflow_id, ev(EventKind.CREATE_FLEX_REQUEST))
        assert state is WorkflowState.BIDDING

    def test_full_four_event_run(self, stack):
        # The canonical trace: one event of each kind, in step order,
        # finishing Fulfilled.
        engine = make_engine(stack)
        wf = engine.create_workflow()
        kinds = [
            EventKind.CREATE_FLEX_REQUEST,
            EventKind.BID_OFFER,
            EventKind.CREATE_DF_SCHEDULING,
            EventKind.ACTIVATION_SETTLEMENT,
        ]
        for kind in kinds:
            engine.advance(wf.workflow_id, ev(kind))
        assert wf.state is WorkflowState.FULFILLED
        assert [e.kind for e in wf.event_history] == kinds

    def test_terminal_state_rejects_everything(self, stack):
        engine = make_engine(stack)
        wf = engine.create_workflow()
        for kind in (EventKind.CREATE_FLEX_REQUEST, EventKind.BID_OFFER,
                     EventKind.CREATE_DF_SCHEDULING, EventKind.ACTIVATION_SETTLEMENT):
            engine.advance(wf.workflow_id, ev(kind))
        for kind in EventKind:
            with pytest.raises(StateError):
                engine.advance(wf.workflow_id, ev(kind))

    def test_illegal_first_event(self, stack):
        engine = make_engine(stack)
        wf = engine.create_workflow()
        with pytest.raises(StateError):
            engine.advance(wf.workflow_id, ev(EventKind.BID_OFFER))

    def test_bid_offer_loops_in_bidding(self, stack):
        engine = make_engine(stack)
        wf = engine.create_workflow()
        engine.advance(wf.workflow_id, ev(EventKind.CREATE_FLEX_REQUEST))
        for _ in range(3):
            assert engine.advance(wf.workflow_id, ev(EventKind.BID_OFFER)) is WorkflowState.BIDDING

    def test_monotone_state_index(self, stack):
        engine = make_engine(stack)
        wf = engine.create_workflow()
        seen = [wf.state.value]
        for kind in (EventKind.CREATE_FLEX_REQUEST, EventKind.BID_OFFER,
                     EventKind.CREATE_DF_SCHEDULING, EventKind.ACTIVATION_SETTLEMENT):
            engine.advance(wf.workflow_id, ev(kind))
            seen.append(wf.state.value)
        assert seen == sorted(seen)


class TestPubSub:
    def test_fan_out_count(self, stack):
        engine = make_engine(stack)
        for name in ("p1", "p2", "p3"):
            engine.register_actor(Actor(name, ActorRole.PROSUMER,
                                        {Topic.FLEX_BID_REQUEST}))
        assert engine.publish(Topic.FLEX_BID_REQUEST, {"q": 1}, "dso") == 3

    def test_zero_subscribers_no_error(self, stack):
        engine = make_engine(stack)
        assert engine.publish(Topic.DF_FULFILLED, {}, "dso") == 0

    def test_duplicate_subscribe_idempotent(self, stack):
        engine = make_engine(stack)
        engine.register_actor(Actor("p1", ActorRole.PROSUMER))
        engine.subscribe("p1", Topic.FLEX_BID_REQUEST)
        engine.subscribe("p1", Topic.FLEX_BID_REQUEST)
        assert engine.publish(Topic.FLEX_BID_REQUEST, {}, "dso") == 1
        assert len(engine.actors["p1"].received(Topic.FLEX_BID_REQUEST)) == 1

    def test_unknown_topic_rejected(self, stack):
        engine = make_engine(stack)
        engine.register_actor(Actor("p1", ActorRole.PROSUMER))
        with pytest.raises(ValidationError):
            engine.subscribe("p1", "weather")
        with pytest.raises(ValidationError):
            engine.publish("weather", {}, "dso")

    def test_unknown_actor_rejected(self, stack):
        engine = make_engine(stack)
        with pytest.raises(ValidationError):
            engine.subscribe("ghost", Topic.FLEX_BID_REQUEST)

    def test_delivery_in_subscription_order(self, stack):
        engine = make_engine(stack)
        order = []
        for name in ("z", "a", "m"):
            engine.register_actor(Actor(name, ActorRole.PROSUMER))
            engine.subscribe(name, Topic.BID_OFFER)
            order.append(name)
        engine.publish(Topic.BID_OFFER, {"n": 1}, "x")
        # Later subscriptions append; earlier ones (the contract) keep rank.
        assert engine.subscribers(Topic.BID_OFFER)[-3:] == order

    def test_exactly_once_per_publish(self, stack):
        engine = make_engine(stack)
        engine.register_actor(Actor("p1", ActorRole.PROSUMER, {Topic.DF_SCHEDULING}))
        engine.publish(Topic.DF_SCHEDULING, {"k": 1}, "dfasc")
        engine.publish(Topic.DF_SCHEDULING, {"k": 2}, "dfasc")
        inbox = engine.actors["p1"].received(Topic.DF_SCHEDULING)
        assert [n.payload["k"] for n in inbox] == [1, 2]


class TestLedgerParity:
    def test_event_history_matches_committed_txs(self, stack):
        _, _, ledger, engine, _ = stack
        wf = engine.create_workflow()
        kinds = [EventKind.CREATE_FLEX_REQUEST, EventKind.BID_OFFER,
                 EventKind.BID_OFFER, EventKind.CREATE_DF_SCHEDULING,
                 EventKind.ACTIVATION_SETTLEMENT]
        for kind in kinds:
            engine.advance(wf.workflow_id, ev(kind, t=ledger.clock.now()))
        committed = [e for e in ledger.state.event_log
                     if e["workflow_id"] == wf.workflow_id]
        assert len(committed) == len(wf.event_history) == len(kinds)
        assert [e["kind"] for e in committed] == [k.value for k in kinds]

    def test_subscriber_edit_leaves_the_committed_event(self, stack):
        _, _, ledger, engine, _ = stack
        engine.register_actor(Actor("p1", ActorRole.PROSUMER, {Topic.FLEX_BID_REQUEST}))
        wf = engine.create_workflow()
        engine.advance(wf.workflow_id, ev(EventKind.CREATE_FLEX_REQUEST, payload={"kw": 5}))
        (note,) = engine.actors["p1"].received(Topic.FLEX_BID_REQUEST)
        note.payload["kw"] = 500
        assert ledger.state.event_log[-1]["payload"] == {"kw": 5}
        assert ledger.replay() == ledger.state

    def test_topic_discipline(self, stack):
        # Each event kind maps to exactly its step's topic.
        _, _, _, engine, _ = stack
        wf = engine.create_workflow()
        engine.advance(wf.workflow_id, ev(EventKind.CREATE_FLEX_REQUEST))
        engine.advance(wf.workflow_id, ev(EventKind.CREATE_DF_SCHEDULING))
        engine.advance(wf.workflow_id, ev(EventKind.ACTIVATION_SETTLEMENT))
        topics = [t["notification_topic"] for t in engine.trace
                  if t["workflow_id"] == wf.workflow_id]
        assert topics == ["flex_bid_request", "df_scheduling", "df_fulfilled"]
