import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plexisim import identity
from plexisim.aggregator import (
    BID_DEADLINE_MS,
    ActionType,
    Direction,
    FlexRequest,
    FlexResource,
    RequestShape,
    ResourceKind,
    SetpointAction,
    Window,
    build_csp,
    delivered_kw,
)
from plexisim.cli import build_stack
from plexisim.csp import solve_csp
from plexisim.errors import (
    AuthorizationError,
    RejectedTransactionError,
    StateError,
    TimingError,
    ValidationError,
)
from plexisim.market import Bid, clear_market
from plexisim.workflow import Actor, ActorRole, Topic, WorkflowState


def islanding_resources():
    return [
        FlexResource("dg-1", ResourceKind.DG, True, 5.0,
                     SetpointAction(ActionType.IDLE, 0.0), "pa"),
        FlexResource("hvac-1", ResourceKind.HVAC, True, 4.0,
                     SetpointAction(ActionType.ON, 3.0), "pa"),
        FlexResource("ess-1", ResourceKind.ESS, True, 4.0,
                     SetpointAction(ActionType.IDLE, 0.0), "pb"),
    ]


def request(q=10.0, window=Window(1, 1)):
    return FlexRequest("req-1", window, RequestShape.SHED, q,
                       Direction.INCREASE_SUPPLY, 4.0, "dso-1")


def setup_market(stack, resources=None):
    clock, anchor, ledger, engine, agg = stack
    for name, role, topic in [
        ("dso-1", ActorRole.DSO_TSO, Topic.DF_FULFILLED),
        ("pa", ActorRole.PROSUMER, Topic.FLEX_BID_REQUEST),
        ("pb", ActorRole.PROSUMER, Topic.FLEX_BID_REQUEST),
    ]:
        engine.register_actor(Actor(name, role, {topic}))
    for res in resources or islanding_resources():
        agg.register_resource(res)
        engine.register_actor(Actor(f"meter:{res.resource_id}", ActorRole.RESOURCE,
                                    {Topic.DF_SCHEDULING}))
    return agg


class TestTypes:
    def test_zero_quantity_rejected(self):
        with pytest.raises(ValidationError):
            request(q=0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValidationError):
            Window(0, 0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValidationError):
            FlexResource("x", ResourceKind.DG, True, 0.0,
                         SetpointAction(ActionType.IDLE, 0.0), "p")

    def test_action_kind_compatibility(self):
        dg = islanding_resources()[0]
        with pytest.raises(ValidationError):
            FlexResource("x", ResourceKind.DG, True, 5.0,
                         SetpointAction(ActionType.OFF, 0.0), "p")
        with pytest.raises(ValidationError):
            # Level beyond capacity.
            FlexResource("x", ResourceKind.DG, True, 5.0,
                         SetpointAction(ActionType.OUTPUT_MAX, 9.0), "p")
        assert delivered_kw(dg, SetpointAction(ActionType.OUTPUT_MAX, 5.0)) == 5.0

    @pytest.mark.parametrize("make", [
        lambda: FlexResource(5, ResourceKind.DG, True, 5.0,
                             SetpointAction(ActionType.IDLE, 0.0), "p"),
        lambda: FlexResource("x", ResourceKind.DG, True, 5.0,
                             SetpointAction(ActionType.IDLE, 0.0), None),
        lambda: FlexResource("x", ResourceKind.DG, True, math.inf,
                             SetpointAction(ActionType.IDLE, 0.0), "p"),
        lambda: FlexResource("x", ResourceKind.ESS, True, 5.0,
                             SetpointAction(ActionType.CHARGE, math.nan), "p"),
        lambda: FlexRequest(["r"], Window(1, 1), RequestShape.SHED, 1.0,
                            Direction.INCREASE_SUPPLY, 4.0, "dso-1"),
        lambda: FlexRequest("r", Window(1, 1), RequestShape.SHED, math.nan,
                            Direction.INCREASE_SUPPLY, 4.0, "dso-1"),
        lambda: FlexRequest("r", Window(1, 1), RequestShape.SHED, 1.0,
                            Direction.INCREASE_SUPPLY, math.inf, "dso-1"),
        lambda: Bid(1, "pa", 1.0, 1.0),
        lambda: Bid("A", "pa", 1.0, 1.0, (2,)),
        lambda: Bid("A", "pa", math.inf, 1.0),
        lambda: Bid("A", "pa", 1.0, math.nan),
    ])
    def test_non_string_ids_and_non_finite_numbers_rejected(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_delivered_accounting(self):
        dg, hvac, ess = islanding_resources()
        assert delivered_kw(hvac, SetpointAction(ActionType.OFF, 3.0)) == 3.0
        assert delivered_kw(ess, SetpointAction(ActionType.DISCHARGE, 4.0)) == 4.0
        assert delivered_kw(ess, SetpointAction(ActionType.CHARGE, 4.0)) == 0.0
        assert delivered_kw(dg, SetpointAction(ActionType.IDLE, 0.0)) == 0.0


class TestBuildCsp:
    def test_islanding_structure(self):
        inst = build_csp(request(), islanding_resources())
        assert inst.variables == ["dg-1", "ess-1", "hvac-1"]
        assert all(len(inst.domains[v]) == 1 for v in inst.variables)
        assert len(inst.constraints) == 1
        assert set(inst.constraints[0].scope) == set(inst.variables)
        # Domain table per kind.
        assert inst.domains["dg-1"][0].action is ActionType.OUTPUT_MAX
        assert inst.domains["hvac-1"][0].action is ActionType.OFF
        assert inst.domains["ess-1"][0].action is ActionType.DISCHARGE

    def test_islanding_solution_oracle(self):
        # Enumerating the 1x1x1 domain product: delivery 5+3+4=12 >= 10.
        inst = build_csp(request(q=10.0), islanding_resources())
        sol = solve_csp(inst)
        assert sol is not None
        total = sum(delivered_kw(r, sol[r.resource_id]) for r in islanding_resources())
        assert total == pytest.approx(12.0)

    def test_infeasible_quantity_unsat(self):
        inst = build_csp(request(q=13.0), islanding_resources())
        assert solve_csp(inst) is None

    def test_empty_resources_unsat_for_positive_quantity(self):
        inst = build_csp(request(q=1.0), [])
        assert inst.variables == []
        assert solve_csp(inst) is None

    def test_uncontrollable_resource_rejected(self):
        bad = FlexResource("x", ResourceKind.DG, False, 5.0,
                           SetpointAction(ActionType.IDLE, 0.0), "p")
        with pytest.raises(ValidationError):
            build_csp(request(), [bad])


class TestWorkflowSteps:
    def test_create_publishes_to_prosumers(self, stack):
        agg = setup_market(stack)
        agg.create_flex_request(request())
        engine = stack[3]
        for p in ("pa", "pb"):
            notes = engine.actors[p].received(Topic.FLEX_BID_REQUEST)
            assert len(notes) == 1 and notes[0].payload["request_id"] == "req-1"

    def test_two_requests_two_workflows(self, stack):
        agg = setup_market(stack)
        agg.create_flex_request(request())
        second = FlexRequest("req-2", Window(1, 1), RequestShape.SHED, 2.0,
                             Direction.DECREASE_DEMAND, 1.0, "dso-1")
        agg.create_flex_request(second)
        ids = {ctx.workflow_id for ctx in agg.requests.values()}
        assert len(ids) == 2

    def test_bid_accepted_then_visible(self, stack):
        agg = setup_market(stack)
        agg.create_flex_request(request())
        agg.submit_bid(Bid("A", "pa", 6, 3, ("dg-1", "hvac-1")), "req-1")
        assert [b.bid_id for b in agg.requests["req-1"].bids] == ["A"]

    def test_bid_after_clearing_rejected(self, stack):
        agg = setup_market(stack)
        agg.create_flex_request(request(q=5.0))
        agg.submit_bid(Bid("A", "pa", 6, 3, ("dg-1", "hvac-1")), "req-1")
        assert agg.clear("req-1") is not None
        with pytest.raises(StateError):
            agg.submit_bid(Bid("B", "pb", 4, 2, ("ess-1",)), "req-1")

    def test_bid_after_deadline_rejected(self, stack):
        clock = stack[0]
        agg = setup_market(stack)
        agg.create_flex_request(request())
        clock.advance(BID_DEADLINE_MS + 1)
        with pytest.raises(StateError):
            agg.submit_bid(Bid("A", "pa", 6, 3, ("dg-1",)), "req-1")

    def test_over_capacity_bid_rejected(self, stack):
        agg = setup_market(stack)
        agg.create_flex_request(request())
        with pytest.raises(ValidationError):
            agg.submit_bid(Bid("A", "pa", 20, 3, ("dg-1",)), "req-1")

    def test_unknown_resource_bid_rejected(self, stack):
        agg = setup_market(stack)
        agg.create_flex_request(request())
        with pytest.raises(ValidationError):
            agg.submit_bid(Bid("A", "pa", 1, 3, ("ghost",)), "req-1")

    def test_clear_market_derived_example(self):
        bids = [Bid("A", "pa", 6, 3), Bid("B", "pb", 5, 2), Bid("C", "pc", 10, 6)]
        result = clear_market(bids, 10.0)
        assert result.bid_ids == ("A", "B") and result.total_cost == 28


class TestScheduleAndSettle:
    def run_to_schedule(self, stack, q=10.0):
        clock = stack[0]
        agg = setup_market(stack)
        req = request(q=q)
        agg.create_flex_request(req)
        agg.submit_bid(Bid("A", "pa", 6, 3, ("dg-1", "hvac-1")), "req-1")
        agg.submit_bid(Bid("B", "pb", 4, 2, ("ess-1",)), "req-1")
        assert agg.clear("req-1") is not None
        inst = agg.build_instance("req-1")
        assignment = solve_csp(inst)
        assert assignment is not None
        schedule = agg.schedule_dr(assignment, req.window, "req-1")
        return clock, agg, req, schedule

    def test_resources_receive_setpoints(self, stack):
        self.run_to_schedule(stack)
        engine = stack[3]
        for rid in ("dg-1", "hvac-1", "ess-1"):
            notes = engine.actors[f"meter:{rid}"].received(Topic.DF_SCHEDULING)
            assert len(notes) == 1
            assert rid in notes[0].payload["assignment"]

    def test_violating_assignment_rejected(self, stack):
        clock, agg, req, _ = self.run_to_schedule(stack)
        second = FlexRequest("req-2", Window(2, 1), RequestShape.SHED, 9.0,
                             Direction.INCREASE_SUPPLY, 4.0, "dso-1")
        agg.create_flex_request(second)
        agg.submit_bid(Bid("D", "pa", 6, 1, ("dg-1", "hvac-1")), "req-2")
        agg.submit_bid(Bid("E", "pb", 4, 1, ("ess-1",)), "req-2")
        agg.clear("req-2")
        agg.build_instance("req-2")
        lazy = {"dg-1": SetpointAction(ActionType.IDLE, 0.0),
                "hvac-1": SetpointAction(ActionType.ON, 3.0),
                "ess-1": SetpointAction(ActionType.IDLE, 0.0)}
        with pytest.raises(ValidationError):
            agg.schedule_dr(lazy, second.window, "req-2")

    def test_past_window_rejected(self, stack):
        clock, agg, req, _ = self.run_to_schedule(stack)
        clock.advance_to(Window(3, 1).start_ms + 1)
        second = FlexRequest("req-2", Window(3, 1), RequestShape.SHED, 5.0,
                             Direction.INCREASE_SUPPLY, 4.0, "dso-1")
        agg.create_flex_request(second)
        agg.submit_bid(Bid("D", "pa", 6, 1, ("dg-1", "hvac-1")), "req-2")
        agg.clear("req-2")
        inst = agg.build_instance("req-2")
        assignment = solve_csp(inst)
        with pytest.raises(ValidationError):
            agg.schedule_dr(assignment, second.window, "req-2")

    def test_setpoints_applied_inside_window(self, stack):
        clock, agg, req, schedule = self.run_to_schedule(stack)
        clock.advance_to(req.window.start_ms)
        agg.tick()
        assert agg.current_setpoint("dg-1").action is ActionType.OUTPUT_MAX
        assert agg.current_setpoint("hvac-1").action is ActionType.OFF
        assert agg.current_setpoint("ess-1").action is ActionType.DISCHARGE

    def test_settlement_before_window_end_rejected(self, stack):
        clock, agg, req, _ = self.run_to_schedule(stack)
        clock.advance_to(req.window.start_ms + 10)
        agg.tick()
        with pytest.raises(TimingError):
            agg.activation_and_settlement("req-1")

    def test_settlement_restores_baselines(self, stack):
        clock, agg, req, schedule = self.run_to_schedule(stack)
        clock.advance_to(req.window.end_ms)
        agg.tick()
        agg.activation_and_settlement("req-1")
        for res in islanding_resources():
            assert agg.current_setpoint(res.resource_id) == res.baseline_setpoint
        assert agg.workflow_state("req-1") is WorkflowState.FULFILLED

    def test_issuer_receives_fulfilled(self, stack):
        clock, agg, req, _ = self.run_to_schedule(stack)
        clock.advance_to(req.window.end_ms)
        agg.activation_and_settlement("req-1")
        engine = stack[3]
        notes = engine.actors["dso-1"].received(Topic.DF_FULFILLED)
        assert len(notes) == 1 and notes[0].payload["request_id"] == "req-1"

    def test_run_request_convenience(self, stack):
        agg = setup_market(stack)
        req = request(q=10.0)
        bids = [Bid("A", "pa", 6, 3, ("dg-1", "hvac-1")),
                Bid("B", "pb", 4, 2, ("ess-1",))]
        schedule = agg.run_request(req, bids)
        assert schedule is not None
        assert agg.workflow_state("req-1") is WorkflowState.SCHEDULED

    def test_run_request_unsat_returns_none(self, stack):
        agg = setup_market(stack)
        schedule = agg.run_request(request(q=10.0), [Bid("B", "pb", 4, 2, ("ess-1",))])
        assert schedule is None
        assert agg.workflow_state("req-1") is WorkflowState.BIDDING

    def test_conservation(self, stack):
        _, agg, req, schedule = self.run_to_schedule(stack)
        resources = {r.resource_id: r for r in islanding_resources()}
        delivered = schedule.delivered_total(resources)
        assert delivered >= req.quantity_kw
        assert delivered <= sum(r.capacity_kw for r in resources.values())
        by_level = sum(abs(a.level_kw) for a in schedule.assignment.values())
        assert delivered == pytest.approx(by_level)

    def test_second_settlement_rejected_inside_a_later_window(self, stack):
        clock, agg, req, _ = self.run_to_schedule(stack)
        clock.advance_to(req.window.end_ms)
        agg.activation_and_settlement("req-1")
        later = FlexRequest("req-2", Window(3, 1), RequestShape.SHED, 4.0,
                            Direction.INCREASE_SUPPLY, 4.0, "dso-1")
        agg.create_flex_request(later)
        agg.submit_bid(Bid("E", "pb", 4, 2, ("ess-1",)), "req-2")
        agg.clear("req-2")
        agg.schedule_dr(solve_csp(agg.build_instance("req-2")), later.window, "req-2")
        clock.advance_to(later.window.start_ms)
        agg.tick()
        live = dict(agg.setpoints)
        assert live["ess-1"].action is ActionType.DISCHARGE
        with pytest.raises(StateError):
            agg.activation_and_settlement("req-1")
        assert agg.setpoints == live

    def test_rejected_second_schedule_keeps_the_recorded_one(self, stack):
        clock, agg, req, schedule = self.run_to_schedule(stack)
        with pytest.raises(StateError):
            agg.schedule_dr(schedule.assignment, Window(5, 1), "req-1")
        assert agg.requests["req-1"].schedule is schedule
        clock.advance_to(req.window.start_ms)
        agg.tick()
        assert agg.current_setpoint("dg-1").action is ActionType.OUTPUT_MAX
        clock.advance_to(req.window.end_ms)
        agg.activation_and_settlement("req-1")
        assert agg.workflow_state("req-1") is WorkflowState.FULFILLED


def revoke_contract(stack):
    _, _, ledger, engine, _ = stack
    ledger.set_flag(engine.actors["dfasc"].token_id, "revoked", engine.contract_key)


class TestRecordBeforeMutate:
    """A step whose event the ledger rejects leaves no trace in the aggregator."""

    def test_unrecorded_request_is_not_registered(self, stack):
        agg = setup_market(stack)
        revoke_contract(stack)
        with pytest.raises(RejectedTransactionError):
            agg.create_flex_request(request())
        assert agg.requests == {}

    def test_unrecorded_request_leaves_no_workflow(self, stack):
        _, anchor, ledger, engine, _ = stack
        agg = setup_market(stack)
        revoke_contract(stack)
        with pytest.raises(RejectedTransactionError):
            agg.create_flex_request(request())
        assert engine.workflows == {}
        # Under a live contract key, the next request gets the first id.
        engine.contract_key, _ = identity.enroll(identity.make_device("dfasc-2", seed=98),
                                                 owner_id="dfasc", anchor=anchor,
                                                 registry=ledger)
        agg.create_flex_request(request())
        assert list(engine.workflows) == ["wf-0001"]
        assert agg.requests["req-1"].workflow_id == "wf-0001"

    def test_unrecorded_bid_does_not_count_at_clearing(self, stack):
        agg = setup_market(stack)
        agg.create_flex_request(request(q=4.0))
        revoke_contract(stack)
        with pytest.raises(RejectedTransactionError):
            agg.submit_bid(Bid("B", "pb", 4, 2, ("ess-1",)), "req-1")
        assert agg.requests["req-1"].bids == []
        assert agg.clear("req-1") is None


def assert_rejected(stack, bid, error):
    """Submitting ``bid`` to req-1 raises ``error`` and records nothing."""
    ledger, agg = stack[2], stack[4]
    height, bids = ledger.height, list(agg.requests["req-1"].bids)
    with pytest.raises(error):
        agg.submit_bid(bid, "req-1")
    assert ledger.height == height
    assert agg.requests["req-1"].bids == bids


class TestBidAdmission:
    def test_repeated_bid_id_rejected(self, stack):
        agg = setup_market(stack)
        agg.create_flex_request(request(q=4.0))
        agg.submit_bid(Bid("A", "pa", 5, 3, ("dg-1",)), "req-1")
        assert_rejected(stack, Bid("A", "pb", 4, 2, ("ess-1",)), ValidationError)
        assert agg.clear("req-1").bid_ids == ("A",)

    def test_resource_cited_twice_rejected(self, stack):
        agg = setup_market(stack)
        agg.create_flex_request(request(q=10.0))
        agg.submit_bid(Bid("A", "pa", 5, 3, ("dg-1",)), "req-1")
        # Counted twice, dg-1 would back a 10 kW cover that delivers 5 kW.
        assert_rejected(stack, Bid("B", "pa", 5, 2, ("dg-1",)), ValidationError)
        assert_rejected(stack, Bid("C", "pa", 6, 1, ("hvac-1", "hvac-1")), ValidationError)
        assert agg.clear("req-1") is None
        assert agg.workflow_state("req-1") is WorkflowState.BIDDING

    def test_offer_backed_by_islanding_delivery_not_capacity(self, stack):
        agg = setup_market(stack)
        agg.create_flex_request(request(q=3.0))
        # hvac-1 has 4 kW of capacity but switching it off sheds its 3 kW baseline.
        assert_rejected(stack, Bid("A", "pa", 4, 1, ("hvac-1",)), ValidationError)
        agg.submit_bid(Bid("B", "pa", 3, 1, ("hvac-1",)), "req-1")
        assert agg.clear("req-1") is not None
        assert solve_csp(agg.build_instance("req-1")) is not None

    def test_bid_on_another_prosumers_resource_rejected(self, stack):
        agg = setup_market(stack)
        agg.create_flex_request(request(q=4.0))
        assert_rejected(stack, Bid("A", "pa", 4, 1, ("ess-1",)), AuthorizationError)
        assert_rejected(stack, Bid("B", "pb", 4, 1, ("ess-1", "dg-1")), AuthorizationError)


OWNERS = ("pa", "pb")
RESOURCES = st.lists(
    st.tuples(st.sampled_from(list(ResourceKind)), st.floats(0.5, 10), st.floats(0, 1),
              st.sampled_from(OWNERS)),
    min_size=2, max_size=8)
# (bid id, bidder owns its first resource, offer as a share of cited capacity,
# price, cited resource indices)
BIDS = st.lists(
    st.tuples(st.integers(0, 7), st.sampled_from([True, True, True, False]),
              st.floats(0.05, 1.2), st.floats(0, 10),
              st.lists(st.integers(0, 7), min_size=1, max_size=2)),
    max_size=8)


@settings(max_examples=200, deadline=None)
@given(resources=RESOURCES, bids=BIDS, quantity_share=st.floats(0.02, 0.5))
def test_admitted_bids_that_clear_are_schedulable(resources, bids, quantity_share):
    """Whatever bids are offered, a cover of the admitted ones has a schedule."""
    agg = build_stack(1)[4]
    for i, (kind, capacity, load_share, owner) in enumerate(resources):
        baseline = (SetpointAction(ActionType.ON, capacity * load_share)
                    if kind in (ResourceKind.HW, ResourceKind.HVAC)
                    else SetpointAction(ActionType.IDLE, 0.0))
        agg.register_resource(FlexResource(f"r{i}", kind, True, capacity, baseline, owner))
    total = sum(r.capacity_kw for r in agg.resources.values())
    agg.create_flex_request(request(q=total * quantity_share))
    for bid_no, owns, offer_share, price, picks in bids:
        cited = [agg.resources[f"r{j % len(resources)}"] for j in picks]
        prosumer = cited[0].owner if owns else next(o for o in OWNERS if o != cited[0].owner)
        offered = offer_share * sum(r.capacity_kw for r in cited)
        bid = Bid(f"b{bid_no}", prosumer, offered, price, tuple(r.resource_id for r in cited))
        try:
            agg.submit_bid(bid, "req-1")
        except (ValidationError, AuthorizationError):
            continue
    if agg.clear("req-1") is not None:
        assert solve_csp(agg.build_instance("req-1")) is not None
