import pytest

from plexisim.aggregator import (
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
    islanding_domain,
)
from plexisim.csp import solve_csp
from plexisim.errors import StateError, TimingError, ValidationError
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

    def test_custom_domain_table(self):
        def table(res):
            return [SetpointAction(ActionType.IDLE, 0.0), *islanding_domain(res)]

        inst = build_csp(request(q=5.0), islanding_resources(), domain_table=table)
        sol = solve_csp(inst)
        assert sol is not None
        assert any(a.action is not ActionType.IDLE for a in sol.values())


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
        clock.advance(agg.bid_deadline_ticks * 1000 + 1)
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
