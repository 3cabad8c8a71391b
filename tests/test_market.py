import itertools
import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plexisim import market
from plexisim.aggregator import (
    ActionType,
    Direction,
    FlexRequest,
    FlexResource,
    RequestShape,
    ResourceKind,
    SetpointAction,
    Window,
)
from plexisim.errors import ValidationError
from plexisim.market import Bid, clear_market
from plexisim.workflow import Actor, ActorRole, Topic


def brute_force(bids, quantity):
    """Enumerate every subset; the cheapest cover or None."""
    best = None
    for r in range(len(bids) + 1):
        for combo in itertools.combinations(bids, r):
            if sum(b.offered_kw for b in combo) >= quantity:
                cost = sum(b.offered_kw * b.price_per_kw for b in combo)
                if best is None or cost < best:
                    best = cost
    return best


def reference_exact(bids, quantity):
    """The former exact solver, kept as a reference: branch and bound in
    bid-id order that prunes on the cost spent so far. Returns the bids of
    the lexicographic minimum of (cost, id tuple) over all covers, or None."""
    pool = sorted(bids, key=lambda b: b.bid_id)
    if sum(b.offered_kw for b in pool) < quantity:
        return None
    n = len(pool)
    suffix_kw = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_kw[i] = suffix_kw[i + 1] + pool[i].offered_kw
    best = []

    def descend(i, kw, cost, chosen):
        if kw >= quantity:
            key = (cost, tuple(b.bid_id for b in chosen))
            if not best or key < (best[0], best[1]):
                best[:] = [key[0], key[1], list(chosen)]
            return
        if i == n or kw + suffix_kw[i] < quantity:
            return
        if best and cost > best[0]:
            return
        chosen.append(pool[i])
        descend(i + 1, kw + pool[i].offered_kw, cost + pool[i].cost, chosen)
        chosen.pop()
        descend(i + 1, kw, cost, chosen)

    descend(0, 0.0, 0.0, [])
    return best[2] if best else None


def reference_greedy(bids, quantity):
    """The former large-pool fallback, kept as a reference: cheapest price
    first until covered, then drop redundant bids costliest first."""
    chosen, kw = [], 0.0
    for bid in sorted(bids, key=lambda b: (b.price_per_kw, b.bid_id)):
        chosen.append(bid)
        kw += bid.offered_kw
        if kw >= quantity:
            break
    if kw < quantity:
        return None
    for bid in sorted(chosen, key=lambda b: (-b.cost, b.bid_id)):
        if kw - bid.offered_kw >= quantity:
            chosen.remove(bid)
            kw -= bid.offered_kw
    return sorted(chosen, key=lambda b: b.bid_id)


def tie_heavy_bids(rng, n, prefix="b"):
    """Offers and prices from small sets, zero prices included, so equal-cost
    covers are common and the tie-break decides. Prices such as 0.1 are not
    exact binary fractions, so sums of equal cost in different orders can
    differ in the last bit."""
    return [Bid(f"{prefix}{i:04d}", f"p{i}", rng.choice((1, 2, 2.5, 3, 4, 5)),
                rng.choice((0, 0, 0.1, 0.3, 0.5, 0.7, 1, 1.5, 2.25)))
            for i in range(n)]


def assert_valid_cover(result, bids, quantity):
    offered = {b.bid_id: b for b in bids}
    assert len(set(result.bid_ids)) == len(result.bid_ids)
    assert all(offered[b.bid_id] == b for b in result.selected)
    assert result.bid_ids == tuple(sorted(result.bid_ids))
    assert result.total_kw == sum(b.offered_kw for b in result.selected) >= quantity
    assert result.total_cost == sum(b.cost for b in result.selected)


class TestExamples:
    def test_three_bid_example(self):
        # Covering subsets of q=10: {A,B}=28, {C}=60, supersets cost more.
        bids = [Bid("A", "pa", 6, 3), Bid("B", "pb", 5, 2), Bid("C", "pc", 10, 6)]
        assert brute_force(bids, 10) == 28
        result = clear_market(bids, 10)
        assert result.bid_ids == ("A", "B")
        assert result.total_cost == 28

    def test_forced_single_zero_price(self):
        result = clear_market([Bid("only", "p", 1, 0)], 1)
        assert result.bid_ids == ("only",) and result.total_cost == 0

    def test_insufficient_supply_unsat(self):
        bids = [Bid("A", "pa", 5, 1), Bid("B", "pb", 3, 1)]
        assert clear_market(bids, 10) is None

    def test_tie_break_lexicographic(self):
        # Two equal-cost covers; the lexicographically smaller id set wins.
        bids = [Bid("a", "p", 10, 1), Bid("b", "p", 10, 1)]
        assert clear_market(bids, 10).bid_ids == ("a",)

    def test_zero_quantity_rejected(self):
        with pytest.raises(ValidationError):
            clear_market([Bid("A", "p", 1, 1)], 0)

    def test_duplicate_bid_ids_rejected(self):
        with pytest.raises(ValidationError):
            clear_market([Bid("A", "p", 1, 1), Bid("A", "q", 2, 2)], 1)

    def test_bid_invariants(self):
        with pytest.raises(ValidationError):
            Bid("A", "p", 0, 1)
        with pytest.raises(ValidationError):
            Bid("A", "p", 1, -0.5)


class TestOracleAgreement:
    def test_exact_matches_brute_force(self):
        rng = random.Random(3)
        sat = unsat = 0
        for _ in range(60):
            n = rng.randint(1, 12)
            bids = [
                Bid(f"b{i:02d}", f"p{i}", rng.randint(1, 10),
                    round(rng.uniform(0, 5), 2))
                for i in range(n)
            ]
            q = round(rng.uniform(0.3, 1.15) * sum(b.offered_kw for b in bids), 1)
            q = max(q, 0.5)
            expected = brute_force(bids, q)
            got = clear_market(bids, q)
            if expected is None:
                assert got is None
                unsat += 1
            else:
                assert got is not None
                assert got.total_cost == pytest.approx(expected, abs=1e-9)
                assert got.total_kw >= q
                sat += 1
        assert sat > 0 and unsat > 0

    def test_matches_reference_exact_on_tie_heavy_instances(self):
        rng = random.Random(17)
        sat = unsat = 0
        for _ in range(1200):
            bids = tie_heavy_bids(rng, rng.randint(1, 20))
            offered = sum(b.offered_kw for b in bids)
            q = max(0.5, round(rng.uniform(0.2, 1.05) * offered * 2) / 2)
            expected = reference_exact(bids, q)
            got = clear_market(bids, q)
            if expected is None:
                assert got is None
                unsat += 1
                continue
            assert got.exact is True
            assert got.bid_ids == tuple(b.bid_id for b in expected)
            assert got.total_cost == sum(b.cost for b in expected)
            sat += 1
        assert sat > 1000 and unsat > 0

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 10), st.integers(0, 8)), min_size=1,
                    max_size=10),
           st.floats(0.05, 1.2))
    def test_cost_equals_brute_force(self, offers, share):
        bids = [Bid(f"h{i}", "p", kw, price / 4) for i, (kw, price) in enumerate(offers)]
        q = max(0.25, share * sum(b.offered_kw for b in bids))
        expected = brute_force(bids, q)
        got = clear_market(bids, q)
        if expected is None:
            assert got is None
        else:
            assert got.exact and got.total_kw >= q
            assert got.total_cost == pytest.approx(expected, abs=1e-9)


class TestLargePools:
    def test_never_costlier_than_the_greedy_cover(self):
        rng = random.Random(21)
        for n in [*range(21, 41), *range(50, 201, 25)]:
            bids = [Bid(f"L{i:03d}", f"p{i}", rng.randint(1, 10),
                        round(rng.uniform(0, 5), 2)) for i in range(n)]
            q = round(rng.uniform(0.3, 0.7) * sum(b.offered_kw for b in bids), 1)
            greedy = reference_greedy(bids, q)
            got = clear_market(bids, q)
            assert_valid_cover(got, bids, q)
            assert got.total_cost <= sum(b.cost for b in greedy)

    def test_budget_cut_returns_a_cover_without_recursion_error(self):
        bids = tie_heavy_bids(random.Random(5), 5000, prefix="x")
        q = 0.5 * sum(b.offered_kw for b in bids)
        result = clear_market(bids, q)
        assert result.exact is False
        assert_valid_cover(result, bids, q)
        greedy = reference_greedy(bids, q)
        assert result.total_cost <= sum(b.cost for b in greedy)

    def test_aggregator_logs_an_inexact_clear(self, stack, monkeypatch, caplog):
        _, _, _, engine, agg = stack
        engine.register_actor(Actor("dso-1", ActorRole.DSO_TSO, {Topic.DF_FULFILLED}))
        engine.register_actor(Actor("pa", ActorRole.PROSUMER, {Topic.FLEX_BID_REQUEST}))
        for rid in ("dg-1", "dg-2"):
            agg.register_resource(FlexResource(rid, ResourceKind.DG, True, 5.0,
                                               SetpointAction(ActionType.IDLE, 0.0), "pa"))
        agg.create_flex_request(FlexRequest("req-1", Window(1, 1), RequestShape.SHED, 8.0,
                                            Direction.INCREASE_SUPPLY, 4.0, "dso-1"))
        agg.submit_bid(Bid("A", "pa", 5, 3, ("dg-1",)), "req-1")
        agg.submit_bid(Bid("B", "pa", 5, 2, ("dg-2",)), "req-1")
        monkeypatch.setattr(market, "NODE_BUDGET", 1)
        with caplog.at_level(logging.INFO, logger="plexisim.aggregator"):
            result = agg.clear("req-1")
        assert result.exact is False and result.bid_ids == ("A", "B")
        assert any("req-1" in r.getMessage() and "node budget" in r.getMessage()
                   for r in caplog.records if r.levelno == logging.INFO)


class TestGreedy:
    def test_large_pool_uses_greedy_and_covers(self):
        rng = random.Random(9)
        bids = [
            Bid(f"g{i:02d}", f"p{i}", rng.randint(1, 8), round(rng.uniform(0.1, 4), 2))
            for i in range(30)
        ]
        q = 0.6 * sum(b.offered_kw for b in bids)
        result = clear_market(bids, q)
        assert result is not None
        assert result.total_kw >= q
        # No selected bid is redundant.
        for b in result.selected:
            assert result.total_kw - b.offered_kw < q

    def test_large_pool_unsat(self):
        bids = [Bid(f"g{i:02d}", "p", 1, 1) for i in range(25)]
        assert clear_market(bids, 26) is None
