"""Bid aggregation and market clearing for flexibility requests.

Bids are accepted whole (no partial fills). Clearing selects the subset of
bids that covers the requested quantity at the lowest total cost, where a
bid's cost is its per-kW price times its full offered quantity. Equal-cost
covers tie-break on the lexicographic bid id tuple.

One solver handles every instance: a depth-first branch and bound over the
bids in price order, seeded with the cheapest-first cover and pruned with
the fractional covering-knapsack LP bound (Martello & Toth, *Knapsack
Problems*, 1990). The search stops after ``NODE_BUDGET`` units of work; a
cover found within the budget is optimal (``MarketResult.exact``), one cut
short by it is the best found so far (``exact=False``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .errors import ValidationError

# Search nodes plus bids materialised at leaves before the solver gives up.
NODE_BUDGET = 200_000
# Float rounding in the LP bound, relative to the pool's cost scale, that
# pruning tolerates; larger than any rounding, so an equal-cost cover (which
# may win the tie-break) is never cut.
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class Bid:
    bid_id: str
    prosumer_id: str
    offered_kw: float
    price_per_kw: float
    resource_ids: tuple = ()

    def __post_init__(self):
        if not all(isinstance(i, str) for i in (self.bid_id, self.prosumer_id,
                                                 *self.resource_ids)):
            raise ValidationError(f"bid {self.bid_id!r}: ids must be strings")
        if not 0 < self.offered_kw < math.inf:
            raise ValidationError(f"bid {self.bid_id}: offered_kw must be positive and finite")
        if not 0 <= self.price_per_kw < math.inf:
            raise ValidationError(f"bid {self.bid_id}: price must be non-negative and finite")

    @property
    def cost(self) -> float:
        return self.offered_kw * self.price_per_kw


@dataclass(frozen=True)
class MarketResult:
    selected: tuple
    total_cost: float
    total_kw: float
    exact: bool = True


def clear_market(bids: Sequence[Bid], quantity_kw: float) -> Optional[MarketResult]:
    """Pick the cheapest whole-bid cover of ``quantity_kw``; None if unsat."""
    if not 0 < quantity_kw < math.inf:
        raise ValidationError("requested quantity must be positive and finite")
    pool = sorted(bids, key=lambda b: b.bid_id)
    if len({b.bid_id for b in pool}) != len(pool):
        raise ValidationError("duplicate bid ids")
    if sum(b.offered_kw for b in pool) < quantity_kw:
        return None
    best, exact = _solve(pool, quantity_kw)
    if best is None:
        return None
    total_cost, _, chosen = best
    return MarketResult(
        selected=tuple(chosen),
        total_cost=total_cost,
        total_kw=sum(b.offered_kw for b in chosen),
        exact=exact,
    )


def _cover_key(bids, quantity_kw: float):
    """(cost, id tuple) of ``bids`` in bid-id order, with the bids; None if no cover.

    Cost and kW are summed in bid-id order, as ``MarketResult`` reports them,
    so candidates found in price order compare on the reported figures.
    """
    chosen = sorted(bids, key=lambda b: b.bid_id)
    if sum(b.offered_kw for b in chosen) < quantity_kw:
        return None
    return sum(b.cost for b in chosen), tuple(b.bid_id for b in chosen), chosen


def _solve(pool: list, quantity_kw: float) -> tuple:
    """The ``_cover_key`` of the lexicographic minimum of (cost, id tuple) over
    all covers, and whether the search finished within ``NODE_BUDGET``."""
    order = sorted(pool, key=lambda b: (b.price_per_kw, b.bid_id))
    n = len(order)
    kws = [b.offered_kw for b in order]
    costs = [b.cost for b in order]
    prices = [b.price_per_kw for b in order]
    prefix_kw = list(accumulate(kws, initial=0.0))
    prefix_cost = list(accumulate(costs, initial=0.0))
    slack = BOUND_TOL * prefix_kw[n] * prices[-1]

    # Incumbent: cheapest first until covered, then drop the bids the cover
    # no longer needs, costliest first.
    first = []
    kw = 0.0
    for bid in order:
        first.append(bid)
        kw += bid.offered_kw
        if kw >= quantity_kw:
            break
    for bid in sorted(first, key=lambda b: (-b.cost, b.bid_id)):
        if kw - bid.offered_kw >= quantity_kw:
            first.remove(bid)
            kw -= bid.offered_kw
    best = _cover_key(first, quantity_kw)

    # Depth-first, including bid i before excluding it. A node is (next bid,
    # kW and cost so far, how many of ``chosen`` are its bids). A branch ends
    # at its first cover: adding later (no cheaper) bids cannot beat it.
    chosen: list = []
    stack = [(0, 0.0, 0.0, 0)]
    work = 0
    while stack:
        work += 1
        if work > NODE_BUDGET:
            return best, False
        i, kw, cost, depth = stack.pop()
        del chosen[depth:]
        # LP bound: fill the remaining kW fractionally from bids i.. in price
        # order; bids i..j-2 whole, bid j-1 in part.
        target = prefix_kw[i] + quantity_kw - kw
        j = bisect_left(prefix_kw, target, i)
        if j > n:
            continue
        limit = best[0] + slack if best else float("inf")
        bound = (cost + prefix_cost[j - 1] - prefix_cost[i]
                 + (target - prefix_kw[j - 1]) * prices[j - 1])
        if bound > limit:
            continue
        if i + 1 < n:
            stack.append((i + 1, kw, cost, depth))
        kw_in, cost_in = kw + kws[i], cost + costs[i]
        if kw_in < quantity_kw:
            chosen.append(order[i])
            stack.append((i + 1, kw_in, cost_in, depth + 1))
        elif cost_in <= limit:
            work += depth + 1
            cand = _cover_key(chosen + [order[i]], quantity_kw)
            if cand and (best is None or cand[:2] < best[:2]):
                best = cand
    return best, True
