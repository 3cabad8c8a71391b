"""Constraint model over enumerated domains and a backtracking solver.

Variables take values from finite per-variable domains; a constraint is a
scope plus either an explicit relation (set of admissible scope tuples) or
a predicate over the scope assignment. High-order scopes are supported.
The solver is one iterative loop of chronological backtracking. It visits
variables in lexicographic id order and values in domain list order, and
checks each constraint once per candidate value: when the last variable
of its scope is assigned. So it returns the first solution in (variable,
value) order, and needs no recursion however many variables there are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from .errors import ValidationError


@dataclass(frozen=True)
class Constraint:
    """Scope plus relation: explicit admissible tuples or a predicate."""

    scope: tuple
    predicate: Optional[Callable[[Mapping[str, Any]], bool]] = None
    allowed: Optional[frozenset] = None

    def __post_init__(self):
        if (self.predicate is None) == (self.allowed is None):
            raise ValidationError("constraint needs exactly one of predicate/allowed")

    def holds(self, assignment: Mapping[str, Any]) -> bool:
        """Evaluate on an assignment covering the whole scope."""
        if self.allowed is not None:
            return tuple(assignment[v] for v in self.scope) in self.allowed
        return bool(self.predicate({v: assignment[v] for v in self.scope}))


@dataclass
class CspInstance:
    variables: list
    domains: dict           # variable -> list of values, in value order
    constraints: list = field(default_factory=list)

    def validate(self) -> None:
        vars_set = set(self.variables)
        if len(vars_set) != len(self.variables):
            raise ValidationError("duplicate variables")
        for v in self.variables:
            if v not in self.domains:
                raise ValidationError(f"variable {v!r} has no domain")
        for c in self.constraints:
            if not set(c.scope) <= vars_set:
                raise ValidationError(f"constraint scope {c.scope} outside variables")


def check_assignment(inst: CspInstance, assignment: Mapping[str, Any]) -> bool:
    """Direct evaluation: total, in-domain, and no constraint violated."""
    for v in inst.variables:
        if v not in assignment:
            return False
        if assignment[v] not in inst.domains[v]:
            return False
    return all(c.holds(assignment) for c in inst.constraints)


def solve_csp(inst: CspInstance) -> Optional[dict]:
    """Return the first satisfying total assignment in (variable, value)
    order, or None when none exists."""
    inst.validate()
    order = sorted(inst.variables, key=str)
    domains = [list(inst.domains[v]) for v in order]
    position = {v: i for i, v in enumerate(order)}
    due: list = [[] for _ in order]   # constraints whose last scope variable is order[i]
    for c in inst.constraints:
        if c.scope:
            due[max(position[v] for v in c.scope)].append(c)
        elif not c.holds({}):
            return None

    assignment: dict = {}
    tried = [0] * len(order)          # values of domains[i] tried at position i
    i = 0
    while i < len(order):
        if tried[i] == len(domains[i]):
            assignment.pop(order[i], None)
            tried[i] = 0
            if i == 0:
                return None
            i -= 1
            continue
        assignment[order[i]] = domains[i][tried[i]]
        tried[i] += 1
        for c in due[i]:
            if not c.holds(assignment):
                break
        else:
            i += 1
    return assignment
