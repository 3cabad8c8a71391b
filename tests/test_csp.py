import itertools
import random

import pytest

from plexisim.csp import Constraint, CspInstance, check_assignment, solve_csp
from plexisim.errors import ValidationError


def enumerate_oracle(inst):
    """Exhaustive product enumeration, independent of the solver."""
    order = sorted(inst.variables, key=str)
    if not order:
        return {} if all(c.holds({}) for c in inst.constraints) else None
    for values in itertools.product(*(inst.domains[v] for v in order)):
        candidate = dict(zip(order, values))
        if all(c.holds(candidate) for c in inst.constraints):
            return candidate
    return None


class TestBasics:
    def test_no_constraints_takes_first_values(self):
        inst = CspInstance(["b", "a"], {"a": [2, 1], "b": [9, 8]}, [])
        assert solve_csp(inst) == {"a": 2, "b": 9}

    def test_empty_domain_unsat(self):
        inst = CspInstance(["x"], {"x": []}, [])
        assert solve_csp(inst) is None

    def test_zero_variables_trivially_sat(self):
        assert solve_csp(CspInstance([], {}, [])) == {}

    def test_zero_variables_with_failing_constraint(self):
        never = Constraint(scope=(), predicate=lambda a: False)
        assert solve_csp(CspInstance([], {}, [never])) is None

    def test_unary_constraint(self):
        odd = Constraint(scope=("x",), predicate=lambda a: a["x"] % 2 == 1)
        inst = CspInstance(["x"], {"x": [0, 2, 3, 4]}, [odd])
        assert solve_csp(inst) == {"x": 3}

    def test_binary_allowed_tuples(self):
        c = Constraint(scope=("x", "y"), allowed=frozenset({(1, 2), (2, 1)}))
        inst = CspInstance(["x", "y"], {"x": [0, 1, 2], "y": [0, 1, 2]}, [c])
        sol = solve_csp(inst)
        assert (sol["x"], sol["y"]) in {(1, 2), (2, 1)}

    def test_high_order_constraint(self):
        total = Constraint(
            scope=("x", "y", "z"), predicate=lambda a: sum(a.values()) >= 5
        )
        inst = CspInstance(
            ["x", "y", "z"], {v: [0, 1, 2] for v in "xyz"}, [total]
        )
        sol = solve_csp(inst)
        assert sol is not None and sum(sol.values()) >= 5

    def test_unsat_high_order(self):
        total = Constraint(scope=("x", "y"), predicate=lambda a: sum(a.values()) > 10)
        inst = CspInstance(["x", "y"], {"x": [0, 1], "y": [0, 1]}, [total])
        assert solve_csp(inst) is None

    def test_constraint_needs_one_relation_form(self):
        with pytest.raises(ValidationError):
            Constraint(scope=("x",))
        with pytest.raises(ValidationError):
            Constraint(scope=("x",), predicate=lambda a: True, allowed=frozenset())

    def test_scope_outside_variables_rejected(self):
        c = Constraint(scope=("ghost",), predicate=lambda a: True)
        with pytest.raises(ValidationError):
            solve_csp(CspInstance(["x"], {"x": [1]}, [c]))

    def test_deterministic(self):
        c = Constraint(scope=("x", "y"), predicate=lambda a: a["x"] != a["y"])
        inst = CspInstance(["x", "y"], {"x": [1, 2], "y": [1, 2]}, [c])
        assert solve_csp(inst) == solve_csp(inst) == {"x": 1, "y": 2}


def random_instance(rng, max_vars=8, max_domain=4, product_cap=20000):
    n = rng.randint(1, max_vars)
    variables = [f"v{i:02d}" for i in range(n)]
    domains = {v: list(range(rng.randint(1, max_domain))) for v in variables}
    # Keep enumeration affordable for the oracle.
    while _product(domains) > product_cap:
        v = rng.choice(variables)
        if len(domains[v]) > 1:
            domains[v] = domains[v][:-1]
    constraints = []
    for _ in range(rng.randint(1, max(2, n))):
        size = rng.choice([1, 1, 2, 2, 2, 3, min(4, n)])
        scope = tuple(rng.sample(variables, min(size, n)))
        if rng.random() < 0.5:
            full = list(itertools.product(*(domains[v] for v in scope)))
            p = rng.uniform(0.2, 0.9)
            allowed = frozenset(t for t in full if rng.random() < p)
            constraints.append(Constraint(scope=scope, allowed=allowed))
        else:
            m = rng.randint(2, 5)
            r = rng.randint(0, m - 1)
            coefs = {v: rng.randint(1, 3) for v in scope}
            constraints.append(
                Constraint(
                    scope=scope,
                    predicate=lambda a, coefs=coefs, m=m, r=r: (
                        sum(coefs[v] * a[v] for v in coefs) % m != r
                    ),
                )
            )
    return CspInstance(variables, domains, constraints)


def _product(domains):
    p = 1
    for d in domains.values():
        p *= max(1, len(d))
    return p


class TestOracleAgreement:
    def test_solver_matches_enumeration(self):
        rng = random.Random(7)
        sat = unsat = 0
        for _ in range(60):
            inst = random_instance(rng)
            expected = enumerate_oracle(inst)
            got = solve_csp(inst)
            assert got == expected
            if got is not None:
                assert check_assignment(inst, got)
                sat += 1
            else:
                unsat += 1
        assert sat > 0 and unsat > 0

    def test_returned_assignments_always_sound(self):
        rng = random.Random(11)
        for _ in range(40):
            inst = random_instance(rng)
            got = solve_csp(inst)
            if got is not None:
                assert check_assignment(inst, got)


class TestLargeInstances:
    """The shape the aggregator builds: one value per variable and one sum
    constraint over all of them, with more variables than the recursion
    limit allows frames."""

    N = 5000

    def sum_instance(self, at_least):
        variables = [f"r{i:05d}" for i in range(self.N)]
        total = Constraint(
            scope=tuple(variables), predicate=lambda a: sum(a.values()) >= at_least
        )
        return CspInstance(variables, {v: [1] for v in variables}, [total])

    def test_satisfiable(self):
        got = solve_csp(self.sum_instance(self.N))
        assert got is not None and len(got) == self.N
        assert set(got.values()) == {1}

    def test_unsatisfiable(self):
        assert solve_csp(self.sum_instance(self.N + 1)) is None
