"""Every input file is read strictly: ``plexisim`` exits 0, 1 or 2, exit 1
prints one ``error:`` line and no traceback, and no value is coerced.

One ``hypothesis`` test per input kind mutates a valid file at random
paths: a value swapped for one of another JSON type, a key dropped, a key
added, a number made non-finite, or the file truncated. A type swap, an
added key or a non-finite number must never exit 0, because every field a
reader reads has one JSON type and every object its exact key set. A
dropped key may be optional, and a truncated chain or CSV may still be a
valid shorter one, so those only have to keep the exit contract.
"""

import copy
import functools
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plexisim import jsonread as jr
from plexisim import telemetry
from plexisim.cli import demo_scenario, main

FUZZ = settings(max_examples=150, deadline=None)

# One sample of each JSON type, drawn to replace a value of another type.
JSON_VALUES = {
    "string": st.text(max_size=3),
    "number": st.integers(-3, 3) | st.floats(-1e3, 1e3),
    "bool": st.booleans(),
    "null": st.none(),
    "list": st.lists(st.integers(0, 2), max_size=2),
    "object": st.dictionaries(st.text("ab", max_size=2), st.integers(0, 2), max_size=2),
}
# Added keys are never a key any reader knows.
ADDED_KEYS = st.text("xyz", min_size=1, max_size=3).map(lambda k: "x-" + k)


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object"}[type(value)]


def paths(doc, prefix=()):
    """Every path into ``doc``, the root first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from paths(value, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced by ``value``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    at(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def json_mutations(draw, doc):
    """(mutated doc, must_fail) for one JSON mutation of ``doc``."""
    all_paths = list(paths(doc))
    kind = draw(st.sampled_from(("swap", "drop", "add", "non-finite")))
    if kind == "drop":
        members = [p for p in all_paths if p and isinstance(at(doc, p[:-1]), dict)]
        path = draw(st.sampled_from(members))
        mutated = copy.deepcopy(doc)
        del at(mutated, path[:-1])[path[-1]]
        return mutated, False
    if kind == "add":
        path = draw(st.sampled_from([p for p in all_paths if isinstance(at(doc, p), dict)]))
        key = draw(ADDED_KEYS)
        return replaced(doc, path, dict(at(doc, path), **{key: draw(JSON_VALUES["number"])})), \
            True
    if kind == "non-finite":
        numbers = [p for p in all_paths if json_type(at(doc, p)) == "number"]
        path = draw(st.sampled_from(numbers))
        return replaced(doc, path, draw(st.sampled_from((math.nan, math.inf, -math.inf)))), True
    path = draw(st.sampled_from(all_paths))
    other = draw(st.sampled_from(sorted(set(JSON_VALUES) - {json_type(at(doc, path))})))
    return replaced(doc, path, draw(JSON_VALUES[other])), True


def truncated(draw, text: str) -> str:
    return text[:draw(st.integers(0, len(text) - 1))]


def run_cli(argv, must_fail: bool) -> int:
    """Run ``plexisim`` in-process and check the exit contract."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])  # a traceback would raise here
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    if must_fail:
        assert code != 0, "a mutated input was accepted"
    return code


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


# -- the trade scenario ------------------------------------------------------

SCENARIO = demo_scenario()


@FUZZ
@given(data=st.data())
def test_mutated_scenario_keeps_the_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.json"
        if data.draw(st.booleans(), label="truncate"):
            cfg.write_text(truncated(data.draw, json.dumps(SCENARIO)), encoding="utf-8")
            must_fail = True  # a JSON object cut short is never JSON
        else:
            doc, must_fail = data.draw(json_mutations(SCENARIO), label="mutation")
            write_json(cfg, doc)
        run_cli(["trade", "--config", cfg, "--out", Path(tmp) / "t"], must_fail)


# -- the bench config ----------------------------------------------------------

BENCH_CONFIG = {
    "topology": {"nodes": [
        {"node_id": "e0", "tier": "edge", "service_rate_tps": 50, "link_delay_ms": 25.0},
        {"node_id": "f0", "tier": "fog", "service_rate_tps": 175.0, "link_delay_ms": 10},
    ]},
    "credential_models": {
        "nft": {"partial_key_bytes": 512, "verify_cost_factor": 1},
        "certificate": {"cert_bytes": 700.0, "tx_overhead_bytes": 256},
    },
}


@FUZZ
@given(data=st.data())
def test_mutated_bench_config_keeps_the_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "bench.json"
        if data.draw(st.booleans(), label="truncate"):
            cfg.write_text(truncated(data.draw, json.dumps(BENCH_CONFIG)), encoding="utf-8")
            must_fail = True
        else:
            doc, must_fail = data.draw(json_mutations(BENCH_CONFIG), label="mutation")
            write_json(cfg, doc)
        run_cli(["bench", "--rates", "40", "--duration", 11, "--config", cfg,
                 "--out", Path(tmp) / "b"], must_fail)


# -- the telemetry CSV ---------------------------------------------------------

@functools.cache
def dataset_rows() -> list:
    """The cells of a one-day synthetic telemetry CSV, header first."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        telemetry.write_dataset(path, telemetry.generate_synthetic(1, seed=3))
        return [line.split(",") for line in path.read_text().splitlines()]


# Cells no column reads: text, JSON spellings of other types, and numbers
# spelt as a Python literal only.
BAD_READINGS = st.sampled_from(("x", "", "true", "null", "[]", "{}", "1_0", " 1.0", "0x10"))
BAD_TIMES = st.sampled_from(("x", "", "3", "true", "2021-13-01T00:00:00"))
NON_FINITE = st.sampled_from(("nan", "inf", "-inf", "1e999", "Infinity"))


@st.composite
def csv_mutations(draw):
    """(CSV text, must_fail) for one mutation of the synthetic dataset."""
    rows = copy.deepcopy(dataset_rows())
    kind = draw(st.sampled_from(("swap", "drop", "add", "non-finite", "truncate")))
    row = draw(st.integers(1, len(rows) - 1))
    column = draw(st.integers(0, len(rows[0]) - 1))
    if kind == "swap":
        rows[row][column] = draw(BAD_TIMES if column == 0 else BAD_READINGS)
    elif kind == "non-finite":
        rows[row][max(column, 1)] = draw(NON_FINITE)
    elif kind == "drop":
        for r in rows:
            del r[column]
    elif kind == "add":
        for r in rows:
            r.insert(column, "extra" if r is rows[0] else "1.0")
    text = "".join(",".join(r) + "\n" for r in rows)
    if kind == "truncate":
        return truncated(draw, text), False
    return text, True


@FUZZ
@given(mutation=csv_mutations())
def test_mutated_dataset_keeps_the_exit_contract(mutation):
    text, must_fail = mutation
    with tempfile.TemporaryDirectory() as tmp:
        data, cfg = Path(tmp) / "d.csv", Path(tmp) / "attack.json"
        data.write_text(text, encoding="utf-8")
        write_json(cfg, {"dataset": str(data)})
        run_cli(["attack", "--config", cfg, "--out", Path(tmp) / "a"], must_fail)


# -- the saved chain -----------------------------------------------------------

@functools.cache
def saved_chain() -> list:
    """The block records of an ``enroll --n 2`` chain."""
    with tempfile.TemporaryDirectory() as tmp:
        assert run_cli(["enroll", "--n", 2, "--seed", 1, "--out", tmp], False) == 0
        lines = (Path(tmp) / "ledger.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines]


def chain_text(doc) -> str:
    """One JSON line per block, spaced as ``save_chain`` writes it, so a
    mutation is the only departure; a non-list root is a file of one line."""
    lines = doc if isinstance(doc, list) else [doc]
    return "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in lines)


def test_unmutated_chain_text_is_accepted():
    with tempfile.TemporaryDirectory() as tmp:
        registry = Path(tmp) / "ledger.jsonl"
        registry.write_text(chain_text(saved_chain()), encoding="utf-8")
        assert run_cli(["enroll", "--n", 1, "--seed", 2, "--registry", registry,
                        "--out", Path(tmp) / "o"], False) == 0


@FUZZ
@given(data=st.data())
def test_mutated_chain_keeps_the_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        registry = Path(tmp) / "ledger.jsonl"
        if data.draw(st.booleans(), label="truncate"):
            # Cut at a line end, this is the chain's prefix, which replays.
            registry.write_text(truncated(data.draw, chain_text(saved_chain())),
                                encoding="utf-8")
            must_fail = False
        else:
            doc, must_fail = data.draw(json_mutations(saved_chain()), label="mutation")
            registry.write_text(chain_text(doc), encoding="utf-8")
        # Another seed enrolls other devices, so a good chain takes them.
        run_cli(["enroll", "--n", 1, "--seed", 2, "--registry", registry,
                 "--out", Path(tmp) / "o"], must_fail)


# -- the typed reads themselves -------------------------------------------------

@pytest.mark.parametrize("kind, value", [
    (int, True), (int, 5.0), (int, "5"), (bool, 1), (bool, "true"), (str, None),
    (str, 5), (list, "ab"), (list, {}), (dict, []), (dict, None),
])
def test_of_refuses_every_other_type(kind, value):
    with pytest.raises(TypeError):
        jr.of(kind, value)


@pytest.mark.parametrize("value", [True, "1", None, math.nan, math.inf, -math.inf, 10 ** 400])
def test_number_refuses_non_numbers_and_non_finite(value):
    with pytest.raises(ValueError):
        jr.number(value)


@pytest.mark.parametrize("value, expected",
                         [(3, 3), (3.0, 3), (-0.0, 0), (2 ** 60 + 1, 2 ** 60 + 1)])
def test_whole_takes_integral_numbers(value, expected):
    got = jr.whole(value)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value", [1.5, True, "2", math.inf, math.nan])
def test_whole_refuses_the_rest(value):
    with pytest.raises(ValueError):
        jr.whole(value)


def test_obj_takes_exact_keys_and_optional_ones():
    keys, optional = frozenset({"a"}), frozenset({"b"})
    assert jr.obj({"a": 1}, keys, optional) == {"a": 1}
    assert jr.obj({"a": 1, "b": 2}, keys, optional) == {"a": 1, "b": 2}
    with pytest.raises(ValueError, match="missing key"):
        jr.obj({"b": 2}, keys, optional)
    with pytest.raises(ValueError, match="unknown key"):
        jr.obj({"a": 1, "c": 3}, keys, optional)
    with pytest.raises(TypeError):
        jr.obj([("a", 1)], keys, optional)
