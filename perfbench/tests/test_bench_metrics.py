"""Metric names and units, BENCHMARK.json, and failure counting."""

import json
import re

import pytest

import bootstrap
import workloads
from workloads import Ledger

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json() -> dict:
    with open(bootstrap.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_are_valid_and_unique():
    names = list(workloads.END_TO_END_UNITS) + list(workloads.per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    units = list(workloads.END_TO_END_UNITS.values()) + list(workloads.per_layer_units().values())
    for unit in units:
        assert UNIT.match(unit), unit


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_a_raising_operation_is_counted_and_the_run_goes_on():
    ledger = Ledger()

    def broken():
        raise ValueError("boom")

    result, seconds = ledger.call(broken)
    assert result is None and seconds >= 0.0
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "ValueError: boom" in ledger.messages[0]
    assert ledger.call(lambda: 7)[0] == 7
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_failed_checks_mark_their_operation_once():
    ledger = Ledger()
    ledger.call(lambda: 1)
    ledger.call(lambda: 2)
    assert ledger.check(True, "fine")
    assert not ledger.check(False, "wrong output")
    assert not ledger.check(False, "also wrong")
    assert not ledger.check(False, "earlier op", op=0)
    assert (ledger.attempted, ledger.failed) == (2, 2)
    ledger.merge(attempted=5, failed=1, messages=["elsewhere"])
    assert (ledger.attempted, ledger.failed) == (7, 3)


@pytest.mark.parametrize("probs, label, ok", [
    ([0.25, 0.25, 0.4, 0.1], 2, True),
    ([0.25, 0.25, 0.4, 0.1 + 1e-6], 2, False),
    ([0.5, -0.1, 0.5, 0.1], 0, False),
    ([float("nan"), 0.0, 1.0, 0.0], 2, False),
    ([0.25, 0.25, 0.4, 0.1], 0, False),
    ([0.5, 0.5], 0, False),
])
def test_predict_rows_are_checked(probs, label, ok):
    run = workloads.Run()
    run.ledger.call(lambda: None)
    assert workloads.check_row(run, label, probs, 4) is ok
    assert run.ledger.failed == (0 if ok else 1)
