"""``tools/pair_bench.py``'s fold of alternating benchmark runs, on hand-made
result lines."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pair_bench.py"
_SPEC = importlib.util.spec_from_file_location("pair_bench", _PATH)
pair_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pair_bench)

BETTER = {"predict_inst_per_s": "higher", "peak_rss_mb": "lower"}


def line(rate, rss, failed=0, extra=0.0):
    """A benchmark run's last line with two end-to-end metrics and one other."""
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"predict_inst_per_s": {"value": rate, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"},
                        "trace_overhead_frac": {"value": extra, "unit": "fraction"}}}


def test_fold_gives_medians_inclusive_quartiles_and_wins():
    parent = [80.0, 84.0, 82.0, 90.0, 86.0]
    change = [95.0, 84.0, 99.0, 89.0, 101.0]  # a tie, a loss, three wins
    rss = [(200.0, 201.0), (200.0, 199.5), (202.0, 202.0), (201.0, 200.0), (203.0, 204.0)]
    pairs = [(41 + k, line(p, r[0]), line(c, r[1]))
             for k, (p, c, r) in enumerate(zip(parent, change, rss))]
    entry = pair_bench.fold(pairs, BETTER)
    assert entry["seeds"] == [41, 42, 43, 44, 45]
    assert (entry["pairs"], entry["failed"], entry["correct"]) == (
        5, {"parent": 0, "change": 0}, True)
    assert set(entry["metrics"]) == set(BETTER)
    rate = entry["metrics"]["predict_inst_per_s"]
    assert rate["unit"] == "1/s" and rate["better"] == "higher"
    assert (rate["parent_median"], rate["change_median"]) == (84.0, 95.0)
    # inclusive method: sorted 80 82 84 86 90 -> 82 and 86
    assert rate["parent_quartiles"] == [82.0, 86.0]
    assert rate["change_quartiles"] == [89.0, 99.0]
    assert rate["change_wins"] == 3
    assert (rate["parent_runs"], rate["change_runs"]) == (parent, change)
    memory = entry["metrics"]["peak_rss_mb"]
    assert memory["change_wins"] == 2  # lower is better; the tie counts for neither
    assert memory["parent_quartiles"] == [200.0, 202.0]


def test_fold_sums_failures_and_a_failed_run_makes_it_incorrect():
    pairs = [(1, line(80.0, 200.0), line(81.0, 200.0, failed=2)),
             (2, line(82.0, 200.0, failed=1), line(83.0, 200.0))]
    entry = pair_bench.fold(pairs, BETTER)
    assert entry["failed"] == {"parent": 1, "change": 2}
    assert entry["correct"] is False


@pytest.mark.parametrize("change, met", [
    ([95.0] * 9 + [80.0], True),     # 9 of 10 wins, gain 11 against a spread of 3
    ([95.0] * 8 + [80.0] * 2, False),  # 8 of 10 wins
    ([86.5] * 10, False),            # every pair won, gain 2.5 within the spread of 3
])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gain_past_the_spread(change, met):
    parent = [82.0, 82.0, 82.0, 84.0, 84.0, 84.0, 84.0, 86.0, 86.0, 86.0]
    pairs = [(k, line(p, 200.0), line(c, 200.0)) for k, (p, c) in enumerate(zip(parent, change))]
    entry = pair_bench.fold(pairs, BETTER)
    assert pair_bench.claim_met(entry["metrics"]["predict_inst_per_s"]) is met


def test_seed_lists():
    assert pair_bench.parse_seeds("41-44") == [41, 42, 43, 44]
    assert pair_bench.parse_seeds("41,43,50-52") == [41, 43, 50, 51, 52]
