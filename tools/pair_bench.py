"""Alternating parent/change runs of the benchmark, folded into one JSON file.

Usage, from the root of a checkout:

    python3 tools/pair_bench.py PARENT CHANGE --workload eval-full --seeds 41-50 \
        --out BENCH_24.json [--workload train-conv ...] [--seconds 12] \
        [--claim eval-full:predict_inst_per_s] [--description TEXT] [--workdir DIR]

PARENT and CHANGE are git revisions.  Each is extracted with ``git archive``
into a plain directory, so neither side runs from a checkout that holds
``.git`` or test caches.  For every seed, both sides run
``perfbench/run.py --workload W --seed S --seconds X --trace 0``, the parent
first on the first, third, ... seed and the change first on the others.
The last line of each run's output is folded into ``--out`` in the layout
of ``BENCH_23.json``: per workload and end-to-end metric, every run, the
medians, the inclusive quartiles and the number of pairs the change won
(ties count for neither side).  An existing ``--out`` keeps its other
workloads and fields.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CLAIM_RULE = ("the change wins at least 9 of 10 pairs and its median gain exceeds "
              "the parent's quartile spread")
METHOD = ("parent and change each run from a plain copy of the tree (git archive); "
          "alternating pairs, the parent first on odd pairs (the first seed of each "
          "workload); medians and quartiles (inclusive method) over pairs; change_wins "
          "counts the pairs in which the change is better, ties counting for neither")


def _stat(x: float) -> float:
    return round(x, 6)


def fold(pairs, better: dict[str, str]) -> dict:
    """One workload's entry from ``pairs``, a list of (seed, parent line,
    change line), where a line is the JSON object a benchmark run prints
    last.  ``better`` maps each end-to-end metric to "higher" or "lower";
    other metrics are left out."""
    seeds = [seed for seed, _, _ in pairs]
    sides = {"parent": [p for _, p, _ in pairs], "change": [c for _, _, c in pairs]}
    metrics = {}
    for name, entry in sides["parent"][0]["metrics"].items():
        if name not in better:
            continue
        runs = {side: [line["metrics"][name]["value"] for line in lines]
                for side, lines in sides.items()}
        sign = 1.0 if better[name] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
        metrics[name] = {
            "unit": entry["unit"],
            "better": better[name],
            "parent_median": _stat(statistics.median(runs["parent"])),
            "change_median": _stat(statistics.median(runs["change"])),
            "change_wins": wins,
            **{f"{side}_quartiles": _quartiles(values) for side, values in runs.items()},
            **{f"{side}_runs": [_stat(v) for v in values] for side, values in runs.items()},
        }
    return {
        "seeds": seeds,
        "pairs": len(pairs),
        "failed": {side: sum(line["failed"] for line in lines) for side, lines in sides.items()},
        "correct": all(line["correct"] for lines in sides.values() for line in lines),
        "metrics": metrics,
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [_stat(values[0])] * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [_stat(q1), _stat(q3)]


def claim_met(metric: dict) -> bool:
    """Whether a folded metric meets ``CLAIM_RULE``: the change wins at
    least nine tenths of the pairs, and its median is better than the
    parent's by more than the parent's quartile spread."""
    pairs = len(metric["parent_runs"])
    sign = 1.0 if metric["better"] == "higher" else -1.0
    gain = sign * (metric["change_median"] - metric["parent_median"])
    spread = metric["parent_quartiles"][1] - metric["parent_quartiles"][0]
    return 10 * metric["change_wins"] >= 9 * pairs and gain > spread


def parse_seeds(text: str) -> list[int]:
    """"41-50" or "41,43,50-52" as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def _extract(revision: str, into: Path) -> None:
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", revision], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {revision} failed")


def _run(copy: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The (environment, result) lines of one benchmark run in ``copy``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        raise SystemExit(f"{copy.name} {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--description")
    parser.add_argument("--workdir", type=Path, help="where the two copies go (a temporary "
                        "directory by default); they are removed at the end")
    args = parser.parse_args(argv)

    revisions = {"parent": _git("rev-parse", "--short", args.parent),
                 "change": _git("rev-parse", "--short", args.change)}
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="pair_bench-", dir=args.workdir))
    try:
        copies = {side: root / side for side in revisions}
        for side, copy in copies.items():
            _extract(revisions[side], copy)
        spec = json.loads((copies["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        folded = {}
        for workload in args.workload:
            pairs = []
            for k, seed in enumerate(args.seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                lines = {}
                for side in order:
                    env, lines[side] = _run(copies[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side} {json.dumps(lines[side])}", flush=True)
                pairs.append((seed, lines["parent"], lines["change"]))
            folded[workload] = fold(pairs, better)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    out = {"description": "", "claim": None, "workloads": {}}
    if args.out.exists():
        out.update(json.loads(args.out.read_text(encoding="utf-8")))
    if args.description:
        out["description"] = args.description
    out.update({
        "parent": revisions["parent"], "change": revisions["change"],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0",
        "method": METHOD,
        "host": {"cores": env["nproc"], "python": env["python"], "numpy": env["numpy"],
                 "blas_threads": env["blas_threads"]},
    })
    out["workloads"].update(folded)
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        out["claim"] = {"workload": workload, "metric": metric, "rule": CLAIM_RULE}
    if out["claim"] and out["claim"]["workload"] in out["workloads"]:
        entry = out["workloads"][out["claim"]["workload"]]["metrics"][out["claim"]["metric"]]
        out["claim"]["met"] = claim_met(entry)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
