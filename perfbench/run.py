"""discrel benchmark: one seeded, single-process, closed-loop workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-conv --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of each discrel module, prints per-layer metrics and writes every
span to ``perfbench/.out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The run exits
non-zero without that line when it cannot measure every metric.
"""

import bootstrap

bootstrap.configure()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

bootstrap.check_program()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OVERHEAD_PAIRS = 2


def environment(seed: int, workload: str) -> dict:
    commit = None
    if (bootstrap.ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(bootstrap.ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((bootstrap.SRC / "discrel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": bootstrap.BLAS_THREADS, "nproc": len(os.sched_getaffinity(0))}


def trace_overhead(tracer: Tracer, reference) -> float:
    """Traced over untraced wall time of the reference operation, minus one."""
    seconds = {False: 0.0, True: 0.0}
    tracer.phase = "overhead"
    for i in range(2 * OVERHEAD_PAIRS):
        traced = i % 4 in (1, 2)  # untraced, traced, traced, untraced, ...
        if traced:
            workloads.install_tracer(tracer)
        else:
            tracer.uninstall()
        start = time.perf_counter()
        reference()
        seconds[traced] += time.perf_counter() - start
    tracer.uninstall()
    return seconds[True] / seconds[False] - 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    w = workloads.WORKLOADS[args.workload]
    env = environment(args.seed, w.name)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = HERE / ".work" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    run = workloads.Run(tracer)
    try:
        if tracer is not None:
            workloads.install_tracer(tracer)
        body = workloads.eval_workload if w.serves_restored_run else workloads.train_workload
        reference = body(w, workdir, args.seed, args.seconds, run)
        if tracer is not None:
            overhead = trace_overhead(tracer, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:
        for message in run.ledger.messages:
            print(f"failure {message}", file=sys.stderr)
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = run.ledger
    for message in ledger.messages:
        print(f"failure {message}")
    failed_frac = ledger.failed / ledger.attempted
    print(f"metric failed_frac {failed_frac:.6g} fraction "
          f"(failed={ledger.failed} attempted={ledger.attempted})")
    if tracer is None:
        metrics = workloads.end_to_end_metrics(run, peak_rss_mb)
        units = workloads.END_TO_END_UNITS
        latencies = run.samples["predict_ms"]
        if latencies:  # unbounded: see predict_ms.mean in perfbench/README.md
            print(f"metric predict_ms.p50 {workloads.percentile(latencies, 50):.6g} ms")
        print(f"samples predict_ms={len(latencies)} "
              f"setup_s={len(run.samples['setup_s'])} save_s={len(run.samples['save_s'])} "
              f"train_calls={len(run.work['train'])} evaluate_calls={len(run.work['predict'])}")
    else:
        metrics = workloads.per_layer_metrics(tracer, run.instances, overhead)
        units = workloads.per_layer_units()
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{w.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        for (phase, name), (ns, calls) in sorted(tracer.totals().items()):
            if phase in ("none", "overhead"):
                continue
            per = run.instances[phase] or 1
            print(f"layer {phase} {name} self_ms={ns / 1e6 / per:.6g} "
                  f"calls={calls / per:.6g} per {phase} instance")
        print(f"absent {json.dumps(tracer.absent)} spans written to {trace_path}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
