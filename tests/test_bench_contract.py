"""The benchmark harness still finds every discrel function it traces.

``perfbench/workloads.py`` imports the discrel modules it names and wraps
the functions in ``TRACE_TARGETS``; a target that no longer exists is
reported as absent rather than failing the run, so a rename or deletion
would silently drop a span from every benchmark.  Retiring a traced
function is therefore an explicit edit to the expected list below.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Traced by the benchmark, no longer in discrel: the per-sentence embedding
# gave way to one call per batch (``TokenEmbedder.embed``), and the
# single-direction cell was folded into the bidirectional layer's one op.
RETIRED_TARGETS = ["word_level.TokenEmbedder.embed_sentence", "recurrent.GRUCell.forward"]


def test_every_traced_function_exists_except_the_retired_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer").Tracer()
    workloads.install_tracer(tracer)
    try:
        assert tracer.absent == RETIRED_TARGETS
    finally:
        tracer.uninstall()
