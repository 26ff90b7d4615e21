"""The traced tape-node count against the ROADMAP baseline.

The count is structural: it depends on depth, sequence length and block
type, not on width or data, so narrow vectors keep these runs short.  The
expected values are the seed commit's; a change that fuses the recurrent
tape (one node per direction per layer) is expected to lower the
recurrent count and should update it here with the new measured value.
"""

from dataclasses import replace

import pytest

import workloads
from tracer import Tracer


def tape_nodes_per_instance(name: str, tmp_path, seed: int) -> float:
    w = replace(workloads.WORKLOADS[name], vector_dim=8)
    tracer = Tracer()
    run = workloads.Run(tracer)
    workloads.install_tracer(tracer)
    try:
        config_path = workloads.write_run_inputs(w, tmp_path, seed)
        setup = workloads.setup_training(config_path, run, 1)
        workloads.train_for(setup, 0.0, 1, run)
    finally:
        tracer.uninstall()
    assert run.ledger.failed == 0, run.ledger.messages
    return workloads.per_layer_metrics(tracer, run.instances, 0.0)[workloads.TAPE_NODES]


def test_conv_tape_nodes_repeat_exactly_across_seeds(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = tape_nodes_per_instance("train-conv", tmp_path / "a", 1)
    assert first == pytest.approx(110, rel=0.05)
    assert tape_nodes_per_instance("train-conv", tmp_path / "b", 2) == first


def test_recurrent_tape_nodes_match_the_baseline(tmp_path):
    assert tape_nodes_per_instance("train-rnn", tmp_path, 1) == pytest.approx(30_600, rel=0.02)
