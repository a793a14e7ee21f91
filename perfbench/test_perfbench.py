"""Tests of the benchmark itself.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

import spans
import workloads
from fairnoise import attacks, families
from workloads import Item


def span(sid, parent, name, t0, t1, work=0):
    return (sid, parent, name, "item", t0, t1, work)


def test_self_time_subtracts_direct_children_only():
    tree = [
        span(1, None, "harness.run_sweep", 0.0, 10.0),
        span(2, 1, "repair.best_response", 1.0, 3.0),
        span(3, 1, "repair.best_response", 4.0, 8.0),
        span(4, 3, "repair.pair_min_1d", 5.0, 6.0, work=7),
    ]
    assert spans.self_times(tree) == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0}
    summary = spans.summarize(tree)
    assert summary["harness.run_sweep.self_s"] == 4.0
    assert summary["repair.best_response.calls"] == 2
    assert summary["repair.best_response.self_s"] == 5.0
    assert summary["repair.pair_min_1d.options"] == 7
    assert summary["repair.pair_min_2d.calls"] == 0


def test_overlapping_children_are_covered_once():
    # children from pool threads may overlap each other and outlive the parent
    assert spans.covered(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0), (9.0, 12.0)]) == 7.0
    assert spans.covered(0.0, 10.0, []) == 0.0


def test_candidates_exclude_the_clean_optimum():
    tree = [span(1, None, "attacks.grid_worst_case", 0.0, 4.0)]
    tree += [span(2 + k, 1, "repair.best_response", k, k + 0.5) for k in range(3)]
    tree.append(span(9, None, "repair.best_response", 5.0, 6.0))  # outside any search
    summary = spans.summarize(tree)
    assert summary["attacks.grid_worst_case.candidates"] == 2
    assert summary["attacks.grid_worst_case.self_s"] == 2.5


def test_traced_run_restores_every_patched_name(tmp_path):
    item = workloads._sweep_item(0, "eodds_duplicate", (0.05, 0.1, 0.2))
    tracer = spans.Tracer()
    tracer.install()
    patched = list(tracer.patched)
    try:
        assert workloads.run_items([item], tmp_path, tracer) == (1, 0)
    finally:
        tracer.uninstall()

    # functions imported by name are patched where each module holds them
    holders = {(module.__name__, attr) for module, attr, _ in patched}
    assert {("fairnoise.attacks", "best_response"), ("fairnoise.calibration", "pair_min_1d"),
            ("fairnoise.harness", "best_response"), ("fairnoise.repair", "best_response")} <= holders
    for module, attr, original in patched:
        assert getattr(module, attr) is original
        assert not hasattr(original, "__wrapped__")

    summary = spans.summarize(tracer.spans)
    assert summary["harness.run_sweep.calls"] == 2
    assert summary["harness.write_report.calls"] == 2
    assert summary["harness.write_report.bytes"] > 0
    assert summary["repair.pair_min_2d.calls"] == 6  # three alphas, serial and threaded
    assert {s[spans.ITEM] for s in tracer.spans} == {item.name}


def test_wrong_or_raising_item_counts_one_failure_each(tmp_path):
    dist, h = families.random_dp_instance(np.random.default_rng(3), max_atoms=4)
    q, excess = attacks.grid_worst_case(dist, 0.1, [h], "dp", resolution=2, grid_n=21)

    def check(result):
        workloads.check_adversary(dist, h, "dp", 0.1, result)

    def boom(out):
        raise ValueError("compute failed")

    right = Item("right", lambda out: (q, excess), check)
    wrong = Item("wrong", lambda out: (q, excess + 1e-3), check)
    raising = Item("raising", boom, check)
    assert workloads.run_items([right], tmp_path) == (1, 0)
    assert workloads.run_items([right, wrong], tmp_path) == (2, 1)
    assert workloads.run_items([raising, right], tmp_path) == (2, 1)
    with pytest.raises(workloads.CheckFailed, match="reproduce|reported"):
        check((q, excess + 1e-3))
