"""Self-tests of the benchmark's tracer, layer wrappers and output checks.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_COST_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    """Returns the queued instants in order."""

    def __init__(self, *instants: float) -> None:
        self._instants = list(instants)

    def __call__(self) -> float:
        return self._instants.pop(0)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.enter("root")
    a = tracer.enter("a")
    b = tracer.enter("b")
    tracer.leave(b)
    tracer.leave(a)
    c = tracer.enter("c", store=False)
    tracer.leave(c)
    tracer.leave(root)
    own = {name: entry[2] for name, entry in tracer.stats.items()}
    assert own == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert tracer.self_total() == tracer.stats["root"][1] == 10.0
    parents = {name: parent for _, parent, name, *_ in tracer.spans}
    ids = {name: sid for sid, _, name, *_ in tracer.spans}
    assert parents == {"b": ids["a"], "a": ids["root"], "root": -1}
    assert tracer.rollup == {("root", "c"): [1, 4.0, 4.0]}


def test_recursive_span_counts_outermost_time_once():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3))
    outer = tracer.enter("f")
    inner = tracer.enter("f")
    tracer.leave(inner)
    tracer.leave(outer)
    calls, inclusive, own = tracer.stats["f"]
    assert (calls, inclusive, own) == (2, 3.0, 3.0)


def test_leave_out_of_order_raises():
    tracer = Tracer()
    first = tracer.enter("first")
    tracer.enter("second")
    with pytest.raises(RuntimeError):
        tracer.leave(first)


def _snapshot():
    """Identity of every attribute of every repro module and class."""
    state = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        state[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == name:
                state[f"{name}:{attr}"] = dict(vars(value))
    return state


def test_wrappers_are_restored_after_uninstall():
    import repro.websim.content as content
    from repro.util import rng

    original = rng.derive_rng
    before = _snapshot()
    tracer = Tracer()
    layers.install(tracer)
    assert content.derive_rng is not original
    assert content.derive_rng is rng.derive_rng
    content.derive_rng(1, "x")
    assert tracer.stats["util.rng.derive_rng"][0] == 1
    tracer.uninstall()
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        changed = [attr for attr, value in attrs.items()
                   if after[key].get(attr, object()) is not value]
        assert not changed, (key, changed)


def test_forked_children_run_untraced():
    tracer = Tracer()
    tracer.install()
    try:
        pid = os.fork()
        if pid == 0:
            os._exit(0 if not tracer.enabled else 1)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0
        assert tracer.enabled
    finally:
        tracer.uninstall()


def test_derive_emits_every_per_layer_metric():
    tracer = Tracer()
    with tracer.span(layers.ROOT):
        pass
    metrics = layers.derive(tracer, wall_s=1.0, requests=0)
    expected = {name for name, _, _, _ in layers.PER_LAYER}
    assert expected - set(metrics) == {"trace.overhead_ratio",
                                       "host.raw_wall_s", "host.speed"}


def test_reference_seconds_rescale_by_mean_speed():
    probe = SpeedProbe()
    # Half the samples at full speed, half at half speed: mean 0.75.
    probe.samples = [(1.0, REFERENCE_COST_S), (2.0, 2 * REFERENCE_COST_S),
                     (3.0, REFERENCE_COST_S), (4.0, 2 * REFERENCE_COST_S),
                     (9.0, 4 * REFERENCE_COST_S)]
    assert probe.speed(0.5, 4.5) == pytest.approx(0.75)
    assert probe.reference_seconds(0.5, 4.5) == pytest.approx(3.0)
    # No sample inside the region: taken at face value.
    assert probe.speed(5.0, 6.0) is None
    assert probe.reference_seconds(5.0, 6.0) == pytest.approx(1.0)


def test_speed_probe_samples_and_restores_the_timer():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(interval=0.01).start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert all(cost > 0 for _, cost in probe.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_stage_table_matches_the_program():
    from repro.core.pipeline import top10k_stages, top1m_stages

    program = [("top10k", s.name) for s in top10k_stages()] + \
        [("top1m", s.name) for s in top1m_stages()]
    assert program == list(layers.STAGES)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(m["name"] for m in spec["end_to_end"]) == \
        sorted(name for name, _ in run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]


# -------------------------------------------------- seeded wrong outputs

GOOD_FINDINGS = {"top10k.top_countries": ["IR", "SY", "CU", "SD"],
                 "top10k.gt_precision": 1.0, "top10k.gt_recall": 0.9}
FRESH_HITS = [False] * len(layers.STAGES)


def _failed(checks):
    return sorted(name for name, ok in checks.items() if not ok)


def test_paper_shape_checks_pass_on_a_good_report():
    assert _failed(workloads.paper_shape_checks(
        GOOD_FINDINGS, FRESH_HITS)) == []


@pytest.mark.parametrize("findings, hits, failed", [
    (dict(GOOD_FINDINGS, **{"top10k.top_countries": ["IR", "CN", "SY"]}),
     FRESH_HITS, ["top10k.top2_sanctioned"]),
    (dict(GOOD_FINDINGS, **{"top10k.gt_recall": 0.4}), FRESH_HITS,
     ["top10k.gt_recall"]),
    (dict(GOOD_FINDINGS, **{"top10k.gt_precision": 0.5}), FRESH_HITS,
     ["top10k.gt_precision"]),
    (GOOD_FINDINGS, [True] + FRESH_HITS[1:], ["stages.executed"]),
])
def test_paper_shape_checks_catch_wrong_reports(findings, hits, failed):
    assert _failed(workloads.paper_shape_checks(findings, hits)) == failed


def test_a_failed_check_counts_against_the_run():
    good = {"checks": {"a": True, "b": True}, "error": None}
    bad = {"checks": {"a": True, "b": False}, "error": None}
    assert run.tally([good, good]) == (4, 0)
    assert run.tally([good, bad]) == (4, 1)


class _Report:
    def __init__(self, hit: bool) -> None:
        self.stage_stats = {
            study: [{"stage": stage, "cache_hit": hit}
                    for s, stage in layers.STAGES if s == study]
            for study in ("top10k", "top1m")}


def test_resume_check_catches_a_one_byte_difference():
    state = {"fresh": "| `x` | 1 | 2 |"}
    good = workloads.Outcome(requests=1, report=_Report(True),
                             markdown=state["fresh"])
    bad = workloads.Outcome(requests=1, report=_Report(True),
                            markdown=state["fresh"].replace("1", "7"))
    check = workloads.SuiteResume().check
    assert _failed(check(state, good)) == []
    assert _failed(check(state, bad)) == ["report.byte_identical"]
    missed = workloads.Outcome(requests=1, report=_Report(False),
                               markdown=state["fresh"])
    assert _failed(check(state, missed)) == ["stages.resumed"]


class _Init:
    spawned = 2


def test_scan_check_catches_a_changed_row():
    rows = [("a.com", "IR", 403, 120), ("a.com", "US", 200, 5000)]
    state = {"reference": {"rows": 2, "digest": workloads.rows_digest(rows),
                           "requests": 2}}
    check = workloads.ScanProcess().check

    def outcome(data, requests=2):
        return workloads.Outcome(requests=requests, dataset=data,
                                 init_stats=_Init())

    assert _failed(check(state, outcome(rows))) == []
    wrong = [rows[0], ("a.com", "US", 200, 5001)]
    assert _failed(check(state, outcome(wrong))) == ["rows.equal_serial"]
    assert _failed(check(state, outcome(rows[::-1]))) == ["rows.equal_serial"]
    assert _failed(check(state, outcome(rows, 3))) == [
        "requests.equal_serial"]
