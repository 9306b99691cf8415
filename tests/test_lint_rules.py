"""Positive and negative fixtures for every repro.lint rule.

Each rule gets at least one fixture that must flag and one that must
stay clean; the suppression, order-guarantee, confinement, baseline,
tier, and CLI exit-code machinery is exercised on top.  The final tests
assert the *real* tree keeps the acceptance contract: ``src/repro`` is
lint-clean with zero suppressions, and the module-scope
``random.random()`` fixture exits non-zero through the CLI.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from typing import List, Optional, Sequence

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.config import LintConfig
from repro.lint.engine import analyze_sources, module_name_for
from repro.lint.report import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Baseline,
    Finding,
    exit_code,
    render_json,
    render_text,
)
from repro.lint.rules import RULES, RULES_BY_ID

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_lint(source: str, path: str = "src/repro/fake/mod.py",
             tier: str = "error",
             worker_roots: Optional[Sequence[str]] = None) -> List[Finding]:
    config = LintConfig()
    if worker_roots is not None:
        config.worker_roots = tuple(worker_roots)
    return analyze_sources([(path, tier, textwrap.dedent(source))], config)


def rule_ids(findings: Sequence[Finding]) -> List[str]:
    return [f.rule_id for f in findings]


# --------------------------------------------------------------------- #
# Rule registry sanity

def test_every_rule_has_id_severity_and_rationale():
    assert len(RULES) == len(RULES_BY_ID)
    for rule in RULES:
        assert rule.rule_id
        assert rule.severity in ("error", "warn")
        assert rule.summary and rule.rationale


# --------------------------------------------------------------------- #
# wall-clock

def test_wall_clock_flags_time_time():
    findings = run_lint("""
        import time

        def elapsed():
            return time.time()
    """)
    assert rule_ids(findings) == ["wall-clock"]
    assert findings[0].severity == "error"


def test_wall_clock_flags_datetime_now_and_aliased_import():
    findings = run_lint("""
        import datetime
        from time import perf_counter as pc

        def stamp():
            return datetime.datetime.now(), pc()
    """)
    assert rule_ids(findings) == ["wall-clock", "wall-clock"]


def test_wall_clock_clean_when_injected_clock_is_used():
    findings = run_lint("""
        from repro.util.clock import SystemClock

        def elapsed():
            stopwatch = SystemClock().stopwatch()
            return stopwatch.elapsed()
    """)
    assert findings == []


def test_wall_clock_sanctioned_inside_clock_module():
    findings = run_lint("""
        import time

        def monotonic():
            return time.perf_counter()
    """, path="src/repro/util/clock.py")
    assert findings == []


# --------------------------------------------------------------------- #
# raw-entropy

def test_raw_entropy_flags_urandom_and_uuid4():
    findings = run_lint("""
        import os
        import uuid

        def token():
            return os.urandom(8), uuid.uuid4()
    """)
    assert rule_ids(findings) == ["raw-entropy", "raw-entropy"]


def test_raw_entropy_clean_for_derived_rng():
    findings = run_lint("""
        from repro.util.rng import derive_rng

        def token(seed):
            return derive_rng(seed, "token").random()
    """)
    assert findings == []


# --------------------------------------------------------------------- #
# global-random

def test_global_random_flags_module_scope_draw():
    findings = run_lint("""
        import random

        JITTER = random.random()
    """)
    assert rule_ids(findings) == ["global-random"]


def test_global_random_flags_shuffle_and_numpy_legacy():
    findings = run_lint("""
        import random
        import numpy

        def scramble(items):
            random.shuffle(items)
            return numpy.random.rand()
    """)
    assert rule_ids(findings) == ["global-random", "global-random"]


def test_global_random_allows_seeded_generator_construction():
    findings = run_lint("""
        import random
        import numpy

        def generators(seed):
            return random.Random(seed), numpy.random.default_rng(seed)
    """)
    assert findings == []


# --------------------------------------------------------------------- #
# fs-order

def test_fs_order_flags_bare_listdir_and_iterdir():
    findings = run_lint("""
        import os

        def names(root, path):
            return os.listdir(root) + list(path.iterdir())
    """)
    assert rule_ids(findings) == ["fs-order", "fs-order"]


def test_fs_order_clean_when_wrapped_in_sorted():
    findings = run_lint("""
        import glob
        import os

        def names(root):
            return sorted(os.listdir(root)) + sorted(glob.glob("*.json"))
    """)
    assert findings == []


# --------------------------------------------------------------------- #
# iter-order

def test_iter_order_flags_dict_items_in_serializing_function():
    findings = run_lint("""
        import json

        def save(data, handle):
            rows = [[key, value] for key, value in data.items()]
            json.dump(rows, handle)
    """)
    assert rule_ids(findings) == ["iter-order"]


def test_iter_order_flags_set_iteration_feeding_a_sink():
    findings = run_lint("""
        import json

        def save(handle):
            flags = {"a", "b", "c"}
            json.dump(list(flags), handle)
    """)
    assert rule_ids(findings) == ["iter-order"]


def test_iter_order_clean_without_serialization_sink():
    findings = run_lint("""
        def total(data):
            result = 0
            for key, value in data.items():
                result += value
            return result
    """)
    assert findings == []


def test_iter_order_clean_when_sorted_or_order_free():
    findings = run_lint("""
        import json

        def save(data, handle):
            rows = [[k, v] for k, v in sorted(data.items())]
            json.dump([rows, len(data.keys())], handle)
    """)
    assert findings == []


def test_iter_order_flags_unsorted_dict_feeding_shard_writer():
    # The shard codec is a serialization sink: unordered iteration into a
    # segment would make shard bytes depend on dict/set history.
    findings = run_lint("""
        from repro.lumscan.shards import write_shard

        def spill(bodies, spec, seq):
            rows = [[row, body] for row, body in bodies.items()]
            return write_shard(rows, spec, seq)
    """)
    assert rule_ids(findings) == ["iter-order"]


def test_iter_order_clean_when_shard_writer_input_is_sorted():
    findings = run_lint("""
        from repro.lumscan.shards import write_shard

        def spill(bodies, spec, seq):
            rows = [[row, body] for row, body in sorted(bodies.items())]
            return write_shard(rows, spec, seq)
    """)
    assert findings == []


def test_iter_order_flags_unsorted_dict_feeding_worldpack_writer():
    # The worldpack writer is a serialization sink: pack bytes carry a
    # content fingerprint that workers verify, so feeding the writer
    # values built from unordered dict iteration would make the
    # fingerprint depend on dict history.
    findings = run_lint("""
        from repro.websim.worldpack import write_worldpack_file

        def freeze_all(worlds, directory):
            handles = [write_worldpack_file(world, f"{directory}/{name}")
                       for name, world in worlds.items()]
            return handles
    """)
    assert rule_ids(findings) == ["iter-order"]


def test_iter_order_clean_when_worldpack_writer_input_is_sorted():
    findings = run_lint("""
        from repro.websim.worldpack import write_worldpack_file

        def freeze_all(worlds, directory):
            handles = [write_worldpack_file(world, f"{directory}/{name}")
                       for name, world in sorted(worlds.items())]
            return handles
    """)
    assert findings == []


def test_iter_order_honors_ordered_directive():
    findings = run_lint("""
        import json

        def save(data, handle):
            rows = [[k, v] for k, v in data.items()]  # lint: ordered(insertion order is the contract)
            json.dump(rows, handle)
    """)
    assert findings == []


# --------------------------------------------------------------------- #
# shared-mutation

_ENGINE_ROOT = ("repro.fake.mod.Engine.run_task",)


def test_shared_mutation_flags_dict_write_on_worker_path():
    findings = run_lint("""
        class Engine:
            def __init__(self):
                self._cache = {}

            def run_task(self, key):
                self._cache[key] = 1
    """, worker_roots=_ENGINE_ROOT)
    assert rule_ids(findings) == ["shared-mutation"]


def test_shared_mutation_follows_self_method_calls():
    findings = run_lint("""
        class Engine:
            def __init__(self):
                self._seen = []

            def run_task(self, key):
                self._record(key)

            def _record(self, key):
                self._seen.append(key)
    """, worker_roots=_ENGINE_ROOT)
    assert rule_ids(findings) == ["shared-mutation"]


def test_shared_mutation_clean_for_sanctioned_primitives():
    findings = run_lint("""
        from repro.util.cache import LRUCache, MemoDict
        from repro.util.counters import ShardedCounter

        class Engine:
            def __init__(self):
                self._count = ShardedCounter()
                self._pages = LRUCache(capacity=16)
                self._memo = MemoDict()

            def run_task(self, key):
                self._count.increment()
                self._pages.put(key, key)
                self._memo[key] = 1
    """, worker_roots=_ENGINE_ROOT)
    assert findings == []


def test_shared_mutation_clean_under_lock_guard():
    findings = run_lint("""
        import threading

        class Engine:
            def __init__(self):
                self._lock = threading.Lock()
                self._rotation = {}

            def run_task(self, key):
                with self._lock:
                    self._rotation[key] = 1
    """, worker_roots=_ENGINE_ROOT)
    assert findings == []


def test_shared_mutation_respects_confined_directive():
    findings = run_lint("""
        class Engine:
            # lint: confined(per-worker shards merged in parent)
            def __init__(self):
                self._rows = []

            def run_task(self, row):
                self._rows.append(row)
    """, worker_roots=_ENGINE_ROOT)
    assert findings == []


def test_shared_mutation_reaches_across_modules():
    engine = textwrap.dedent("""
        from repro.fake.store import Store

        class Engine:
            def __init__(self, store: Store):
                self.store = store

            def run_task(self, key):
                self.store.remember(key)
    """)
    store = textwrap.dedent("""
        class Store:
            def __init__(self):
                self._seen = set()

            def remember(self, key):
                self._seen.add(key)
    """)
    config = LintConfig()
    config.worker_roots = _ENGINE_ROOT
    findings = analyze_sources(
        [("src/repro/fake/mod.py", "error", engine),
         ("src/repro/fake/store.py", "error", store)], config)
    assert rule_ids(findings) == ["shared-mutation"]
    assert findings[0].path == "src/repro/fake/store.py"


# --------------------------------------------------------------------- #
# spec-pickle

def test_spec_pickle_flags_object_and_lock_fields():
    findings = run_lint("""
        import threading
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class WorkerSpec:
            payload: object
            guard: threading.Lock
    """)
    assert rule_ids(findings) == ["spec-pickle", "spec-pickle"]


def test_spec_pickle_clean_for_leaves_containers_and_project_types():
    findings = run_lint("""
        from dataclasses import dataclass
        from typing import Dict, Optional, Tuple

        @dataclass(frozen=True)
        class InnerConfig:
            seed: int

        @dataclass(frozen=True)
        class WorkerSpec:
            seed: int
            name: Optional[str]
            pairs: Tuple[Tuple[str, int], ...]
            rates: Dict[str, float]
            inner: InnerConfig
    """)
    assert findings == []


def test_spec_pickle_ignores_non_spec_classes():
    findings = run_lint("""
        from dataclasses import dataclass

        @dataclass
        class Holder:
            payload: object
    """)
    assert findings == []


# --------------------------------------------------------------------- #
# Suppression, baseline, tiers, rendering

def test_allow_directive_suppresses_and_exits_clean():
    findings = run_lint("""
        import time

        def legacy():
            return time.time()  # lint: allow(wall-clock: vendored timing shim)
    """)
    assert len(findings) == 1
    assert findings[0].suppressed
    assert findings[0].suppress_reason == "vendored timing shim"
    assert exit_code(findings) == EXIT_CLEAN


def test_allow_directive_is_rule_specific():
    findings = run_lint("""
        import time

        def legacy():
            return time.time()  # lint: allow(fs-order: wrong rule)
    """)
    assert not findings[0].suppressed
    assert exit_code(findings) == EXIT_FINDINGS


def test_directive_inside_string_literal_is_inert():
    findings = run_lint("""
        import time

        def legacy():
            note = "# lint: allow(wall-clock: not a comment)"
            return time.time(), note
    """)
    assert not findings[0].suppressed


def test_baseline_grandfathers_with_multiplicity():
    source = """
        import time

        def first():
            return time.time()

        def second():
            return time.time()
    """
    findings = run_lint(source)
    assert len(findings) == 2
    # Both offending lines hash identically; grandfather only one credit.
    baseline = Baseline.from_findings(findings[:1])
    fresh = run_lint(source)
    baseline.apply(fresh)
    assert [f.baselined for f in fresh] == [True, False]
    assert exit_code(fresh) == EXIT_FINDINGS
    Baseline.from_findings(findings).apply(findings)


def test_baseline_round_trips_through_disk(tmp_path):
    findings = run_lint("""
        import time

        def legacy():
            return time.time()
    """)
    path = str(tmp_path / "lint-baseline.json")
    Baseline.from_findings(findings).dump(path)
    reloaded = Baseline.load(path)
    fresh = run_lint("""
        import time

        def legacy():
            return time.time()
    """)
    reloaded.apply(fresh)
    assert all(f.baselined for f in fresh)
    assert exit_code(fresh) == EXIT_CLEAN


def test_warn_tier_demotes_everything_and_exits_clean():
    findings = run_lint("""
        import time

        def bench():
            return time.time()
    """, path="benchmarks/test_speed.py", tier="warn")
    assert [f.severity for f in findings] == ["warn"]
    assert exit_code(findings) == EXIT_CLEAN


def test_render_json_is_stable_and_timestamp_free():
    findings = run_lint("""
        import time

        def legacy():
            return time.time()
    """)
    first = render_json(findings)
    second = render_json(findings)
    assert first == second
    payload = json.loads(first)
    assert payload["summary"]["errors"] == 1
    assert payload["findings"][0]["rule"] == "wall-clock"
    assert "time" not in payload["summary"]


def test_render_text_hides_suppressed_unless_verbose():
    findings = run_lint("""
        import time

        def legacy():
            return time.time()  # lint: allow(wall-clock: shim)
    """)
    assert "allowed" not in render_text(findings)
    assert "allowed" in render_text(findings, verbose=True)


def test_parse_error_is_reported_not_raised():
    findings = run_lint("def broken(:\n")
    assert rule_ids(findings) == ["parse-error"]
    assert exit_code(findings) == EXIT_FINDINGS


# --------------------------------------------------------------------- #
# CLI exit codes

def test_cli_flags_module_scope_random_fixture(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import random\nJITTER = random.random()\n")
    assert lint_main([str(fixture)]) == EXIT_FINDINGS
    assert "global-random" in capsys.readouterr().out


def test_cli_clean_file_exits_zero(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("def double(x):\n    return 2 * x\n")
    assert lint_main([str(fixture)]) == EXIT_CLEAN
    capsys.readouterr()


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert lint_main([str(missing)]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_json_report_to_file(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import time\nSTAMP = time.time()\n")
    out = tmp_path / "report.json"
    code = lint_main([str(fixture), "--format", "json",
                      "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_FINDINGS
    payload = json.loads(out.read_text())
    assert payload["summary"]["errors"] == 1


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import time\nSTAMP = time.time()\n")
    baseline = tmp_path / "baseline.json"
    assert lint_main([str(fixture), "--write-baseline",
                      "--baseline", str(baseline)]) == EXIT_CLEAN
    assert lint_main([str(fixture),
                      "--baseline", str(baseline)]) == EXIT_CLEAN
    assert lint_main([str(fixture), "--no-baseline",
                      "--baseline", str(baseline)]) == EXIT_FINDINGS
    capsys.readouterr()


def test_cli_select_restricts_rules(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import time\nSTAMP = time.time()\n")
    assert lint_main([str(fixture), "--select", "fs-order"]) == EXIT_CLEAN
    assert lint_main([str(fixture),
                      "--select", "wall-clock"]) == EXIT_FINDINGS
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.rule_id in out


def test_repro_geoblock_lint_subcommand(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", "--list-rules"]) == EXIT_CLEAN
    assert "wall-clock" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# resource-leak (flow-sensitive acquire/release pairing)

def test_resource_leak_flags_early_return_branch():
    findings = run_lint("""
        from repro.lumscan.shards import open_shard

        def f(handle, flag):
            reader = open_shard(handle)
            if flag:
                return None
            reader.close()
    """)
    assert rule_ids(findings) == ["resource-leak"]
    assert "open_shard" in findings[0].message
    assert findings[0].trace, "path trace required"
    assert findings[0].trace[0]["line"] == 5


def test_resource_leak_flags_loop_continue_rebinding():
    findings = run_lint("""
        from repro.lumscan.shards import open_shard

        def f(handles):
            for handle in handles:
                reader = open_shard(handle)
                if reader.empty:
                    continue
                reader.close()
    """)
    assert rule_ids(findings) == ["resource-leak"]


def test_resource_leak_clean_when_both_branches_release():
    findings = run_lint("""
        from repro.lumscan.shards import open_shard

        def f(handle, flag):
            reader = open_shard(handle)
            if flag:
                reader.close()
                return None
            reader.close()
            return 1
    """)
    assert rule_ids(findings) == []


def test_resource_leak_clean_for_with_block():
    findings = run_lint("""
        from repro.lumscan.shards import ShardExchange

        def f(spec):
            with ShardExchange(spec) as exchange:
                return exchange.spec()
    """)
    assert rule_ids(findings) == []


def test_resource_leak_clean_on_return_handoff():
    findings = run_lint("""
        from repro.lumscan.shards import open_shard

        def f(handle):
            reader = open_shard(handle)
            return reader
    """)
    assert rule_ids(findings) == []


def test_resource_leak_clean_on_self_store_handoff():
    findings = run_lint("""
        from repro.lumscan.shards import open_shard

        class Pool:
            def adopt(self, handle):
                self._reader = open_shard(handle)
    """)
    assert rule_ids(findings) == []


def test_resource_leak_clean_with_handoff_directive():
    findings = run_lint("""
        from repro.lumscan.shards import open_shard

        def f(handle, consumer):
            reader = open_shard(handle)
            consumer.push(reader)  # lint: handoff(consumer owns it)
    """)
    assert rule_ids(findings) == []


def test_resource_leak_flags_module_release_func_on_one_path_only():
    findings = run_lint("""
        from repro.lumscan.shards import open_shard, release_shard

        def f(handle, flag):
            reader = open_shard(handle)
            if flag:
                release_shard(reader)
    """)
    assert rule_ids(findings) == ["resource-leak"]


def test_resource_leak_respects_none_guard_correlation():
    findings = run_lint("""
        from repro.lumscan.shards import ShardExchange

        def f(spill, payloads):
            exchange = None
            if spill:
                exchange = ShardExchange(spill_dir=spill)
            try:
                if exchange is not None:
                    merge_all(exchange.open().spec(), payloads)
            finally:
                if exchange is not None:
                    exchange.close()
    """)
    assert rule_ids(findings) == []


# --------------------------------------------------------------------- #
# release-guard (exception-safe cleanup)

def test_release_guard_flags_fallthrough_only_release():
    findings = run_lint("""
        from repro.lumscan.shards import open_shard

        def f(handle):
            reader = open_shard(handle)
            data = reader.read()
            reader.close()
            return data
    """)
    assert rule_ids(findings) == ["release-guard"]
    # Anchored at the unguarded release, with the full path trace.
    assert findings[0].line == 7
    assert [step["line"] for step in findings[0].trace] == [5, 6, 7]


def test_release_guard_clean_when_release_in_finally():
    findings = run_lint("""
        from repro.lumscan.shards import open_shard

        def f(handle):
            reader = open_shard(handle)
            try:
                return reader.spec
            finally:
                reader.close()
    """)
    assert rule_ids(findings) == []


def test_release_guard_clean_for_close_and_reraise_handler():
    findings = run_lint("""
        from repro.lumscan.shards import SegmentMapping, decode_shard

        def f(path):
            mapping = SegmentMapping(path)
            try:
                columns = decode_shard(mapping.buffer)
                rows = list(columns)
            except BaseException:
                mapping.close()
                raise
            mapping.close()
            return rows
    """)
    assert rule_ids(findings) == []


def test_release_guard_clean_when_release_call_itself_raises():
    # An exception *inside* close() is the callee's contract, not a
    # missing guard around it.
    findings = run_lint("""
        from repro.lumscan.shards import open_shard

        def f(handle):
            reader = open_shard(handle)
            reader.close()
    """)
    assert rule_ids(findings) == []


# --------------------------------------------------------------------- #
# buffer-escape (views must not outlive close())

def test_buffer_escape_flags_view_stored_to_self():
    findings = run_lint("""
        from repro.websim.worldpack import WorldPackReader

        class Cache:
            def load(self, path):
                reader = WorldPackReader(path)
                try:
                    self._codes = reader.array("codes")
                finally:
                    reader.close()
    """)
    assert rule_ids(findings) == ["buffer-escape"]
    assert "self._codes" in findings[0].message
    notes = [step["note"] for step in findings[0].trace]
    assert any("closed" in note for note in notes)


def test_buffer_escape_flags_intermediate_variable_escape():
    findings = run_lint("""
        from repro.lumscan.shards import SegmentMapping

        class Cache:
            def load(self, path):
                mapping = SegmentMapping(path)
                try:
                    raw = mapping.buffer
                    self._raw = raw
                finally:
                    mapping.close()
    """)
    assert rule_ids(findings) == ["buffer-escape"]


def test_buffer_escape_clean_when_view_is_copied():
    findings = run_lint("""
        from repro.websim.worldpack import WorldPackReader

        class Cache:
            def load(self, path):
                reader = WorldPackReader(path)
                try:
                    self._codes = bytes(reader.array("codes"))
                finally:
                    reader.close()
    """)
    assert rule_ids(findings) == []


def test_buffer_escape_clean_when_buffer_travels_with_view():
    findings = run_lint("""
        from repro.websim.worldpack import WorldPackReader

        def f(path):
            reader = WorldPackReader(path)
            return reader, reader.array("codes")
    """)
    assert rule_ids(findings) == []


# --------------------------------------------------------------------- #
# atomic-write (temp-then-rename discipline)

def test_atomic_write_flags_direct_checkpoint_write():
    findings = run_lint("""
        def f(stem, payload):
            with open(f"{stem}.lshd", "wb") as out:
                out.write(payload)
    """)
    assert rule_ids(findings) == ["atomic-write"]
    assert ".lshd" in findings[0].message


def test_atomic_write_flags_write_text_on_manifest():
    findings = run_lint("""
        def f(root, text):
            target = f"{root}/manifest.json"
            target.write_text(text)
    """)
    assert rule_ids(findings) == ["atomic-write"]


def test_atomic_write_flags_temp_never_renamed():
    findings = run_lint("""
        def f(stem, payload):
            tmp = f"{stem}.lshd.tmp"
            with open(tmp, "wb") as out:
                out.write(payload)
    """)
    assert rule_ids(findings) == ["atomic-write"]
    assert "never renamed" in findings[0].message


def test_atomic_write_clean_for_temp_then_rename():
    findings = run_lint("""
        import os

        def f(stem, payload):
            tmp = f"{stem}.lshd.tmp"
            with open(tmp, "wb") as out:
                out.write(payload)
            os.replace(tmp, f"{stem}.lshd")
    """)
    assert rule_ids(findings) == []


def test_atomic_write_clean_for_read_mode_and_unprotected_suffix():
    findings = run_lint("""
        def f(stem):
            with open(f"{stem}.lshd", "rb") as handle:
                head = handle.read(4)
            with open(f"{stem}.log", "w") as log:
                log.write("ok")
            return head
    """)
    assert rule_ids(findings) == []


# --------------------------------------------------------------------- #
# Contract registry: module self-registration

def test_module_declared_contract_is_enforced():
    findings = run_lint("""
        LINT_RESOURCE_CONTRACT = {
            "codec": "probe",
            "resources": [
                {"name": "probe-session",
                 "acquire": ["open_probe"],
                 "release_methods": ["shutdown"]},
            ],
        }

        def f(target, flag):
            session = open_probe(target)
            if flag:
                return None
            session.shutdown()
    """)
    assert rule_ids(findings) == ["resource-leak"]
    assert "probe-session" in findings[0].message


def test_trace_round_trips_through_json():
    findings = run_lint("""
        from repro.lumscan.shards import open_shard

        def f(handle, flag):
            reader = open_shard(handle)
            if flag:
                return None
            reader.close()
    """)
    payload = json.loads(render_json(findings))
    assert payload["version"] == 2
    traces = [f["trace"] for f in payload["findings"]]
    assert traces and all(
        {"line", "note"} <= set(step) for trace in traces for step in trace)


# --------------------------------------------------------------------- #
# CLI: --explain and internal-error reporting

def test_cli_explain_prints_rationale_example_and_fix(capsys):
    assert lint_main(["--explain", "resource-leak"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "resource-leak" in out
    assert "Why:" in out
    assert "Example finding:" in out
    assert "Sanctioned fix:" in out
    assert "# lint: handoff" in out


def test_cli_explain_unknown_rule_is_usage_error(capsys):
    assert lint_main(["--explain", "no-such-rule"]) == EXIT_USAGE
    assert "unknown rule" in capsys.readouterr().err


def test_cli_internal_error_lands_in_json_report(tmp_path, capsys,
                                                 monkeypatch):
    import repro.lint.cli as cli_module

    def boom(config):
        raise RuntimeError("injected analyzer crash")

    monkeypatch.setattr(cli_module, "analyze_paths", boom)
    out_file = tmp_path / "lint-report.json"
    fixture = tmp_path / "fixture.py"
    fixture.write_text("x = 1\n")
    code = lint_main([str(fixture), "--out", str(out_file)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "internal error" in err
    payload = json.loads(out_file.read_text())
    assert payload["internal_error"]["type"] == "RuntimeError"
    assert "injected analyzer crash" in payload["internal_error"]["message"]
    assert "Traceback" in payload["internal_error"]["traceback"]


# --------------------------------------------------------------------- #
# Acceptance: the shipped tree itself

def test_src_repro_is_clean_with_zero_suppressions(capsys):
    src = os.path.join(REPO_ROOT, "src", "repro")
    code = lint_main([src, "--no-baseline"])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN, out
    assert "0 error(s)" in out
    assert "0 suppressed" in out


def test_default_targets_pass_under_shipped_baseline():
    env = dict(os.environ)
    src_dir = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == EXIT_CLEAN, result.stdout + result.stderr
