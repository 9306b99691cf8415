"""The benchmark's workloads: inputs, the timed call, and output checks.

Each workload runs in fresh processes started by ``run.py``:

* ``prepare`` (optional, once per benchmark run) builds what every
  repetition compares against: the checkpoints and fresh report for
  ``suite-resume``, the serial reference scan for ``scan-process``.
  It returns notes (numbers worth printing, not metrics), timing regions
  with ``seconds(start, end)``, which gives reference seconds.
* ``setup`` (once per repetition) builds a fresh world and, where the
  workload needs one, a fresh checkpoint directory.
* ``run`` is the timed region; ``check`` verifies its output and returns
  a ``{check name: passed}`` dict, never raising for a wrong output.

Every workload measures one fixed world (:data:`WORLD_SEED`), so each
run does the same amount of work; the benchmark's ``--seed`` seeds the
measurement itself: the study and scanner RNG (exit choice, path
failures, page jitter, sampling and resample draws).  The program
receives only inputs generated from these two seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Dict, List, Optional

from repro.analysis.experiments import ExperimentSuite
from repro.core.pipeline import StudyConfig
from repro.lumscan.engine import ScanEngine
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient
from repro.websim.world import World, WorldConfig

from layers import STAGES

#: Seed of the world every workload measures (the reference seed that
#: scripts/run_experiments.py defaults to).
WORLD_SEED = 7
#: Sanctioned countries the paper finds at the top of the blocking table.
SANCTIONED = frozenset({"IR", "SY", "SD", "CU"})
#: Ground-truth floors for the tiny suite.  Tiny worlds of seeds 0-44
#: measured precision 1.0 and recall 0.66-0.97; world 7 gives 1.0 and
#: 0.9545 for study seeds 0-9.
MIN_GT_PRECISION = 0.90
MIN_GT_RECALL = 0.50
#: scan-process slice: top domains of the small world, every Luminati
#: country, three samples per pair.
SCAN_DOMAINS = 60
SCAN_SAMPLES = 3


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def tree_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def rows_digest(dataset) -> str:
    """Order-sensitive digest of every record of a scan dataset."""
    digest = hashlib.blake2b(digest_size=16)
    for sample in dataset:
        digest.update(repr(sample).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _study_config(seed: int) -> StudyConfig:
    # The flags scripts/run_experiments.py passes by default.
    return StudyConfig(seed=seed, workers=1, executor="thread",
                       exchange="auto", merge="memory", target_chunk_ms=250,
                       world_source="auto")


def _stage_hits(report) -> List[bool]:
    return [bool(entry["cache_hit"])
            for study in ("top10k", "top1m")
            for entry in report.stage_stats.get(study, [])]


class Outcome:
    """What a timed run produced, for the checks and the metrics."""

    def __init__(self, requests: int, report=None, dataset=None,
                 init_stats=None, markdown: Optional[str] = None) -> None:
        self.requests = requests
        self.report = report
        self.dataset = dataset
        self.init_stats = init_stats
        self.markdown = markdown

    @property
    def stage_stats(self) -> Dict[str, List[dict]]:
        return self.report.stage_stats if self.report is not None else {}


class SuiteFresh:
    """The tiny reproduction suite, checkpointing into an empty directory."""

    name = "suite-fresh"
    resume = False

    def prepare(self, seed: int, run_dir: str, seconds) -> dict:
        return {}

    def setup(self, seed: int, run_dir: str, rep_dir: str) -> dict:
        checkpoints = os.path.join(rep_dir, "checkpoints")
        os.makedirs(checkpoints)
        return {"world": World(WorldConfig.tiny(seed=WORLD_SEED)),
                "seed": seed,
                "checkpoints": checkpoints}

    def run(self, state: dict) -> Outcome:
        suite = ExperimentSuite(state["world"],
                                study_config=_study_config(state["seed"]),
                                checkpoint_dir=state["checkpoints"],
                                resume=self.resume, checkpoint_format="lshd")
        report = suite.run()
        return Outcome(requests=suite.luminati.request_count, report=report,
                       markdown=report.to_markdown())

    def check(self, state: dict, outcome: Outcome) -> Dict[str, bool]:
        return paper_shape_checks(outcome.report.findings,
                                  _stage_hits(outcome.report))


def paper_shape_checks(findings: dict, hits: List[bool]) -> Dict[str, bool]:
    """Paper-shape and stage checks of one fresh suite report.

    The two countries with the most confirmed Top-10K instances must be
    sanctioned ones.  At tiny scale the third and fourth places can go to
    a censoring country by one instance (world seeds 2, 3, 15 and 41 of
    0-44), so the paper's full top four is not asserted.  Ground-truth
    precision and recall must stay above their floors, and all twelve
    stages must have run.
    """
    top = list(findings.get("top10k.top_countries", []))
    return {
        "top10k.top2_sanctioned": len(top) >= 2 and set(top[:2]) <= SANCTIONED,
        "top10k.gt_precision": findings.get("top10k.gt_precision", 0.0)
        >= MIN_GT_PRECISION,
        "top10k.gt_recall": findings.get("top10k.gt_recall", 0.0)
        >= MIN_GT_RECALL,
        "stages.executed": len(hits) == len(STAGES) and not any(hits),
    }


class SuiteResume(SuiteFresh):
    """The tiny suite resumed over checkpoints a fresh run wrote."""

    name = "suite-resume"
    resume = True

    def prepare(self, seed: int, run_dir: str, seconds) -> dict:
        state = SuiteFresh().setup(seed, run_dir, run_dir)
        outcome = SuiteFresh().run(state)
        with open(os.path.join(run_dir, "fresh.md"), "w") as handle:
            handle.write(outcome.markdown)
        return {}

    def setup(self, seed: int, run_dir: str, rep_dir: str) -> dict:
        checkpoints = os.path.join(rep_dir, "checkpoints")
        shutil.copytree(os.path.join(run_dir, "checkpoints"), checkpoints)
        with open(os.path.join(run_dir, "fresh.md")) as handle:
            fresh = handle.read()
        return {"world": World(WorldConfig.tiny(seed=WORLD_SEED)),
                "seed": seed,
                "checkpoints": checkpoints, "fresh": fresh}

    def check(self, state: dict, outcome: Outcome) -> Dict[str, bool]:
        hits = _stage_hits(outcome.report)
        return {
            "report.byte_identical": outcome.markdown == state["fresh"],
            "stages.resumed": len(hits) == len(STAGES) and all(hits),
        }


class ScanProcess:
    """A process-pool scan of a top-domain slice of the small world."""

    name = "scan-process"

    @staticmethod
    def _inputs():
        world = World(WorldConfig.small(seed=WORLD_SEED))
        luminati = LuminatiClient(world)
        urls = [domain.url for domain in world.population.top(SCAN_DOMAINS)]
        return luminati, urls, luminati.countries()

    def prepare(self, seed: int, run_dir: str, seconds) -> dict:
        luminati, urls, countries = self._inputs()
        serial = ScanEngine(Lumscan(luminati, seed=seed), workers=1)
        started = time.perf_counter()
        data = serial.scan(urls, countries, samples=SCAN_SAMPLES)
        serial_s = seconds(started, time.perf_counter())
        with open(os.path.join(run_dir, "reference.json"), "w") as handle:
            json.dump({"rows": len(data), "digest": rows_digest(data),
                       "requests": luminati.request_count}, handle)
        return {"serial_probes_per_s": luminati.request_count / serial_s}

    def setup(self, seed: int, run_dir: str, rep_dir: str) -> dict:
        luminati, urls, countries = self._inputs()
        with open(os.path.join(run_dir, "reference.json")) as handle:
            reference = json.load(handle)
        return {"luminati": luminati, "urls": urls,
                "countries": countries, "seed": seed, "reference": reference,
                "workers": nproc()}

    def run(self, state: dict) -> Outcome:
        luminati = state["luminati"]
        engine = ScanEngine(Lumscan(luminati, seed=state["seed"]),
                            workers=state["workers"], executor="process")
        data = engine.scan(state["urls"], state["countries"],
                           samples=SCAN_SAMPLES)
        return Outcome(requests=luminati.request_count, dataset=data,
                       init_stats=engine.worker_init_stats())

    def check(self, state: dict, outcome: Outcome) -> Dict[str, bool]:
        reference = state["reference"]
        data = outcome.dataset
        return {
            "rows.equal_serial": len(data) == reference["rows"]
            and rows_digest(data) == reference["digest"],
            "requests.equal_serial": outcome.requests == reference["requests"],
            "workers.spawned": bool(outcome.init_stats)
            and outcome.init_stats.spawned >= 1,
        }


WORKLOADS = {w.name: w for w in (SuiteFresh(), SuiteResume(), ScanProcess())}
