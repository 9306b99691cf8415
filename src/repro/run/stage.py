"""Stage, RunContext, and per-stage instrumentation records.

A :class:`Stage` is a named phase of a study with *declared* outputs: the
function receives the :class:`RunContext`, reads earlier stages' artifacts
from ``context.artifacts``, and returns a dict holding exactly the
artifacts it declared.  Declaring outputs (name + kind) up front is what
lets the runner checkpoint them without knowing anything about the study,
and lets a resumed run load them back without executing the stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Artifact kinds understood by the store.
KIND_DATASET = "dataset"     # ScanDataset -> LSHD (legacy JSONL still loads)
KIND_JSON = "json"           # derived values -> versioned, tagged JSON


@dataclass(frozen=True)
class ArtifactSpec:
    """One declared stage output."""

    name: str
    kind: str = KIND_JSON

    def __post_init__(self) -> None:
        if self.kind not in (KIND_DATASET, KIND_JSON):
            raise ValueError(f"unknown artifact kind {self.kind!r}")


@dataclass(frozen=True)
class Stage:
    """One named study phase with declared output artifacts."""

    name: str
    outputs: Tuple[ArtifactSpec, ...]
    run: Callable[["RunContext"], Dict[str, object]]

    def output_names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.outputs)


@dataclass
class StageStats:
    """Wall-time / probe-count / cache-hit counters for one stage run."""

    stage: str
    seconds: float = 0.0
    probes: int = 0              # probes issued while the stage executed
    cache_hit: bool = False      # True when loaded from a checkpoint
    artifacts: int = 0           # number of artifacts produced/loaded
    records: int = 0             # total ScanDataset rows produced/loaded
    workers_spawned: int = 0     # worker processes initialized this stage
    worker_spawn_seconds: float = 0.0   # summed worker initializer time
    world_build_seconds: float = 0.0    # world rebuild/pack-load portion
    worker_pack_loads: int = 0   # workers that mapped a frozen worldpack

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for logs and the experiment report."""
        return {
            "stage": self.stage,
            "seconds": round(self.seconds, 3),
            "probes": self.probes,
            "cache_hit": self.cache_hit,
            "artifacts": self.artifacts,
            "records": self.records,
            "workers_spawned": self.workers_spawned,
            "worker_spawn_seconds": round(self.worker_spawn_seconds, 3),
            "world_build_seconds": round(self.world_build_seconds, 3),
            "worker_pack_loads": self.worker_pack_loads,
        }


@dataclass
class RunContext:
    """Shared state threaded through a study's stages.

    ``scanner`` satisfies the :class:`repro.lumscan.base.Scanner` protocol
    (a :class:`~repro.lumscan.scanner.Lumscan` or the parallel
    :class:`~repro.lumscan.engine.ScanEngine`).  ``extras`` carries study
    inputs that are not artifacts (clients, catalogs); ``artifacts``
    accumulates every completed stage's outputs; ``stats`` records one
    entry per executed (or checkpoint-loaded) stage.
    """

    world: object
    config: object
    scanner: object = None
    extras: Dict[str, object] = field(default_factory=dict)
    artifacts: Dict[str, object] = field(default_factory=dict)
    stats: List[StageStats] = field(default_factory=list)
    probe_counter: Optional[Callable[[], int]] = None

    def artifact(self, name: str) -> object:
        """A completed stage's output (raises KeyError when absent)."""
        try:
            return self.artifacts[name]
        except KeyError:
            raise KeyError(
                f"artifact {name!r} not produced yet; completed artifacts: "
                f"{sorted(self.artifacts)}") from None

    def probes_issued(self) -> int:
        """Current probe count (0 when no counter is wired)."""
        return self.probe_counter() if self.probe_counter is not None else 0
