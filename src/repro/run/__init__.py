"""Staged study execution: composable stages with checkpointed artifacts.

The studies in :mod:`repro.core.pipeline` are paper-scale measurement
campaigns (~4.2M probes); a failure near the end used to mean recomputing
every phase.  This package turns each study into an explicit stage graph:

* :class:`Stage` — one named phase with declared output artifacts;
* :class:`RunContext` — the shared state a stage reads from and writes to;
* :class:`ArtifactStore` — fingerprint-keyed, crash-safe checkpointing of
  stage outputs (scan datasets as mmap-able LSHD segments, derived
  artifacts as versioned JSON);
* :class:`StudyRunner` — executes a stage list in order, skipping stages
  whose checkpoints are complete and loading their artifacts instead.

The resume contract mirrors the determinism contract of
:class:`repro.lumscan.engine.ScanEngine`: because every probe's outcome is
a pure function of its task identity, a resumed run that loads completed
stages from disk produces **bit-identical** results to a fresh end-to-end
run at the same seed.
"""

from repro.run.artifacts import EXECUTION_ONLY, ArtifactStore, run_fingerprint
from repro.run.codecs import decode_artifact, encode_artifact
from repro.run.runner import StudyRunner
from repro.run.stage import (
    KIND_DATASET,
    KIND_JSON,
    ArtifactSpec,
    RunContext,
    Stage,
    StageStats,
)

__all__ = [
    "ArtifactSpec",
    "ArtifactStore",
    "EXECUTION_ONLY",
    "KIND_DATASET",
    "KIND_JSON",
    "RunContext",
    "Stage",
    "StageStats",
    "StudyRunner",
    "decode_artifact",
    "encode_artifact",
    "run_fingerprint",
]
