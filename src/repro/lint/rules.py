"""Rule registry: ids, severities, rationale, and the name tables they use.

A :class:`Rule` is pure metadata — detection logic lives in
:mod:`repro.lint.checks` (per-module AST checks) and
:mod:`repro.lint.engine` (the cross-module reachability pass).  Keeping
the tables here makes the contract auditable in one place and lets the
docs and ``--list-rules`` render straight from the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARN = "warn"


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, default severity, and rationale.

    ``example`` and ``fix`` feed ``--explain <RULE>``: a minimal
    violating snippet and the sanctioned repair pattern (including the
    ``# lint:`` directive vocabulary where one applies).
    """

    rule_id: str
    severity: str
    summary: str
    rationale: str
    example: str = ""
    fix: str = ""


RULES: Tuple[Rule, ...] = (
    Rule(
        rule_id="wall-clock",
        severity=SEVERITY_ERROR,
        summary="direct clock read outside repro.util.clock",
        rationale=(
            "time.time()/datetime.now()/perf_counter() make output a "
            "function of when the code ran, not of (seed, config).  All "
            "elapsed-time measurement goes through the injectable "
            "repro.util.clock.Clock so tests can freeze it and replayed "
            "runs stay comparable."
        ),
    ),
    Rule(
        rule_id="raw-entropy",
        severity=SEVERITY_ERROR,
        summary="OS entropy source (os.urandom / uuid / secrets)",
        rationale=(
            "Kernel entropy can never be replayed.  Identifiers and "
            "tokens must be drawn from a derived generator "
            "(repro.util.rng.derive_rng) so two runs with the same seed "
            "emit identical streams."
        ),
    ),
    Rule(
        rule_id="global-random",
        severity=SEVERITY_ERROR,
        summary="module-level random.* call (shared global stream)",
        rationale=(
            "The module-level random functions share one global Mersenne "
            "state: any new consumer perturbs every stream drawn after "
            "it, and worker interleaving makes draws order-dependent.  "
            "Task code must use generators derived via "
            "repro.util.rng.derive_rng (random.Random construction is "
            "allowed)."
        ),
    ),
    Rule(
        rule_id="fs-order",
        severity=SEVERITY_ERROR,
        summary="unsorted filesystem enumeration",
        rationale=(
            "os.listdir/glob.glob/Path.iterdir return entries in an "
            "order the filesystem chooses; anything derived from the "
            "sequence becomes machine-dependent.  Wrap the call in "
            "sorted(...) (or consume it order-insensitively)."
        ),
    ),
    Rule(
        rule_id="iter-order",
        severity=SEVERITY_ERROR,
        summary="unordered iteration flowing into a serialization sink",
        rationale=(
            "Set iteration order depends on PYTHONHASHSEED, and dict "
            "iteration is only deterministic when the insertion order "
            "is.  Where such iteration feeds a serializer "
            "(json.dump*, run.codecs.encode_artifact, "
            "lumscan.serialize, analysis.store), it must be wrapped in "
            "sorted(...) or carry an explicit order guarantee: "
            "# lint: ordered(<why the order is deterministic>)."
        ),
    ),
    Rule(
        rule_id="shared-mutation",
        severity=SEVERITY_ERROR,
        summary="shared self.* mutation on the scan-worker path",
        rationale=(
            "Code reachable from the ScanEngine worker surface runs "
            "concurrently; mutating self state there is a data race "
            "unless it goes through a sanctioned primitive "
            "(util.counters.ShardedCounter, util.cache.LRUCache / "
            "MemoDict), is guarded by a lock attribute, or the owning "
            "class is declared thread-confined "
            "(# lint: confined(<reason>) in the class body) because "
            "instances never cross workers (the queue/merge-in-parent "
            "pattern)."
        ),
    ),
    Rule(
        rule_id="spec-pickle",
        severity=SEVERITY_ERROR,
        summary="*Spec dataclass field is not statically picklable",
        rationale=(
            "Spec dataclasses are the recipes shipped to process-pool "
            "workers; every field annotation must resolve to a "
            "picklable type.  object/Any/Callable (and lock/thread/IO "
            "types) defeat the static guarantee that spawning a worker "
            "replica cannot fail at pickling time."
        ),
    ),
    # ----------------------------------------------------------------- #
    # Flow-sensitive resource-lifetime families (CFG + dataflow).
    Rule(
        rule_id="resource-leak",
        severity=SEVERITY_ERROR,
        summary="acquired handle not released on every path",
        rationale=(
            "Shard exchanges, worldpacks, segment mappings, shm "
            "blocks, and mmaps are acquired under a "
            "contract (repro.lint.contracts): every path from the "
            "acquisition to the function exit must release the handle "
            "or transfer ownership (return it, store it on self, pass "
            "it to a contract-listed handoff, or document the transfer "
            "with # lint: handoff(<reason>)).  A branch or early "
            "return that skips the release leaks the segment — and at "
            "top-1M scale every worker multiplies the leak."
        ),
        example=(
            "def scan(handle):\n"
            "    reader = open_shard(handle)\n"
            "    if reader is None:   # impossible, but illustrative\n"
            "        return None      # <- leak: exits without release\n"
            "    rows = count(reader)\n"
            "    reader.close()\n"
            "    return rows"
        ),
        fix=(
            "Use a with-block (with open_shard(handle) as reader: ...) "
            "or release in a finally block so every path passes the "
            "release.  For genuine ownership transfer, return the "
            "handle, register it on self, or annotate the transfer "
            "line with # lint: handoff(<who releases it>)."
        ),
    ),
    Rule(
        rule_id="release-guard",
        severity=SEVERITY_ERROR,
        summary="release runs only on the fall-through path",
        rationale=(
            "A release placed after raise-capable calls executes only "
            "when nothing raised: a worker crash or decode error skips "
            "it and the handle (and its shm segment or session "
            "directory) outlives the run.  The release must be "
            "exception-safe: inside a finally block, a with-block, or "
            "an except/BaseException cleanup that re-raises."
        ),
        example=(
            "def merge(spill_dir, payloads):\n"
            "    exchange = ShardExchange(spill_dir).open()\n"
            "    merge_all(exchange, payloads)  # <- may raise\n"
            "    exchange.close()               # <- skipped on raise"
        ),
        fix=(
            "Move the release into a finally block:\n"
            "    exchange = ShardExchange(spill_dir).open()\n"
            "    try:\n"
            "        merge_all(exchange, payloads)\n"
            "    finally:\n"
            "        exchange.close()\n"
            "or use the context-manager form (with ShardExchange(...) "
            "as exchange)."
        ),
    ),
    Rule(
        rule_id="buffer-escape",
        severity=SEVERITY_ERROR,
        summary="mapped-buffer view escapes before close()",
        rationale=(
            "Arrays decoded from a SegmentMapping or WorldPackReader "
            "are zero-copy views over the mmap: storing one on self, "
            "in a global, in a closure, or returning it while the "
            "mapping is closed in the same function leaves a dangling "
            "view (or pins the mapping so close() reports failure — "
            "the exact bug PR 7 fixed by hand).  Views must be copied "
            "out (.copy()/bytes()) before the buffer closes, or the "
            "mapping must travel with them."
        ),
        example=(
            "def load(path):\n"
            "    mapping = SegmentMapping(path)\n"
            "    cols = decode_shard(mapping.buffer)\n"
            "    mapping.close()      # <- views in cols now dangle\n"
            "    return cols"
        ),
        fix=(
            "Copy before the close (return {k: v.copy() for ...}) or "
            "keep the mapping open and transfer it together with the "
            "views (return mapping, cols) so the caller owns the "
            "lifetime."
        ),
    ),
    Rule(
        rule_id="atomic-write",
        severity=SEVERITY_ERROR,
        summary="checkpoint write bypasses temp-then-rename",
        rationale=(
            "Checkpoint segments (.lshd), stage manifests "
            "(manifest.json), and worldpacks (.lshw) are only valid "
            "when they appear atomically: a direct open(path, 'wb') "
            "can be interrupted mid-write and leave a torn file that "
            "resume then trusts.  All writes go through the "
            "contract-listed atomic writers, which write a "
            "'.tmp.<pid>' sibling and os.replace() it into place."
        ),
        example=(
            "def save(columns, stem):\n"
            "    with open(f\"{stem}.lshd\", \"wb\") as out:  # <- torn\n"
            "        out.write(encode_shard(columns)[0])      #    on crash"
        ),
        fix=(
            "Call the codec's atomic writer (write_segment_file, "
            "write_worldpack_file, _atomic_write_json, ...) or follow the idiom yourself: write to "
            "f\"{path}.tmp.{os.getpid()}\" and os.replace(tmp, path), "
            "removing the temp on BaseException."
        ),
    ),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}


def is_known_rule(rule_id: str) -> bool:
    """True when ``rule_id`` names a registered rule."""
    return rule_id in RULES_BY_ID


# --------------------------------------------------------------------- #
# Name tables the checks interpret.  Dotted names are post-resolution:
# the visitor canonicalizes imports/aliases before the lookup, so
# ``from time import time as now; now()`` still resolves to "time.time".

#: Clock reads (wall and monotonic) banned outside the clock module.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.localtime", "time.gmtime",
    "time.ctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Files allowed to touch the process clock: the Clock implementation is
#: the single sanctioned boundary between the repo and real time.
SANCTIONED_CLOCK_FILES = ("repro/util/clock.py",)

#: OS entropy sources that can never be replayed from a seed.
RAW_ENTROPY_CALLS = frozenset({
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5",
    "random.SystemRandom",
})

#: Any call into this namespace is raw entropy.
RAW_ENTROPY_PREFIXES = ("secrets.",)

#: Module-level random.* callables that are allowed (constructors of
#: private generators, not draws from the shared global stream).
GLOBAL_RANDOM_ALLOWED = frozenset({
    "random.Random",
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.Philox",
})

GLOBAL_RANDOM_PREFIXES = ("random.", "numpy.random.")

#: Filesystem enumerations whose order the OS chooses.
FS_ENUM_CALLS = frozenset({
    "os.listdir", "os.scandir", "os.walk",
    "glob.glob", "glob.iglob",
})

#: Method names treated as Path-style enumeration on any receiver.
FS_ENUM_METHODS = frozenset({"iterdir", "rglob"})

#: Wrappers that make enumeration/iteration order irrelevant.
ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all",
    "set", "frozenset", "Counter", "dict",
})

#: Serialization sinks: a function that calls one of these (or is one of
#: these) is a serialization context for the iter-order rule.
SERIALIZATION_SINKS = frozenset({
    "json.dump", "json.dumps",
    "encode_artifact", "dump_dataset", "save_report",
    "_atomic_write_json",
    "encode_shard", "write_shard", "decode_shard",
    "write_segment_file", "dump_dataset_lshd",
    "encode_worldpack", "write_worldpack_file", "write_worldpack_shm",
})

#: Functions whose own body *is* a serializer (context even without a
#: direct sink call in the body).
SERIALIZATION_FUNCTIONS = frozenset({
    "encode_artifact", "dump_dataset", "save_report",
    "encode_shard", "write_shard", "decode_shard",
    "write_segment_file", "dump_dataset_lshd",
    "encode_worldpack", "write_worldpack_file", "write_worldpack_shm",
})

#: Entry points of the scan-engine worker surface.  Reachability for the
#: shared-mutation rule starts here (dotted module paths, optionally
#: Class.method).
WORKER_ROOTS = (
    "repro.lumscan.engine.record_probe",
    "repro.lumscan.engine._process_run_chunk",
    "repro.lumscan.scanner.Lumscan.run_task",
    "repro.proxynet.luminati.LuminatiClient.request",
    "repro.proxynet.transport.fetch_with_redirects",
    "repro.websim.world.World.fetch",
)

#: Concurrency primitives whose mutation API is sanctioned on the worker
#: path (their internal implementation files are likewise exempt).
SANCTIONED_MUTABLE_TYPES = frozenset({
    "ShardedCounter", "LRUCache", "MemoDict",
    "Queue", "SimpleQueue", "LifoQueue", "deque",
})

#: Implementation files of the sanctioned primitives (exempt from the
#: shared-mutation rule — they *are* the synchronization layer).
SANCTIONED_IMPL_FILES = ("repro/util/counters.py", "repro/util/cache.py")

#: Lock-ish types: a with-block on a self attribute of one of these
#: types sanctions the mutations inside it.
LOCK_TYPES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: Thread-local containers: attribute writes through these are private
#: to the writing thread by construction.
THREAD_LOCAL_TYPES = frozenset({"local"})

#: Mutating method names on unsanctioned receivers.
MUTATOR_METHODS = frozenset({
    "append", "add", "update", "setdefault", "pop", "popitem",
    "clear", "remove", "discard", "extend", "insert", "put",
    "sort", "reverse", "increment", "appendleft", "extendleft",
})

#: Annotation heads that are always picklable.
PICKLABLE_LEAVES = frozenset({
    "str", "int", "float", "bool", "bytes", "complex", "None",
    "NoneType",
})

#: Typing containers whose arguments must recursively be picklable.
PICKLABLE_CONTAINERS = frozenset({
    "Optional", "Tuple", "List", "Dict", "Set", "FrozenSet",
    "Sequence", "Mapping", "Iterable", "Union", "tuple", "list",
    "dict", "set", "frozenset",
})

#: Annotation heads that defeat the static pickling guarantee.
UNPICKLABLE_LEAVES = frozenset({
    "object", "Any", "Callable", "Lock", "RLock", "Thread",
    "TextIO", "BinaryIO", "IO", "Generator", "Iterator",
})
