"""Command-line interface: run studies and emit the experiment report.

Examples::

    repro-geoblock run --scale tiny --out report.md
    repro-geoblock top10k --scale small
    repro-geoblock table 9
    repro-geoblock figure 5
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.analysis.experiments import ExperimentSuite
from repro.analysis.report import render_figure, render_table
from repro.core.pipeline import StudyConfig, run_top10k_study
from repro.util.clock import Clock, SystemClock
from repro.websim.world import World, WorldConfig

_SCALES = {
    "nano": WorldConfig.nano,
    "tiny": WorldConfig.tiny,
    "small": WorldConfig.small,
    "paper": WorldConfig.paper,
}


def int_at_least(minimum: int):
    """An argparse ``type`` that accepts integers ``>= minimum`` only."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _world(scale: str, seed: int) -> World:
    try:
        factory = _SCALES[scale]
    except KeyError:
        raise SystemExit(f"unknown scale {scale!r}; choose from {sorted(_SCALES)}")
    return World(factory(seed=seed))


def _cmd_run(args: argparse.Namespace) -> int:
    world = _world(args.scale, args.seed)
    config = StudyConfig(seed=args.seed, workers=args.workers)
    suite = ExperimentSuite(world, study_config=config,
                            checkpoint_dir=args.checkpoint_dir,
                            resume=args.resume)
    stopwatch = args.clock.stopwatch()
    report = suite.run(include_top1m=not args.no_top1m,
                       include_vps=not args.no_vps,
                       include_ooni=not args.no_ooni)
    elapsed = stopwatch.elapsed()
    if args.save_json:
        from repro.analysis.store import save_report
        save_report(report, args.save_json)
        print(f"report JSON written to {args.save_json}")
    text = report.to_markdown() if args.markdown else report.to_text()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.out} ({elapsed:.1f}s)")
    else:
        print(text)
        print(f"\n(completed in {elapsed:.1f}s)")
    from repro.analysis.summary import executive_summary
    print("\nExecutive summary:")
    print(executive_summary(report.findings))
    return 0


def _cmd_top10k(args: argparse.Namespace) -> int:
    world = _world(args.scale, args.seed)
    result = run_top10k_study(world, config=StudyConfig(seed=args.seed))
    print(f"safe domains: {len(result.safe_domains)}")
    print(f"confirmed instances: {len(result.confirmed)}")
    print(f"unique geoblocking domains: {len(result.confirmed_domains)}")
    print("top countries:", result.instances_by_country().most_common(10))
    print("providers:", dict(result.instances_by_provider()))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    world = _world(args.scale, args.seed)
    suite = ExperimentSuite(world)
    number = args.number
    needs_top1m = number in (7, 8)
    report = suite.run(include_top1m=needs_top1m, include_vps=False,
                       include_ooni=False, include_pools=False)
    key = f"table{number}"
    if key not in report.tables:
        raise SystemExit(f"no such table: {number}")
    print(render_table(report.tables[key]))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validation import render_validation, validate_findings

    world = _world(args.scale, args.seed)
    suite = ExperimentSuite(world)
    report = suite.run()
    results = validate_findings(report.findings)
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_appdiff(args: argparse.Namespace) -> int:
    from repro.core.appdiff import run_appdiff_study
    from repro.proxynet.luminati import LuminatiClient

    world = _world(args.scale, args.seed)
    commerce = [d.name for d in world.population
                if d.category in ("Shopping", "Travel", "Auctions",
                                  "Personal Vehicles")
                and not d.dead and not d.redirect_loop
                and d.name not in world.policies][: args.domains]
    countries = world.registry.luminati_codes()[: args.countries]
    result = run_appdiff_study(LuminatiClient(world), commerce, countries)
    print(f"surveyed {result.surveyed_domains} domains from "
          f"{result.surveyed_countries} countries")
    for finding in result.findings:
        print(f"  {finding.kind:16s} {finding.domain:26s} "
              f"{finding.country}  {finding.detail}")
    if not result.findings:
        print("  (no application-layer discrimination found)")
    return 0


def _cmd_timeouts(args: argparse.Namespace) -> int:
    from repro.core.timeouts import run_timeout_study
    from repro.lumscan.scanner import Lumscan
    from repro.proxynet.luminati import LuminatiClient

    world = _world(args.scale, args.seed)
    luminati = LuminatiClient(world)
    scanner = Lumscan(luminati, seed=args.seed)
    urls = [d.url for d in world.population.top(args.domains) if not d.dead]
    data = scanner.scan(urls, luminati.countries(), samples=3)
    study = run_timeout_study(scanner, data)
    print(f"candidates: {len(study.candidates)}  "
          f"confirmed: {len(study.confirmed)}  "
          f"unambiguous: {len(study.unambiguous)}")
    for block in study.confirmed:
        note = " (censoring country — unattributable)" \
            if block.ambiguous_censorship else ""
        print(f"  {block.domain:26s} {block.country}{note}")
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_findings

    findings_by_seed = {}
    for seed in args.seeds:
        world = _world(args.scale, seed)
        suite = ExperimentSuite(world)
        report = suite.run(include_top1m=False, include_vps=False,
                           include_ooni=False, include_pools=False)
        findings_by_seed[seed] = report.findings
    stability = compare_findings(findings_by_seed)
    print(f"seeds: {stability.seeds}")
    print(f"stable checks ({len(stability.stable_checks())}):")
    for name in stability.stable_checks():
        print(f"  [STABLE]   {name}")
    for name in stability.unstable_checks():
        print(f"  [UNSTABLE] {name}")
    print(f"stability rate: {stability.stability_rate():.0%}")
    return 0 if stability.stability_rate() >= 0.8 else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(list(args.lint_args))


def _print_segment_header(path: str, header: dict) -> None:
    import os

    import numpy as np

    size = os.stat(path).st_size
    print(f"segment:     {path}")
    print(f"version:     {header.get('version')}")
    print(f"rows:        {header.get('n')}")
    print(f"file bytes:  {size}")
    fingerprint = header.get("fingerprint")
    print(f"fingerprint: {fingerprint if fingerprint else '(absent)'}")
    print("columns:")
    for name, dtype, offset, nbytes in header.get("columns", []):
        rows = nbytes // np.dtype(dtype).itemsize
        print(f"  {name:10s} {dtype:4s} offset={offset:<10d} "
              f"bytes={nbytes:<10d} rows={rows}")
    print("json sections:")
    for name, offset, nbytes in header.get("json", []):
        print(f"  {name:10s}      offset={offset:<10d} bytes={nbytes}")


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    from repro.lumscan.serialize import sniff_format
    from repro.lumscan.shards import read_segment_header

    path = args.path
    try:
        fmt = sniff_format(path)
    except OSError as exc:
        raise SystemExit(f"{path}: {exc}")
    if fmt != "lshd":
        raise SystemExit(f"{path}: not an LSHD segment (looks like {fmt}; "
                         f"legacy JSONL checkpoints are loadable but carry "
                         f"no columnar header)")
    try:
        header = read_segment_header(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{path}: {exc}")
    _print_segment_header(path, header)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    world = _world(args.scale, args.seed)
    suite = ExperimentSuite(world)
    number = args.number
    report = suite.run(include_top1m=False, include_vps=False,
                       include_ooni=False, include_pools=number in (1, 3))
    key = f"figure{number}"
    if key not in report.figures:
        raise SystemExit(f"no such figure: {number}")
    print(render_figure(report.figures[key]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-geoblock",
        description="Reproduce the IMC'18 CDN geoblocking study on a "
                    "synthetic Internet.",
    )
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument("--scale", default="tiny", choices=sorted(_SCALES),
                        help="world size preset")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full experiment suite")
    run.add_argument("--out", help="write the report to a file")
    run.add_argument("--save-json", help="also save the report as JSON")
    run.add_argument("--markdown", action="store_true",
                     help="emit markdown instead of plain text")
    run.add_argument("--no-top1m", action="store_true")
    run.add_argument("--no-vps", action="store_true")
    run.add_argument("--no-ooni", action="store_true")
    run.add_argument("--checkpoint-dir", default=None,
                     help="persist per-stage study artifacts here")
    run.add_argument("--resume", action="store_true",
                     help="skip stages with complete checkpoints "
                          "(requires --checkpoint-dir)")
    run.add_argument("--workers", type=int_at_least(1), default=1,
                     help="scan-engine width: 1 probes inline, N > 1 runs "
                          "a pool of N processes; output is identical for "
                          "any count (default: 1)")
    run.set_defaults(func=_cmd_run)

    top10k = sub.add_parser("top10k", help="run only the Top-10K study")
    top10k.set_defaults(func=_cmd_top10k)

    table = sub.add_parser("table", help="print one reproduced table")
    table.add_argument("number", type=int, choices=range(1, 10))
    table.set_defaults(func=_cmd_table)

    figure = sub.add_parser("figure", help="print one reproduced figure")
    figure.add_argument("number", type=int, choices=range(1, 6))
    figure.set_defaults(func=_cmd_figure)

    validate = sub.add_parser(
        "validate", help="run the suite and check the paper's shape claims")
    validate.set_defaults(func=_cmd_validate)

    appdiff = sub.add_parser(
        "appdiff", help="survey commerce sites for feature/price differences")
    appdiff.add_argument("--domains", type=int_at_least(1), default=60)
    appdiff.add_argument("--countries", type=int_at_least(1), default=20)
    appdiff.set_defaults(func=_cmd_appdiff)

    timeouts = sub.add_parser(
        "timeouts", help="detect timeout-style geoblocking")
    timeouts.add_argument("--domains", type=int_at_least(1), default=400)
    timeouts.set_defaults(func=_cmd_timeouts)

    stability = sub.add_parser(
        "stability", help="check shape stability across world seeds")
    stability.add_argument("--seeds", type=int, nargs="+",
                           default=[7, 8, 9])
    stability.set_defaults(func=_cmd_stability)

    store = sub.add_parser("store", help="inspect on-disk dataset artifacts")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    inspect = store_sub.add_parser(
        "inspect", help="print an LSHD segment's header without mapping "
                        "column buffers")
    inspect.add_argument("path", help="path to an .lshd segment file")
    inspect.set_defaults(func=_cmd_store_inspect)

    lint = sub.add_parser(
        "lint", help="run the determinism/concurrency-purity linter",
        add_help=False)
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to python -m repro.lint")
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[list] = None, clock: Optional[Clock] = None) -> int:
    """CLI entry point.

    ``clock`` is the injectable time source for elapsed-time reporting;
    tests pass a frozen :class:`~repro.util.clock.ManualClock`.
    """
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    if raw and raw[0] == "lint":
        # Forward everything verbatim: the lint CLI owns its own parser,
        # and argparse.REMAINDER will not capture leading option flags.
        from repro.lint.cli import main as lint_main
        return lint_main(raw[1:])
    parser = build_parser()
    args = parser.parse_args(raw)
    if args.command == "run" and args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    args.clock = clock if clock is not None else SystemClock()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
