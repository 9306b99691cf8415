"""One-stop experiment runner: every table, figure, and headline number.

:class:`ExperimentSuite` runs the full study stack over a world —
exploration (§3.1), Top-10K (§4), Top-1M (§5), Cloudflare rules (§6), and
OONI confounding (§7.1) — builds all nine tables and five figures, and
renders a markdown report with paper-vs-measured comparisons.

Paper reference values live in :data:`PAPER_REFERENCE`.  Absolute counts
are scale-dependent (the synthetic Top-1M is smaller than the real one);
the comparisons that must hold are *shapes*: orderings, rates, and ratios.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

logger = logging.getLogger("repro.experiments")

from repro.analysis import figures as figs
from repro.analysis import tables as tabs
from repro.analysis.report import render_figure, render_markdown_table, render_table
from repro.core.metrics import (
    overall_recall,
    recall_by_fingerprint,
    score_confirmed_blocks,
)
from repro.core.pipeline import (
    StudyConfig,
    Top10KResult,
    Top1MResult,
    VPSExplorationResult,
    _build_engine,
    build_observation_pools,
    run_top10k_study,
    run_top1m_study,
    run_vps_exploration,
)
from repro.datasets.citizenlab import CitizenLabList
from repro.datasets.cloudflare_rules import CloudflareRuleDataset
from repro.datasets.fortiguard import FortiGuardClient
from repro.datasets.ooni import (
    OONICorpus,
    control_blocking_stats,
    find_geoblock_confounding,
)
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient
from repro.websim.world import World

#: Published values used for the paper-vs-measured comparison.
PAPER_REFERENCE: Dict[str, object] = {
    "top10k.safe_domains": 8003,
    "top10k.instances": 596,
    "top10k.unique_domains": 100,
    "top10k.countries_blocked": 165,
    "top10k.median_blocked_per_country": 3,
    "top10k.max_blocked_syria": 71,
    "top10k.top_countries": ["SY", "IR", "SD", "CU"],
    "top10k.appengine_rate": 0.407,
    "top10k.cloudflare_rate": 0.031,
    "top10k.cloudfront_rate": 0.014,
    "top10k.length_recall": 0.583,
    "table1.clusters": 119,
    "table1.discovered_cdns": 7,
    "fig1.frac_below_80_at_20": 0.039,
    "fig3.fn_at_3": 0.017,
    "top1m.rate_any": 0.044,
    "top1m.appengine_rate": 0.168,
    "top1m.cloudflare_rate": 0.026,
    "top1m.cloudfront_rate": 0.031,
    "top1m.top_countries": ["IR", "SD", "SY", "CU"],
    "top1m.median_blocked_per_country": 4,
    "ooni.domain_fraction": 0.09,
    "vps.fp_rate": 0.27,
    "table9.baseline_enterprise": 0.3707,
    "table9.baseline_free": 0.0172,
}


@dataclass
class ExperimentReport:
    """All artifacts produced by a suite run."""

    tables: Dict[str, tabs.TableData] = field(default_factory=dict)
    figures: Dict[str, figs.FigureData] = field(default_factory=dict)
    findings: Dict[str, object] = field(default_factory=dict)
    #: Per-study stage instrumentation (wall time, probes, checkpoint
    #: hits), keyed by study name.  Diagnostics only — deliberately kept
    #: out of :meth:`to_text`/:meth:`to_markdown` so rendered reports stay
    #: byte-identical across fresh and resumed runs.
    stage_stats: Dict[str, List[Dict[str, object]]] = field(
        default_factory=dict)

    def to_text(self) -> str:
        """Render everything as plain text."""
        parts: List[str] = []
        for key in sorted(self.tables):
            parts.append(render_table(self.tables[key]))
            parts.append("")
        for key in sorted(self.figures):
            parts.append(render_figure(self.figures[key]))
            parts.append("")
        parts.append("Headline findings (measured vs paper):")
        for key in sorted(self.findings):
            paper = PAPER_REFERENCE.get(key, "-")
            parts.append(f"  {key}: measured={self.findings[key]} paper={paper}")
        return "\n".join(parts)

    def to_markdown(self) -> str:
        """Render everything as markdown (EXPERIMENTS.md body)."""
        parts: List[str] = []
        for key in sorted(self.tables):
            table = self.tables[key]
            parts.append(f"### {table.title}\n")
            parts.append(render_markdown_table(table))
            parts.append("")
        for key in sorted(self.figures):
            figure = self.figures[key]
            parts.append(f"### {figure.title}\n")
            parts.append("```")
            parts.append(render_figure(figure))
            parts.append("```")
            parts.append("")
        parts.append("### Headline findings (measured vs paper)\n")
        parts.append("| Metric | Measured | Paper |")
        parts.append("|---|---|---|")
        for key in sorted(self.findings):
            paper = PAPER_REFERENCE.get(key, "—")
            parts.append(f"| `{key}` | {self.findings[key]} | {paper} |")
        return "\n".join(parts)


class ExperimentSuite:
    """Runs the complete reproduction over one world.

    Checkpoints are always LSHD segments; ``checkpoint_format`` is kept
    for older callers and accepts only ``"lshd"``.
    """

    def __init__(self, world: World,
                 study_config: Optional[StudyConfig] = None,
                 checkpoint_dir: Optional[str] = None,
                 resume: bool = False,
                 checkpoint_format: str = "lshd") -> None:
        if checkpoint_format != "lshd":
            raise ValueError(f"checkpoint_format must be 'lshd', "
                             f"got {checkpoint_format!r}")
        self.world = world
        self.config = study_config or StudyConfig(seed=world.config.seed)
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.luminati = LuminatiClient(world)
        self.fortiguard = FortiGuardClient(world.population, world.taxonomy,
                                           seed=world.config.seed)
        self.top10k: Optional[Top10KResult] = None
        self.top1m: Optional[Top1MResult] = None
        self.vps: Optional[VPSExplorationResult] = None

    # ------------------------------------------------------------------ #

    def run(self, include_top1m: bool = True, include_vps: bool = True,
            include_ooni: bool = True, include_pools: bool = True,
            pool_pairs: int = 60, pool_samples: int = 100,
            cf_rule_zones: int = 120_000) -> ExperimentReport:
        """Run every experiment and assemble the report."""
        report = ExperimentReport()
        world = self.world

        logger.info("suite: starting Top-10K study")
        self.top10k = run_top10k_study(world, self.luminati, self.config,
                                       checkpoint_dir=self.checkpoint_dir,
                                       resume=self.resume)
        result = self.top10k
        report.stage_stats["top10k"] = [s.as_dict()
                                        for s in result.stage_stats]
        top10k_size = min(10_000, len(world.population))

        report.tables["table1"] = tabs.table1(result, top10k_size)
        recall_rows = recall_by_fingerprint(
            result.initial, result.representatives,
            cutoff=self.config.length_cutoff,
            registry=result.registry,
            restrict_countries=result.top_blocking_countries[
                : self.config.top_k_countries])
        report.tables["table2"] = tabs.table2(recall_rows)
        report.tables["table3"] = tabs.table3(result, self.fortiguard)
        report.tables["table4"] = tabs.table4(result, self.fortiguard)
        report.tables["table5"] = tabs.table5(result)
        report.tables["table6"] = tabs.table6(result)

        report.figures["figure2"] = figs.figure2(
            result.initial,
            result.top_blocking_countries[: self.config.top_k_countries],
            result.registry)
        report.figures["figure4"] = figs.figure4(result)

        self._top10k_findings(report, result, recall_rows)

        if include_pools and result.confirmed:
            pairs = [(c.domain, c.country) for c in result.confirmed][:pool_pairs]
            scanner = _build_engine(
                Lumscan(self.luminati, seed=self.config.seed), self.config,
                None)
            pools = build_observation_pools(world, scanner, pairs,
                                            result.registry,
                                            samples=pool_samples)
            report.figures["figure1"] = figs.figure1(pools)
            report.figures["figure3"] = figs.figure3(pools)
            report.findings["fig1.frac_below_80_at_20"] = round(
                figs.figure1_stat(report.figures["figure1"], size=20), 4)
            fn_curve = {int(x): y for x, y in
                        report.figures["figure3"].series["false negatives"]}
            report.findings["fig3.fn_at_3"] = round(fn_curve.get(3, 0.0), 4)

        if include_top1m:
            logger.info("suite: starting Top-1M study")
            self.top1m = run_top1m_study(world, self.luminati, self.config,
                                         registry=result.registry,
                                         checkpoint_dir=self.checkpoint_dir,
                                         resume=self.resume)
            report.stage_stats["top1m"] = [s.as_dict()
                                           for s in self.top1m.stage_stats]
            report.tables["table7"] = tabs.table7(self.top1m)
            report.tables["table8"] = tabs.table8(self.top1m, self.fortiguard)
            self._top1m_findings(report, self.top1m)

        if include_vps:
            logger.info("suite: starting VPS exploration")
            self.vps = run_vps_exploration(world, registry=result.registry)
            report.findings["vps.fp_rate"] = round(
                self.vps.false_positive_rate, 4)
            report.findings["vps.iran_403"] = self.vps.iran_403_count
            report.findings["vps.us_403"] = self.vps.us_403_count
            report.findings["vps.iran_blockpage"] = self.vps.iran_blockpage_count
            report.findings["vps.us_blockpage"] = self.vps.us_blockpage_count
            report.findings["vps.flagged_pairs"] = len(self.vps.flagged_pairs)
            report.findings["vps.genuine_pairs"] = len(self.vps.genuine_pairs)

        rules = CloudflareRuleDataset.generate(n_zones=cf_rule_zones,
                                               seed=world.config.seed)
        report.tables["table9"] = tabs.table9(rules)
        report.figures["figure5"] = figs.figure5(rules)
        baselines = rules.baseline_rates()
        report.findings["table9.baseline_enterprise"] = round(
            baselines["enterprise"], 4)
        report.findings["table9.baseline_free"] = round(baselines["free"], 4)

        logger.info("suite: starting timeout study")
        self._run_timeout_study(report, result)

        logger.info("suite: starting application-layer survey")
        self._run_appdiff_study(report, result)

        if include_ooni:
            logger.info("suite: starting OONI analysis")
            self._run_ooni(report, result)

        logger.info("suite: done")
        return report

    # ------------------------------------------------------------------ #

    def _top10k_findings(self, report: ExperimentReport,
                         result: Top10KResult, recall_rows) -> None:
        world = self.world
        per_country = result.instances_by_country()
        tested_countries = result.countries
        counts = [per_country.get(c, 0) for c in tested_countries]
        findings = report.findings
        findings["top10k.safe_domains"] = len(result.safe_domains)
        findings["top10k.instances"] = len(result.confirmed)
        findings["top10k.unique_domains"] = len(result.confirmed_domains)
        findings["top10k.countries_blocked"] = len(result.confirmed_countries)
        findings["top10k.median_blocked_per_country"] = (
            statistics.median(counts) if counts else 0)
        top = [c for c, _ in per_country.most_common(4)]
        findings["top10k.top_countries"] = top
        findings["top10k.length_recall"] = round(overall_recall(recall_rows), 4)
        findings["table1.clusters"] = report.tables["table1"].rows[0][4]
        findings["table1.discovered_cdns"] = report.tables["table1"].rows[0][5]

        # Per-provider adoption among Top-10K customers (§4.2.1), measured
        # the way the paper did: via the §5.1.1 identification methods.
        from repro.core.identify import identify_cdn_customers
        from repro.datasets.alexa import AlexaList
        population = identify_cdn_customers(
            world, AlexaList(world.population).top10k())
        blocked_by: Dict[str, set] = {}
        for c in result.confirmed:
            blocked_by.setdefault(c.provider, set()).add(c.domain)
        for provider in ("appengine", "cloudflare", "cloudfront"):
            customers = population.of(provider)
            blocked = blocked_by.get(provider, set()) & customers
            rate = len(blocked) / len(customers) if customers else 0.0
            findings[f"top10k.{provider}_rate"] = round(rate, 4)

        score = score_confirmed_blocks(world, result.confirmed,
                                       result.safe_domains, result.countries)
        findings["top10k.gt_precision"] = round(score.precision, 4)
        findings["top10k.gt_recall"] = round(score.recall, 4)

    def _top1m_findings(self, report: ExperimentReport,
                        result: Top1MResult) -> None:
        findings = report.findings
        rates = result.provider_rates()
        for provider in ("appengine", "cloudflare", "cloudfront"):
            blocked, tested = rates.get(provider, (0, 0))
            findings[f"top1m.{provider}_rate"] = round(
                blocked / tested, 4) if tested else 0.0
        sampled = len(result.sampled_domains)
        findings["top1m.rate_any"] = round(
            len(result.confirmed_domains) / sampled, 4) if sampled else 0.0
        per_country = result.instances_by_country()
        findings["top1m.top_countries"] = [c for c, _ in per_country.most_common(4)]
        counts = [per_country.get(c, 0) for c in result.countries]
        findings["top1m.median_blocked_per_country"] = (
            statistics.median(counts) if counts else 0)
        nonexp = result.confirmed_nonexplicit()
        findings["top1m.akamai_confirmed"] = len(nonexp.get("akamai", []))
        findings["top1m.incapsula_confirmed"] = len(nonexp.get("incapsula", []))

    def _run_timeout_study(self, report: ExperimentReport,
                           result: Top10KResult) -> None:
        """§7.3 extension: timeout-based geoblocking over the initial scan."""
        from repro.core.timeouts import run_timeout_study
        from repro.websim.policies import ACTION_DROP

        scanner = _build_engine(
            Lumscan(self.luminati, seed=self.config.seed), self.config, None)
        study = run_timeout_study(scanner, result.initial)
        report.findings["timeout.candidates"] = len(study.candidates)
        report.findings["timeout.confirmed"] = len(study.confirmed)
        report.findings["timeout.unambiguous"] = len(study.unambiguous)
        drop_truth = {
            name for name, policy in self.world.policies.items()
            if policy.action == ACTION_DROP and policy.active(1)
        }

        def _is_drop(block) -> bool:
            return (block.domain in drop_truth
                    and self.world.is_geoblocked(block.domain, block.country,
                                                 epoch=1))

        def _is_censored(block) -> bool:
            domain = self.world.population.get(block.domain)
            return block.country in domain.censored_in

        # A detection is *correct* when the pair genuinely never answers —
        # an operator's drop policy or a censor's drops.  Attribution is a
        # separate question: only detections outside censoring countries
        # can be pinned on the operator.
        correct = sum(1 for c in study.confirmed
                      if _is_drop(c) or _is_censored(c))
        report.findings["timeout.detection_precision"] = (
            round(correct / len(study.confirmed), 4)
            if study.confirmed else 1.0)
        unambiguous = study.unambiguous
        attributable_hits = sum(1 for c in unambiguous if _is_drop(c))
        report.findings["timeout.attributable_precision"] = (
            round(attributable_hits / len(unambiguous), 4)
            if unambiguous else 1.0)

    def _run_appdiff_study(self, report: ExperimentReport,
                           result: Top10KResult,
                           max_domains: int = 250,
                           max_countries: int = 35) -> None:
        """§7.3 extension: feature/price discrimination survey."""
        from repro.core.appdiff import run_appdiff_study

        world = self.world
        commerce_categories = ("Shopping", "Travel", "Auctions",
                               "Personal Vehicles")
        commerce = [d for d in result.safe_domains
                    if self.fortiguard.categorize(d) in commerce_categories]
        commerce = commerce[:max_domains]
        # The survey set must mix price-raised rich markets with baseline
        # markets and cover the abuse-heavy countries feature removal
        # targets; the front of the registry does both.
        countries = [c for c in world.registry.luminati_codes()
                     ][:max_countries]
        survey = run_appdiff_study(self.luminati, commerce, countries,
                                   samples=2)
        report.findings["appdiff.surveyed"] = len(commerce)
        report.findings["appdiff.feature_findings"] = len(
            survey.by_kind("feature-removal"))
        report.findings["appdiff.price_findings"] = len(survey.by_kind("price"))
        from repro.core.appdiff import is_genuine
        genuine = sum(
            1 for finding in survey.findings
            if is_genuine(world.degradations.get(finding.domain), finding))
        report.findings["appdiff.gt_precision"] = (
            round(genuine / len(survey.findings), 4)
            if survey.findings else 1.0)

    def _run_ooni(self, report: ExperimentReport, result: Top10KResult) -> None:
        world = self.world
        citizenlab = CitizenLabList(world.population, world.taxonomy,
                                    seed=world.config.seed)
        test_list = citizenlab.domains()
        # OONI volunteers cluster in a subset of countries; survey a
        # representative set (all sanctioned + known censors + a mix)
        # rather than every Luminati country.
        preferred = ["IR", "SY", "SD", "CU", "CN", "RU", "TR", "PK", "SA",
                     "AE", "VN", "EG", "ID", "IN", "UA", "BY", "TH", "US",
                     "DE", "GB", "FR", "NL", "BR", "MX", "NG", "KE", "ZA",
                     "JP", "KR", "AU", "CA", "IT", "ES", "PL", "GR", "IL",
                     "AR", "CO", "MY", "RO"]
        countries = [c for c in preferred
                     if c in world.registry and world.registry.get(c).luminati]
        corpus = OONICorpus.generate(world, test_list, countries=countries,
                                     seed=world.config.seed,
                                     measurements_per_pair=1)
        ooni_findings = find_geoblock_confounding(corpus, len(test_list),
                                                  result.registry)
        report.findings["ooni.measurements"] = len(corpus)
        report.findings["ooni.geoblock_measurements"] = (
            ooni_findings.geoblock_measurements)
        report.findings["ooni.geoblock_domains"] = len(
            ooni_findings.geoblock_domains)
        report.findings["ooni.domain_fraction"] = round(
            ooni_findings.domain_fraction, 4)
        from repro.core.identify import identify_by_ns
        ns = identify_by_ns(world.dns, test_list)
        cdn_domains = ns["cloudflare"] | ns["akamai"]
        stats = control_blocking_stats(corpus, cdn_domains, result.registry)
        report.findings["ooni.control_403"] = stats.control_403
        report.findings["ooni.local_blocked_control_ok"] = (
            stats.local_blocked_control_ok)
        report.findings["ooni.blockpages_with_blocked_control"] = (
            stats.blockpages_with_blocked_control)
