"""Tests for the OONI corpus simulation and §7.1 analysis."""

import pytest

from repro.datasets.citizenlab import CitizenLabList
from repro.datasets.ooni import (
    BODY_KEEP_THRESHOLD,
    OONICorpus,
    OONIMeasurement,
    control_blocking_stats,
    find_geoblock_confounding,
)
from repro.httpsim.messages import Request
from repro.httpsim.url import parse_url
from repro.httpsim.useragent import browser_headers
from repro.netsim.errors import FetchError
from repro.proxynet.transport import fetch_with_redirects
from repro.websim.world import World, WorldConfig


def _full_body_probe(world, domain, ip):
    """``OONICorpus._probe`` as it was before the length-only lane."""
    request = Request(url=parse_url(f"http://{domain}/"),
                      headers=browser_headers())
    try:
        result = fetch_with_redirects(world, request, ip)
    except FetchError:
        return 0, None
    status = result.response.status
    body = result.response.body
    if status == 200 and len(body) > BODY_KEEP_THRESHOLD:
        body = None
    return status, body


@pytest.fixture(scope="module")
def corpus(tiny_world):
    citizenlab = CitizenLabList(tiny_world.population, tiny_world.taxonomy,
                                seed=tiny_world.config.seed)
    return OONICorpus.generate(tiny_world, citizenlab.domains(),
                               countries=["US", "IR", "CN", "RU", "DE", "SY"],
                               measurements_per_pair=1,
                               seed=tiny_world.config.seed), citizenlab


class TestMeasurement:
    def test_local_blocked_conditions(self):
        blocked = OONIMeasurement("a.com", "IR", 403, "<html>x</html>", 200, False)
        assert blocked.local_blocked
        ok = OONIMeasurement("a.com", "US", 200, "<html>x</html>", 200, False)
        assert not ok.local_blocked
        failed = OONIMeasurement("a.com", "US", 0, None, 200, False)
        assert failed.local_blocked

    def test_control_blocked(self):
        assert OONIMeasurement("a.com", "US", 200, "x", 403, True).control_blocked
        assert OONIMeasurement("a.com", "US", 200, "x", 0, True).control_blocked
        assert not OONIMeasurement("a.com", "US", 200, "x", 200, True).control_blocked


class TestCorpusGeneration:
    def test_size(self, corpus, tiny_world):
        data, citizenlab = corpus
        # <= list-size * countries (unknown domains skipped).
        assert 0 < len(data) <= len(citizenlab) * 6

    def test_control_bodies_never_saved(self, corpus):
        data, _ = corpus
        # The saved reports only keep control status/headers (§7.1); the
        # measurement type has no control-body field at all.
        assert not hasattr(next(iter(data)), "control_body")

    def test_some_tor_controls_blocked(self, corpus):
        data, _ = corpus
        blocked_controls = [m for m in data
                            if m.control_over_tor and m.control_status == 403]
        assert blocked_controls

    def test_deterministic(self, tiny_world):
        domains = [d.name for d in tiny_world.population][:20]
        a = OONICorpus.generate(tiny_world, domains, countries=["US"],
                                seed=3, measurements_per_pair=1)
        b = OONICorpus.generate(tiny_world, domains, countries=["US"],
                                seed=3, measurements_per_pair=1)
        assert [(m.domain, m.local_status) for m in a] == \
            [(m.domain, m.local_status) for m in b]

    def test_length_only_lane_matches_full_bodies(self, monkeypatch):
        # Twin worlds: the corpus and the shared noise stream must come
        # out identical whether large bodies are elided or built.
        lane_world = World(WorldConfig.nano())
        full_world = World(WorldConfig.nano())
        domains = [d.name for d in lane_world.population]
        countries = lane_world.registry.luminati_codes()[:5]
        lane = OONICorpus.generate(lane_world, domains, countries=countries,
                                   seed=5)
        monkeypatch.setattr(OONICorpus, "_probe",
                            staticmethod(_full_body_probe))
        full = OONICorpus.generate(full_world, domains, countries=countries,
                                   seed=5)
        assert list(lane) == list(full)
        assert sum(m.local_status == 200 and m.local_body is None
                   for m in lane) > 100
        assert lane_world._noise_rng.getstate() == \
            full_world._noise_rng.getstate()


class TestConfoundingAnalysis:
    def test_geoblock_pages_found(self, corpus):
        data, citizenlab = corpus
        findings = find_geoblock_confounding(data, len(citizenlab))
        # The synthetic list contains benign geoblockers, so the corpus
        # must contain explicit geoblock observations.
        assert findings.geoblock_measurements >= 0
        assert 0.0 <= findings.domain_fraction <= 1.0
        assert len(findings.geoblock_domains) <= findings.test_list_size

    def test_censor_pages_not_counted(self, tiny_world):
        censored = [d.name for d in tiny_world.population
                    if "IR" in d.censored_in][:3]
        if not censored:
            pytest.skip("no IR-censored domains")
        corpus = OONICorpus.generate(tiny_world, censored, countries=["IR"],
                                     measurements_per_pair=2, seed=0)
        findings = find_geoblock_confounding(corpus, len(censored))
        assert findings.geoblock_measurements == 0

    def test_control_blocking_stats(self, corpus, tiny_world):
        data, _ = corpus
        from repro.core.identify import identify_by_ns
        ns = identify_by_ns(tiny_world.dns, [m.domain for m in data])
        cdn = ns["cloudflare"] | ns["akamai"]
        stats = control_blocking_stats(data, cdn)
        assert stats.control_403 >= 0
        assert stats.local_blocked_control_ok >= 0

    def test_stats_ignore_non_cdn(self, corpus):
        data, _ = corpus
        stats = control_blocking_stats(data, set())
        assert stats.control_403 == 0
        assert stats.local_blocked_control_ok == 0
