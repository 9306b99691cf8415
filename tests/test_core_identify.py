"""Tests for CDN customer identification."""

import pytest

import repro.core.identify as identify_module
import repro.websim.world as world_module
from repro.core.identify import (
    CDNPopulation,
    discover_appengine_netblocks,
    identify_by_ns,
    identify_cdn_customers,
)
from repro.datasets.alexa import AlexaList
from repro.httpsim.messages import BodyPolicy
from repro.proxynet.transport import fetch_with_redirects
from repro.websim.world import World, WorldConfig


@pytest.fixture(scope="module")
def identified(nano_world):
    return identify_cdn_customers(nano_world,
                                  AlexaList(nano_world.population).full())


class TestCDNPopulation:
    def test_add_and_of(self):
        population = CDNPopulation()
        population.add("cloudflare", "a.com")
        assert population.of("cloudflare") == {"a.com"}
        assert population.of("akamai") == set()

    def test_multi_service(self):
        population = CDNPopulation()
        population.add("akamai", "z.com")
        population.add("incapsula", "z.com")
        population.add("cloudflare", "only.com")
        assert population.multi_service_domains() == {"z.com"}
        assert population.providers_of("z.com") == ["akamai", "incapsula"]

    def test_all_domains(self):
        population = CDNPopulation()
        population.add("a", "1.com")
        population.add("b", "2.com")
        assert population.all_domains() == {"1.com", "2.com"}


class TestNSIdentification:
    def test_finds_cloudflare_subset(self, nano_world):
        ns = identify_by_ns(nano_world.dns,
                            AlexaList(nano_world.population).full())
        true_cf = {d.name for d in nano_world.population.by_provider("cloudflare")}
        assert ns["cloudflare"] <= true_cf
        # ~95% of CF customers use CF nameservers.
        assert len(ns["cloudflare"]) >= len(true_cf) * 0.75

    def test_akamai_only_fraction(self, nano_world):
        ns = identify_by_ns(nano_world.dns,
                            AlexaList(nano_world.population).full())
        true_ak = {d.name for d in nano_world.population.by_provider("akamai")}
        assert ns["akamai"] <= true_ak
        # NS identification exposes only a fraction (paper: §3.1).
        if len(true_ak) >= 5:
            assert len(ns["akamai"]) < len(true_ak)


class TestNetblockDiscovery:
    def test_65_blocks(self, nano_world):
        assert len(discover_appengine_netblocks(nano_world.dns)) == 65


class TestHeaderIdentification:
    def _truth(self, world, provider):
        return {d.name for d in world.population.by_provider(provider)
                if not d.dead and not d.redirect_loop}

    def test_cloudflare_by_header(self, nano_world, identified):
        truth = self._truth(nano_world, "cloudflare")
        found = identified.of("cloudflare")
        assert found <= {d.name for d in nano_world.population.by_provider("cloudflare")}
        assert len(found & truth) >= len(truth) * 0.9

    def test_cloudfront_by_header(self, nano_world, identified):
        truth = self._truth(nano_world, "cloudfront")
        if not truth:
            pytest.skip("no cloudfront customers in nano world")
        assert len(identified.of("cloudfront") & truth) >= len(truth) * 0.8

    def test_incapsula_by_header(self, nano_world, identified):
        truth = self._truth(nano_world, "incapsula")
        if not truth:
            pytest.skip("no incapsula customers in nano world")
        assert len(identified.of("incapsula") & truth) >= len(truth) * 0.8

    def test_akamai_by_pragma(self, nano_world, identified):
        truth = self._truth(nano_world, "akamai")
        found = identified.of("akamai")
        # Pragma probing beats NS identification.
        ns_found = identify_by_ns(nano_world.dns,
                                  [d for d in truth])["akamai"]
        assert len(found & truth) >= len(ns_found & truth)

    def test_appengine_by_netblock(self, nano_world, identified):
        truth = {d.name for d in nano_world.population.by_provider("appengine")}
        if not truth:
            pytest.skip("no appengine customers in nano world")
        found = identified.of("appengine")
        assert found == truth  # A records are definitive

    def test_dead_domains_not_identified_by_headers(self, nano_world, identified):
        dead_cf = {d.name for d in nano_world.population.by_provider("cloudflare")
                   if d.dead}
        assert not (identified.of("cloudflare") & dead_cf)

    def test_dual_service_detected(self, nano_world, identified):
        dual_truth = {d.name for d in nano_world.population
                      if d.secondary_provider and not d.dead
                      and not d.redirect_loop}
        if not dual_truth:
            pytest.skip("no dual-service domains in nano world")
        assert dual_truth & identified.multi_service_domains()


class TestLengthOnlyLane:
    """Identification reads headers only, so it runs on the length lane."""

    @staticmethod
    def _identify(monkeypatch, body_policy=None):
        """Identify over a fresh nano world; returns (population, pages built)."""
        world = World(WorldConfig.nano())
        built = []
        real_generate = world_module.generate_page

        def counting_generate(name, *args, **kwargs):
            built.append(name)
            return real_generate(name, *args, **kwargs)

        monkeypatch.setattr(world_module, "generate_page", counting_generate)
        if body_policy is not None:
            def forced(*args, **kwargs):
                kwargs["body_policy"] = body_policy
                return fetch_with_redirects(*args, **kwargs)
            monkeypatch.setattr(identify_module, "fetch_with_redirects", forced)
        domains = AlexaList(world.population).full()
        return identify_cdn_customers(world, domains), built, len(domains)

    def test_same_population_as_full_bodies(self, monkeypatch):
        lane, _, _ = self._identify(monkeypatch)
        monkeypatch.undo()
        full, _, _ = self._identify(monkeypatch, BodyPolicy.full())
        assert lane.tested == full.tested
        assert lane.customers == full.customers

    def test_builds_pages_for_few_domains(self, monkeypatch):
        _, built, tested = self._identify(monkeypatch)
        # Only degraded (application-layer discriminating) pages are still
        # rendered; a full-body pass builds one page per fetched domain.
        assert len(set(built)) < 0.05 * tested
        monkeypatch.undo()
        _, built_full, _ = self._identify(monkeypatch, BodyPolicy.full())
        assert len(set(built_full)) > 0.5 * tested
