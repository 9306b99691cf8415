"""Length-only body fast lane: draw-parity and equivalence tests.

The fast lane's correctness claim has three layers, each pinned here:

1. ``page_length`` replays ``generate_page``'s RNG draws exactly and
   returns exactly ``len(generate_page(...))``.
2. A :class:`BodyPolicy`-elided ``World.fetch`` answers with the same
   status, headers, and content length as a materializing fetch — and
   materializes byte-identical bodies whenever they are short enough for
   the dataset to retain.
3. A scan under the default fast lane produces a :class:`ScanDataset`
   whose columns, retained bodies, candidate pairs, confirmed blocks and
   per-sample classifications are identical to a full-materialization
   scan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import classify_samples
from repro.core.resample import confirm_blocks, find_candidate_pairs
from repro.httpsim.messages import BodyPolicy, Request
from repro.httpsim.url import parse_url
from repro.httpsim.useragent import browser_headers
from repro.lumscan.engine import ScanEngine
from repro.lumscan.records import BODY_KEEP_THRESHOLD
from repro.lumscan.scanner import Lumscan
from repro.netsim.errors import FetchError
from repro.proxynet.luminati import LuminatiClient
from repro.util.rng import derive_rng
from repro.websim.content import (
    JITTER_OVERHEAD,
    generate_page,
    jitter_length,
    jitter_pad,
    jitter_token,
    page_length,
    render_jitter,
    sample_jitter,
)
from repro.websim.world import World, WorldConfig

_CATEGORIES = ("News", "Shopping", "Travel", "Auctions", "Personal Vehicles",
               "Business", "Health", "Government")


def _rows(data):
    return [data.row(i) for i in range(len(data))]


def _clean_urls(world, n):
    urls = []
    for domain in world.population:
        if not domain.dead and not domain.redirect_loop:
            urls.append(f"http://{domain.name}/")
            if len(urls) == n:
                break
    return urls


def _study_urls(world):
    """First 40 clean domains plus every geoblocking domain.

    Guarantees the scan slice contains block pages, so the candidate /
    confirmation stages of the equivalence suite actually engage.
    """
    urls = _clean_urls(world, 40)
    for name in sorted(world.geoblocking_domains()):
        url = f"http://{name}/"
        if url not in urls:
            urls.append(url)
    return urls


class TestBodyPolicy:
    def test_full_never_elides(self):
        assert not BodyPolicy.full().elides
        assert not BodyPolicy().elides

    def test_lengths_over_elides(self):
        policy = BodyPolicy.lengths_over(6_000)
        assert policy.elides
        assert policy.length_threshold == 6_000

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            BodyPolicy.lengths_over(-1)


class TestPageLengthParity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(_CATEGORIES),
           st.integers(0, 9))
    def test_matches_generate_page(self, index, category, seed):
        domain = f"prop{index}.example.com"
        assert page_length(domain, category, seed) == \
            len(generate_page(domain, category, seed))

    def test_whole_nano_population(self, nano_world):
        # Every (domain, category) the nano world can ever serve.
        seed = nano_world.config.seed
        for domain in nano_world.population:
            assert page_length(domain.name, domain.category, seed) == \
                len(generate_page(domain.name, domain.category, seed))


class TestJitterSplit:
    def test_split_reproduces_sample_jitter(self):
        page = generate_page("split.example.com", "News", 0)
        monolithic_rng = derive_rng(1, "jitter")
        split_rng = derive_rng(1, "jitter")
        expected = sample_jitter(page, monolithic_rng)
        pad = jitter_pad(len(page), split_rng)
        token = jitter_token(split_rng)
        assert render_jitter(page, pad, token) == expected
        assert jitter_length(len(page), pad) == len(expected)
        # Both paths consumed the identical draw sequence.
        assert split_rng.getstate() == monolithic_rng.getstate()

    def test_overhead_constant(self):
        page = "x" * 100
        rng = derive_rng(2, "jitter")
        pad = jitter_pad(len(page), rng)
        assert len(render_jitter(page, pad, jitter_token(rng))) == \
            len(page) + pad + JITTER_OVERHEAD


class TestFetchEquivalence:
    """Full vs elided World.fetch over every nano (domain, country) pair."""

    def test_fetch_lane_equivalence(self, nano_world):
        policy = BodyPolicy.lengths_over(BODY_KEEP_THRESHOLD)
        countries = nano_world.registry.luminati_codes()[:4]
        checked = elided = 0
        for domain in nano_world.population:
            if domain.dead or domain.redirect_loop:
                continue
            for country in countries:
                ip = nano_world.residential_address(
                    country, derive_rng(5, "ip", country, domain.name))
                request = Request(url=parse_url(f"http://{domain.name}/"),
                                  headers=browser_headers())
                rng_full = derive_rng(5, "eq", domain.name, country)
                rng_fast = derive_rng(5, "eq", domain.name, country)
                try:
                    full = nano_world.fetch(request, ip, rng=rng_full)
                except FetchError as exc:
                    with pytest.raises(type(exc)):
                        nano_world.fetch(request, ip, rng=rng_fast,
                                         body_policy=policy)
                    continue
                fast = nano_world.fetch(request, ip, rng=rng_fast,
                                        body_policy=policy)
                assert fast.status == full.status
                assert fast.content_length == full.content_length
                assert fast.headers == full.headers
                if fast.body_length is None:
                    assert fast.body == full.body
                else:
                    elided += 1
                    assert fast.status == 200
                    assert fast.body == ""
                    assert fast.content_length > BODY_KEEP_THRESHOLD
                checked += 1
        assert checked > 100
        assert elided > 50  # the lane actually engaged

    def test_shared_stream_elision_keeps_stream(self):
        # Without a task-private rng the draws come from the world's shared
        # streams.  An elided fetch must still advance them draw for draw:
        # twin worlds, one eliding and one materializing, stay in lockstep.
        full_world = World(WorldConfig.nano())
        fast_world = World(WorldConfig.nano())
        policy = BodyPolicy.lengths_over(BODY_KEEP_THRESHOLD)
        countries = full_world.registry.luminati_codes()[:4]
        elided = degraded = 0
        for domain in full_world.population:
            if domain.dead or domain.redirect_loop:
                continue
            degradation = full_world.degradations.get(domain.name)
            extra = sorted(degradation.price_multipliers) if degradation else []
            for country in countries + extra[:2]:
                ip = full_world.residential_address(
                    country, derive_rng(6, "ip", country, domain.name))
                request = Request(url=parse_url(f"http://{domain.name}/"),
                                  headers=browser_headers())
                try:
                    full = full_world.fetch(request, ip)
                except FetchError as exc:
                    with pytest.raises(type(exc)):
                        fast_world.fetch(request, ip, body_policy=policy)
                    continue
                fast = fast_world.fetch(request, ip, body_policy=policy)
                assert fast.status == full.status
                assert fast.content_length == full.content_length
                if fast.body_length is None:
                    assert fast.body == full.body
                else:
                    elided += 1
                    degraded += bool(degradation
                                     and degradation.applies(country))
                assert fast_world._noise_rng.getstate() == \
                    full_world._noise_rng.getstate()
                assert fast_world._render_rng.getstate() == \
                    full_world._render_rng.getstate()
        assert elided > 50  # the lane engaged on the shared stream
        assert degraded > 0  # including the degraded-page branch


class TestDatasetEquivalence:
    """Default fast-lane scans == full-materialization scans, end to end."""

    @pytest.fixture(scope="class")
    def scans(self, nano_world):
        urls = _study_urls(nano_world)
        countries = LuminatiClient(nano_world).countries()
        full = Lumscan(LuminatiClient(nano_world), seed=13,
                       body_policy=BodyPolicy.full()).scan(
            urls, countries, samples=3)
        fast = Lumscan(LuminatiClient(nano_world), seed=13).scan(
            urls, countries, samples=3)
        return full, fast

    def test_rows_identical(self, scans):
        full, fast = scans
        assert _rows(fast) == _rows(full)

    def test_retained_bodies_identical(self, scans):
        full, fast = scans
        assert {i: full.body(i) for i in range(len(full))} == \
            {i: fast.body(i) for i in range(len(fast))}

    def test_classifications_identical(self, scans, registry):
        full, fast = scans
        full_verdicts = classify_samples(full, registry)
        fast_verdicts = classify_samples(fast, registry)
        assert [(v.kind, v.page_type, v.provider) for v in full_verdicts] \
            == [(v.kind, v.page_type, v.provider) for v in fast_verdicts]

    def test_candidates_and_confirmations_identical(self, scans, registry,
                                                    nano_world):
        full, fast = scans
        full_candidates = find_candidate_pairs(full, registry)
        fast_candidates = find_candidate_pairs(fast, registry)
        assert full_candidates == fast_candidates
        pairs = sorted(full_candidates)
        if not pairs:
            pytest.skip("no candidate pairs in this slice")
        full_resampled = Lumscan(
            LuminatiClient(nano_world), seed=14,
            body_policy=BodyPolicy.full()).resample(pairs, samples=6, epoch=1)
        fast_resampled = Lumscan(
            LuminatiClient(nano_world), seed=14).resample(
            pairs, samples=6, epoch=1)
        assert _rows(fast_resampled) == _rows(full_resampled)
        full_confirmed = confirm_blocks(full, full_resampled, registry)
        fast_confirmed = confirm_blocks(fast, fast_resampled, registry)
        assert [(c.domain, c.country, c.page_type) for c in full_confirmed] \
            == [(c.domain, c.country, c.page_type) for c in fast_confirmed]

    def test_fast_lane_composes_with_process_pool(self, nano_world, scans):
        full, _ = scans
        urls = _study_urls(nano_world)
        countries = LuminatiClient(nano_world).countries()
        pooled = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=13),
                            workers=4, chunk_size=7).scan(
            urls, countries, samples=3)
        assert _rows(pooled) == _rows(full)
