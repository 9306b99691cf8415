"""Tests for origin page generation and per-sample jitter."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.websim.content import (
    _TOKEN_ALPHABET,
    _TOKEN_LEN,
    generate_page,
    jitter_token,
    sample_jitter,
)
from repro.websim.world import World, WorldConfig

#: blake2b-128 over every nano-population page, in population order, as
#: the choice/randint-based renderer produced them.  The renderer inlines
#: those draws; any drift in a page or in the stream shows up here.
_NANO_PAGE_DIGESTS = {
    0: "b594624619aff4a308868a47e0d288a0",
    7: "b560d021c920c099add1407e0f7c36cb",
}


def _page_digest(seed: int) -> str:
    world = World(WorldConfig.nano(seed=seed))
    digest = hashlib.blake2b(digest_size=16)
    for domain in world.population:
        page = generate_page(domain.name, domain.category, seed=seed)
        digest.update(f"{domain.name}\0{len(page)}\0".encode())
        digest.update(page.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(_NANO_PAGE_DIGESTS))
def test_nano_population_golden_digest(seed):
    assert _page_digest(seed) == _NANO_PAGE_DIGESTS[seed]


class TestGeneratePage:
    def test_deterministic(self):
        a = generate_page("example.com", "Shopping", seed=1)
        b = generate_page("example.com", "Shopping", seed=1)
        assert a == b

    def test_varies_by_domain(self):
        a = generate_page("a.com", "Shopping", seed=1)
        b = generate_page("b.com", "Shopping", seed=1)
        assert a != b

    def test_varies_by_seed(self):
        assert (generate_page("a.com", "News and Media", seed=1)
                != generate_page("a.com", "News and Media", seed=2))

    def test_is_html(self):
        page = generate_page("site.net", "Travel", seed=0)
        assert page.startswith("<!DOCTYPE html>")
        assert "</html>" in page
        assert "Travel" in page

    def test_length_bounds(self):
        for i in range(15):
            page = generate_page(f"d{i}.com", "Games", seed=3)
            assert 4_000 <= len(page) <= 500_000

    def test_lengths_vary_across_domains(self):
        lengths = {len(generate_page(f"x{i}.com", "Games", seed=3))
                   for i in range(10)}
        assert len(lengths) > 5


class TestSampleJitter:
    def test_preserves_base(self):
        base = generate_page("j.com", "Sports", seed=0)
        jittered = sample_jitter(base, random.Random(1))
        assert jittered.startswith(base)

    def test_jitter_bounded(self):
        base = "x" * 10_000
        rng = random.Random(2)
        for _ in range(20):
            jittered = sample_jitter(base, rng, max_fraction=0.05)
            extra = len(jittered) - len(base)
            # comment wrapper + up to 5% padding
            assert 0 <= extra <= 10_000 * 0.05 + 40

    def test_jitter_varies(self):
        base = "y" * 5_000
        rng = random.Random(3)
        lengths = {len(sample_jitter(base, rng)) for _ in range(10)}
        assert len(lengths) > 3


class TestJitterToken:
    """jitter_token inlines choice(); stream and token must match it."""

    @staticmethod
    def _choice_token(rng):
        return "".join(rng.choice(_TOKEN_ALPHABET) for _ in range(_TOKEN_LEN))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 64))
    def test_matches_choice_formula(self, seed):
        fast, reference = random.Random(seed), random.Random(seed)
        assert jitter_token(fast) == self._choice_token(reference)
        assert fast.getstate() == reference.getstate()

    def test_shared_stream_continues_identically(self):
        fast, reference = random.Random(11), random.Random(11)
        for _ in range(50):
            assert jitter_token(fast) == self._choice_token(reference)
            assert fast.random() == reference.random()
