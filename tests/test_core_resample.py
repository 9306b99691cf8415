"""Tests for the 3/20-sample confirmation protocol and sampling curves."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resample import (
    _sample_range,
    agreement_distribution,
    block_rates,
    confirm_blocks,
    consistency_cdf,
    draw_block_rates,
    false_negative_curve,
    find_candidate_pairs,
)
from repro.lumscan.records import NO_RESPONSE, ScanDataset
from repro.websim import blockpages


def _block_body(rng, page_type=blockpages.CLOUDFLARE_BLOCK,
                host="x.com", country="IR"):
    return blockpages.render(page_type, rng, host, country).body


def _initial_dataset(rng):
    data = ScanDataset()
    # x.com/IR: blocked in all 3 samples.
    for _ in range(3):
        body = _block_body(rng)
        data.append("x.com", "IR", 403, len(body), body)
    # x.com/US: fine.
    for _ in range(3):
        data.append("x.com", "US", 200, 9_000, None)
    # y.com/SY: one block page out of 3 (transient observation).
    body = _block_body(rng, host="y.com", country="SY")
    data.append("y.com", "SY", 403, len(body), body)
    data.append("y.com", "SY", 200, 8_000, None)
    data.append("y.com", "SY", NO_RESPONSE, 0, None, error="timeout")
    return data


@pytest.fixture
def rng():
    return random.Random(3)


class TestCandidatePairs:
    def test_pairs_with_block_page_found(self, rng):
        candidates = find_candidate_pairs(_initial_dataset(rng))
        assert ("x.com", "IR") in candidates
        assert ("y.com", "SY") in candidates
        assert ("x.com", "US") not in candidates

    def test_explicit_only_excludes_akamai(self, rng):
        data = ScanDataset()
        body = _block_body(rng, page_type=blockpages.AKAMAI_BLOCK)
        data.append("z.com", "IR", 403, len(body), body)
        assert find_candidate_pairs(data, explicit_only=True) == {}
        ambiguous = find_candidate_pairs(data, explicit_only=False)
        assert ("z.com", "IR") in ambiguous


class TestBlockRates:
    def test_rates(self, rng):
        rates = block_rates(_initial_dataset(rng))
        assert rates[("x.com", "IR")][:2] == (3, 3)
        assert rates[("y.com", "SY")][:2] == (1, 3)
        assert rates[("x.com", "US")][:2] == (0, 3)

    def test_page_type_recorded(self, rng):
        rates = block_rates(_initial_dataset(rng))
        assert rates[("x.com", "IR")][2] == blockpages.CLOUDFLARE_BLOCK

    def test_noncontiguous_pairs_merged(self, rng):
        data = ScanDataset()
        body = _block_body(rng)
        data.append("x.com", "IR", 403, len(body), body)
        data.append("x.com", "US", 200, 100, None)
        data.append("x.com", "IR", 200, 9_000, None)
        rates = block_rates(data)
        assert rates[("x.com", "IR")][:2] == (1, 2)


class TestConfirmBlocks:
    def test_consistent_pair_confirmed(self, rng):
        initial = _initial_dataset(rng)
        resampled = ScanDataset()
        for _ in range(20):
            body = _block_body(rng)
            resampled.append("x.com", "IR", 403, len(body), body)
        confirmed = confirm_blocks(initial, resampled)
        keys = {(c.domain, c.country) for c in confirmed}
        assert ("x.com", "IR") in keys
        block = next(c for c in confirmed if c.domain == "x.com")
        assert block.agreement == 1.0
        assert block.total_samples == 23
        assert block.provider == "cloudflare"

    def test_transient_pair_rejected(self, rng):
        initial = _initial_dataset(rng)
        resampled = ScanDataset()
        for _ in range(20):
            resampled.append("y.com", "SY", 200, 8_000, None)
        confirmed = confirm_blocks(initial, resampled)
        assert all(c.domain != "y.com" for c in confirmed)

    def test_threshold_boundary(self, rng):
        initial = ScanDataset()
        resampled = ScanDataset()
        # 19 of 23 = 82.6% (pass); 18 of 23 = 78.3% (fail).
        for hits, domain in ((19, "pass.com"), (18, "fail.com")):
            for i in range(3):
                body = _block_body(rng, host=domain)
                initial.append(domain, "IR", 403, len(body), body)
            for i in range(20):
                if i < hits - 3:
                    body = _block_body(rng, host=domain)
                    resampled.append(domain, "IR", 403, len(body), body)
                else:
                    resampled.append(domain, "IR", 200, 9_000, None)
        confirmed = {c.domain for c in confirm_blocks(initial, resampled)}
        assert confirmed == {"pass.com"}

    def test_errors_count_against_agreement(self, rng):
        initial = ScanDataset()
        resampled = ScanDataset()
        for _ in range(3):
            body = _block_body(rng)
            initial.append("e.com", "IR", 403, len(body), body)
        for i in range(20):
            if i < 10:
                body = _block_body(rng)
                resampled.append("e.com", "IR", 403, len(body), body)
            else:
                resampled.append("e.com", "IR", NO_RESPONSE, 0, None,
                                 error="timeout")
        confirmed = confirm_blocks(initial, resampled)
        assert confirmed == []  # 13/23 = 56% < 80%


class TestSamplingCurves:
    def test_draw_block_rates_bounds(self):
        pool = [True] * 90 + [False] * 10
        rates = draw_block_rates(pool, sizes=[1, 5, 20], draws=200, seed=1)
        for size, values in rates.items():
            assert len(values) == 200
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_bigger_samples_concentrate(self):
        pool = [True] * 85 + [False] * 15
        rates = draw_block_rates(pool, sizes=[2, 50], draws=400, seed=2)
        import statistics
        assert (statistics.pstdev(rates[50]) < statistics.pstdev(rates[2]))

    def test_consistency_cdf_combines_pairs(self):
        pools = {("a.com", "IR"): [True] * 95 + [False] * 5,
                 ("b.com", "SY"): [True] * 80 + [False] * 20}
        combined = consistency_cdf(pools, sizes=[20], draws=100, seed=0)
        assert len(combined[20]) == 200

    def test_false_negative_curve_decreases(self):
        pool = [True] * 70 + [False] * 30
        pools = {("a.com", "IR"): pool}
        curve = false_negative_curve(pools, sizes=[1, 3, 10], draws=500, seed=0)
        assert curve[1] > curve[3] > curve[10]
        assert curve[1] == pytest.approx(0.30, abs=0.08)

    def test_fn_zero_for_always_blocked(self):
        pools = {("a.com", "IR"): [True] * 100}
        curve = false_negative_curve(pools, sizes=[1, 3], draws=100)
        assert curve[1] == 0.0
        assert curve[3] == 0.0

    def test_agreement_distribution(self):
        rates = {("a", "IR"): (20, 23), ("b", "SY"): (23, 23), ("c", "X"): (0, 0)}
        values = agreement_distribution(rates)
        assert values == sorted(values)
        assert len(values) == 2


class TestSizeAndEmptyPool:
    def test_draw_block_rates_empty_pool_has_no_draws(self):
        assert draw_block_rates([], sizes=[1, 3], draws=50) == {1: [], 3: []}

    @pytest.mark.parametrize("sizes", [[0], [3, 0], [-1]])
    def test_draw_block_rates_rejects_sizes_below_one(self, sizes):
        with pytest.raises(ValueError):
            draw_block_rates([True] * 10, sizes=sizes, draws=5)

    def test_false_negative_curve_empty_pool_contributes_nothing(self):
        assert false_negative_curve({("a.com", "IR"): []}, sizes=[1, 3],
                                    draws=50) == {1: 0.0, 3: 0.0}

    def test_false_negative_curve_ignores_empty_pools(self):
        pool = [True] * 70 + [False] * 30
        alone = false_negative_curve({("b.com", "IR"): pool}, sizes=[1, 3],
                                     draws=200, seed=4)
        mixed = false_negative_curve({("a.com", "IR"): [],
                                      ("b.com", "IR"): pool},
                                     sizes=[1, 3], draws=200, seed=4)
        assert mixed == alone

    @pytest.mark.parametrize("sizes", [[0], [2, 0], [-3]])
    def test_false_negative_curve_rejects_sizes_below_one(self, sizes):
        with pytest.raises(ValueError):
            false_negative_curve({("a.com", "IR"): [True] * 10},
                                 sizes=sizes, draws=5)

    def test_consistency_cdf_with_empty_pool(self):
        pools = {("a.com", "IR"): [], ("b.com", "SY"): [True] * 10}
        combined = consistency_cdf(pools, sizes=[2], draws=30, seed=0)
        assert len(combined[2]) == 30


class TestSampleRange:
    """_sample_range must be rng.sample(range(n), k), state included."""

    @staticmethod
    def _check(seed, n, k):
        fast, reference = random.Random(seed), random.Random(seed)
        assert _sample_range(fast, n, k) == reference.sample(range(n), k)
        assert fast.getstate() == reference.getstate()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(0, 400), st.data())
    def test_matches_random_sample(self, seed, n, data):
        k = data.draw(st.integers(0, n))
        self._check(seed, n, k)

    @pytest.mark.parametrize("n", [0, 1, 2, 21, 22, 100, 1000])
    def test_edges_k_zero_and_k_n(self, n):
        self._check(3, n, 0)
        self._check(3, n, n)

    @pytest.mark.parametrize("n,k", [
        (21, 5),     # shuffle branch: n <= 21 for k <= 5
        (22, 5),     # set branch just past the small-k set size
        (85, 6),     # shuffle branch: set size 21 + 64 at k = 6
        (86, 6),     # set branch
        (100, 22),   # shuffle branch: set size 21 + 256 at k = 22
        (100, 3),    # set branch (the Figure 1/3 pools)
    ])
    def test_both_branches(self, n, k):
        for seed in range(20):
            self._check(seed, n, k)

    @pytest.mark.parametrize("n,k", [(3, 4), (0, 1), (5, -1)])
    def test_invalid_k_rejected(self, n, k):
        with pytest.raises(ValueError):
            _sample_range(random.Random(0), n, k)
