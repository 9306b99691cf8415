"""Simulator-kernel benchmark: inlined RNG draws vs random-module calls.

Page synthesis (``generate_page``) and the Figure 1/3 subsampling
kernels (``draw_block_rates``, ``false_negative_curve``) draw from
``random.Random`` hundreds of thousands to millions of times per suite.
They now inline CPython's ``_randbelow`` rejection loop over
``getrandbits`` instead of calling ``choice``/``randint``/``sample``,
which must leave every output and every stream unchanged.  This file
keeps frozen copies of the call-per-draw versions and runs both over
the same inputs:

* **Pages** — every page of the tiny world's population (seed 7).
* **Figure kernels** — Figure 1 and Figure 3 over 12 pools of 100
  samples each, with the figures' default sizes and 500 draws.

Each pair must produce equal outputs, and the inlined version must be at
least 1.5x faster.  Reference and fast passes alternate, best of two
each.  Timings land in ``BENCH_synthesis.json`` at the repo root.
"""

from __future__ import annotations

import random
from typing import Dict, List

from bench_util import best_of, cpu_count, write_trajectory
from repro.core.resample import draw_block_rates, false_negative_curve
from repro.util.rng import derive_rng
from repro.websim.content import (
    _ACCOUNT_BLOCK,
    _LOREM_WORDS,
    _NAV_ITEMS,
    generate_page,
)
from repro.websim.world import World, WorldConfig

MIN_SPEEDUP = 1.5
REPEAT = 2
FIGURE1_SIZES = (1, 3, 5, 10, 20, 50)
FIGURE3_SIZES = (1, 2, 3, 4, 5, 6, 8, 10)
DRAWS = 500


# --------------------------------------------------------------------- #
# Frozen call-per-draw references


def _reference_sentence(rng: random.Random) -> str:
    n = rng.randint(6, 16)
    words = [rng.choice(_LOREM_WORDS) for _ in range(n)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _reference_paragraph(rng: random.Random) -> str:
    return " ".join(_reference_sentence(rng)
                    for _ in range(rng.randint(2, 6)))


def reference_generate_page(domain_name: str, category: str,
                            seed: int = 0) -> str:
    """``generate_page`` as written with choice/randint and a re-sum."""
    rng = derive_rng(seed, "page", domain_name)
    target = int(min(max(rng.lognormvariate(10.2, 0.8), 4_000), 400_000))
    title = domain_name.split(".")[0].capitalize()
    parts: List[str] = [
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n",
        f"<title>{title} — {category}</title>\n",
        f"<meta name=\"description\" content=\"{_reference_sentence(rng)}\">\n",
        "<link rel=\"stylesheet\" href=\"/static/main.css\">\n",
        "<script src=\"/static/app.js\" defer></script>\n",
        "</head>\n<body>\n<header>\n<nav>\n",
    ]
    for item in rng.sample(_NAV_ITEMS, k=6):
        parts.append(f"<a href=\"/{item.lower().replace(' ', '-')}\">{item}</a>\n")
    parts.append("</nav>\n")
    parts.append(_ACCOUNT_BLOCK)
    parts.append(f"</header>\n<main>\n<h1>{title}</h1>\n")
    if category in ("Shopping", "Travel", "Auctions", "Personal Vehicles"):
        for product in range(3):
            amount = round(rng.uniform(8, 400), 2)
            parts.append(
                f"<div class=\"product\" id=\"p{product}\">"
                f"<span class=\"price\" data-amount=\"{amount:.2f}\">"
                f"${amount:.2f}</span></div>\n"
            )
    while sum(len(p) for p in parts) < target:
        parts.append(f"<section>\n<h2>{_reference_sentence(rng)}</h2>\n")
        for _ in range(rng.randint(1, 4)):
            parts.append(f"<p>{_reference_paragraph(rng)}</p>\n")
        parts.append("</section>\n")
    parts.append(
        f"</main>\n<footer>\n<p>&copy; 2018 {title}. All rights reserved.</p>\n"
        "</footer>\n</body>\n</html>\n"
    )
    return "".join(parts)


def reference_draw_block_rates(pool, sizes, draws=500, seed=0):
    """``draw_block_rates`` with one ``rng.sample`` call per draw."""
    rng = random.Random(seed)
    out: Dict[int, List[float]] = {}
    n = len(pool)
    for size in sizes:
        k = min(size, n)
        rates: List[float] = []
        for _ in range(draws):
            picked = rng.sample(range(n), k)
            rates.append(sum(1 for i in picked if pool[i]) / k)
        out[size] = rates
    return out


def reference_false_negative_curve(pools, sizes, draws=500, seed=0):
    """``false_negative_curve`` with one ``rng.sample`` call per draw."""
    out: Dict[int, float] = {}
    for size in sizes:
        misses = 0
        total = 0
        rng = random.Random(seed + size)
        for key in sorted(pools):
            pool = pools[key]
            n = len(pool)
            k = min(size, n)
            for _ in range(draws):
                picked = rng.sample(range(n), k)
                total += 1
                if not any(pool[i] for i in picked):
                    misses += 1
        out[size] = (misses / total) if total else 0.0
    return out


# --------------------------------------------------------------------- #
# Harness


def _race(reference, fast):
    """Alternate reference and fast passes; best time and output of each."""
    times = {"reference": float("inf"), "fast": float("inf")}
    outputs = {}
    for _ in range(REPEAT):
        for name, fn in (("reference", reference), ("fast", fast)):
            def run(name=name, fn=fn):
                outputs[name] = fn()
            times[name] = min(times[name], best_of(run, repeat=1))
    return times, outputs


def _pools() -> Dict[tuple, List[bool]]:
    """Figure-shaped pools: 100 samples per pair, block rates 0.55–1.0."""
    rng = random.Random(3)
    pools = {}
    for i in range(12):
        rate = 0.55 + 0.45 * i / 11
        pools[(f"d{i}.example", "IR")] = [rng.random() < rate
                                          for _ in range(100)]
    return pools


def _figures(block_rates, fn_curve, pools):
    def run():
        figure1 = [block_rates(pools[key], FIGURE1_SIZES, draws=DRAWS,
                               seed=idx)
                   for idx, key in enumerate(sorted(pools))]
        figure3 = fn_curve(pools, FIGURE3_SIZES, draws=DRAWS, seed=0)
        return figure1, figure3
    return run


def test_page_synthesis_speedup():
    world = World(WorldConfig.tiny())
    seed = world.config.seed
    domains = [(d.name, d.category) for d in world.population]

    times, outputs = _race(
        lambda: [reference_generate_page(n, c, seed) for n, c in domains],
        lambda: [generate_page(n, c, seed) for n, c in domains])
    assert outputs["fast"] == outputs["reference"]
    speedup = times["reference"] / times["fast"]
    write_trajectory("synthesis", "pages", {
        "pages": len(domains),
        "chars": sum(len(p) for p in outputs["fast"]),
        "reference_s": round(times["reference"], 4),
        "fast_s": round(times["fast"], 4),
        "speedup": round(speedup, 2),
        "cpus": cpu_count(),
    })
    assert speedup >= MIN_SPEEDUP, (
        f"generate_page only {speedup:.2f}x faster than the choice-based "
        f"reference (need >= {MIN_SPEEDUP}x)")


def test_figure_kernel_speedup():
    pools = _pools()
    times, outputs = _race(
        _figures(reference_draw_block_rates, reference_false_negative_curve,
                 pools),
        _figures(draw_block_rates, false_negative_curve, pools))
    assert outputs["fast"] == outputs["reference"]
    speedup = times["reference"] / times["fast"]
    subsamples = len(pools) * DRAWS * (len(FIGURE1_SIZES) + len(FIGURE3_SIZES))
    write_trajectory("synthesis", "figure_kernels", {
        "pools": len(pools),
        "subsamples": subsamples,
        "reference_s": round(times["reference"], 4),
        "fast_s": round(times["fast"], 4),
        "speedup": round(speedup, 2),
        "cpus": cpu_count(),
    })
    assert speedup >= MIN_SPEEDUP, (
        f"figure kernels only {speedup:.2f}x faster than the sample-based "
        f"reference (need >= {MIN_SPEEDUP}x)")
