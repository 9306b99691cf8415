"""Origin page generator: realistic, deterministic HTML per domain.

Page lengths follow a per-domain log-normal draw (real front pages range
from a few KB to hundreds of KB), and each *sample* of the same page varies
slightly in length (dynamic ads, CSRF tokens, timestamps), which is exactly
the noise the paper's 30%-length-difference heuristic has to tolerate
(§4.1.2, Figure 2).
"""

from __future__ import annotations

import random
from typing import List

from repro.util.rng import derive_rng

_LOREM_WORDS = (
    "market service global network product research report update team news "
    "travel deal price account secure login search result media stream video "
    "story event world local community forum health finance bank trade auto "
    "vehicle game sport score review guide learn course child school job "
    "career listing shop cart order shipping return support contact about "
    "policy privacy terms partner developer api cloud data mobile app free"
).split()

_NAV_ITEMS = ("Home", "About", "Products", "News", "Contact", "Careers",
              "Support", "Blog", "Pricing", "Sign in")

_ACCOUNT_BLOCK = (
    "<div id=\"account\">\n"
    "<a class=\"login\" href=\"/login\">Sign in</a>\n"
    "<a class=\"register\" href=\"/register\">Create account</a>\n"
    "</div>\n"
)

# Every hot draw below inlines CPython's choice/randint instead of calling
# them: choice(seq) is seq[_randbelow(len(seq))], randint(a, b) is
# a + _randbelow(b - a + 1), and _randbelow(n) draws
# getrandbits(n.bit_length()) until the value is below n.  Looping on the
# C-level getrandbits directly consumes identical RNG state at a fraction
# of the cost, so pages, lengths and every later draw from a shared stream
# are unchanged.  The golden page digests and the equivalence suites
# (page_length == len(generate_page), jitter_token against the choice
# formula) pin the coupling to the interpreter's random module.
_WORD_LENGTHS = tuple(len(w) for w in _LOREM_WORDS)
_N_WORDS = len(_LOREM_WORDS)
_WORD_BITS = _N_WORDS.bit_length()


def _sentence(randbelow, getrandbits) -> str:
    # Same draws as rng.randint(6, 16) followed by n rng.choice(words).
    n = 6 + randbelow(11)
    vocabulary, size, bits = _LOREM_WORDS, _N_WORDS, _WORD_BITS
    words: List[str] = []
    append = words.append
    while n:
        r = getrandbits(bits)
        if r < size:
            append(vocabulary[r])
            n -= 1
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _sentence_length(randbelow, getrandbits) -> int:
    # The draws of _sentence without the string work.  capitalize() keeps
    # length, join adds n-1 spaces, the period adds 1: sum(words) + n.
    n = 6 + randbelow(11)
    lengths = _WORD_LENGTHS
    total = 0
    drawn = 0
    while drawn < n:
        r = getrandbits(_WORD_BITS)
        if r < _N_WORDS:
            total += lengths[r]
            drawn += 1
    return total + n


def _paragraph(randbelow, getrandbits) -> str:
    # range(randint(2, 6)) is evaluated before any sentence draw.
    return " ".join([_sentence(randbelow, getrandbits)
                     for _ in range(2 + randbelow(5))])


def _paragraph_length(randbelow, getrandbits) -> int:
    k = 2 + randbelow(5)
    total = 0
    for _ in range(k):
        total += _sentence_length(randbelow, getrandbits)
    return total + (k - 1)


def generate_page(domain_name: str, category: str, seed: int = 0) -> str:
    """Generate the canonical front page for a domain.

    The page is fully determined by (domain_name, category, seed).
    """
    rng = derive_rng(seed, "page", domain_name)
    # Log-normal page size, clipped: median ~30 KB, long right tail.
    target = int(min(max(rng.lognormvariate(10.2, 0.8), 4_000), 400_000))
    title = domain_name.split(".")[0].capitalize()
    randbelow = rng._randbelow
    getrandbits = rng.getrandbits

    parts: List[str] = [
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n",
        f"<title>{title} — {category}</title>\n",
        f"<meta name=\"description\" content=\"{_sentence(randbelow, getrandbits)}\">\n",
        "<link rel=\"stylesheet\" href=\"/static/main.css\">\n",
        "<script src=\"/static/app.js\" defer></script>\n",
        "</head>\n<body>\n<header>\n<nav>\n",
    ]
    for item in rng.sample(_NAV_ITEMS, k=6):
        parts.append(f"<a href=\"/{item.lower().replace(' ', '-')}\">{item}</a>\n")
    parts.append("</nav>\n")
    # Account features: present on every page; removed for countries a
    # site degrades (application-layer discrimination, §7.3).
    parts.append(_ACCOUNT_BLOCK)
    parts.append(f"</header>\n<main>\n<h1>{title}</h1>\n")
    if category in ("Shopping", "Travel", "Auctions", "Personal Vehicles"):
        # Price blocks enable price-discrimination modelling: the world
        # rewrites data-amount per country for discriminating sites.
        for product in range(3):
            amount = round(rng.uniform(8, 400), 2)
            parts.append(
                f"<div class=\"product\" id=\"p{product}\">"
                f"<span class=\"price\" data-amount=\"{amount:.2f}\">"
                f"${amount:.2f}</span></div>\n"
            )
    # Sections are appended until the page reaches its target length;
    # the running total replaces re-summing every part per section.
    size = sum(len(p) for p in parts)
    append = parts.append
    while size < target:
        chunk = f"<section>\n<h2>{_sentence(randbelow, getrandbits)}</h2>\n"
        append(chunk)
        size += len(chunk)
        for _ in range(1 + randbelow(4)):
            chunk = f"<p>{_paragraph(randbelow, getrandbits)}</p>\n"
            append(chunk)
            size += len(chunk)
        append("</section>\n")
        size += _SECTION_CLOSE_LEN
    parts.append(
        f"</main>\n<footer>\n<p>&copy; 2018 {title}. All rights reserved.</p>\n"
        "</footer>\n</body>\n</html>\n"
    )
    return "".join(parts)


# Fixed-overhead lengths for page_length, measured from the literals they
# mirror so the two paths cannot drift independently.
_HEAD_LEN = len(
    "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
_TITLE_OVERHEAD = len("<title>") + len(" — ") + len("</title>\n")
_DESC_OVERHEAD = len("<meta name=\"description\" content=\"") + len("\">\n")
_STATIC_LINKS_LEN = len(
    "<link rel=\"stylesheet\" href=\"/static/main.css\">\n"
    "<script src=\"/static/app.js\" defer></script>\n"
    "</head>\n<body>\n<header>\n<nav>\n")
_NAV_OVERHEAD = len("<a href=\"/") + len("\">") + len("</a>\n")
_NAV_CLOSE_LEN = len("</nav>\n")
_H1_OVERHEAD = len("</header>\n<main>\n<h1>") + len("</h1>\n")
_SECTION_OPEN_OVERHEAD = len("<section>\n<h2>") + len("</h2>\n")
_P_OVERHEAD = len("<p>") + len("</p>\n")
_SECTION_CLOSE_LEN = len("</section>\n")
_FOOTER_OVERHEAD = len(
    "</main>\n<footer>\n<p>&copy; 2018 "
    ". All rights reserved.</p>\n</footer>\n</body>\n</html>\n")


def page_length(domain_name: str, category: str, seed: int = 0) -> int:
    """Exact ``len(generate_page(...))`` without building the page.

    Replays generate_page's RNG draw sequence (so downstream draws from a
    shared stream would be unperturbed) while accumulating lengths instead
    of concatenating strings — roughly an order of magnitude cheaper for
    large pages.  The handful of variable-width fragments (price blocks)
    are still rendered and measured.
    """
    rng = derive_rng(seed, "page", domain_name)
    target = int(min(max(rng.lognormvariate(10.2, 0.8), 4_000), 400_000))
    title_len = len(domain_name.split(".")[0])
    randbelow = rng._randbelow
    getrandbits = rng.getrandbits

    total = _HEAD_LEN
    total += _TITLE_OVERHEAD + title_len + len(category)
    total += _DESC_OVERHEAD + _sentence_length(randbelow, getrandbits)
    total += _STATIC_LINKS_LEN
    for item in rng.sample(_NAV_ITEMS, k=6):
        # lower()/replace(' ', '-') keep the item's length, and the item
        # appears twice: once in the href, once as the link text.
        total += _NAV_OVERHEAD + 2 * len(item)
    total += _NAV_CLOSE_LEN
    total += len(_ACCOUNT_BLOCK)
    total += _H1_OVERHEAD + title_len
    if category in ("Shopping", "Travel", "Auctions", "Personal Vehicles"):
        for product in range(3):
            amount = round(rng.uniform(8, 400), 2)
            total += len(
                f"<div class=\"product\" id=\"p{product}\">"
                f"<span class=\"price\" data-amount=\"{amount:.2f}\">"
                f"${amount:.2f}</span></div>\n"
            )
    while total < target:
        total += _SECTION_OPEN_OVERHEAD + _sentence_length(randbelow, getrandbits)
        for _ in range(1 + randbelow(4)):
            total += _P_OVERHEAD + _paragraph_length(randbelow, getrandbits)
        total += _SECTION_CLOSE_LEN
    total += _FOOTER_OVERHEAD + title_len
    return total


_ACCOUNT_RE = None


def degrade_page(page: str, remove_account: bool = False,
                 price_multiplier: float = 1.0) -> str:
    """Apply application-layer discrimination to a page.

    ``remove_account`` drops the login/register block (feature removal);
    ``price_multiplier`` rescales every price (price discrimination).
    Both leave the page length within normal sample-to-sample variation,
    which is why blockpage-oriented pipelines cannot see this (§7.3).
    """
    import re
    global _ACCOUNT_RE
    result = page
    if remove_account:
        if _ACCOUNT_RE is None:
            _ACCOUNT_RE = re.compile(
                r'<div id="account">.*?</div>\n', re.DOTALL)
        result = _ACCOUNT_RE.sub("<div id=\"account\"></div>\n", result)
    if price_multiplier != 1.0:
        def rescale(match: "re.Match") -> str:
            amount = float(match.group(1)) * price_multiplier
            return (f'<span class="price" data-amount="{amount:.2f}">'
                    f'${amount:.2f}</span>')
        result = re.sub(
            r'<span class="price" data-amount="([0-9.]+)">\$[0-9.]+</span>',
            rescale, result)
    return result


_JITTER_PREFIX = "<!-- dyn:"
_JITTER_SUFFIX = " -->\n"
_TOKEN_ALPHABET = "abcdefghij0123456789"
_TOKEN_LEN = 16
_TOKEN_BITS = len(_TOKEN_ALPHABET).bit_length()
#: Bytes the dynamic-content comment adds beyond the pad itself
#: (prefix + token + ":" separator + suffix).
JITTER_OVERHEAD = len(_JITTER_PREFIX) + _TOKEN_LEN + 1 + len(_JITTER_SUFFIX)


def jitter_pad(base_length: int, rng: random.Random,
               max_fraction: float = 0.04) -> int:
    """Draw the pad size — the first (and length-determining) jitter draw."""
    return rng.randint(0, max(1, int(base_length * max_fraction)))


def jitter_token(rng: random.Random) -> str:
    """Draw the 16-character dynamic token (the remaining jitter draws).

    Each character is ``rng.choice(_TOKEN_ALPHABET)`` with the rejection
    loop inlined, so the stream advances exactly as the choice calls
    would — the token may be drawn from the world's shared noise stream.
    """
    getrandbits = rng.getrandbits
    alphabet = _TOKEN_ALPHABET
    size = len(alphabet)
    chars: List[str] = []
    left = _TOKEN_LEN
    while left:
        r = getrandbits(_TOKEN_BITS)
        if r < size:
            chars.append(alphabet[r])
            left -= 1
    return "".join(chars)


def jitter_length(base_length: int, pad: int) -> int:
    """The length sample_jitter would produce for this base and pad."""
    return base_length + pad + JITTER_OVERHEAD


def render_jitter(base_page: str, pad: int, token: str) -> str:
    """Assemble the jittered page from its already-drawn components."""
    return base_page + f"{_JITTER_PREFIX}{token}:{'x' * pad}{_JITTER_SUFFIX}"


def sample_jitter(base_page: str, rng: random.Random, max_fraction: float = 0.04) -> str:
    """Return a per-sample variant of a page.

    Real pages differ slightly between loads; we append a dynamic-content
    comment whose size is uniform in [0, max_fraction × len(page)].
    """
    pad = jitter_pad(len(base_page), rng, max_fraction)
    token = jitter_token(rng)
    return render_jitter(base_page, pad, token)
