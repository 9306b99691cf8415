"""Timeout-based geoblocking detection (the paper's §7.3 future work).

The paper observed *consistent timeouts for certain websites in only some
countries* and flagged investigating them as future work, noting the
difficulty: a persistent timeout can be geoblocking (a server silently
dropping foreign connections), nation-state censorship, or merely a flaky
residential path.

The detector here uses the same statistical machinery as the block-page
pipeline:

1. From the initial scan, find (domain, country) pairs where *every*
   sample failed while the same domain answered reliably in many other
   countries (so the domain is alive and crawlable).
2. Resample candidates heavily; a flaky-path pair with per-request
   failure ~0.9 still slips through 23 all-fail samples ~9% of the time,
   so confirmation demands a zero-success streak over a larger budget.
3. Report confirmed pairs with an honest caveat flag: countries known to
   practice network censorship cannot be distinguished on timeouts alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lumscan.records import NO_RESPONSE, ScanDataset
from repro.lumscan.base import Scanner

#: Countries whose censors are known to cause timeouts/resets; timeout
#: signals there are unattributable (the §7.3 caveat).
CENSORING_COUNTRIES = frozenset(
    {"CN", "IR", "SY", "RU", "TR", "PK", "SA", "AE", "VN", "EG", "ID", "KP"})


@dataclass(frozen=True)
class TimeoutCandidate:
    """A pair that timed out in every initial sample."""

    domain: str
    country: str
    failures: int
    countries_responsive: int   # other countries where the domain answered


@dataclass(frozen=True)
class ConfirmedTimeoutBlock:
    """A pair confirmed to time out persistently."""

    domain: str
    country: str
    total_samples: int
    ambiguous_censorship: bool  # country censors; attribution uncertain


def find_timeout_candidates(dataset: ScanDataset,
                            min_responsive_countries: int = 5
                            ) -> List[TimeoutCandidate]:
    """Pairs with 100% failures for domains alive elsewhere.

    A country only counts as *responsive* when a majority of its samples
    produced an HTTP response.  A single stray response is not life: a
    dead domain can "answer" through an interfering local firewall that
    serves its own 403 without ever reaching the site, and one such
    artifact must not qualify the domain as alive (it would then confirm
    as a bogus timeout block in all ~190 other countries).
    """
    responsive: Dict[str, Set[str]] = {}
    failures: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for domain, country, samples in dataset.pairs():
        fail = sum(1 for s in samples if s.status == NO_RESPONSE)
        total = len(samples)
        key = (domain, country)
        f0, t0 = failures.get(key, (0, 0))
        failures[key] = (f0 + fail, t0 + total)

    for (domain, country), (fail, total) in failures.items():
        if total > 0 and fail <= total / 2:
            responsive.setdefault(domain, set()).add(country)

    candidates: List[TimeoutCandidate] = []
    for (domain, country), (fail, total) in sorted(failures.items()):
        if total == 0 or fail < total:
            continue
        alive_elsewhere = len(responsive.get(domain, set()) - {country})
        if alive_elsewhere >= min_responsive_countries:
            candidates.append(TimeoutCandidate(
                domain=domain, country=country, failures=fail,
                countries_responsive=alive_elsewhere))
    return candidates


def confirm_timeout_blocks(scanner: Scanner,
                           candidates: Sequence[TimeoutCandidate],
                           samples: int = 20, epoch: int = 1,
                           screen_samples: int = 10,
                           allowed_successes: int = 1,
                           censoring_countries: Optional[frozenset] = None
                           ) -> List[ConfirmedTimeoutBlock]:
    """Two-stage confirmation of persistent timeouts.

    The statistics are a balancing act the block-page pipeline never
    faced:

    * a *flaky residential path* still fails ~73% of probes after
      retries, so it survives an n-probe zero-success streak with
      probability 0.73^n — the screen (strict zero over
      ``screen_samples``) plus the confirmation pass push that below
      ~0.1%;
    * a *genuinely dropped* pair occasionally "succeeds" when a
      mislocated exit slips out of the blocked country (~1%/probe),
      so the confirmation pass tolerates ``allowed_successes`` strays
      rather than demanding perfection.
    """
    censors = (censoring_countries if censoring_countries is not None
               else CENSORING_COUNTRIES)
    by_key = {(c.domain, c.country): c for c in candidates}

    survivors: List[Tuple[str, str]] = []
    screen_failures: Dict[Tuple[str, str], int] = {}
    if screen_samples > 0:
        screened = scanner.resample(sorted(by_key), screen_samples,
                                    epoch=epoch)
        for domain, country, results in screened.pairs():
            if all(s.status == NO_RESPONSE for s in results):
                survivors.append((domain, country))
                screen_failures[(domain, country)] = len(results)
    else:
        survivors = sorted(by_key)

    resampled = scanner.resample(survivors, samples, epoch=epoch)
    confirmed: List[ConfirmedTimeoutBlock] = []
    for domain, country, results in resampled.pairs():
        successes = sum(1 for s in results if s.status != NO_RESPONSE)
        if successes > allowed_successes:
            continue
        key = (domain, country)
        original = by_key[key]
        total = (original.failures + screen_failures.get(key, 0)
                 + len(results))
        confirmed.append(ConfirmedTimeoutBlock(
            domain=domain, country=country,
            total_samples=total,
            ambiguous_censorship=country in censors))
    return confirmed


@dataclass
class TimeoutStudyResult:
    """Everything the timeout-geoblocking study produced."""

    candidates: List[TimeoutCandidate]
    confirmed: List[ConfirmedTimeoutBlock]

    @property
    def unambiguous(self) -> List[ConfirmedTimeoutBlock]:
        """Confirmed pairs outside known-censoring countries."""
        return [c for c in self.confirmed if not c.ambiguous_censorship]


def run_timeout_study(scanner: Scanner, dataset: ScanDataset,
                      min_responsive_countries: int = 5,
                      confirm_samples: int = 20,
                      screen_samples: int = 10,
                      epoch: int = 1) -> TimeoutStudyResult:
    """End-to-end timeout-geoblocking detection over an initial scan."""
    candidates = find_timeout_candidates(dataset, min_responsive_countries)
    confirmed = confirm_timeout_blocks(scanner, candidates,
                                       samples=confirm_samples,
                                       screen_samples=screen_samples,
                                       epoch=epoch)
    return TimeoutStudyResult(candidates=candidates, confirmed=confirmed)
