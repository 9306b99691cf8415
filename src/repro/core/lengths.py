"""The page-length outlier heuristic (§4.1.2, evaluated in §4.1.5).

For each domain, the *representative length* is the longest page observed
across a set of reference countries (the paper uses the top-20 geoblocking
countries from the exploratory study to keep clustering tractable).  Any
sample whose body is more than ``cutoff`` (default 30%) shorter than the
representative is extracted as a candidate block page.

The paper notes that *percentage* differences work where raw byte
differences do not (raw cutoffs excessively penalize long pages); both are
implemented so the ablation benchmark can reproduce that comparison.

Both kernels are vectorized over the dataset's code columns
(:meth:`~repro.lumscan.records.ScanDataset.domain_code_array` and
friends): the per-domain maximum is one ``np.maximum.at`` scatter, and
outlier flagging is a boolean-mask expression that yields ascending row
indices — :class:`Sample` objects are materialized only for the flagged
rows.  Scalar reference implementations live in
:mod:`repro.core.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.lumscan.records import NO_RESPONSE, Sample, ScanDataset

DEFAULT_CUTOFF = 0.30


def _country_allowed(dataset: ScanDataset,
                     countries: Sequence[str]) -> np.ndarray:
    """Boolean allow-table over the dataset's country codes."""
    allowed = np.zeros(len(dataset.countries()), dtype=bool)
    for country in countries:
        code = dataset.country_code(country)
        if code is not None:
            allowed[code] = True
    return allowed


def representative_lengths(dataset: ScanDataset,
                           reference_countries: Optional[Sequence[str]] = None
                           ) -> Dict[str, int]:
    """Longest observed response length per domain.

    When ``reference_countries`` is given, only samples from those
    countries contribute (the paper's top-20 trick); otherwise all
    countries do.  All HTTP responses count — a domain that only ever
    returns a block page has that page as its representative, which is
    why recall is imperfect (Table 2).
    """
    if len(dataset) == 0:
        return {}
    names = dataset.domains()
    reps = np.full(len(names), -1, dtype=np.int64)
    mask = dataset.ok_array()
    if reference_countries is not None:
        mask &= _country_allowed(dataset, reference_countries)[
            dataset.country_code_array()]
    np.maximum.at(reps, dataset.domain_code_array()[mask],
                  dataset.length_array()[mask])
    return {names[code]: int(reps[code])
            for code in np.flatnonzero(reps >= 0).tolist()}


@dataclass(frozen=True)
class Outlier:
    """One candidate block page flagged by the heuristic."""

    index: int          # row index in the dataset
    sample: Sample
    representative: int
    relative_difference: float   # (rep - len) / rep, in [0, 1]


def _representative_table(dataset: ScanDataset,
                          representatives: Mapping[str, int]) -> np.ndarray:
    """Representative length per domain code (0 where unknown)."""
    reps = np.zeros(len(dataset.domains()), dtype=np.int64)
    for domain, rep in representatives.items():
        code = dataset.domain_code(domain)
        if code is not None and rep > 0:
            reps[code] = rep
    return reps


def extract_outliers(dataset: ScanDataset,
                     representatives: Mapping[str, int],
                     cutoff: float = DEFAULT_CUTOFF,
                     raw_cutoff: Optional[int] = None,
                     countries: Optional[Sequence[str]] = None
                     ) -> List[Outlier]:
    """Samples shorter than the representative by more than the cutoff.

    ``cutoff`` is the fractional threshold (0.30 = "30% shorter").  When
    ``raw_cutoff`` is given instead, an absolute byte difference is used
    (the ablation mode the paper found ineffective).  ``countries``
    optionally restricts extraction to samples from those countries (the
    pipeline's reference-country filter, applied inside the mask).
    The output is ascending by row index.
    """
    if not 0.0 < cutoff < 1.0:
        raise ValueError("cutoff must be in (0, 1)")
    if len(dataset) == 0:
        return []
    rep_rows = _representative_table(dataset, representatives)[
        dataset.domain_code_array()]
    valid = (dataset.status_array() != NO_RESPONSE) & (rep_rows > 0)
    if countries is not None:
        valid &= _country_allowed(dataset, countries)[
            dataset.country_code_array()]
    difference = rep_rows - dataset.length_array()
    relative = np.zeros(len(dataset), dtype=np.float64)
    np.divide(difference, rep_rows, out=relative, where=rep_rows > 0)
    if raw_cutoff is not None:
        flagged = valid & (difference > raw_cutoff)
    else:
        flagged = valid & (relative > cutoff)
    return [Outlier(index=index, sample=dataset.row(index),
                    representative=int(rep_rows[index]),
                    relative_difference=float(relative[index]))
            for index in np.flatnonzero(flagged).tolist()]


def relative_differences(dataset: ScanDataset,
                         representatives: Mapping[str, int]
                         ) -> List[Tuple[float, bool]]:
    """(relative difference, has-body) for every valid sample — Figure 2.

    The boolean marks samples whose body was retained (block-page-sized),
    which the figure uses to split 'blocked' from ordinary samples once
    fingerprints have been applied by the caller.
    """
    if len(dataset) == 0:
        return []
    rep_rows = _representative_table(dataset, representatives)[
        dataset.domain_code_array()]
    valid = (dataset.status_array() != NO_RESPONSE) & (rep_rows > 0)
    relative = np.zeros(len(dataset), dtype=np.float64)
    np.divide(rep_rows - dataset.length_array(), rep_rows,
              out=relative, where=rep_rows > 0)
    has_body = dataset.has_body_array()
    return [(float(relative[index]), bool(has_body[index]))
            for index in np.flatnonzero(valid).tolist()]
