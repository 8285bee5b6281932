"""Multi-model landmark-type logic: posterior type probabilities.

Landmark type is a discrete state estimated alongside the position.  Type
probabilities are updated per association outcome: a detection weighs each
type by its detection probability and measurement likelihood; a
misdetection down-weights types that should have been detected.  The
misdetection form is the factored ``(1 - p_detect) * psi_prior``, not the
survival form ``1 - p_detect * psi_prior``: the survival form has an
interior fixed point that keeps pulling resolved type probabilities back
toward it, which destabilizes landmarks outside the field of view.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

from .geometry import TYPE_ORDER


def _normalize(masses: dict) -> dict:
    total = sum(masses.values())
    if total <= 0.0 or not math.isfinite(total):
        warnings.warn("all-zero type-probability mass; falling back to uniform",
                      RuntimeWarning, stacklevel=3)
        n = len(masses)
        return {k: 1.0 / n for k in masses}
    return {k: v / total for k, v in masses.items()}


def update_type_probs(prior_probs: dict, p_detect: dict,
                      logliks: Optional[dict] = None) -> dict:
    """Posterior type probabilities for one landmark, normalized to one.

    ``logliks`` maps type -> log measurement likelihood for a detection and
    is None for a misdetection.  Types missing from ``logliks`` on a
    detection are impossible (zero likelihood).
    """
    kinds = [k for k in TYPE_ORDER if k in prior_probs]
    if len(kinds) == 1:
        return {kinds[0]: 1.0}
    if logliks is None:
        return _normalize({k: (1.0 - p_detect.get(k, 0.0)) * prior_probs[k]
                           for k in kinds})
    log_terms = {}
    for k in kinds:
        pd = p_detect.get(k, 0.0)
        psi = prior_probs[k]
        ll = logliks.get(k)
        if pd <= 0.0 or psi <= 0.0 or ll is None:
            log_terms[k] = -math.inf
        else:
            log_terms[k] = math.log(pd) + math.log(psi) + ll
    peak = max(log_terms.values())
    if not math.isfinite(peak):
        return _normalize({k: 0.0 for k in kinds})
    masses = {k: math.exp(v - peak) for k, v in log_terms.items()}
    return _normalize(masses)


def birth_type_probs(rho_by_type: dict) -> dict:
    """Type probabilities of a newborn landmark: rho normalized over types."""
    total = sum(rho_by_type.values())
    if total <= 0.0:
        raise ValueError("birth rejected: zero total birth mass")
    return {k: rho_by_type[k] / total
            for k in TYPE_ORDER if k in rho_by_type}
