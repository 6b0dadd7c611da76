"""Table-driven categorical draws, bit-identical to ``Generator.choice(p=)``.

``Generator.choice(n, p=p)`` validates ``p``, normalizes ``cumsum(p)`` by
its last entry, draws one ``rng.random()`` and returns the first index
whose cumulative weight exceeds that draw.  The semi-Markov walks make
one such draw per event, so rebuilding and re-validating ``p`` every
time dominated their cost.  Instead they build :func:`choice_cdf` once
per profile or fitted model and draw with
``bisect_right(cdf, rng.random())``, which consumes the RNG identically
and returns the same index.  Validation moves to construction time,
with the sampler's own tolerance (:func:`is_distribution`), so input
that ``Generator.choice`` would reject is still rejected.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["SUM_TOLERANCE", "is_distribution", "choice_cdf"]

#: ``Generator.choice`` rejects probabilities whose sum is further than
#: this from 1.
SUM_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)


def is_distribution(probs: Iterable[float]) -> bool:
    """Whether ``Generator.choice`` accepts ``probs``.

    That is: at least one entry, none negative or NaN, and a sum within
    :data:`SUM_TOLERANCE` of 1.
    """
    values = [float(p) for p in probs]
    if not values or not all(p >= 0.0 for p in values):
        return False
    return abs(math.fsum(values) - 1.0) <= SUM_TOLERANCE


def choice_cdf(probs: Iterable[float]) -> list[float]:
    """Cumulative table for ``bisect_right`` draws.

    Normalized exactly as ``Generator.choice`` does it (running sum,
    then division by the last entry), so the table reproduces its
    choices bit for bit.
    """
    cdf = np.cumsum(np.asarray(list(probs), dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()
