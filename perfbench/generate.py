"""Seeded generators for the benchmark's synthetic contexts.

Every generator returns CSV text in the format ``parse_context`` reads, and
the same arguments always give the same bytes.

Random contexts fix the multiset of row weights (ones per row) to the
quantiles of Binomial(attributes, density) and let the seed choose which
rows carry which weight and which attributes each row holds.  Plain
Bernoulli cells let the row weights themselves vary with the seed, which
moves the concept count of a 400x50 context at density 0.15 by about 8 %
between seeds and the quadratic cover time by twice that; with the weights
fixed the count moves by about 1 %, while every row still looks like a
Bernoulli row.
"""

from __future__ import annotations

import math
import random


def _row_weights(n_objects: int, n_attributes: int, density: float) -> list[int]:
    cdf, acc = [], 0.0
    for k in range(n_attributes + 1):
        acc += math.comb(n_attributes, k) * density**k * (1 - density) ** (n_attributes - k)
        cdf.append(acc)
    weights = []
    for i in range(n_objects):
        q = (i + 0.5) / n_objects
        weights.append(next((k for k, c in enumerate(cdf) if q <= c), n_attributes))
    return weights


def _csv(objects: list[str], attributes: list[str], rows: list[set[int]]) -> str:
    lines = [",".join([""] + attributes)]
    n = len(attributes)
    for name, row in zip(objects, rows):
        lines.append(",".join([name] + ["1" if m in row else "0" for m in range(n)]))
    return "\n".join(lines) + "\n"


def random_context(seed: int, n_objects: int, n_attributes: int, density: float) -> str:
    """A random ``n_objects`` x ``n_attributes`` context of the given density."""
    rng = random.Random(f"random:{seed}:{n_objects}:{n_attributes}:{density}")
    weights = _row_weights(n_objects, n_attributes, density)
    rng.shuffle(weights)
    rows = [set(rng.sample(range(n_attributes), k)) for k in weights]
    objects = [f"g{i}" for i in range(n_objects)]
    attributes = [f"m{j}" for j in range(n_attributes)]
    return _csv(objects, attributes, rows)


def contranominal(seed: int, n: int) -> str:
    """The n x n contranominal scale: object i has every attribute but one.

    Its lattice is the Boolean lattice on n atoms (2**n concepts,
    n * 2**(n-1) cover edges) for every seed; the seed only shuffles which
    attribute each object lacks.
    """
    rng = random.Random(f"contranominal:{seed}:{n}")
    missing = list(range(n))
    rng.shuffle(missing)
    rows = [set(range(n)) - {m} for m in missing]
    return _csv([f"c{i}" for i in range(n)], [f"a{j}" for j in range(n)], rows)
