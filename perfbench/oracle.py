"""Checks of the program's results that share no code with the package.

The benchmark parses its own CSV text here and derives what the answers
must be by other means than the package uses: intents as intersections of
object rows instead of NextClosure, upper covers of a concept as the
maximal intents among ``intent & row(g)`` for the objects outside its
extent instead of extent containment over all pairs, and a plain BFS for
distances.  All masks are Python ints, bit j for attribute j.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction


class Table:
    """A context as read straight from CSV text: names and row masks."""

    def __init__(self, text: str):
        lines = text.rstrip("\n").split("\n")
        self.attributes = [c.strip() for c in lines[0].split(",")[1:]]
        self.objects = []
        self.rows = []
        for line in lines[1:]:
            cells = [c.strip() for c in line.split(",")]
            self.objects.append(cells[0])
            self.rows.append(sum(1 << j for j, v in enumerate(cells[1:]) if v == "1"))
        self.full = (1 << len(self.attributes)) - 1

    @property
    def cells(self) -> int:
        return len(self.objects) * len(self.attributes)

    def extent(self, intent: int) -> int:
        return sum(1 << g for g, row in enumerate(self.rows) if row & intent == intent)

    def closure(self, attrs: int) -> int:
        out = self.full
        for row in self.rows:
            if row & attrs == attrs:
                out &= row
        return out

    def intents(self) -> set[int]:
        """Every intent: the full set and all intersections of object rows."""
        found = {self.full}
        for row in set(self.rows):
            found |= {s & row for s in found}
        return found

    def upper_cover_intents(self, intent: int) -> set[int]:
        """Intents of the upper covers of the concept with this intent."""
        candidates = {
            intent & row for row in self.rows if row & intent != intent
        }
        return {
            c for c in candidates
            if not any(c != d and c & d == c for d in candidates)
        }

    def prototype(self, category: int) -> int:
        """Index of the most representative object, as the package defines it."""
        closure = self.closure(category)
        best, best_score = -1, Fraction(-1)
        for g, row in enumerate(self.rows):
            if row & category != category:
                continue
            union = (row | closure).bit_count()
            score = Fraction((row & closure).bit_count(), union) if union else Fraction(1)
            if score > best_score:
                best, best_score = g, score
        return best

    def mask(self, names) -> int:
        index = {name: j for j, name in enumerate(self.attributes)}
        return sum(1 << index[n] for n in names)

    def names(self, mask: int) -> list[str]:
        return [a for j, a in enumerate(self.attributes) if mask >> j & 1]


def bfs(adjacent: list[list[int]], start: int) -> dict[int, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for nb in adjacent[c]:
            if nb not in dist:
                dist[nb] = dist[c] + 1
                queue.append(nb)
    return dist


def check_lattice(table: Table, intents: list[int], upper: list[tuple[int, ...]],
                  levels: list[int], seed: int, samples: int = 40) -> list[str]:
    """Problems found in a lattice given as intents, upper covers and levels.

    The concept set is compared in full, the upper covers of ``samples``
    seeded concepts (plus top and bottom) against the minimal-closure
    characterisation, and the levels against the covers they come with.
    """
    problems = []
    if set(intents) != table.intents() or len(set(intents)) != len(intents):
        problems.append(f"concept set differs ({len(intents)} concepts)")
        return problems
    by_intent = {b: i for i, b in enumerate(intents)}
    rng = random.Random(seed)
    ids = {0, len(intents) - 1} | set(rng.sample(range(len(intents)), min(samples, len(intents))))
    for i in sorted(ids):
        want = {by_intent[b] for b in table.upper_cover_intents(intents[i])}
        if set(upper[i]) != want:
            problems.append(f"upper covers of concept {i} differ")
    for i, ups in enumerate(upper):
        if levels[i] != (max(levels[j] for j in ups) + 1 if ups else 0):
            problems.append(f"level of concept {i} is not the longest path from the top")
            break
    return problems
