"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at the names its callers
look it up by (``fca_spaces.lattice.enumerate_concepts`` is what
``build_lattice`` calls, ``fca_spaces.cli.build_lattice`` is what the CLI
calls) with a wrapper that records a span, and ``Tracer.remove`` puts the
originals back.  No file of the package changes.  A name that a later
refactor removed is listed in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (span name, lookup names).  "module:attr" wraps a module global,
# "module:Class.attr" a method on the class.
TARGETS = (
    ("context.parse", ("fca_spaces.context:parse_context", "fca_spaces.cli:parse_context")),
    ("context.derive", (
        "fca_spaces.context:closure_attributes",
        "fca_spaces.context:derive_extent",
        "fca_spaces.cli:derive_extent",
        "fca_spaces.cli:derive_intent",
    )),
    ("context.name_lookup", (
        "fca_spaces.context:FormalContext.object_index",
        "fca_spaces.context:FormalContext.attribute_index",
    )),
    ("enumeration.enumerate", (
        "fca_spaces.enumeration:enumerate_concepts",
        "fca_spaces.lattice:enumerate_concepts",
        "fca_spaces.cli:enumerate_concepts",
    )),
    ("enumeration.object_concept", (
        "fca_spaces.enumeration:object_concept",
        "fca_spaces.cli:object_concept",
    )),
    ("lattice.build", (
        "fca_spaces.lattice:build_lattice",
        "fca_spaces.cli:build_lattice",
        "fca_spaces.corpus:build_lattice",
    )),
    ("lattice.index_of", ("fca_spaces.lattice:ConceptLattice.index_of",)),
    ("lattice.export_json", ("fca_spaces.lattice:export_json", "fca_spaces.cli:export_json")),
    ("lattice.export_dot", ("fca_spaces.lattice:export_dot", "fca_spaces.cli:export_dot")),
    ("lattice.recompute_covers_pairwise", ("fca_spaces.cli:recompute_covers_pairwise",)),
    ("similarity.similar", (
        "fca_spaces.similarity:similar_concepts",
        "fca_spaces.cli:similar_concepts",
    )),
    ("similarity.nearest", (
        "fca_spaces.similarity:nearest_concept",
        "fca_spaces.cli:nearest_concept",
    )),
    ("similarity.prototype", ("fca_spaces.similarity:prototype", "fca_spaces.cli:prototype")),
    ("similarity.siblings", ("fca_spaces.similarity:siblings", "fca_spaces.cli:siblings")),
    ("similarity.distance", ("fca_spaces.similarity:lattice_distance",)),
    ("similarity.walk", (
        "fca_spaces.similarity:generalize",
        "fca_spaces.similarity:specialize",
    )),
    ("corpus.verify_cases", ("fca_spaces.corpus:verify_corpus_cases",)),
    ("cli.run", ("fca_spaces.cli:run",)),
)

# Work counts a span records from the traced call's result.
COUNTS = {
    "context.parse": lambda ctx: len(ctx.objects) * len(ctx.attributes),
    "enumeration.enumerate": len,
    "lattice.export_json": len,
}

# The CLI's validation checks are closures returned by this private
# builder; wrapping it gives one span per check, named after its label.
CHECKS_BUILDER = "fca_spaces.cli:_validation_checks"


def _resolve(target: str):
    """(owner object, attribute name) for a lookup name, or None if gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op, count]``: ``parent`` is the
    index of the enclosing span (-1 at the root), ``op`` the index in
    ``ops`` of the operation the benchmark opened around the call, and
    ``count`` the work count from ``COUNTS`` (0 where none is defined).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[str] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def operation(self, name: str):
        """A span with a fresh operation id for everything below it."""
        outer, self._op = self._op, len(self.ops)
        self.ops.append(name)
        try:
            with self.span(name):
                yield
        finally:
            self._op = outer

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index][5] = count(result)
            return result

        return traced

    def _wrap_checks(self, builder):
        @functools.wraps(builder)
        def traced(*args, **kwargs):
            return [
                (label, self._wrap(f"cli.validate.check:{label}", check))
                for label, check in builder(*args, **kwargs)
            ]

        return traced

    def _replace(self, target: str, make) -> None:
        found = _resolve(target)
        if found is None:
            self.absent.append(target)
            return
        owner, attr = found
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for name, targets in TARGETS:
            for target in targets:
                self._replace(target, lambda fn, name=name: self._wrap(name, fn))
        self._replace(CHECKS_BUILDER, self._wrap_checks)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [span[2] - span[1] for span in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out
