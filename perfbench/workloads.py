"""The benchmark's three workloads.

Each workload is one caller in a closed loop: a round runs a fixed mix of
operations, one after another, and the next round starts when it ends.
``round`` records one sample per metric (the mean over that round's calls
of the kind, so every sample covers the same mix) and keeps each
operation's result; ``check`` compares those results, outside the timed
region, with the first round's, with values recorded for the default seed
and, on the first round, with the independent answers in ``oracle``.

Library calls go through module attributes (``L.build_lattice``, not a
name bound at import) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import generate
import oracle

DEFAULT_SEED = 1
SCALES = {"s": 1.0, "ms": 1e3, "us": 1e6}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Round:
    """Samples, results and work counts of one round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, float] = {}
        self.results: dict[tuple, object] = {}
        self.counts: dict[str, int] = {}
        self.keep: dict[str, object] = {}

    @contextlib.contextmanager
    def timed(self, metric: str, calls: int = 1):
        """Time the block; the sample is the mean per call, in the metric's unit."""
        span = self.tracer.operation(metric) if self.tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            yield
            elapsed = time.perf_counter() - start
        self.samples[metric] = elapsed * SCALES[metric.rsplit("_", 1)[1]] / calls


class Workload:
    """Shared set-up and checking; subclasses define the inputs and the round."""

    name = ""

    def __init__(self, seed: int, workdir: str, python_env: dict):
        self.seed = seed
        self.workdir = workdir
        self.env = python_env
        self.expected: dict = {}
        self._first: dict[tuple, object] | None = None

    def setup(self) -> None:
        self.make_inputs()
        done = subprocess.run(
            [sys.executable, "-c", "import fca_spaces.cli"], env=self.env, timeout=60
        )
        if done.returncode:
            raise RuntimeError("importing fca_spaces.cli failed")
        self.warm_up()

    def check(self, r: Round) -> list[str]:
        """Problems with this round's results; one entry per failed operation."""
        problems = []
        if self._first is None:
            problems += self.verify(r)
            if self.seed == DEFAULT_SEED:
                problems += self.compare_expected(r)
            self._first = dict(r.results)
        for key, value in r.results.items():
            if self._first.get(key) != value:
                problems.append(f"{key}: result differs from the first round")
        return problems

    def compare_expected(self, r: Round) -> list[str]:
        problems = []
        for key, want in self.expected.items():
            got = r.results.get(tuple(key.split("|")))
            if got is None or list(got) != want:
                problems.append(f"{key}: {got} differs from the recorded {want}")
        return problems


# --------------------------------------------------------------------------
# Library workloads


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


class LibraryWorkload(Workload):
    """In-process calls on a fixed set of CSV inputs."""

    def inputs(self) -> dict[str, str]:
        raise NotImplementedError

    def make_inputs(self) -> None:
        self.texts = self.inputs()
        self.tables = {name: oracle.Table(text) for name, text in self.texts.items()}
        self.plan = {name: self.query_plan(t) for name, t in self.tables.items()}

    def query_plan(self, table: oracle.Table) -> dict:
        raise NotImplementedError

    def _concepts_and_lattices(self, r: Round):
        from fca_spaces import context as C, enumeration as E, lattice as L

        with r.timed("concepts_s"):
            concepts = {n: E.enumerate_concepts(C.parse_context(t)) for n, t in self.texts.items()}
        with r.timed("lattice_s"):
            contexts = {n: C.parse_context(t) for n, t in self.texts.items()}
            lattices = {n: L.build_lattice(ctx) for n, ctx in contexts.items()}
        shapes = {n: (len(lat), len(lat.cover_edges()), lat.height()) for n, lat in lattices.items()}
        for n, shape in shapes.items():
            r.results[("concepts", n)] = (len(concepts[n]), hash(tuple(concepts[n])))
            r.results[("lattice", n)] = shape
        r.counts["lattice.cover_edges"] = sum(edges for _, edges, _ in shapes.values())
        r.counts["lattice.height"] = max(height for _, _, height in shapes.values())
        r.keep.update(concepts=concepts, lattices=lattices)
        return contexts, lattices

    def _queries(self, r: Round, contexts, lattices) -> dict:
        """Derivations, similar chains, nearest and prototype calls of the plan."""
        from fca_spaces import context as C, enumeration as E, similarity as S

        plan = self.plan
        n_derive = sum(len(p["derive"]) for p in plan.values())
        with r.timed("derive_us", 2 * n_derive):
            for n, p in plan.items():
                ctx = contexts[n]
                for cue in p["derive"]:
                    r.results[("derive", n, cue)] = (
                        C.closure_attributes(ctx, cue), C.derive_extent(ctx, cue)
                    )
        object_ids = {n: [] for n in plan}
        with r.timed("similar_ms", sum(len(p["objects"]) for p in plan.values())):
            for n, p in plan.items():
                ctx, lat = contexts[n], lattices[n]
                for name in p["objects"]:
                    cid = lat.index_of(E.object_concept(ctx, ctx.object_index(name)))
                    object_ids[n].append(cid)
                    r.results[("similar", n, name)] = (cid, tuple(
                        (s.concept_id, s.lattice_distance, s.intent_jaccard)
                        for s in S.similar_concepts(lat, cid, 5)
                    ))
        with r.timed("nearest_us", sum(len(p["nearest"]) for p in plan.values())):
            for n, p in plan.items():
                ctx, lat = contexts[n], lattices[n]
                for cue in p["nearest"]:
                    r.results[("nearest", n, cue)] = S.nearest_concept(ctx, lat, cue)
        with r.timed("prototype_us", sum(len(p["prototype"]) for p in plan.values())):
            for n, p in plan.items():
                ctx = contexts[n]
                for cue in p["prototype"]:
                    r.results[("prototype", n, cue)] = S.prototype(ctx, cue)
        return object_ids

    def _exports(self, r: Round, contexts, lattices) -> None:
        from fca_spaces import lattice as L

        out = {}
        with r.timed("export_ms", len(lattices)):
            for n, lat in lattices.items():
                out[n] = (L.export_json(lat, contexts[n]), L.export_dot(lat, contexts[n]))
        for n, (js, dot) in out.items():
            r.results[("export", n)] = (sha256(js), sha256(dot))

    def verify(self, r: Round) -> list[str]:
        problems = []
        for n, lat in r.keep["lattices"].items():
            table = self.tables[n]
            concepts = r.keep["concepts"][n]
            if list(lat.concepts) != list(concepts):
                problems.append(f"{n}: build_lattice and enumerate_concepts disagree")
            intents = [_mask(c.intent) for c in lat.concepts]
            upper = [lat.upper_covers(i) for i in range(len(lat))]
            levels = [lat.level_of(i) for i in range(len(lat))]
            problems += [f"{n}: {p}" for p in oracle.check_lattice(table, intents, upper, levels, self.seed)]
            adjacent = [list(upper[i]) + list(lat.lower_covers(i)) for i in range(len(lat))]
            problems += self._verify_queries(r, n, table, lat, intents, adjacent)
        return problems

    def _verify_queries(self, r, n, table, lat, intents, adjacent) -> list[str]:
        problems = []
        plan = self.plan[n]
        by_intent = {b: i for i, b in enumerate(intents)}
        for cue in plan["derive"]:
            closure, extent = r.results[("derive", n, cue)]
            want = table.closure(_mask(cue))
            if _mask(closure) != want or _mask(extent) != table.extent(_mask(cue)):
                problems.append(f"{n}: derivation of {cue} is wrong")
        for name in plan["objects"]:
            cid, ranked = r.results[("similar", n, name)]
            g = table.objects.index(name)
            if cid != by_intent.get(table.rows[g]):
                problems.append(f"{n}: object concept of {name} is wrong")
                continue
            if _top_similar(adjacent, intents, cid) != list(ranked):
                problems.append(f"{n}: similar_concepts for {name} is wrong")
        for cue in plan["nearest"]:
            if r.results[("nearest", n, cue)] != by_intent.get(table.closure(_mask(cue))):
                problems.append(f"{n}: nearest_concept for {cue} is wrong")
        for cue in plan["prototype"]:
            if r.results[("prototype", n, cue)] != table.prototype(_mask(cue)):
                problems.append(f"{n}: prototype for {cue} is wrong")
        return problems


def _jaccard(a: int, b: int) -> Fraction:
    union = (a | b).bit_count()
    return Fraction((a & b).bit_count(), union) if union else Fraction(1)


def _top_similar(adjacent, intents, cid: int, k: int = 5) -> list[tuple]:
    """(id, distance, jaccard) of the k concepts nearest to ``cid``."""
    ranked = sorted(
        (d, -_jaccard(intents[cid], intents[c]), c)
        for c, d in oracle.bfs(adjacent, cid).items() if c != cid
    )
    return [(c, d, -j) for d, j, c in ranked[:k]]


class CorpusSession(LibraryWorkload):
    """The paper's two tables, queried the way its case studies query them."""

    name = "corpus-session"
    CORPORA = ("ninapro-abc", "ninapro-grasp")

    def inputs(self) -> dict[str, str]:
        from fca_spaces import corpus

        return {name: corpus.golden_csv(name) for name in self.CORPORA}

    def query_plan(self, table: oracle.Table) -> dict:
        pairs = list(combinations(range(len(table.attributes)), 2))
        return {
            "objects": list(table.objects),
            "derive": [(j,) for j in range(len(table.attributes))],
            "nearest": pairs,
            "prototype": [p for p in pairs if table.extent(_mask(p))],
        }

    def warm_up(self) -> None:
        self.round(Round())

    def round(self, r: Round) -> None:
        from fca_spaces import corpus as K, similarity as S

        contexts, lattices = self._concepts_and_lattices(r)
        object_ids = self._queries(r, contexts, lattices)
        n_objects = sum(len(ids) for ids in object_ids.values())
        with r.timed("siblings_us", n_objects):
            for n, ids in object_ids.items():
                for cid in ids:
                    r.results[("siblings", n, cid)] = S.siblings(lattices[n], cid)
        with r.timed("walk_us", 2 * n_objects):
            for n, ids in object_ids.items():
                for cid in ids:
                    r.results[("walk", n, cid)] = (
                        S.generalize(lattices[n], cid, 2), S.specialize(lattices[n], cid, 2)
                    )
        pairs = {
            n: list(zip(ids, ids[1:])) + [(lattices[n].top_id, lattices[n].bottom_id)]
            for n, ids in object_ids.items()
        }
        with r.timed("distance_us", sum(len(p) for p in pairs.values())):
            for n, ps in pairs.items():
                for a, b in ps:
                    r.results[("distance", n, a, b)] = S.lattice_distance(lattices[n], a, b)
        self._exports(r, contexts, lattices)
        with r.timed("verify_cases_ms"):
            reports = K.verify_corpus_cases()
        r.results[("verify_cases",)] = tuple(rep.computed_relation for rep in reports)

    def _verify_queries(self, r, n, table, lat, intents, adjacent) -> list[str]:
        problems = super()._verify_queries(r, n, table, lat, intents, adjacent)
        upper = [set(lat.upper_covers(i)) for i in range(len(lat))]
        lower = [set(lat.lower_covers(i)) for i in range(len(lat))]
        for key, value in r.results.items():
            if key[0] == "siblings" and key[1] == n:
                cid = key[2]
                want = set().union(*(lower[p] for p in upper[cid])) - {cid}
                if set(value) != want:
                    problems.append(f"{n}: siblings of {cid} are wrong")
            elif key[0] == "walk" and key[1] == n:
                cid = key[2]
                for got, step in zip(value, (upper, lower)):
                    one = step[cid]
                    if set(got) != one.union(*(step[c] for c in one)):
                        problems.append(f"{n}: two-step walk from {cid} is wrong")
            elif key[0] == "distance" and key[1] == n:
                if value != oracle.bfs(adjacent, key[2])[key[3]]:
                    problems.append(f"{n}: lattice_distance{key[2:]} is wrong")
        verdicts = r.results[("verify_cases",)]
        if verdicts != ("fails", "fails", "holds", "holds"):
            problems.append(f"verify_corpus_cases verdicts are {verdicts}")
        return problems


class SyntheticLattice(LibraryWorkload):
    """Large generated lattices, where the quadratic cover step shows."""

    name = "synthetic-lattice"
    SIMILAR = 8

    def inputs(self) -> dict[str, str]:
        return {
            "random-400x50-0.15": generate.random_context(self.seed, 400, 50, 0.15),
            "contranominal-13": generate.contranominal(self.seed, 13),
        }

    def query_plan(self, table: oracle.Table) -> dict:
        n, m, q = len(table.objects), len(table.attributes), self.SIMILAR
        pairs = list(combinations(range(m), 2))
        return {
            "objects": [table.objects[k * n // q] for k in range(q)],
            "derive": pairs,
            "nearest": pairs,
            "prototype": [(j,) for j in range(m) if table.extent(1 << j)],
        }

    def warm_up(self) -> None:
        from fca_spaces import context as C, enumeration as E

        for text in self.texts.values():
            E.enumerate_concepts(C.parse_context(text))

    def round(self, r: Round) -> None:
        contexts, lattices = self._concepts_and_lattices(r)
        self._queries(r, contexts, lattices)
        self._exports(r, contexts, lattices)


# --------------------------------------------------------------------------
# CLI workload

# (command, metric it realises, runs per round, argv with {file} placeholders).
# The two commands under 0.1 s run five times a round, so that their
# medians rest on as many subprocesses as the slower ones'.
CLI_COMMANDS = (
    ("corpus", "export_ms", 5, ("corpus", "ninapro-abc")),
    ("query", "nearest_us", 1, ("query", "{f200}", "--attributes", "m0,m1", "--format", "json")),
    ("similar", "similar_ms", 1, ("similar", "{f200}", "--object", "g0", "--format", "json")),
    ("lattice", "lattice_s", 1, ("lattice", "{f200}", "--format", "json")),
    ("concepts", "concepts_s", 1, ("concepts", "{tall}")),
    ("prototype", "prototype_us", 5, ("prototype", "{tall}", "--attributes", "m0,m1")),
    ("validate", "validate_s", 1, ("validate", "{f100}")),
)


class CliCommands(Workload):
    """One ``fca`` subprocess at a time on files written during set-up."""

    name = "cli-commands"
    FILES = {
        "f200": (200, 40, 0.2),
        "tall": (20000, 10, 0.3),
        "f100": (100, 30, 0.25),
    }

    def make_inputs(self) -> None:
        self.paths, self.tables = {}, {}
        for key, (n, m, density) in self.FILES.items():
            text = generate.random_context(self.seed, n, m, density)
            path = os.path.join(self.workdir, f"{key}.csv")
            # Truncating a file whose pages are still being written back can
            # wait for the disk; a new file never does.
            if os.path.exists(path):
                os.unlink(path)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths[key] = path
            self.tables[key] = oracle.Table(text)
        self.argv = {
            cmd: [a.format(**self.paths) for a in argv] for cmd, _, _, argv in CLI_COMMANDS
        }

    def fca(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "fca_spaces.cli", *args],
            capture_output=True, encoding="utf-8", env=self.env, timeout=170,
        )

    def warm_up(self) -> None:
        self.fca("corpus", "ninapro-abc")

    def round(self, r: Round) -> None:
        for cmd, metric, runs, _ in CLI_COMMANDS:
            with r.timed(metric, runs):
                done = [self.fca(*self.argv[cmd]) for _ in range(runs)]
            outcomes = {(d.returncode, sha256(d.stdout)) for d in done}
            r.keep[cmd] = done[0].stdout
            r.results[("cli", cmd)] = (
                outcomes.pop() if len(outcomes) == 1 else ("runs differ", len(outcomes))
            )
        self._lattice_counts(r)

    def inprocess_round(self, r: Round) -> None:
        """The same commands through ``cli.run`` in this process, stdout captured."""
        from fca_spaces import cli

        for cmd, _, _, _ in CLI_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with r.timed(f"cli.{cmd}.run_s"):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(self.argv[cmd])
            r.keep[cmd] = out.getvalue()
            r.results[("cli", cmd)] = (code, sha256(out.getvalue()))
            r.counts[f"cli.{cmd}.stdout_bytes"] = len(out.getvalue().encode("utf-8"))
        self._lattice_counts(r)

    def _lattice_counts(self, r: Round) -> None:
        payload = json.loads(r.keep["lattice"])
        r.counts["lattice.cover_edges"] = len(payload["covers"])
        r.counts["lattice.height"] = max(c["level"] for c in payload["concepts"])

    def verify(self, r: Round) -> list[str]:
        from fca_spaces import corpus

        problems = []
        for cmd, _, _, _ in CLI_COMMANDS:
            code, _ = r.results[("cli", cmd)]
            if code != 0:
                problems.append(f"fca {cmd} exited with {code}")
        out = r.keep
        if out["corpus"] != corpus.golden_csv("ninapro-abc"):
            problems.append("fca corpus output differs from the golden CSV")

        f200 = self.tables["f200"]
        lattice = json.loads(out["lattice"])
        names = {name: i for i, name in enumerate(f200.attributes)}
        intents = [_mask(names[a] for a in c["intent"]) for c in lattice["concepts"]]
        upper = [[] for _ in intents]
        lower = [[] for _ in intents]
        for low, up in lattice["covers"]:
            upper[low].append(up)
            lower[up].append(low)
        levels = [c["level"] for c in lattice["concepts"]]
        problems += [f"fca lattice: {p}" for p in oracle.check_lattice(f200, intents, upper, levels, self.seed)]

        query = json.loads(out["query"])
        if query["intent"] != f200.names(f200.closure(f200.mask(["m0", "m1"]))):
            problems.append("fca query gives the wrong concept")

        similar = json.loads(out["similar"])
        cid = similar["concept"]["id"]
        if intents[cid] != f200.rows[f200.objects.index("g0")]:
            problems.append("fca similar starts from the wrong concept")
        want = _top_similar([u + lw for u, lw in zip(upper, lower)], intents, cid)
        if [(c, d) for c, d, _ in want] != [(s["id"], s["distance"]) for s in similar["similar"]]:
            problems.append("fca similar ranks the wrong concepts")

        tall = self.tables["tall"]
        first_line = out["concepts"].split("\n", 1)[0]
        if first_line != f"{len(tall.intents())} concepts":
            problems.append(f"fca concepts reports {first_line!r}")
        if out["prototype"].strip() != tall.objects[tall.prototype(tall.mask(["m0", "m1"]))]:
            problems.append("fca prototype picks the wrong object")

        checks = out["validate"].splitlines()
        if len(checks) != 5 or not all(line.startswith("ok: ") for line in checks):
            problems.append("fca validate does not report five passing checks")
        return problems


WORKLOADS = {w.name: w for w in (CorpusSession, SyntheticLattice, CliCommands)}
