"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Not named test_*.py, so the package's test suite does not collect it: the
smoke runs take most of a minute.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import generate  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CliCommands, CorpusSession, Round  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _rows(text):
    table = oracle.Table(text)
    rows = [frozenset(j for j in range(len(table.attributes)) if r >> j & 1) for r in table.rows]
    return table, rows


class TestGenerator:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_same_seed_same_bytes(self, seed):
        assert generate.random_context(seed, 50, 12, 0.3) == generate.random_context(seed, 50, 12, 0.3)
        assert generate.contranominal(seed, 9) == generate.contranominal(seed, 9)

    def test_seeds_differ(self):
        assert generate.random_context(1, 50, 12, 0.3) != generate.random_context(2, 50, 12, 0.3)

    def test_density_and_shape(self):
        table = oracle.Table(generate.random_context(3, 400, 50, 0.15))
        assert (len(table.objects), len(table.attributes)) == (400, 50)
        ones = sum(row.bit_count() for row in table.rows)
        assert abs(ones / (400 * 50) - 0.15) < 0.005

    def test_contranominal_is_boolean(self):
        table = oracle.Table(generate.contranominal(5, 6))
        assert sorted(row.bit_count() for row in table.rows) == [5] * 6
        assert len(table.intents()) == 2**6


class TestOracle:
    """The benchmark's checks agree with the set-based reference of the tests."""

    @pytest.mark.parametrize("seed", range(12))
    def test_intents_and_covers(self, seed):
        rng = random.Random(seed)
        text = generate.random_context(seed, rng.randint(1, 9), rng.randint(1, 7), rng.random())
        table, rows = _rows(text)
        n_attr = len(table.attributes)
        ref = reference.ref_sorted_concepts(rows, n_attr)
        assert {sum(1 << j for j in i) for _, i in ref} == table.intents()
        extents = [frozenset(e) for e, _ in ref]
        edges = reference.ref_hasse_edges(extents)
        index = {sum(1 << j for j in i): k for k, (_, i) in enumerate(ref)}
        for k, (_, intent) in enumerate(ref):
            want = {up for low, up in edges if low == k}
            got = {index[b] for b in table.upper_cover_intents(sum(1 << j for j in intent))}
            assert got == want


class TestCorpusExpectations:
    """Expected corpus counts in spec.json agree with tests/reference.py."""

    @pytest.mark.parametrize("name", CorpusSession.CORPORA)
    def test_concepts_edges_levels(self, name):
        from fca_spaces import build_lattice, golden_csv, parse_context

        text = golden_csv(name)
        table, rows = _rows(text)
        ref = reference.ref_sorted_concepts(rows, len(table.attributes))
        edges = reference.ref_hasse_edges([frozenset(e) for e, _ in ref])
        levels = reference.ref_levels(len(ref), edges)
        concepts, cover_edges, height = SPEC["expected"]["corpus-session"][f"lattice|{name}"]
        assert (concepts, cover_edges, height) == (len(ref), len(edges), max(levels.values()))

        lat = build_lattice(parse_context(text))
        assert [(c.extent, c.intent) for c in lat.concepts] == ref
        assert set(lat.cover_edges()) == edges
        assert [lat.level_of(i) for i in range(len(lat))] == [levels[i] for i in range(len(ref))]


class TestTracer:
    def _snapshot(self):
        found = {}
        for _, targets in spans.TARGETS:
            for target in targets + (spans.CHECKS_BUILDER,):
                hit = spans._resolve(target)
                if hit:
                    found[target] = getattr(*hit)
        return found

    def test_every_target_exists(self):
        tracer = spans.Tracer()
        with tracer.installed():
            pass
        assert tracer.absent == []

    def test_traced_round_leaves_nothing_wrapped(self, tmp_path):
        before = self._snapshot()
        wl = CorpusSession(1, str(tmp_path), dict(os.environ))
        wl.make_inputs()
        tracer = spans.Tracer()
        r = Round(tracer)
        with tracer.installed(), tracer.span("round"):
            wl.round(r)
        assert self._snapshot() == before
        names = {span[0] for span in tracer.spans}
        assert {"context.parse", "enumeration.enumerate", "lattice.build", "similarity.similar"} <= names
        assert wl.check(r) == []

    def test_traced_cli_run_leaves_nothing_wrapped(self, tmp_path, capsys):
        from fca_spaces import cli

        before = self._snapshot()
        path = tmp_path / "c.csv"
        path.write_text(generate.random_context(1, 30, 8, 0.3), encoding="utf-8")
        tracer = spans.Tracer()
        with tracer.installed():
            assert cli.run(["validate", str(path)]) == 0
        capsys.readouterr()
        assert self._snapshot() == before
        names = {span[0] for span in tracer.spans}
        assert any(n.startswith("cli.validate.check:") for n in names)

    def test_self_time(self):
        tracer = spans.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert tracer.self_times()[0] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))

    def test_missing_name_is_absent(self, monkeypatch):
        monkeypatch.setattr(spans, "TARGETS", (("gone", ("fca_spaces.lattice:no_such_function",)),))
        tracer = spans.Tracer()
        with tracer.installed():
            pass
        assert tracer.absent == ["fca_spaces.lattice:no_such_function"]


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate" in done.stdout
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "corpus-session", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_spec_documents_every_metric():
    assert set(SPEC["end_to_end"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert set(SPEC["per_layer"]) == {m["name"] for m in BENCH["per_layer"]}
    assert set(SPEC["workloads"]) == {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    assert set(CliCommands.FILES) == set(SPEC["workloads"]["cli-commands"]["inputs"])
