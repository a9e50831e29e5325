"""Run the fca-spaces benchmark.

    python3 perfbench/run.py --workload corpus-session --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the rounds run untraced and the end-to-end metrics of
``BENCHMARK.json`` are reported; with ``--trace 1`` untraced and traced
rounds alternate and the per-layer metrics are reported, with
``trace_overhead`` the ratio of their median round times.  Every metric
is printed with its unit, median, the highest percentile that has at least
ten samples beyond it, and its sample count.  A results file goes to
``perfbench/out/<workload>-seed<n>-trace<t>.json``, and a traced run also
writes the spans of its last traced round next to it.  The last line of
standard output is a JSON summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback

from spans import Tracer
from workloads import CLI_COMMANDS, DEFAULT_SEED, SCALES, WORKLOADS, Round

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 5


def supported_percentile(values: list[float]):
    """(p, value) for the highest of p99.9..p50 with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p, ordered[max(math.ceil(p / 100 * n) - 1, 0)]
    return None, None


def unit_of(name: str) -> str:
    suffix = name.rsplit("_", 1)[-1]
    if name.endswith("per_s"):
        return "1/s"
    if suffix in SCALES:
        return suffix
    if name.endswith(("share", "overhead")):
        return "ratio"
    return "count"


def summarize(samples: dict[str, list[float]]) -> dict:
    out = {}
    for name, values in samples.items():
        if not values:
            continue
        p, at = supported_percentile(values)
        out[name] = {
            "unit": unit_of(name),
            "median": statistics.median(values),
            "percentile": p,
            "percentile_value": at,
            "n": len(values),
        }
    return out


class Run:
    """Set-up, the timed loop and its checks for one workload."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.layer: dict[str, list[float]] = {}
        self.tracer = None  # the last traced round's, whose spans are written out
        self.absent: list[str] = []

    def _add(self, store, name, value) -> None:
        if value is not None:
            store.setdefault(name, []).append(value)

    def _round(self, body, tracer=None):
        """Run one round; check it after the clock stops.  None if it raised."""
        r = Round(tracer)
        # Every round starts from the same collector state, so collections
        # fall at the same points of the mix in every round.
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.installed(), tracer.span("round"):
                    body(r)
            else:
                body(r)
        except Exception:  # one failed operation; the run goes on
            traceback.print_exc()
            self.attempted += 1
            self.problems.append(f"round raised: {traceback.format_exc(limit=1).strip()}")
            return None
        r.samples["round_s"] = time.perf_counter() - start
        self.attempted += len(r.results)
        self.problems += self.wl.check(r)
        r.keep.clear()
        return r

    def go(self) -> None:
        for _ in range(SETUPS):
            start = time.perf_counter()
            self.wl.setup()
            self._add(self.samples, "setup_s", time.perf_counter() - start)
        start = time.perf_counter()
        last = 0.0
        while True:
            began = time.perf_counter()
            if self.trace:
                self._traced_rounds()
            else:
                r = self._round(self.wl.round)
                for name, value in (r.samples.items() if r else ()):
                    self._add(self.samples, name, value)
            last = time.perf_counter() - began
            if time.perf_counter() - start + last > self.seconds:
                break

    def _traced_rounds(self) -> None:
        wl = self.wl
        inprocess = getattr(wl, "inprocess_round", None)
        if inprocess is not None:  # CLI: subprocess wall times first
            r = self._round(wl.round)
            for name, value in (r.samples.items() if r else ()):
                self._add(self.layer, f"wall:{name}", value)
        body = inprocess or wl.round
        plain = self._round(body)
        tracer = Tracer()
        traced = self._round(body, tracer)
        if plain is None or traced is None:
            return
        self._add(self.layer, "plain:round_s", plain.samples["round_s"])
        self._add(self.layer, "traced:round_s", traced.samples["round_s"])
        for name, value in plain.samples.items():
            if name.startswith("cli."):
                self._add(self.layer, name, value)
        for name, value in traced.counts.items():
            self._add(self.layer, name, value)
        layer = layer_metrics(tracer)
        for name, value in layer.items():
            self._add(self.layer, name, value)
        if layer.get("lattice.order_self_s") is not None:
            builds = sum(1 for span in tracer.spans if span[0] == "lattice.build")
            self._add(self.layer, "lattice.order_round_share",
                      layer["lattice.order_self_s"] * builds / traced.samples["round_s"])
        self.absent = tracer.absent
        self.tracer = tracer


def _aggregate(tracer) -> dict:
    """Per span name (and per 'operation/name'): [total, self, calls, count]."""
    selfs = tracer.self_times()
    agg: dict[str, list] = {}
    for i, (name, start, end, _, op, count) in enumerate(tracer.spans):
        keys = [name] + ([f"{tracer.ops[op]}/{name}"] if op >= 0 else [])
        for key in keys:
            acc = agg.setdefault(key, [0.0, 0.0, 0, 0])
            acc[0] += end - start
            acc[1] += selfs[i]
            acc[2] += 1
            acc[3] += count
    return agg


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer values of one traced round."""
    agg = _aggregate(tracer)

    def mean(name, scale, field=0):
        acc = agg.get(name)
        return acc[field] * scale / acc[2] if acc else None

    def total(name, field):
        acc = agg.get(name)
        return acc[field] if acc else None

    out = {
        "context.parse_ms": mean("context.parse", 1e3),
        "context.derive_us": mean("context.derive", 1e6),
        "context.name_lookup_us": mean("context.name_lookup", 1e6),
        "context.cells": total("context.parse", 3),
        "enumeration.enumerate_s": mean("enumeration.enumerate", 1.0),
        "enumeration.concepts": total("enumeration.enumerate", 3),
        "lattice.build_s": mean("lattice.build", 1.0),
        "lattice.order_self_s": mean("lattice.build", 1.0, field=1),
        "lattice.index_of_us": mean("lattice.index_of", 1e6),
        "lattice.export_json_ms": mean("lattice.export_json", 1e3),
        "lattice.export_dot_ms": mean("lattice.export_dot", 1e3),
        "lattice.export_bytes": total("lattice.export_json", 3),
        "similarity.similar_ms": mean("similarity.similar", 1e3),
        "similarity.nearest_us": mean("similarity.nearest", 1e6),
        "similarity.prototype_us": mean("similarity.prototype", 1e6),
        "similarity.siblings_us": mean("similarity.siblings", 1e6),
        "similarity.distance_us": mean("similarity.distance", 1e6),
        "similarity.walk_us": mean("similarity.walk", 1e6),
        "corpus.verify_cases_ms": mean("corpus.verify_cases", 1e3),
    }
    if "enumeration.enumerate" in agg:
        acc = agg["enumeration.enumerate"]
        out["enumeration.concepts_per_s"] = acc[3] / acc[0]
    if "lattice.build" in agg:
        acc = agg["lattice.build"]
        out["lattice.order_share"] = acc[1] / acc[0]
    for key, (dur, own, _, _) in agg.items():
        op, _, name = key.partition("/")
        if not (op.startswith("cli.") and name):
            continue
        cmd = op.split(".")[1]
        if name == "cli.run":
            out[f"cli.{cmd}.self_s"] = own
        elif name.startswith("cli.validate.check:"):
            label = name.split(":", 1)[1].split()[0]
            out[f"cli.validate.check.{label}_s"] = dur
    query_run = agg.get("cli.query.run_s/cli.run")
    query_order = agg.get("cli.query.run_s/lattice.build")
    if query_run and query_order:
        out["cli.query.unused_order_share"] = query_order[1] / query_run[0]
    return out


def report(run: Run, bench: dict, moves: dict, seed: int) -> dict:
    """Print every metric and write the results file; return the summary."""
    wl = run.wl
    metrics = summarize(run.samples)
    layer = summarize(run.layer)
    if run.trace:
        plain = layer.get("plain:round_s")
        traced = layer.get("traced:round_s")
        if plain and traced:
            layer["trace_overhead"] = {
                "unit": "ratio", "median": traced["median"] / plain["median"],
                "percentile": None, "percentile_value": None, "n": traced["n"],
            }
        for cmd in [k.split(".")[1] for k in layer if k.startswith("cli.") and k.endswith(".run_s")]:
            wall = layer.get(f"wall:{cli_metric(cmd)}")
            if wall:
                layer[f"cli.{cmd}.startup_s"] = {
                    "unit": "s",
                    "median": wall["median"] / SCALES[wall["unit"]] - layer[f"cli.{cmd}.run_s"]["median"],
                    "percentile": None, "percentile_value": None, "n": wall["n"],
                }
    failed = min(len(run.problems), run.attempted)
    shown = layer if run.trace else metrics
    for name in sorted(shown):
        m = shown[name]
        pct = f"p{m['percentile']:g}={m['percentile_value']:.6g}" if m["percentile"] else "p-=n/a"
        line = f"{wl.name:18} {name:40} {m['median']:14.6g} {m['unit']:6} {pct:20} n={m['n']}"
        if name in moves:
            line += f"  moves: {'; '.join(moves[name])}"
        print(line)
    print(f"{wl.name:18} {'error_rate':40} {failed / max(run.attempted, 1):14.6g} "
          f"ratio  failed={failed} attempted={run.attempted}")
    for problem in run.problems[:20]:
        print(f"{wl.name:18} problem: {problem}", file=sys.stderr)

    wanted = bench["per_layer"] if run.trace else bench["end_to_end"]
    values = {}
    for entry in wanted:
        m = shown.get(entry["name"])
        if m is None:
            print(f"{wl.name:18} {entry['name']:40} absent", file=sys.stderr)
            continue
        unit = entry["unit"]
        values[entry["name"]] = {"value": m["median"], "unit": unit}
    result = {
        "workload": wl.name,
        "seed": seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "attempted": run.attempted,
        "failed": failed,
        "error_rate": failed / max(run.attempted, 1),
        "problems": run.problems[:100],
        "metrics": shown,
        "absent_spans": run.absent,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{wl.name}-seed{seed}-trace{int(run.trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, default=str)
    if run.tracer is not None:
        t0 = run.tracer.spans[0][1] if run.tracer.spans else 0.0
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "operation", "count"],
                "operations": run.tracer.ops,
                "spans": [[n, s - t0, e - t0, p, o, c] for n, s, e, p, o, c in run.tracer.spans],
            }, fh)
    return {"attempted": run.attempted, "failed": failed, "metrics": values}


def cli_metric(cmd: str) -> str:
    return next(metric for c, metric, _, _ in CLI_COMMANDS if c == cmd)


def package_env() -> dict | None:
    """Import fca_spaces from this checkout's src; the environment for subprocesses."""
    if not os.path.isfile(os.path.join(SRC, "fca_spaces", "__init__.py")):
        print(f"error: no package at {SRC}; run from the root of a checkout", file=sys.stderr)
        return None
    sys.path.insert(0, SRC)
    import fca_spaces

    if not os.path.abspath(fca_spaces.__file__).startswith(SRC + os.sep):
        print(f"error: fca_spaces imported from {fca_spaces.__file__}, not {SRC}", file=sys.stderr)
        return None
    return dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = package_env()
    if env is None:
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    moves = {name: doc["moves"] for name, doc in spec["per_layer"].items() if "moves" in doc}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    summaries = {}
    try:
        for name in names:
            wl = WORKLOADS[name](args.seed, workdir, env)
            wl.expected = spec["expected"].get(name, {})
            run = Run(wl, seconds, bool(args.trace))
            run.go()
            summaries[name] = report(run, bench, moves if args.trace else {}, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    if len(names) == 1:
        metrics = summaries[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{m}": v for w, s in summaries.items() for m, v in s["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
