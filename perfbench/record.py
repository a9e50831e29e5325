"""Record the expected results at the default seed into ``spec.json``.

    python3 perfbench/record.py

Runs one untraced round of every workload with this checkout's code and
stores, per input, the concept count, cover-edge count, height and the
SHA-256 of ``export_json``/``export_dot``, and per CLI command the exit
code and the SHA-256 of stdout; it also refreshes the shape and counts of
every input listed under ``workloads``.  ``run.py`` compares every later run at
the default seed against them.  Re-record only when a change is meant to
alter these outputs, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, OUT, package_env
from workloads import DEFAULT_SEED, WORKLOADS, Round


def input_counts(wl) -> dict:
    """Shape, concept and cover-edge counts of each input at the default seed."""
    from fca_spaces import build_lattice, parse_context

    texts = getattr(wl, "texts", None)
    if texts is None:
        texts = {}
        for key, path in wl.paths.items():
            with open(path, encoding="utf-8") as fh:
                texts[key] = fh.read()
    out = {}
    for key, text in texts.items():
        lat = build_lattice(parse_context(text))
        out[key] = {
            "objects": len(lat.context.objects),
            "attributes": len(lat.context.attributes),
            "concepts": len(lat),
            "cover_edges": len(lat.cover_edges()),
            "height": lat.height(),
        }
    return out


def main() -> int:
    env = package_env()
    if env is None:
        return 2
    path = os.path.join(HERE, "spec.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = os.path.join(OUT, f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(DEFAULT_SEED, workdir, env)
            wl.setup()
            r = Round()
            wl.round(r)
            problems = wl.verify(r)
            if problems:
                print(f"{name}: not recording, results are wrong: {problems}", file=sys.stderr)
                return 1
            spec["expected"][name] = {
                "|".join(key): list(value)
                for key, value in sorted(r.results.items())
                if key[0] in ("lattice", "export", "cli")
            }
            spec["workloads"][name]["inputs"] = input_counts(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
