"""Scale ladder: throughput and memory on the 10k/100k synthetic profiles.

Standalone (argparse, not pytest — the profiles are too big for the
benchmark fixtures): runs the integrated flow end-to-end on each
requested scale profile and records cells/sec, peak RSS, and iterations
to converge.

Writes ``BENCH_scale.json`` (schema below); the CI ``scale-smoke`` job
runs the 10k rung per-PR with a wall-clock budget and an RSS ceiling,
and the nightly job adds the 100k rung::

    {
      "profiles": {"scale10k": {"cells": ..., "flow_s": ...,
                    "cells_per_s": ..., "iterations": ...,
                    "peak_rss_mb": ...}, ...},
      "wall_s": ..., "peak_rss_mb": ..., "failures": [...]
    }

Exit codes: 0 = all rungs within budget, 1 = budget/ceiling violation,
2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from repro.api import run_flow
from repro.netlist import ALL_PROFILES, SCALE_PROFILE_ORDER, generate_named


def peak_rss_mb() -> float:
    """Process high-water RSS in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_profile(name: str) -> dict:
    """One end-to-end flow on ``name``; throughput + convergence stats."""
    profile = ALL_PROFILES[name]
    t0 = time.perf_counter()
    generate_named(name)  # warm generation, timed separately from the flow
    gen_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = run_flow(name)
    flow_s = time.perf_counter() - t0
    return {
        "cells": profile.num_cells,
        "flipflops": profile.num_flipflops,
        "rings": profile.num_rings,
        "generate_s": gen_s,
        "flow_s": flow_s,
        "cells_per_s": profile.num_cells / flow_s,
        "iterations": len(result.history),
        "total_wirelength": result.final.total_wirelength,
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profiles",
        default="scale10k",
        help="comma-separated scale profiles to flow "
        f"(known: {', '.join(SCALE_PROFILE_ORDER)}; default: scale10k)",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="fail (exit 1) if the whole run exceeds this wall-clock budget",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="fail (exit 1) if peak RSS exceeds this ceiling",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_scale.json", help="result JSON path"
    )
    args = parser.parse_args(argv)

    names = [p.strip() for p in args.profiles.split(",") if p.strip()]
    unknown = [p for p in names if p not in ALL_PROFILES]
    if unknown:
        parser.error(f"unknown profiles: {', '.join(unknown)}")
        return 2  # unreachable; parser.error exits

    wall0 = time.perf_counter()
    doc: dict = {"profiles": {}}
    failures: list[str] = []

    for name in names:
        print(f"[bench_scale] flowing {name} ...", flush=True)
        stats = bench_profile(name)
        doc["profiles"][name] = stats
        print(
            f"[bench_scale] {name}: {stats['flow_s']:.1f}s flow, "
            f"{stats['cells_per_s']:.0f} cells/s, "
            f"{stats['iterations']} iterations, "
            f"peak RSS {stats['peak_rss_mb']:.0f} MB",
            flush=True,
        )

    wall_s = time.perf_counter() - wall0
    rss_mb = peak_rss_mb()
    doc["wall_s"] = wall_s
    doc["peak_rss_mb"] = rss_mb
    if args.budget_seconds is not None and wall_s > args.budget_seconds:
        failures.append(
            f"wall clock {wall_s:.1f}s exceeds budget {args.budget_seconds}s"
        )
    if args.max_rss_mb is not None and rss_mb > args.max_rss_mb:
        failures.append(
            f"peak RSS {rss_mb:.0f} MB exceeds ceiling {args.max_rss_mb} MB"
        )
    doc["failures"] = failures

    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"[bench_scale] wrote {args.output} (wall {wall_s:.1f}s)", flush=True)
    for message in failures:
        print(f"[bench_scale] FAIL: {message}", file=sys.stderr, flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
