"""The repository benchmark: one command, two workloads, every metric by name.

Usage, from the repository root::

    python3 perfbench/run.py --workload service-miss --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` is the separate traced run that prints the per-layer metrics
(it also measures an untraced half to report the tracing overhead).  The
metric names and units come from ``BENCHMARK.json``; the run fails if it
would print a different set.  Every answer is checked (engine replay, lower
bound, closed forms, remote equals local); any wrong answer makes the command
exit 1.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("service-hit", "service-miss")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Dict[str, Any]:
    import service
    from spec import PER_LAYER

    doc = service.run(ROOT, workdir, workload, seed, seconds, trace)
    if trace:
        # layers that do no work on this workload read 0
        for name, (_, _, applies) in PER_LAYER.items():
            if workload not in applies:
                doc["metrics"].setdefault(name, 0.0)
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # the program's own trace/telemetry/cache settings stay out of the run
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])

    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            doc = run_workload(workload, args.seed, args.seconds, bool(args.trace), workdir)
            if set(doc["metrics"]) != set(names):
                missing = sorted(set(names) - set(doc["metrics"]))
                extra = sorted(set(doc["metrics"]) - set(names))
                raise RuntimeError(f"{workload} metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
            print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
            for name in names:
                print(f"  {name:42s} {doc['metrics'][name]:14.4f} {names[name]}")
            print(f"  attempted {doc['attempted']}, failed {doc['failed']}, correct {doc['correct']}")
            for error in doc["errors"][:10]:
                print(f"  ! {error}")
            prefix = "" if len(workloads) == 1 else f"{workload}."
            total["correct"] = total["correct"] and doc["correct"]
            total["attempted"] += doc["attempted"]
            total["failed"] += doc["failed"]
            for name, value in doc["metrics"].items():
                total["metrics"][prefix + name] = {"value": value, "unit": names[name]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps(total), flush=True)
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
