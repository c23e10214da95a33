"""Per-layer measurement from outside the program.

Three instruments, all owned by the benchmark:

* :class:`Recorder` interposes timers on the public functions a layer
  exposes (module attributes the program looks up at call time) and notes
  which timed layer made each call, so a nested call (say, a validation
  replay inside a solver) is not counted twice.  Only the traced run
  installs it.
* :func:`span_self_times` reads the JSONL spans the program's own
  ``--trace-file`` sinks wrote and computes each span's self time: its
  duration minus the part of its interval that its child spans cover.
* :func:`histogram_delta` subtracts two metrics snapshots bucket by bucket,
  so server-side histograms describe only the measured phase.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import iter_histogram_series, summarise_buckets


class Recorder:
    """Times calls into named layer functions, noting which layer called each."""

    def __init__(self) -> None:
        #: name -> list of (calling layer or None, seconds)
        self.calls: Dict[str, List[Tuple[Optional[str], float]]] = defaultdict(list)
        self._stack: List[str] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls[name].append((parent, time.perf_counter() - start))
                self._stack.pop()

        return timed

    @contextmanager
    def patched(self, targets: Iterable[Tuple[object, str, Any]]) -> Iterator[None]:
        """Replace ``owner.attribute`` for the block, for each target.

        The third element is a layer name (the function gets a timer) or a
        factory that builds the replacement from the original.  A missing
        attribute is skipped, so a program refactor that moves a function
        reads as zero time for that layer rather than a crash.
        """
        with ExitStack() as stack:
            for owner, attr, spec in targets:
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                setattr(owner, attr, self.wrap(spec, original) if isinstance(spec, str) else spec(original))
                stack.callback(setattr, owner, attr, original)
            yield

    def total(self, name: str, parent: Any = ...) -> float:
        """Seconds spent in ``name`` calls (only those made from ``parent``, if given)."""
        return sum(seconds for caller, seconds in self.calls.get(name, ()) if parent is ... or caller == parent)


def solver_layer(name: str) -> str:
    """The solvers-layer metric a portfolio member's time belongs to."""
    if name == "exhaustive":
        return "exhaustive"
    return "greedy" if name in ("greedy", "naive") else "structured"


def span_self_times(paths: Sequence[Path], since: float) -> Dict[str, float]:
    """Total self seconds per span name, over spans that started at or after ``since``."""
    spans: List[Dict[str, Any]] = []
    for path in paths:
        if not path.exists():
            continue
        with path.open(encoding="utf-8") as handle:
            for line in handle:
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a line cut short by a process killed mid-write
                if doc.get("start_s", 0.0) >= since:
                    spans.append(doc)
    children: Dict[Tuple[str, str], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.get("parent_id"):
            start = span["start_s"]
            children[(span["trace_id"], span["parent_id"])].append((start, start + span["duration_s"]))
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        start = span["start_s"]
        end = start + span["duration_s"]
        covered = _covered(children.get((span["trace_id"], span["span_id"]), []), start, end)
        totals[span["name"]] += max(0.0, span["duration_s"] - covered)
    return dict(totals)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def histogram_delta(
    before: Mapping[str, Any],
    after: Mapping[str, Any],
    name: str,
    labels: Optional[Mapping[str, str]] = None,
) -> Dict[str, float]:
    """Summary (count, sum, mean, p50/p90/p99) of what ``name`` observed between two snapshots."""

    def series(snapshot: Mapping[str, Any]) -> Dict[Tuple, Tuple[List[float], List[int], float]]:
        out = {}
        for entry in iter_histogram_series(snapshot, name):
            if labels and any(entry.get("labels", {}).get(k) != v for k, v in labels.items()):
                continue
            key = tuple(sorted(entry.get("labels", {}).items()))
            out[key] = (
                [float(b) for b, _ in entry["buckets"][:-1]],
                [int(c) for _, c in entry["buckets"]],
                float(entry["sum"]),
            )
        return out

    old = series(before)
    bounds: List[float] = []
    counts: List[int] = []
    total = 0.0
    for key, (key_bounds, key_counts, key_sum) in series(after).items():
        base_counts = old.get(key, (None, [0] * len(key_counts), 0.0))
        if not bounds:
            bounds, counts = key_bounds, [0] * len(key_counts)
        for i, (now, then) in enumerate(zip(key_counts, base_counts[1])):
            counts[i] += now - then
        total += key_sum - base_counts[2]
    if not bounds or sum(counts) == 0:
        return {"count": 0.0, "sum": 0.0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
    return summarise_buckets(bounds, counts, total)


def counter_delta(before: Mapping[str, Any], after: Mapping[str, Any], name: str, **labels: str) -> float:
    def value(snapshot: Mapping[str, Any]) -> float:
        entry = snapshot.get(name) or {}
        return sum(
            float(s.get("value", 0.0))
            for s in entry.get("series", [])
            if all(s.get("labels", {}).get(k) == v for k, v in labels.items())
        )

    return value(after) - value(before)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linearly interpolated percentile (numpy's default method); 0.0 for no sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median_time(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Median wall seconds of ``repeats`` calls of ``fn``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def peak_rss_mib(pids: Iterable[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue  # the process ended between listing and reading
    return total_kib / 1024.0


def process_group_members(pgid: int) -> List[int]:
    """Live pids whose process group is ``pgid`` (a server and its workers)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            members.append(int(entry))
    return members
