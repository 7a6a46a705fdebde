"""Span recorder for the traced benchmark mode.

The recorder replaces public functions and methods of the twistedcubic
modules with timing wrappers at run time; the package source is not edited.
Each wrapped call becomes a span (name, start, end, parent span, run id,
tag, tracemalloc peak where measured).  Spans stay in memory until the run
ends.  A span's self time is its duration minus the time its direct child spans cover, so the
self times of all spans plus the time outside any span add up to the traced
wall time.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
import weakref
from collections import defaultdict

LAYERS = ("gfq", "pg3", "twisted", "action", "bulk", "census", "cli")

# tracemalloc runs only inside spans of this layer (and their children): its
# allocations are few large numpy arrays, while in the scalar layers tracing
# every small tuple would multiply their run time
MEMORY_LAYER = "bulk."

# classes populated at every q the workloads use (q not divisible by 3)
PARTITION_CLASSES = ("RC", "T", "IC", "RA", "IA", "UG", "UnG", "EG", "EnG")

# census check function -> the check name it writes into the report
# (check_families writes one "family:<form>" entry per applicable form);
# check_axis_pencil is left out: it runs only when 3 divides q, which no
# workload uses
CHECKS = {
    "check_polarity_commutation": "polarity_commutation",
    "check_polarity_class_exchange": "polarity_class_exchange",
    "check_polarity_orbit_images": "polarity_orbit_image",
    "check_polarity_stabilizer_equality": "polarity_stabilizer_equality",
    "check_stabilizers_brute": "stabilizer_orders_brute",
    "check_families": "family",
    "check_chord_uniqueness": "chord_uniqueness",
    "check_axis_uniqueness": "axis_uniqueness",
    "check_triple_transitivity": "triple_transitivity",
}

# span names whose self time and call count are reported one by one
TIMED = ("pg3.lines_in_plane", "pg3.line_points", "pg3.all_points",
         "pg3.all_planes", "pg3.line_from_plucker", "twisted.classify_line",
         "action.act_point", "action.act_plane", "action.stab_family",
         "bulk.orbit_sweep", "bulk.stabilizer")

PER_LAYER = (
    ["gfq.make_field_s", "twisted.build_cubic_s"]
    + [f"{name}{suffix}" for name in TIMED for suffix in ("_s", ".calls")]
    + ["bulk.engine_init_s", "bulk.class_keys_s", "bulk.lines_classified",
       "bulk.class_keys_peak_mb", "bulk.plane_counts_s", "bulk.polar_keys_s",
       "bulk.orbit_partition_s"]
    + [f"bulk.orbit_partition_s.{cls}" for cls in PARTITION_CLASSES]
    + ["bulk.sweep_keys_generated", "bulk.sweep_useful_ratio"]
    + [f"census.check_s.{name}" for name in CHECKS.values()]
    + ["census.class_entries_s", "census.report_to_json_s", "cli.main_s"]
    + [f"layer.{layer}_s" for layer in LAYERS]
    + ["trace.untraced_s", "trace.wall_s", "trace.spans", "trace.overhead_ratio"]
)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # span: [name, start, end, parent index, tag, peak bytes]
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        # per open span: [start bytes, running peak, started tracemalloc] or None
        self._mem: list[list | None] = []
        self._patched: list[tuple[object, str, object]] = []
        self._engines_classified = weakref.WeakSet()

    # -- spans ------------------------------------------------------------------

    def _open(self, name, tag):
        owner = name.startswith(MEMORY_LAYER) and not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        mem = None
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            self._raise_parent_peak(peak)
            tracemalloc.reset_peak()
            mem = [cur, cur, owner]
        self._mem.append(mem)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, tag, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, start, end):
        self._stack.pop()
        mem = self._mem.pop()
        span = self.spans[idx]
        span[1], span[2] = start, end
        if mem is not None:
            start_bytes, running, owner = mem
            running = max(running, tracemalloc.get_traced_memory()[1])
            self._raise_parent_peak(running)
            span[5] = running - start_bytes
            if owner:
                tracemalloc.stop()

    def _raise_parent_peak(self, peak):
        if self._mem and self._mem[-1] is not None:
            self._mem[-1][1] = max(self._mem[-1][1], peak)

    def current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, owner, attr, name, tag=None, after=None):
        """Replace owner.attr with a span-recording wrapper.

        tag(args) labels the span; after(args, result) updates counters.
        """
        fn = self._lookup(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, tag(args) if tag else None)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, time.perf_counter())
            if after is not None:
                after(args, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def count_into(self, owner, attr, when_in, counter):
        """Add len(result) of owner.attr to counter while span when_in is open."""
        fn = self._lookup(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.current() == when_in:
                self.counters[counter] += len(result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    @staticmethod
    def _lookup(owner, attr):
        # a renamed entry point must fail the traced run, not read 0
        fn = getattr(owner, attr, None)
        if fn is None:
            raise AttributeError(f"{getattr(owner, '__name__', owner)}.{attr} not found; "
                                 "update perfbench/spans.py")
        return fn

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- program layers -----------------------------------------------------------

    def install(self):
        """Wrap the twistedcubic entry points that the per-layer metrics name."""
        from twistedcubic import action, bulk, census, cli, gfq, pg3, twisted

        self.wrap(gfq, "make_field", "gfq.make_field")
        for attr in ("lines_in_plane", "line_points", "all_points", "all_planes",
                     "line_from_plucker"):
            self.wrap(pg3, attr, f"pg3.{attr}")
        self.wrap(twisted, "build_cubic", "twisted.build_cubic")
        self.wrap(twisted, "classify_line", "twisted.classify_line")
        for attr in ("act_point", "act_plane", "stab_family"):
            self.wrap(action, attr, f"action.{attr}")

        eng = bulk.Engine
        self.wrap(eng, "__init__", "bulk.engine_init")
        self.wrap(eng, "class_keys", "bulk.class_keys", after=self._count_classified)
        self.wrap(eng, "plane_class_counts", "bulk.plane_counts")
        self.wrap(eng, "polar_keys", "bulk.polar_keys")
        self.wrap(eng, "orbit_partition_keys", "bulk.orbit_partition")
        self.wrap(eng, "orbit_sweep", "bulk.orbit_sweep", after=self._count_distinct)
        self.wrap(eng, "stabilizer_abcd", "bulk.stabilizer")
        self.count_into(eng, "pack", "bulk.orbit_sweep", "bulk.sweep_keys_generated")

        self.wrap(census.CensusRun, "__init__", "census.run_init")
        self.wrap(census.CensusRun, "orbit_records", "census.orbit_records",
                  tag=lambda args: args[1])
        for attr, check in CHECKS.items():
            self.wrap(census, attr, f"census.check.{check}")
        self.wrap(census, "_class_entries", "census.class_entries")
        self.wrap(census, "report_to_json", "census.report_to_json")
        self.wrap(census, "verify", "census.verify")
        self.wrap(cli, "main", "cli.main")

    def _count_classified(self, args, result):
        # class_keys classifies the whole universe once per engine, then caches
        engine = args[0]
        if engine not in self._engines_classified:
            self._engines_classified.add(engine)
            self.counters["bulk.lines_classified"] += sum(len(k) for k in result.values())

    def _count_distinct(self, args, result):
        self.counters["bulk.sweep_keys_distinct"] += len(result)

    # -- output ---------------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics from the spans of one traced run of wall_s seconds.

        `<span>_s` is self time, except that census.check_s.<check> and
        bulk.orbit_partition_s.<class> include their children, and cli.main_s
        excludes only its census.verify child.
        """
        own = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        whole: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span, t in zip(self.spans, own):
            by_name[span[0]] += t
            whole[span[0]] += span[2] - span[1]
            calls[span[0]] += 1

        out = {name + "_s": by_name[name] for name in (
            "gfq.make_field", "twisted.build_cubic", "bulk.engine_init",
            "bulk.class_keys", "bulk.plane_counts", "bulk.polar_keys",
            "bulk.orbit_partition", "census.class_entries",
            "census.report_to_json") + TIMED}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
        out["bulk.lines_classified"] = self.counters["bulk.lines_classified"]
        out["bulk.class_keys_peak_mb"] = max(
            (s[5] for s in self.spans if s[0] == "bulk.class_keys"), default=0) / 2**20
        out["cli.main_s"] = whole["cli.main"] - sum(
            s[2] - s[1] for s in self.spans
            if s[0] == "census.verify" and s[3] >= 0 and self.spans[s[3]][0] == "cli.main")
        for check in CHECKS.values():
            out[f"census.check_s.{check}"] = whole[f"census.check.{check}"]
        for cls in PARTITION_CLASSES:
            out[f"bulk.orbit_partition_s.{cls}"] = 0.0
        for span in self.spans:
            if span[0] == "bulk.orbit_partition" and span[3] >= 0:
                cls = self.spans[span[3]][4]
                if cls in PARTITION_CLASSES:
                    out[f"bulk.orbit_partition_s.{cls}"] += span[2] - span[1]
        generated = self.counters["bulk.sweep_keys_generated"]
        out["bulk.sweep_keys_generated"] = generated
        out["bulk.sweep_useful_ratio"] = (
            self.counters["bulk.sweep_keys_distinct"] / generated if generated else 0.0)

        traced = 0.0
        for layer in LAYERS:
            t = sum(v for k, v in by_name.items() if k.split(".", 1)[0] == layer)
            out[f"layer.{layer}_s"] = t
            traced += t
        out["trace.untraced_s"] = wall_s - traced
        out["trace.wall_s"] = wall_s
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, tag, peak) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id, "tag": tag,
                    "peak_bytes": peak}) + "\n")
