"""Outside-in spans around the program's public calls.

The tracer replaces each traced function, wherever a module of the program
holds a reference to it, with a wrapper that records a span: name, start,
end, parent span and request id. Nothing under ``src/`` is edited, so a
span can only sit at a call between modules. In particular the self time
of ``realize_ideal.construct`` is an outside-in estimate of block
construction: it is what remains of ``construct_ideal`` once the traced
calls inside it (checks, bounds, chain, strata, minimalisation, stability
and Betti tables) are taken out. Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "stablebetti"
MODE_STRICT = "strict-paper"


def _check_name(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "coupled")
    return "realize_ideal.check_strict" if mode == MODE_STRICT else "realize_ideal.check_coupled"


def _count_lcm(counts: Counter, points) -> None:
    counts["oracle.lcm_points"] += len(points)
    counts["oracle.subset_tests"] += sum(1 << (len(a) - a.count(0)) for a in points)


def _count_stratum(counts: Counter, members) -> None:
    counts["segments.stratum_members"] += len(members)


def _count_construct(counts: Counter, realization) -> None:
    counts["realize_ideal.witness_generators"] += len(realization.ideal.gens)
    counts["segments.window_members"] += sum(w.size for w in realization.bound_report.windows)


# span name (or a function of the call's arguments giving it), module,
# attribute ("Class.method" for methods), and what to count from the result
TARGETS = (
    ("cli.run", "cli", "run", None),
    ("realize_module.realize", "realize_module", "realize_module", None),
    ("ideals.parse", "ideals", "parse_module_or_ideal", None),
    ("ideals.minimalize", "ideals", "minimalize", None),
    ("ideals.strong_stability", "ideals", "MonomialIdeal.is_strongly_stable", None),
    ("ideals.stable_scan", "ideals", "MonomialIdeal.stability_violation", None),
    ("betti.ek", "betti", "ek_betti", None),
    ("betti.corner_scan", "betti", "extremal_from_table", None),
    ("betti.render", "betti", "render_diagram", None),
    ("oracle.koszul", "oracle", "koszul_betti", None),
    ("oracle.lcm_lattice", "oracle", "lcm_multidegrees", _count_lcm),
    ("segments.stratum", "segments", "stratum", _count_stratum),
    ("realize_ideal.bounds", "realize_ideal", "compute_bounds", None),
    (_check_name, "realize_ideal", "check_values", None),
    ("realize_ideal.chain", "realize_ideal", "coupled_chain", None),
    ("realize_ideal.construct", "realize_ideal", "construct_ideal", _count_construct),
    ("realize_module.search", "realize_module", "find_corner_matrix", None),
    ("realize_module.validate_matrix", "realize_module", "validate_corner_matrix", None),
    ("realize_module.construct", "realize_module", "construct_module", None),
)

SPAN_NAMES = tuple(
    name
    for target in TARGETS
    for name in (
        ("realize_ideal.check_strict", "realize_ideal.check_coupled")
        if callable(target[0])
        else (target[0],)
    )
)

COUNTS = (
    "oracle.lcm_points",
    "oracle.subset_tests",
    "segments.window_members",
    "segments.stratum_members",
    "realize_ideal.witness_generators",
    "realize_module.budget_refusals",
)

# Every per-layer metric a traced run reports, each with its unit.
LAYER_METRICS = (
    [(f"{name}_s", "s") for name in SPAN_NAMES]
    + [(f"{name}_self_s", "s") for name in SPAN_NAMES]
    + [("oracle.mask_homology_s", "s"), ("oracle.census_enum_s", "s")]
    + [(name, "count") for name in COUNTS]
    + [("trace.overhead_s", "s")]
)

# Which end-to-end metrics a change to each layer should move, and where.
MOVES = {
    "oracle.*": "wall_s, op_p90_ms on oracle-census; nothing elsewhere",
    "oracle.census_enum_s": "setup_s on oracle-census",
    "segments.*, realize_ideal.*": "wall_s, op_p90_ms, peak_rss_mb on realize-ideal-unit; "
    "a small share on realize-ideal-max",
    "ideals.*, betti.*": "wall_s on realize-ideal-max; not on realize-ideal-unit",
    "realize_module.*": "wall_s, ok_ratio on realize-module",
    "cli.run_s, realize_module.realize_s": "root span of each request: wall_s everywhere",
}


class Tracer:
    """Span recorder; records nothing until ``install`` patches the program."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.request = None
        self.active = False
        self._stack: list[int] = []

    def install(self, program) -> list[str]:
        """Wrap every target the program still has; return those it lacks,
        whose metrics then read zero."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == PACKAGE]
        missing = []
        for name, mod, attr, count in TARGETS:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(program, mod)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, fn_name, None)
            if original is None:
                missing.append(f"{mod}.{attr}")
                continue
            wrapper = self._wrap(name, original, count)
            if owner_name:
                setattr(owner, fn_name, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        return missing

    def _wrap(self, name, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [span_name, time.perf_counter(), None, parent, tracer.request]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, result)
            return result

        return traced

    def layer_times(self, duration) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name, over all recorded
        spans, with each span's seconds given by duration(start, end)."""
        seconds = [duration(start, end) for _name, start, end, _parent, _req in self.spans]
        covered = [0.0] * len(self.spans)
        for t, (_name, _start, _end, parent, _req) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += seconds[t]
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for t, (name, _start, _end, _parent, _req) in enumerate(self.spans):
            inclusive[name] += seconds[t]
            own[name] += seconds[t] - covered[t]
        return inclusive, own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "request": req}
                    )
                    + "\n"
                )
