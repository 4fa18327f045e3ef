"""Span tracing of contragen's public functions, installed from outside.

Nothing under ``src/`` is edited: ``install`` swaps each traced function
for a wrapper in every ``contragen`` module namespace (and class) that
holds it, so calls made through ``from .x import f`` bindings are caught
too. ``restore`` puts the originals back.

A span is (name, start, end, parent, op). Spans stay in memory in flat
``array`` columns (about 32 bytes each; a traced ``enumerate`` of seven
symbols records roughly a million) and are written out once, when the run
ends. Self time is a span's duration minus the durations of its direct
children; the traced program is single-threaded, so children nest.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# Span name -> (module, attribute path). Names are the metric prefixes.
TARGETS = {
    "core.ClauseSet.init": ("contragen.core", "ClauseSet.__init__"),
    "core.int_clauses": ("contragen.core", "ClauseSet.int_clauses"),
    "generator.build_ftsc": ("contragen.generator", "build_ftsc"),
    "generator.derive_theorems": ("contragen.generator", "derive_theorems"),
    "verifier.sat.truth-table": ("contragen.verifier", "_truth_table"),
    "verifier.sat.dpll": ("contragen.verifier", "_dpll"),
    "verifier.check_theorem": ("contragen.verifier", "check_theorem"),
    "verifier.check_mus": ("contragen.verifier", "check_mus"),
    "verifier.replay_trace": ("contragen.verifier", "replay_trace"),
    "fol.ground_atoms": ("contragen.fol", "ground_atoms"),
    "explain.load_scenario": ("contragen.explain", "load_scenario"),
    "explain.gloss_map": ("contragen.explain", "Scenario.gloss_map"),
    "explain.verbalize": ("contragen.explain", "verbalize"),
    "explain.rank": ("contragen.explain", "rank"),
    "formats.emit_dimacs": ("contragen.formats", "emit_dimacs"),
    "formats.parse_dimacs": ("contragen.formats", "parse_dimacs"),
    "formats.emit_tptp": ("contragen.formats", "emit_tptp"),
    "report.build_report": ("contragen.report", "build_report"),
    "report.to_json": ("contragen.report", "Report.to_json"),
    "report.from_json": ("contragen.report", "Report.from_json"),
    "cli.run_cli": ("contragen.cli", "run_cli"),
}
# Generator functions: one span per ``next()`` on the returned iterator,
# which is where the work happens.
ITERATOR_TARGETS = {
    "generator.enumerate": ("contragen.generator", "enumerate_ftscs"),
}
SAT_SPANS = ("verifier.sat.truth-table", "verifier.sat.dpll")
SAT_KEY_SPAN = "tracer.sat_key"
NO_PARENT = -1


class Tracer:
    """In-memory span store plus the two counters spans cannot express."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [NO_PARENT]
        self.current_op = 0
        self.replay_steps = 0
        # (op, hash of the clause list) per SAT call: distinct sets solved.
        self.sat_keys: set[tuple[int, int]] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.name)

    def span(self, name_id: int, fn, args, kwargs):
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.start[index] = t0
            self.end[index] = t1

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self seconds and span count per span name."""
        n = len(self.name)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        own = list(duration)
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p != NO_PARENT:
                own[p] -= duration[i]
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        name = self.name
        for i in range(n):
            key = self.names[name[i]]
            seconds[key] = seconds.get(key, 0.0) + own[i]
            calls[key] = calls.get(key, 0) + 1
        return seconds, calls

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i]]
                for i in range(len(self.name))
            ],
            "replay_steps": self.replay_steps,
            "sat_keys": sorted(self.sat_keys),
        }

    def merge_json(self, data: dict) -> None:
        """Append spans dumped by a traced child process."""
        offset = len(self.name)
        remap = [self.name_id(n) for n in data["names"]]
        for name_id, start, end, parent, op in data["spans"]:
            self.name.append(remap[name_id])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + offset if parent != NO_PARENT else NO_PARENT)
            self.op.append(op)
        self.replay_steps += data["replay_steps"]
        self.sat_keys.update(tuple(k) for k in data["sat_keys"])

    def write(self, path) -> None:
        """Write all spans: a JSON header line, then the raw columns
        (int32 name, float64 start, float64 end, int32 parent, int32 op,
        each ``count`` values long, native byte order)."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "columns": [["name", "i"], ["start", "d"], ["end", "d"],
                        ["parent", "i"], ["op", "i"]],
            "byteorder": sys.byteorder,
            "replay_steps": self.replay_steps,
            "distinct_sat_sets": len(self.sat_keys),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.op):
                column.tofile(fh)


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _sat_key(clause_set) -> int:
    return hash((clause_set.signature.symbols, clause_set.clauses))


def _wrap(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)
    span = tracer.span
    if name in SAT_SPANS:
        # The key hashing gets a span of its own, so its cost is not
        # charged to the caller's self time.
        key_id = tracer.name_id(SAT_KEY_SPAN)

        def wrapper(clause_set, *args, **kwargs):
            key = span(key_id, _sat_key, (clause_set,), {})
            tracer.sat_keys.add((tracer.current_op, key))
            return span(name_id, fn, (clause_set,) + args, kwargs)
    elif name == "verifier.replay_trace":
        def wrapper(trace, *args, **kwargs):
            tracer.replay_steps += len(trace.steps)
            return span(name_id, fn, (trace,) + args, kwargs)
    else:
        def wrapper(*args, **kwargs):
            return span(name_id, fn, args, kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_iterator(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)

    def spanned(inner):
        while True:
            try:
                item = tracer.span(name_id, next, (inner,), {})
            except StopIteration:
                return
            yield item

    def wrapper(*args, **kwargs):
        # Called eagerly so argument checks still raise at call time.
        return spanned(fn(*args, **kwargs))

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer):
    """Trace every target in the imported ``contragen`` modules.

    Returns a callable that restores the original functions.
    """
    saved = []
    replacements = {}
    for targets, wrap in ((TARGETS, _wrap), (ITERATOR_TARGETS, _wrap_iterator)):
        for name, (module_name, path) in targets.items():
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(wrap(tracer, name, raw.__func__))
            else:
                replacement = wrap(tracer, name, raw)
                replacements[id(raw)] = (raw, replacement)
            saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
    # Rebind ``from .x import f`` copies held by other contragen modules.
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("contragen"):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value and getattr(module, attr) is not hit[1]:
                saved.append((module, attr, value))
                setattr(module, attr, hit[1])

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore
