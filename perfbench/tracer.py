"""Span tracer for the benchmark's traced run.

Spans are recorded by swapping twinstore's public entry points for timing
wrappers, from outside the package: every module attribute that holds one
of the targets is replaced, so names that other modules import (for
example ``eavesdrop._pivot_columns`` or ``cli.eavesdrop_report``) are
covered as well.  Nothing under ``src/`` is edited.

A span is ``(id, name, start, end, parent_id, op_id, self_s)``; self time
is the span's duration minus the durations of its direct children.  Spans
stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import Counter

# (span name, module, attribute path) of every traced entry point.
SPANS = (
    ("field.rank", "twinstore.field", "FieldMatrix.rank"),
    ("field.solve", "twinstore.field", "FieldMatrix.solve"),
    ("field.matmul", "twinstore.field", "FieldMatrix.__matmul__"),
    ("field.rref", "twinstore.field", "FieldMatrix.rref"),
    ("field.in_row_space", "twinstore.field", "in_row_space"),
    ("mds.erasure_decode", "twinstore.mds", "erasure_decode"),
    ("mds.find_singular_minor", "twinstore.mds", "find_singular_minor"),
    ("mds.code_from_json", "twinstore.mds", "code_from_json"),
    ("framework.repair", "twinstore.framework", "repair"),
    ("framework.reconstruct", "twinstore.framework", "reconstruct"),
    ("framework.deploy", "twinstore.framework", "deploy"),
    ("framework.encode_system", "twinstore.framework", "encode_system"),
    ("framework.helper_share", "twinstore.framework", "helper_share"),
    ("framework.default_helpers", "twinstore.framework", "default_helpers"),
    ("framework.from_json_dict", "twinstore.framework", "TwinSystem.from_json_dict"),
    ("secure.guaranteed_secure_set", "twinstore.secure", "guaranteed_secure_set"),
    ("secure.make_secure_layout", "twinstore.secure", "make_secure_layout"),
    ("eavesdrop.observe", "twinstore.eavesdrop", "observe"),
    ("eavesdrop.leakage", "twinstore.eavesdrop", "leakage"),
    ("eavesdrop.independent_symbol_count", "twinstore.eavesdrop",
     "independent_symbol_count"),
    ("eavesdrop.default_repair_plans", "twinstore.eavesdrop", "default_repair_plans"),
    ("eavesdrop.revealed_symbols", "twinstore.eavesdrop", "revealed_symbols"),
    ("eavesdrop.eavesdrop_report", "twinstore.eavesdrop", "eavesdrop_report"),
    ("sim.sweep_eavesdroppers", "twinstore.sim", "sweep_eavesdroppers"),
    ("sim.run", "twinstore.sim", "run"),
    ("sim.scenario_from_json", "twinstore.sim", "scenario_from_json"),
    ("cli.main", "twinstore.cli", "main"),
)

# Elimination entry points: counted (not timed) once per outermost entry,
# since _pivot_columns itself calls _row_reduce.
ELIMINATIONS = (
    ("twinstore.field", "_row_reduce"),
    ("twinstore.field", "_pivot_columns"),
)

# Counts derived from the spans, in addition to <span>.calls / <span>.self_ms.
DERIVED = (
    ("field.eliminations", "count"),
    ("field.elim_cells", "cells"),
    ("mds.minors_checked", "count"),
    ("framework.symbols_per_repair", "symbols"),
    ("framework.symbols_per_reconstruct", "symbols"),
    ("framework.symbols_per_deploy", "symbols"),
    ("eavesdrop.eliminations_per_spec", "ratio"),
    ("eavesdrop.eliminations_per_report", "ratio"),
    ("sim.events", "count"),
)


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name, _, _ in SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    return out + list(DERIVED) + [("trace.overhead_frac", "ratio")]


def _resolve(module, path):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counts while installed (see :meth:`installed`)."""

    def __init__(self):
        self.spans = []
        self.op_id = 0
        self.counts = Counter()
        self._stack = []     # open frames: [span id, child seconds]
        self._open = Counter()  # span name -> open depth
        self._next_id = 0
        self._eliminating = False
        self._patches = None  # (owner, attribute, original, wrapper)

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn, on_enter=None):
        stack, opened, spans = self._stack, self._open, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            opened[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((frame[0], name, start, end, parent, self.op_id,
                              duration - frame[1]))
        return wrapper

    def _elimination(self, fn):
        counts, opened = self.counts, self._open

        @functools.wraps(fn)
        def wrapper(arr, *args, **kwargs):
            if self._eliminating:
                return fn(arr, *args, **kwargs)
            counts["field.eliminations"] += 1
            counts["field.elim_cells"] += arr.shape[0] * arr.shape[1]
            if opened["sim.sweep_eavesdroppers"]:
                counts["elim_in_sweep"] += 1
            if opened["eavesdrop.eavesdrop_report"]:
                counts["elim_in_report"] += 1
            self._eliminating = True
            try:
                return fn(arr, *args, **kwargs)
            finally:
                self._eliminating = False
        return wrapper

    # Hooks that read call arguments at a layer boundary.

    def _on_find_singular_minor(self, args, kwargs):
        gen = args[0] if args else kwargs["generator"]
        self.counts["mds.minors_checked"] += math.comb(gen.cols, gen.rows)

    def _on_reconstruct(self, args, kwargs):
        system = args[0] if args else kwargs["system"]
        indices = args[2] if len(args) > 2 else kwargs["indices"]
        self.counts["symbols_reconstruct"] += len(indices) * system.config.k

    def _on_helper_share(self, args, kwargs):
        if self._open["framework.deploy"]:
            self.counts["symbols_deploy"] += 1

    def _on_observe(self, args, kwargs):
        if self._open["sim.sweep_eavesdroppers"]:
            self.counts["specs_in_sweep"] += 1

    def _on_sim_run(self, args, kwargs):
        scenario = args[0] if args else kwargs["scenario"]
        self.counts["sim.events"] += len(scenario.events)

    # ------------------------------------------------------------ patching

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it.

        Cheap enough to enter around every single op: the patch list is
        built once.
        """
        if self._patches is None:
            self._patches = self._find_patches()
        try:
            for owner, attr, _, wrapped in self._patches:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw, _ in reversed(self._patches):
                setattr(owner, attr, raw)

    def _find_patches(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "twinstore" or n.startswith("twinstore.")]
        patches = []
        for owner, attr, raw, wrapped in self._replacements():
            patches.append((owner, attr, raw, wrapped))
            if isinstance(raw, classmethod):
                continue
            # names imported elsewhere: `from .field import in_row_space`
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is raw and mod is not owner:
                        patches.append((mod, key, raw, wrapped))
        return patches

    def _replacements(self):
        hooks = {
            "mds.find_singular_minor": self._on_find_singular_minor,
            "framework.reconstruct": self._on_reconstruct,
            "framework.helper_share": self._on_helper_share,
            "eavesdrop.observe": self._on_observe,
            "sim.run": self._on_sim_run,
        }
        for name, module, path in SPANS:
            owner, attr = _resolve(sys.modules[module], path)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                yield owner, attr, raw, classmethod(
                    self._span(name, raw.__func__, hooks.get(name)))
            else:
                yield owner, attr, raw, self._span(name, raw, hooks.get(name))
        for module, attr in ELIMINATIONS:
            raw = getattr(sys.modules[module], attr)
            yield sys.modules[module], attr, raw, self._elimination(raw)

    # ------------------------------------------------------------- results

    def metrics(self, overhead_frac):
        calls, self_s = Counter(), Counter()
        for _, name, _, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_s[name] * 1e3
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0

        derived = {
            "field.eliminations": c["field.eliminations"],
            "field.elim_cells": c["field.elim_cells"],
            "mds.minors_checked": c["mds.minors_checked"],
            "framework.symbols_per_repair": ratio(calls["framework.helper_share"],
                                                  calls["framework.repair"]),
            "framework.symbols_per_reconstruct": ratio(
                c["symbols_reconstruct"], calls["framework.reconstruct"]),
            "framework.symbols_per_deploy": ratio(c["symbols_deploy"],
                                                  calls["framework.deploy"]),
            "eavesdrop.eliminations_per_spec": ratio(c["elim_in_sweep"],
                                                     c["specs_in_sweep"]),
            "eavesdrop.eliminations_per_report": ratio(
                c["elim_in_report"], calls["eavesdrop.eavesdrop_report"]),
            "sim.events": c["sim.events"],
        }
        out.update(derived)
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path):
        """Write every span as CSV: id,name,start,end,parent,op,self."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op,self_s\n")
            for sid, name, start, end, parent, op, own in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},"
                         f"{'' if parent is None else parent},{op},{own:.9f}\n")
