"""Span tracing for the per-layer metrics.

The tracer wraps public ``icatt`` functions from outside: each wrapper is
installed under every module-level name that binds the function in any
``icatt`` module (modules import with ``from .x import y``, so one
function is bound in several namespaces), and the original is put back
by :meth:`Tracer.remove`.  A wrapper counts every call and records a
span (name, start, end, parent, run id) unless the innermost open span
already has its span name; that call's time stays in the open span.
Spans live in flat arrays until the run ends.

Self time of a span is its duration minus the part of it that its child
spans cover; :func:`self_times` does that arithmetic.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array

# Span names and the functions they cover, by icatt module.  A wrapper
# opens no span while the innermost open span has its own name, so
# mutual recursion inside one group (alpha_key_term <-> alpha_key_type)
# stays one span.  Names a module does not define are skipped.
SPANS = {
    "parser.parse": ("parser", ("parse",)),
    "elaborate.elaborate_decl": ("elaborate", ("elaborate_decl",)),
    "kernel.check_decl": ("kernel", ("check_decl",)),
    "kernel.infer": ("kernel", ("infer_term",)),
    "kernel.check_sub": ("kernel", ("check_sub",)),
    "kernel.conv": ("kernel", (
        "convertible", "convertible_types", "convertible_terms", "convertible_inv_terms",
    )),
    "normalize.nf": ("normalize", ("nf",)),
    "normalize.beta": ("normalize", ("beta_reduce",)),
    "normalize.eta": ("normalize", ("eta_expand_once", "erase_check")),
    "inverse.canonical": ("inverse", ("canonical_component",)),
    "meta.suspend": ("meta", (
        "suspend_type", "suspend_term", "suspend_context", "suspend_sub", "suspend_judgment",
    )),
    "meta.other": ("meta", (
        "equiv_ind_context", "instantiation", "classify_term", "classify_type",
        "rename_to", "wit_classifier", "to_ps_order", "opposite_context",
    )),
    "equiv": ("equiv", (
        "enumerate_neutrals", "inv_neutrals", "equiv_truncation", "gamma_sub",
        "check_gamma", "pullback_along_display",
    )),
    "syntax.alpha_key": ("syntax", (
        "alpha_key_term", "alpha_key_type", "alpha_key_context", "alpha_key_sub",
        "alpha_eq_term", "alpha_eq_type", "alpha_eq_context",
    )),
    "syntax.apply_sub": ("syntax", ("apply_sub_term", "apply_sub_type", "compose_sub")),
}

REPEAT_PROBE = "kernel.infer_term"


class Tracer:
    """Spans and call counts of one traced repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.run = array("l")
        self.stack: list[int] = []
        self.run_id = -1
        self.repeats = 0
        self._seen: dict[tuple[int, int], tuple] = {}
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin_run(self, run_id: int) -> None:
        """Start the spans of one operation (a declaration or a check)."""
        self.run_id = run_id
        self._seen.clear()

    def _open(self, idx: int) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(idx)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, span: str, call: str, fn):
        idx = self._name_id(span)
        calls, stack, names_of = self.calls, self.stack, self.name
        calls.setdefault(call, 0)
        probe = self._probe_repeat if call == REPEAT_PROBE else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[call] += 1
            if probe is not None:
                probe(args)
            if stack and names_of[stack[-1]] == idx:
                return fn(*args, **kwargs)
            i = self._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    def _probe_repeat(self, args) -> None:
        if len(args) < 2:
            return
        key = (id(args[0]), id(args[1]))
        if key in self._seen:
            self.repeats += 1
        else:
            # holding the objects keeps their ids unique for the run
            self._seen[key] = (args[0], args[1])

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "icatt" or n.startswith("icatt.")]
        for span, (layer, fnames) in SPANS.items():
            home = sys.modules.get(f"icatt.{layer}")
            if home is None:
                continue
            for fname in fnames:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(span, f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._installed.append((mod, attr, fn))

    def remove(self) -> None:
        while self._installed:
            mod, attr, fn = self._installed.pop()
            setattr(mod, attr, fn)
        self._seen.clear()

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        return [
            (self.names[n], s, e, p, r)
            for n, s, e, p, r in zip(self.name, self.start, self.end, self.parent, self.run)
        ]

    def write(self, path) -> None:
        """Write the names, call counts and spans as one JSON document."""
        doc = {
            "names": self.names,
            "calls": self.calls,
            "columns": ["name", "start", "end", "parent", "run"],
            "spans": [list(self.name), list(self.start), list(self.end), list(self.parent), list(self.run)],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def self_times(spans) -> list[float]:
    """Self time of each span in ``spans``, a sequence of
    (start, end, parent index or -1): its duration minus the union of
    its children's intervals, clipped to its own."""
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, cur_s, cur_e = 0.0, None, None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def inclusive_time(spans, names: set[str]) -> float:
    """Wall time covered by spans with one of ``names``, counting nested
    spans of those names once.  ``spans`` holds (name, start, end, parent)."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p, nested = parent, False
        while p >= 0:
            if spans[p][0] in names:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total += end - start
    return total
