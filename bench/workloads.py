"""One repetition of one benchmark workload, in a fresh process.

``run.py`` starts this file once per repetition:

    python3 bench/workloads.py --workload corpus --seed 1 --trace 0

It imports ``icatt`` from the checkout's ``src``, builds the workload's
inputs (the set-up), then times the checker on them through the public
functions that ``icatt.cli`` and the test fixtures call.  Every verdict
is compared with its known answer.  The last line of output is one JSON
object with the timings, the verdicts and, with ``--trace 1``, the
per-layer figures.  Each repetition is a fresh process because every
``icatt check`` starts with cold caches.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "proofs" / "invertibility.catt"
SPAN_DIR = BENCH / "out"

ACCEPTED = "accepted"
OK = "ok"

# The corpus's declarations in order, written out by hand: the known
# answer is that each of them is accepted.
CORPUS_DECLS = (
    "unitr-", "unitl", "unitl-", "assoc", "assoc-", "unit3", "whiskl", "whiskr",
    "whisk3", "assoc-le", "assoc-re", "compinv", "lri", "lriU-aux", "linv-inv",
    "lriU", "rinv-inv", "transport", "2of6-g", "2of6-f-runit", "2of6-f-rwit",
    "2of6-f-lunit", "2of6-f-lwit", "2of6-f", "2of6-h-lunit", "2of6-h-lwit",
    "2of6-h-runit", "2of6-h-rwit", "2of6-h",
)

# metatheory leaves out the terms of these declarations: at full size
# their transports and canonical components take about 46 of the 50 s,
# and checking 2of6-h-rwit and 2of6-h is most of the corpus's own time
META_SKIP = frozenset({"rinv-inv", "2of6-f-lwit", "2of6-f", "2of6-h-rwit", "2of6-h"})
COMPONENTS = ("linv", "rinv", "lunit", "runit", "lwit", "rwit")
NEUTRAL_DIMS = range(9)
STAGES = range(6)


def neutral_count(n: int) -> int:
    """Neutral categorical terms of the walking equivalence in dimension
    n: 2, 3, and 3 * 2^(n-1) from dimension 2 on."""
    return 2 if n == 0 else 3 if n == 1 else 3 * 2 ** (n - 1)


def truncation_size(n: int) -> int:
    """Entries of the n-truncation: the neutral counts up to n summed."""
    return sum(neutral_count(d) for d in range(n + 1))


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class Recorder:
    """Verdicts and timings of one repetition.  ``begin`` ends the
    set-up and starts the timed region; ``end`` closes it."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops: list[tuple[str, str, str, float]] = []
        self.families: dict[str, float] = defaultdict(float)
        self.points: list[tuple[float, float]] = []
        self.t_begin = self.t_end = 0.0
        self.rss_mib = 0.0

    def begin(self, planned: int) -> None:
        # a child that dies later is charged with every planned operation
        print(json.dumps({"plan": planned}), flush=True)
        if self.tracer is not None:
            self.tracer.install()
        self.t_begin = time.perf_counter()

    def end(self) -> None:
        self.t_end = time.perf_counter()
        # peak so far, before the bookkeeping that follows the timed region
        self.rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.tracer is not None:
            self.tracer.remove()

    def next_run(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_run(len(self.ops))

    def op(self, name: str, want: str, fn) -> tuple[str, float]:
        """Run one operation; its verdict is what ``fn`` returns, or the
        category of the IcattError it raises."""
        self.next_run()
        start = time.perf_counter()
        if self.tracer is None:
            got = verdict(fn)
        else:
            with self.tracer.span("bench.op"):
                got = verdict(fn)
        seconds = time.perf_counter() - start
        self.ops.append((name, want, got, seconds))
        return got, seconds


def verdict(fn) -> str:
    from icatt.errors import IcattError

    try:
        return fn()
    except IcattError as exc:
        return exc.category
    except Exception as exc:  # a crash is a failed operation, never dropped
        return f"crash: {type(exc).__name__}: {exc}"[:200]


# ---------------------------------------------------------------------------
# Proof scripts (corpus and scaling)
# ---------------------------------------------------------------------------


def check_script(rec: Recorder, family: str, text: str, expected) -> tuple[object, float]:
    """Check a script as ``icatt check`` does: parse it, then check its
    declarations in order against one growing environment, stopping at
    the first rejection.  One operation per expected declaration."""
    from icatt import elaborate, kernel, parser

    env = kernel.Environment()

    def accept(sdecl) -> str:
        kernel.check_decl(env, elaborate.elaborate_decl(env, sdecl))
        return ACCEPTED

    def parse() -> str:
        decls.extend(parser.parse(text))
        return ACCEPTED

    start = time.perf_counter()
    rec.next_run()
    decls: list = []
    stop = verdict(parse)
    stop = None if stop == ACCEPTED else stop
    for i, (name, want) in enumerate(expected):
        if stop is None and i >= len(decls):
            stop = "missing"
        if stop is None and decls[i].name != name:
            stop = f"found {decls[i].name}"
        if stop is not None:
            rec.op(name, want, lambda s=stop: s)
            stop = "not reached"
            continue
        got, _ = rec.op(name, want, lambda d=decls[i]: accept(d))
        if got != ACCEPTED:
            stop = "not reached"
    if stop is None and len(decls) > len(expected):
        rec.op("extra declarations", "none", lambda: f"{len(decls) - len(expected)} more")
    seconds = time.perf_counter() - start
    rec.families[family] += seconds
    return env, seconds


def tree_sizes(roots) -> list[int]:
    """Nodes of each icatt syntax object in ``roots`` counted as a tree:
    a subterm shared n times counts n times."""
    import dataclasses

    memo: dict[int, int] = {}
    fields: dict[type, tuple[str, ...] | None] = {}

    def go(obj) -> int:
        key = id(obj)
        n = memo.get(key)
        if n is not None:
            return n
        cls = type(obj)
        if cls is tuple or cls is list:
            n = sum(map(go, obj))
        else:
            if cls not in fields:
                is_node = dataclasses.is_dataclass(cls) and cls.__module__.startswith("icatt")
                fields[cls] = tuple(f.name for f in dataclasses.fields(cls)) if is_node else None
            names = fields[cls]
            n = 0 if names is None else 1 + sum(go(getattr(obj, f)) for f in names)
        memo[key] = n
        return n

    return [go(root) for root in roots]


def run_corpus(rec: Recorder, seed: int) -> None:
    """The bundled corpus, declaration by declaration: the real traffic.
    Growth is per-declaration time against elaborated tree size."""
    text = CORPUS.read_text(encoding="utf-8")
    expected = [(name, ACCEPTED) for name in CORPUS_DECLS]
    rec.begin(len(expected))
    env, _ = check_script(rec, "corpus", text, expected)
    rec.end()
    timed = [(env.lookup(name), seconds) for name, _, got, seconds in rec.ops if got == ACCEPTED]
    sizes = tree_sizes([decl for decl, _ in timed])
    rec.points = [(size, seconds) for size, (_, seconds) in zip(sizes, timed)]


def run_scaling(rec: Recorder, seed: int) -> None:
    """Seeded synthetic scripts in five families.  Growth is script time
    against nesting depth on the depth family."""
    from generate import scaling_scripts

    scripts = scaling_scripts(seed)
    rec.begin(sum(len(s.expected) for s in scripts))
    for script in scripts:
        _, seconds = check_script(rec, script.family, script.text, script.expected)
        if script.family == "depth":
            rec.points.append((script.size, seconds))
    rec.end()


# ---------------------------------------------------------------------------
# Metatheory
# ---------------------------------------------------------------------------


def corpus_terms(checked):
    """Every checked corpus term with its context and type, as the test
    fixtures build them: let/inv bodies, rec components, and one cell
    per coherence.  Each comes with the name of its declaration."""
    from icatt import kernel, meta, syntax

    out = []
    for decl in checked:
        if isinstance(decl, kernel.TermDecl):
            out.append((decl.name, decl.ctx, decl.term, decl.ty))
        elif isinstance(decl, kernel.CohDecl):
            cell = syntax.Coh(decl.ps, decl.ty, syntax.identity_sub(decl.ps))
            out.append((decl.name, decl.ps, cell, decl.ty))
        elif isinstance(decl, kernel.RecDecl):
            seed, t = decl.seed, decl.components[0]
            ind_ctx, _, _ = meta.equiv_ind_context(seed, t, kernel.infer_term(seed, t))
            for i, comp in enumerate(decl.components):
                ctx = seed if i < 5 else ind_ctx
                out.append((decl.name, ctx, comp, kernel.infer_term(ctx, comp)))
    return out


def collect_cans(term, ctx, seen: set, out: list) -> None:
    """Every distinct canonical structure occurring in ``term``."""
    from icatt import syntax as s

    match term:
        case s.Can(subject, wit):
            key = (s.alpha_key_context(ctx), s.alpha_key_term(term))
            if key not in seen:
                seen.add(key)
                out.append((ctx, term))
            collect_cans(subject, ctx, seen, out)
            for _, w in wit:
                collect_cans(w, ctx, seen, out)
        case s.Coh(_, _, sub):
            for t in sub.terms():
                collect_cans(t, ctx, seen, out)
        case s.Coind():
            for c in term.components():
                collect_cans(c, ctx, seen, out)
        case s.Rec():
            for t in term.sub.terms():
                collect_cans(t, ctx, seen, out)
        case s.Destr(_, arg):
            collect_cans(arg, ctx, seen, out)


def run_metatheory(rec: Recorder, seed: int) -> None:
    """Meta-property checks over the checked corpus: substitution and
    suspension preservation, the six canonical components of every
    ``can``, and the walking-equivalence analyses through stage 5.
    Growth is per-term transport time against tree size."""
    from icatt import elaborate, equiv, inverse, kernel, meta, parser, syntax as s

    # set-up checks the corpus up to the last declaration whose terms are used
    last = [name for name in CORPUS_DECLS if name not in META_SKIP][-1]
    env = kernel.Environment()
    checked = []
    for sdecl in parser.parse(CORPUS.read_text(encoding="utf-8")):
        decl = elaborate.elaborate_decl(env, sdecl)
        kernel.check_decl(env, decl)
        checked.append(decl)
        if decl.name == last:
            break
    terms = [t for t in corpus_terms(checked) if t[0] not in META_SKIP]
    seen: set = set()
    cans: list = []
    for _, ctx, term, _ in terms:
        collect_cans(term, ctx, seen, cans)
    rng = random.Random(seed)
    renamings = []
    for _, ctx, _, _ in terms:
        tag = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4))
        renamings.append({v.name: f"{v.name}.{tag}" for v, _ in ctx})

    def substituted(ctx, term, ty, mapping) -> str:
        renamed = s.Context(
            tuple((s.Var(mapping[v.name]), s.rename_vars_type(t, mapping)) for v, t in ctx)
        )
        gamma = s.Substitution(tuple((v, s.VarRef(s.Var(mapping[v.name]))) for v, _ in ctx), ctx)
        got = kernel.infer_term(renamed, s.apply_sub_term(term, gamma))
        return OK if kernel.convertible_types(renamed, got, s.apply_sub_type(ty, gamma)) else "not preserved"

    def suspended(ctx, term, ty) -> str:
        sctx, sterm, sty = meta.suspend_judgment(ctx, term, ty)
        return OK if kernel.convertible_types(sctx, kernel.infer_term(sctx, sterm), sty) else "not preserved"

    def component(ctx, can, kind) -> str:
        expected = kernel.infer_term(ctx, s.Destr(kind, can))
        actual = kernel.infer_term(ctx, inverse.canonical_component(can, kind))
        return OK if kernel.convertible_types(ctx, actual, expected) else "not convertible"

    def gamma(n) -> str:
        report = equiv.check_gamma(n)
        want = {d: neutral_count(d) for d in range(n + 1)}
        return OK if report.ok and report.counts == want else f"ok={report.ok} counts={report.counts}"

    rec.begin(2 * len(terms) + len(COMPONENTS) * len(cans) + len(NEUTRAL_DIMS) + 2 * len(STAGES))
    transport_s = []
    for (name, ctx, term, ty), mapping in zip(terms, renamings):
        _, t_sub = rec.op(f"subst {name}", OK, lambda: substituted(ctx, term, ty, mapping))
        _, t_susp = rec.op(f"susp {name}", OK, lambda: suspended(ctx, term, ty))
        transport_s.append(t_sub + t_susp)
    for i, (ctx, can) in enumerate(cans):
        for kind in COMPONENTS:
            rec.op(f"can#{i} {kind}", OK, lambda: component(ctx, can, kind))
    for n in NEUTRAL_DIMS:
        rec.op(f"neutrals {n}", str(neutral_count(n)), lambda: str(len(equiv.enumerate_neutrals(n))))
    for n in STAGES:
        rec.op(f"truncation {n}", str(truncation_size(n)), lambda: str(len(equiv.equiv_truncation(n).ctx)))
    for n in STAGES:
        rec.op(f"gamma {n}", OK, lambda: gamma(n))
    rec.end()
    rec.points = list(zip(tree_sizes([term for _, _, term, _ in terms]), transport_s))


WORKLOADS = {"corpus": run_corpus, "scaling": run_scaling, "metatheory": run_metatheory}


# ---------------------------------------------------------------------------
# Per-layer figures and memo tables
# ---------------------------------------------------------------------------


def memo_tables() -> dict[int, object]:
    """Module-level dicts, sets and lru_caches of the icatt package."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "icatt" and not name.startswith("icatt."):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)) or isinstance(value, (dict, set)):
                out[id(value)] = value
    return out


def memo_entries(tables: dict[int, object], baseline: dict[int, int]) -> int:
    """Entries in the lru_caches, plus entries in module-level tables
    whose size changed since import (constant lookup tables do not)."""
    total = 0
    for key, table in tables.items():
        if hasattr(table, "cache_info"):
            total += table.cache_info().currsize
        elif len(table) != baseline[key]:
            total += len(table)
    return total


def layer_metrics(tracer) -> dict[str, float]:
    from spans import SPANS, inclusive_time, self_times

    spans = tracer.spans()
    selfs = self_times([(s, e, p) for _, s, e, p, _ in spans])
    self_of: dict[str, float] = defaultdict(float)
    for (name, *_), seconds in zip(spans, selfs):
        self_of[name] += seconds

    def calls(*spans_: str, only: tuple[str, ...] = ()) -> int:
        total = 0
        for span in spans_:
            layer, fnames = SPANS[span]
            total += sum(tracer.calls.get(f"{layer}.{f}", 0) for f in fnames if not only or f in only)
        return total

    infer = calls("kernel.infer")
    return {
        "parser.self_s": self_of["parser.parse"],
        "elaborate.calls": calls("elaborate.elaborate_decl"),
        "elaborate.self_s": self_of["elaborate.elaborate_decl"],
        "kernel.check_decl_s": inclusive_time(
            [(n, s, e, p) for n, s, e, p, _ in spans], {"kernel.check_decl"}
        ),
        "kernel.infer_calls": infer,
        "kernel.infer_self_s": self_of["kernel.infer"],
        "kernel.infer_repeat_ratio": tracer.repeats / infer if infer else 0.0,
        "kernel.conv_calls": calls("kernel.conv"),
        "kernel.conv_self_s": self_of["kernel.conv"],
        "kernel.check_sub_self_s": self_of["kernel.check_sub"],
        "normalize.nf_calls": calls("normalize.nf"),
        "normalize.beta_calls": calls("normalize.beta"),
        "normalize.self_s": sum(self_of[n] for n in ("normalize.nf", "normalize.beta", "normalize.eta")),
        "inverse.canonical_calls": calls("inverse.canonical"),
        "inverse.self_s": self_of["inverse.canonical"],
        "meta.suspend_calls": calls("meta.suspend"),
        "meta.self_s": self_of["meta.suspend"] + self_of["meta.other"],
        "equiv.self_s": self_of["equiv"],
        "syntax.alpha_key_calls": calls(
            "syntax.alpha_key",
            only=("alpha_key_term", "alpha_key_type", "alpha_key_context", "alpha_key_sub"),
        ),
        "syntax.alpha_key_self_s": self_of["syntax.alpha_key"],
        "syntax.apply_sub_calls": calls("syntax.apply_sub"),
        "syntax.apply_sub_self_s": self_of["syntax.apply_sub"],
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="one repetition of one benchmark workload")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t0 = time.perf_counter()

    # the same recursion limit as `icatt check`
    sys.setrecursionlimit(200000)
    sys.path.insert(0, str(ROOT / "src"))
    import icatt.cli  # noqa: F401  (imports every module `icatt check` uses)
    import icatt.equiv  # noqa: F401
    import icatt.inverse  # noqa: F401

    tables = memo_tables()
    baseline = {k: len(v) for k, v in tables.items() if not hasattr(v, "cache_info")}
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    rec = Recorder(tracer)
    WORKLOADS[args.workload](rec, args.seed)
    result = {
        "setup_s": rec.t_begin - t0,
        "check_s": rec.t_end - rec.t_begin,
        "rss_mib": rec.rss_mib,
        "ops": rec.ops,
        "points": rec.points,
        "families": rec.families,
        "memo_entries": memo_entries(tables, baseline),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    status = main()
    # skip tearing down the checker's heap: it takes over a second and is
    # part of no measurement
    os._exit(status)
