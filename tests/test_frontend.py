"""Parser and command-line driver."""

import importlib
import importlib.util
import json
import pkgutil
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from icatt.errors import SyntaxErrorIcatt
from icatt.parser import SApp, SCan, STArrow, STInv, SVar, SWild, parse, tokenize

import fresh
from oracles import print_surface_file, tokenize_by_characters

CORPUS = fresh.CORPUS
GOLDEN = fresh.ROOT / "tests" / "golden"


def test_empty_file():
    assert parse("") == []
    assert parse("# only a comment\n### banner ###\n") == []


def test_parse_coh_with_wildcard():
    (decl,) = parse("coh unitl (x(f)y) : comp (id _) f -> f")
    assert decl.kind == "coh" and decl.name == "unitl"
    assert [n for n, _ in decl.telescope] == ["x", "y", "f"]
    assert isinstance(decl.ty, STArrow)
    src = decl.ty.src
    assert isinstance(src, SApp) and src.head.name == "comp"
    id_arg = src.args[0]
    assert isinstance(id_arg, SApp) and id_arg.head.name == "id"
    assert isinstance(id_arg.args[0], SWild)


def test_parse_nested_ps_shorthand():
    (decl,) = parse("coh whiskl (x(f)y(g(a)h)z) : comp f g -> comp f h")
    assert [n for n, _ in decl.telescope] == ["x", "y", "f", "z", "g", "h", "a"]
    # a : g -> h
    a_ty = dict(decl.telescope)["a"]
    assert isinstance(a_ty, STArrow)
    assert a_ty.src == SVar("g") and a_ty.tgt == SVar("h")


def test_parse_let_with_can_payload():
    (decl,) = parse(
        "let compinv (x : *) (f : x -> x) (e : Inv (f)) : Inv (f) = can ( f { e })"
    )
    assert decl.kind == "let"
    assert isinstance(decl.body, SCan)
    assert isinstance(dict(decl.telescope)["e"], STInv)


def test_unary_heads_bind_greedily():
    (decl,) = parse("let t (x : *) = foo irunit (e)")
    body = decl.body
    assert isinstance(body, SApp) and body.head.name == "foo"
    (arg,) = body.args
    assert isinstance(arg, SApp) and arg.head.name == "irunit"


def test_arrow_not_eaten_by_identifier():
    (decl,) = parse("let t (f : x->y) = f")
    ty = dict(decl.telescope)["f"]
    assert isinstance(ty, STArrow)


def test_trailing_hyphen_names():
    (decl,) = parse("coh unitr- (x(f)y) : f -> comp f (id _)")
    assert decl.name == "unitr-"


def test_syntax_error_has_position():
    with pytest.raises(SyntaxErrorIcatt) as err:
        parse("let ! (x : *) = x")
    assert err.value.span is not None


def _tokens(tokenizer, text):
    """The tokens of ``text``, or the text and position of its error."""
    try:
        return tokenizer(text)
    except SyntaxErrorIcatt as e:
        return str(e), e.span


def test_tokenizer_agrees_with_character_loop(monkeypatch):
    """The tokens of the corpus and of the scaling scripts of seeds 1-5
    are those of the character-loop reference, position for position."""
    spec = importlib.util.spec_from_file_location("bench_generate", fresh.ROOT / "bench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, generate)  # for its dataclasses
    spec.loader.exec_module(generate)
    texts = [CORPUS.read_text(encoding="utf-8")]
    texts += [script.text for seed in range(1, 6) for script in generate.scaling_scripts(seed)]
    for text in texts:
        assert _tokens(tokenize, text) == _tokens(tokenize_by_characters, text)


_CORPUS_TEXT = CORPUS.read_text(encoding="utf-8")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, len(_CORPUS_TEXT)),
    st.lists(st.tuples(st.integers(0, 200), st.sampled_from("ab_'->#\n\t\r (){}:,=*!\u00e9.")), max_size=8),
)
@example(0, [(0, "x"), (1, "-"), (2, ">"), (3, "y")])  # x->y
@example(0, [(0, "#")])  # a comment to the end of the line
@example(0, [(3, "'"), (5, "-")])  # quote and hyphen in names
@example(200, [(150, "!")])  # a bad character past line 1
def test_tokenizer_agrees_on_corpus_mutants(start, edits):
    """Corpus text with characters inserted gives the reference's tokens,
    or its error text and position."""
    text = list(_CORPUS_TEXT[start:start + 200])
    for at, ch in edits:
        text.insert(at, ch)
    text = "".join(text)
    assert _tokens(tokenize, text) == _tokens(tokenize_by_characters, text)


def test_seven_component_brace_payload():
    (decl,) = parse("inv i (x : *) = { a , b , c , d , e , f , g }")
    assert len(decl.components) == 7


def _strip(node):
    """Erase source spans for structural comparison."""
    from dataclasses import fields, is_dataclass, replace

    if isinstance(node, tuple):
        return tuple(_strip(x) for x in node)
    if is_dataclass(node):
        updates = {}
        for f in fields(node):
            val = getattr(node, f.name)
            updates[f.name] = (0, 0) if f.name == "span" else _strip(val)
        return replace(node, **updates)
    return node


def test_roundtrip_print_parse(corpus_text):
    decls = parse(corpus_text)
    printed = print_surface_file(decls)
    reparsed = parse(printed)
    assert _strip(tuple(reparsed)) == _strip(tuple(decls))


# -- CLI ----------------------------------------------------------------------


def _run_cli(*args):
    return fresh.run("-m", "icatt.cli", *args)


def test_cli_checks_corpus():
    out = _run_cli("check", str(CORPUS))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 29
    assert lines[0] == "checked coh unitr-"
    assert lines[-1] == "checked inv 2of6-h"


def test_cli_deterministic_output():
    a = _run_cli("check", str(CORPUS))
    b = _run_cli("check", str(CORPUS))
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


@pytest.mark.parametrize("flags,golden", [
    (("--verbose",), "check_verbose.txt"),
    (("--dump-nf", "lri"), "dump_nf_lri.txt"),
], ids=["verbose", "dump-nf-lri"])
def test_cli_corpus_output_matches_golden(flags, golden):
    """The corpus's verbose check and a normal form, byte for byte as
    recorded under ``tests/golden``."""
    out = _run_cli("check", *flags, str(CORPUS))
    assert out.returncode == 0, out.stderr
    assert out.stdout.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_cli_reports_fullness_violation(tmp_path):
    bad = tmp_path / "bad.catt"
    bad.write_text("coh broken (x(f)y(g)z) : x -> y\n")
    out = _run_cli("check", str(bad))
    assert out.returncode == 1
    assert "not-full" in out.stderr
    assert "does not use z" in out.stderr  # the unused variable is named
    # a kernel error carries the position of its declaration
    assert out.stderr.startswith(f"{bad}: coh broken: 1:1: coherence broken: type is not full")


def test_cli_error_text_is_bounded(tmp_path):
    """An error that embeds a type prints it cut to a bounded size, at a
    bounded cost: here the type ``r16 f -> r16 f``, whose tree has 2^17
    composites on each side but whose DAG has 17."""
    lines = ["let r0 (x : *) (f : x -> x) = comp f f"]
    lines += [f"let r{i} (x : *) (f : x -> x) = comp (r{i - 1} f) (r{i - 1} f)" for i in range(1, 17)]
    lines.append("let h (x : *) (f : x -> x) (a : r16 f -> r16 f) = linv a")
    script = tmp_path / "deep.catt"
    script.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    out = _run_cli("check", str(script))
    elapsed = time.perf_counter() - start
    assert out.returncode == 1
    assert out.stderr.startswith(f"{script}: let h: 18:51: ")
    assert out.stderr.rstrip().endswith("[type-mismatch]")
    assert len(out.stderr.encode("utf-8")) < 2048
    assert elapsed < 2.0


@pytest.mark.parametrize("script,where", [
    ("let a (x : *) =", "1:15: expected a term"),
    ("coh c (x) :", "1:11: expected a type"),
])
def test_cli_reports_truncated_input_at_its_last_token(tmp_path, script, where):
    """Input that ends where a term or a type should come is reported at
    its last token, as any other end of input is."""
    path = tmp_path / "eoi.catt"
    path.write_text(script)
    out = _run_cli("check", str(path))
    assert out.returncode == 1
    assert out.stderr == f"{path}:{where} [syntax]\n"


@pytest.mark.parametrize("script,where", [
    ("let a (x : *) (rec : x -> x) = comp rec rec", "1:16: rec"),
    ("let a (x : *) (coh : x -> x) = comp coh coh\nlet b (x : *) = x", "1:16: coh"),
    ("coh c (x(inv)y) : x -> y", "1:10: inv"),
])
def test_cli_reports_a_keyword_binder_where_it_is_bound(tmp_path, script, where):
    """A telescope or pasting binder spelled like a declaration keyword
    is a reserved name at the binder, not a syntax error further on
    where a term would have stopped at it."""
    path = tmp_path / "kw.catt"
    path.write_text(script)
    out = _run_cli("check", str(path))
    assert out.returncode == 1
    assert out.stderr == f"{path}:{where} is a reserved name [shadowed-name]\n"


def test_cli_keep_going(tmp_path):
    bad = tmp_path / "two.catt"
    bad.write_text(
        "coh broken (x(f)y(g)z) : x -> y\n"
        "coh fine (x(f)y(g)z) : x -> z\n"
    )
    out = _run_cli("check", "--keep-going", str(bad))
    assert out.returncode == 1
    assert "checked coh fine" in out.stdout


def test_cli_neutral_count():
    out = _run_cli("--neutral-count", "3")
    assert out.returncode == 0
    assert out.stdout.strip() == "12"


def test_cli_neutral_count_does_not_enumerate():
    out = _run_cli("--neutral-count", "40")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1649267441664"


@pytest.mark.parametrize("flag", ["--check-gamma", "--equiv-trunc"])
@pytest.mark.parametrize("stage", ["6", "-1"])
def test_cli_analysis_stage_out_of_bounds(flag, stage):
    out = _run_cli(flag, stage)
    assert out.returncode == 2
    assert out.stderr.startswith("icatt: ") and out.stderr.rstrip().endswith("[bound-exceeded]")
    assert "Traceback" not in out.stderr


def test_bounded_reports_memory_exhaustion():
    from icatt.cli import _bounded
    from icatt.errors import BoundExceeded

    def exhausts():
        raise MemoryError

    with pytest.raises(BoundExceeded) as info:
        _bounded(exhausts)
    assert info.value.category == "bound-exceeded"


def test_cli_equiv_trunc():
    out = _run_cli("--equiv-trunc", "1")
    assert out.returncode == 0
    assert out.stdout.strip() == "(x : *) (y : *) (u : x -> y) (v : y -> x) (w : y -> x)"


def test_cli_check_gamma():
    out = _run_cli("--check-gamma", "2")
    assert out.returncode == 0
    assert "bijection=True" in out.stdout


def test_cli_dump_nf(tmp_path):
    src = tmp_path / "d.catt"
    src.write_text("let double (x : *) = comp (id x) (id x)\n")
    out = _run_cli("check", str(src), "--dump-nf", "double")
    assert out.returncode == 0
    assert "nf double = comp (id x) (id x)" in out.stdout


def test_cli_usage_error():
    out = _run_cli()
    assert out.returncode == 2


def test_cli_higher_dimensional_script(tmp_path):
    """Nested pasting shorthand, a ternary canonical structure, and a
    doubly suspended recursive definition all check through the CLI."""
    script = tmp_path / "stress.catt"
    script.write_text(
        "coh vassoc (x(f(a)g(b)h(c)k)y)\n"
        ": comp a (comp b c) -> comp (comp a b) c\n"
        "let triple (x : *) (y : *) (z : *) (w : *)\n"
        "    (f : x -> y) (g : y -> z) (h : z -> w)\n"
        "    (e : Inv (f)) (e' : Inv (g)) (e'' : Inv (h))\n"
        "    : Inv (comp f g h)\n"
        "    = can (comp f g h { e , e' , e'' })\n"
    )
    out = _run_cli("check", str(CORPUS), str(script))
    assert out.returncode == 0, out.stderr
    assert "checked coh vassoc" in out.stdout
    assert "checked let triple" in out.stdout


def test_cli_double_suspension_of_recursion(tmp_path):
    script = tmp_path / "susp.catt"
    script.write_text(
        "let double-susp (x : *) (y : *) (f : x -> y) (g : x -> y)\n"
        "    (a : f -> g) (e : Inv (a))\n"
        "    : Inv (linv (irunit (e)))\n"
        "    = linv-inv (irunit (e))\n"
    )
    out = _run_cli("check", str(CORPUS), str(script))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("checked let double-susp")


def test_print_term_generic_coherence():
    from icatt.printer import print_term
    from icatt.syntax import Arr, Coh, Context, Obj, Var, VarRef, identity_sub

    ps = Context(((Var("x"), Obj()),))
    weird = Coh(ps, Arr(Obj(), VarRef(Var("x")), VarRef(Var("x"))), identity_sub(ps))
    # not the identity schema shape by name alone; printed self-contained
    s = print_term(weird)
    assert s == "id x" or s.startswith("coh[")


def test_printing_a_coherence_builds_at_most_one_composite_schema():
    """The printer compares a coherence with the one composite schema
    that the length of its pasting context allows, so printing a
    coherence that is no schema, over a chain of 300 arrows, builds at
    most one composite schema."""
    from icatt.builtins import chain_context, comp_schema
    from icatt.printer import print_term
    from icatt.syntax import Arr, Coh, Obj, Var, VarRef, identity_sub

    ps = chain_context(300, 1)
    cell = Coh(ps, Arr(Obj(), VarRef(Var("x300")), VarRef(Var("x0"))), identity_sub(ps))
    before = comp_schema.cache_info().currsize
    assert print_term(cell).startswith("coh[")
    assert comp_schema.cache_info().currsize - before <= 1


def test_cli_dump_nf_invertibility_declaration(tmp_path):
    src = tmp_path / "i.catt"
    src.write_text(
        "let w (x : *) (y : *) (f : x -> y) (e : Inv (f)) : Inv (lunit (e)) = ilunit (e)\n"
    )
    out = _run_cli("check", str(src), "--dump-nf", "w")
    assert out.returncode == 0
    assert "nf w = ilunit (e)" in out.stdout


def test_use_before_declare(tmp_path):
    src = tmp_path / "o.catt"
    src.write_text("let a (x : *) = later x\nlet later (x : *) = x\n")
    out = _run_cli("check", str(src))
    assert out.returncode == 1
    assert "unknown-name" in out.stderr


def test_cli_checks_deep_chain(tmp_path):
    """A comp/id chain 20000 deep overflowed the C stack (exit 139) when
    the driver recursed on the main thread; its worker thread's stack
    holds the whole recursion limit."""
    t = "f"
    for i in range(20000):
        t = f"(comp {t} (id _))" if i % 2 else f"(comp (id _) {t})"
    src = tmp_path / "deep.catt"
    src.write_text(f"let d (x : *) (f : x -> x) = {t}\n")
    out = _run_cli("check", str(src))
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == "checked let d\n"


_DEEP_LIBRARY_CHECK = """
from icatt.cli import run_on_worker_stack
from icatt.elaborate import elaborate_decl
from icatt.errors import IcattError
from icatt.kernel import Environment, check_decl
from icatt.parser import parse

def check(text):
    env = Environment()
    for sdecl in parse(text):
        check_decl(env, elaborate_decl(env, sdecl))
    return "accepted"

t = "f"
for i in range(20000):
    t = f"(comp {t} (id _))" if i % 2 else f"(comp (id _) {t})"
try:
    print(run_on_worker_stack(check, f"let d (x : *) (f : x -> x) = {t}\\n"))
except IcattError as exc:
    print(exc.category)
"""


def test_library_entry_point_checks_deep_chain():
    """Parsing, elaborating and checking the depth-20000 comp/id chain
    through the library, on the worker stack, in a new interpreter at
    its default recursion limit, is accepted or bounded, never a crash."""
    out = fresh.run("-c", _DEEP_LIBRARY_CHECK)
    assert out.returncode == 0, (out.returncode, out.stderr[-2000:])
    assert out.stdout in ("accepted\n", "bound-exceeded\n")


def test_cli_reports_nesting_past_recursion_limit(tmp_path):
    src = tmp_path / "parens.catt"
    src.write_text("let d (x : *) = " + "(" * 300000 + "x" + ")" * 300000 + "\n")
    out = _run_cli("check", str(src))
    assert out.returncode == 1
    assert out.stderr.startswith(f"{src}: ") and "[bound-exceeded]" in out.stderr
    assert "Traceback" not in out.stderr and "RecursionError" not in out.stderr


def test_fuzzed_scripts_never_crash_internally():
    """Random small scripts either check or fail with a reported error,
    never with an internal exception."""
    import random

    from icatt.elaborate import elaborate_decl
    from icatt.errors import IcattError
    from icatt.kernel import Environment, check_decl

    rng = random.Random(99)
    names = ["x", "y", "z", "f", "g", "e", "q"]
    types = ["*", "x -> y", "y -> x", "Inv (f)", "f -> g", "x -> f"]
    heads = ["comp", "id", "linv", "rinv", "lunit", "ilunit", "q", "can"]

    def term(depth=0):
        h = rng.choice(heads)
        if h == "can" and depth < 2:
            return f"can ({term(depth + 1)} {{ {term(depth + 1)} }})"
        args = " ".join(
            f"({term(depth + 1)})" if rng.random() < 0.4 else rng.choice(names + ["_"])
            for _ in range(rng.randint(1, 2))
        )
        return f"{h} {args}"

    crashes = []
    for i in range(120):
        tele = " ".join(
            f"({n} : {rng.choice(types)})" for n in rng.sample(names, rng.randint(1, 4))
        )
        text = f"let t{i} {tele} = {term()}"
        env = Environment()
        try:
            for sdecl in parse(text):
                check_decl(env, elaborate_decl(env, sdecl))
        except IcattError:
            pass
        except Exception as exc:  # pragma: no cover - the failure itself
            crashes.append((text, repr(exc)))
    assert not crashes, crashes[:3]


def _module_table_sizes():
    """Entries in every module-level dict, set and lru_cache of icatt."""
    sizes = {}
    for name, mod in list(sys.modules.items()):
        if name != "icatt" and not name.startswith("icatt."):
            continue
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_info", None)):
                sizes[f"{name}.{attr}"] = value.cache_info().currsize
            elif isinstance(value, (dict, set)):
                sizes[f"{name}.{attr}"] = len(value)
    return sizes


# the memo tables: the weak intern table and the lru_caches; adding one
# means adding it here
MEMO_TABLES = {
    "icatt.syntax._INTERN",
    "icatt.builtins.comp_schema",
    "icatt.builtins.id_schema",
    "icatt.meta.sphere",
    "icatt.meta.disk",
    "icatt.meta.walking_equiv",
    "icatt.equiv.inv_neutrals",
    "icatt.equiv.enumerate_neutrals",
    "icatt.equiv.equiv_truncation",
    "icatt.equiv.gamma_sub",
}

CONSTANT_TABLES = {
    "icatt.elaborate._DESTRUCTOR_OF_SPELLING",
    "icatt.parser._KIND",
}


def test_module_tables_are_the_listed_ones():
    """The module-level dicts, sets and lru_caches of every icatt module,
    each named where it is defined, are exactly the 10 memo tables and
    the constant lookup tables listed above."""
    import icatt

    for info in pkgutil.iter_modules(icatt.__path__):
        importlib.import_module(f"icatt.{info.name}")
    found = set()
    for name, mod in list(sys.modules.items()):
        if name != "icatt" and not name.startswith("icatt."):
            continue
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_info", None)):
                found.add(f"{value.__module__}.{value.__qualname__}")
            elif isinstance(value, (dict, set)) and not attr.startswith("__"):
                found.add(f"{name}.{attr}")
    assert found == MEMO_TABLES | CONSTANT_TABLES


def test_traced_spans_name_existing_functions():
    """Every function the benchmark's tracer wraps exists in its module,
    so no per-layer metric reads 0 because a function was renamed; the
    one exception is the retired ``kernel.convertible_inv_terms``."""
    spec = importlib.util.spec_from_file_location("bench_spans", fresh.ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, fnames in spans.SPANS.values():
        mod = importlib.import_module(f"icatt.{layer}")
        missing += [f"{layer}.{f}" for f in fnames if not callable(getattr(mod, f, None))]
    assert missing == ["kernel.convertible_inv_terms"]


def test_no_module_imports_a_name_it_never_uses():
    """Every name that an icatt module imports, at top level or inside a
    function, is used somewhere in that module."""
    import ast
    from pathlib import Path

    import icatt

    unused = []
    for path in sorted(Path(icatt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused


def test_no_module_dispatches_by_class_pattern():
    """No icatt module picks a case with a class pattern (``case Arr(b,
    s, t):``, which looks up ``__match_args__`` and calls ``getattr``
    per capture) or matches on a tuple of subjects: each tests
    ``type(x) is C`` instead (see :mod:`icatt.syntax`, Traversal)."""
    import ast
    from pathlib import Path

    import icatt

    found = []
    for path in sorted(Path(icatt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Match) and isinstance(node.subject, ast.Tuple):
                found.append(f"{path.name}:{node.lineno} match on a tuple")
            elif isinstance(node, ast.MatchClass):
                found.append(f"{path.name}:{node.lineno} class pattern")
    assert not found


def _check_corpus_once():
    """Elaborate and check the corpus from scratch; each declaration as
    its alpha-keys, its types and its printed form."""
    from icatt.elaborate import elaborate_decl
    from icatt.kernel import CohDecl, Environment, TermDecl, check_decl
    from icatt.printer import print_context, print_term, print_type
    from icatt.syntax import alpha_key_context, alpha_key_term, alpha_key_type

    env = Environment()
    out = []
    for sdecl in parse(CORPUS.read_text(encoding="utf-8")):
        decl = elaborate_decl(env, sdecl)
        check_decl(env, decl)
        if isinstance(decl, CohDecl):
            ctx, terms, types = decl.ps, (), (decl.ty,)
        elif isinstance(decl, TermDecl):
            ctx, terms, types = decl.ctx, (decl.term,), (decl.ty,)
        else:
            ctx, terms, types = decl.seed, decl.components, ()
        keys = (alpha_key_context(ctx), [alpha_key_term(t) for t in terms], [alpha_key_type(ty) for ty in types])
        printed = [print_context(ctx), *map(print_term, terms), *map(print_type, types)]
        out.append((decl.name, keys, types, printed))
    return out


def test_recheck_is_stable_and_grows_no_table():
    """Checking the corpus three times in one process gives the same
    declarations, and after the second run no module-level table grows."""
    first = _check_corpus_once()
    second = _check_corpus_once()
    after_second = _module_table_sizes()
    third = _check_corpus_once()
    after_third = _module_table_sizes()
    assert first == second == third
    grown = {name: (after_second[name], n) for name, n in after_third.items() if n > after_second.get(name, 0)}
    assert not grown


# checks the corpus, then the scaling scripts of each seed, in one process
# and as `icatt check` does; after each input, the live entries of the
# intern table and the peak RSS in KiB
_LONG_LIVED_CHECKER = """
import gc, json, resource, sys
sys.setrecursionlimit(200_000)
sys.path.insert(0, "bench")
from generate import ACCEPTED, scaling_scripts
from icatt import syntax
from icatt.elaborate import elaborate_decl
from icatt.errors import IcattError
from icatt.kernel import Environment, check_decl
from icatt.parser import parse

def verdicts(text):
    env, out = Environment(), []
    for sdecl in parse(text):
        try:
            check_decl(env, elaborate_decl(env, sdecl))
        except IcattError as exc:
            return out + [(sdecl.name, exc.category)]
        out.append((sdecl.name, ACCEPTED))
    return out

with open("proofs/invertibility.catt", encoding="utf-8") as corpus:
    assert {v for _, v in verdicts(corpus.read())} == {ACCEPTED}
sizes, peaks = [], []
for seed in (None, 1, 2, 3, 4):
    for script in [] if seed is None else scaling_scripts(seed):
        assert verdicts(script.text) == list(script.expected), script.label
    gc.collect()
    sizes.append(len(syntax._INTERN))
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(json.dumps([sizes, peaks]))
"""


def test_memory_stays_bounded_across_inputs():
    """A long-lived checker's memory is bounded by the syntax it still
    holds: after the corpus and the first seed's scaling scripts, each
    further seed's scripts add at most 8 live intern-table entries and keep
    peak RSS within 5 %."""
    out = fresh.run("-c", _LONG_LIVED_CHECKER)
    assert out.returncode == 0, out.stderr
    sizes, peaks = json.loads(out.stdout)
    assert all(b - a <= 8 for a, b in zip(sizes[1:], sizes[2:])), sizes
    assert max(peaks[2:]) <= 1.05 * peaks[1], peaks


# checks the corpus, then 100 and then 200 more distinct one-line inputs,
# in one process; after each batch, the live entries of the intern table
_DISTINCT_INPUTS = """
import gc, json
from icatt import syntax
from icatt.elaborate import elaborate_decl
from icatt.kernel import Environment, check_decl
from icatt.parser import parse

def check(text):
    env = Environment()
    for sdecl in parse(text):
        check_decl(env, elaborate_decl(env, sdecl))

with open("proofs/invertibility.catt", encoding="utf-8") as corpus:
    check(corpus.read())
sizes = []
for batch in (range(0), range(100), range(100, 300)):
    for i in batch:
        check(f"let t (x0 : *) (v{i} : *) (f : x0 -> v{i}) = f\\n")
    gc.collect()
    sizes.append(len(syntax._INTERN))
print(json.dumps(sizes))
"""


def test_inferred_types_keep_no_dead_context_alive():
    """A type inferred over a context lives no longer than the context:
    checking 100, then 200 more, distinct inputs whose terms share a
    long-lived variable node leaves the intern table as it was."""
    out = fresh.run("-c", _DISTINCT_INPUTS)
    assert out.returncode == 0, out.stderr
    sizes = json.loads(out.stdout)
    assert max(sizes) - sizes[0] <= 8, sizes
