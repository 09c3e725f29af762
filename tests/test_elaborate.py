"""Elaboration: implicit arguments, suspension, multi-ary composites,
wildcards, inductive-hypothesis markers."""

import gc
import importlib.util
import sys

import pytest

from icatt import elaborate, syntax
from icatt.builtins import comp_schema
from icatt.cli import run_on_worker_stack
from icatt.elaborate import Elaborator, elaborate_decl, explicit_positions
from icatt.errors import (
    ArityError,
    DuplicateVariable,
    IcattError,
    IHOutsideRec,
    NotEquivContext,
    ShadowedName,
    UnificationFailure,
    UnsolvedMeta,
)
from icatt.kernel import CohDecl, Environment, RecDecl, TermDecl, check_decl
from icatt.meta import suspend_judgment
from icatt.parser import parse
from icatt.syntax import (
    Arr,
    Coh,
    Context,
    Destr,
    Obj,
    Substitution,
    Var,
    VarRef,
    alpha_eq_term,
)

import fresh


def _check_all(env, text):
    out = []
    for sdecl in parse(text):
        kdecl = elaborate_decl(env, sdecl)
        check_decl(env, kdecl)
        out.append(kdecl)
    return out


@pytest.fixture
def base_env():
    env = Environment()
    _check_all(env, "let cf (x : *) (y : *) (f : x -> y) = f")
    return env


def test_explicit_positions_standard_convention():
    text = """
let use (x : *) (y : *) (z : *) (f : x -> y) (g : y -> z)
        (e : Inv (f)) (e' : Inv (g)) = e
"""
    env = Environment()
    (decl,) = _check_all(env, text)
    assert [decl.ctx.entries[i][0].name for i in explicit_positions(decl.ctx)] == ["e", "e'"]


def test_comp_infers_objects():
    env = Environment()
    (decl,) = _check_all(
        env, "let c2 (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) = comp f g"
    )
    assert isinstance(decl.term, Coh)
    imgs = [t for _, t in decl.term.sub.pairs]
    assert VarRef(Var("x")) in imgs and VarRef(Var("y")) in imgs and VarRef(Var("z")) in imgs


def test_comp_single_argument_is_identity_desugaring():
    env = Environment()
    (decl,) = _check_all(env, "let c1 (x : *) (y : *) (f : x -> y) = comp f")
    assert decl.term == VarRef(Var("f"))


def test_multi_ary_comp():
    env = Environment()
    (decl,) = _check_all(
        env,
        "let c3 (x : *) (y : *) (f : x -> y) (z : *) (g : y -> z) (w : *) (h : z -> w)"
        " = comp f g h",
    )
    assert isinstance(decl.term, Coh)
    assert len(decl.term.ps) == 7  # the ternary chain


def test_non_composable_chain_rejected():
    env = Environment()
    with pytest.raises((UnificationFailure, Exception)):
        _check_all(env, "let bad (x : *) (y : *) (f : x -> y) (g : x -> y) = comp f g")


def test_implicit_suspension_matches_manual():
    env = Environment()
    decls = _check_all(
        env,
        "let idf (x : *) (y : *) (f : x -> y) = id f",
    )
    idf = decls[0]
    # manual route: suspend the identity declaration and apply it
    ctx0 = Context(((Var("x"), Obj()),))
    from icatt.builtins import id_of

    base_id = id_of(VarRef(Var("x")), Obj())
    sctx, sterm, _ = suspend_judgment(ctx0, base_id, Arr(Obj(), VarRef(Var("x")), VarRef(Var("x"))))
    # instantiate the suspended schema at f
    from icatt.syntax import Substitution, apply_sub_term

    sub = Substitution(
        (
            (sctx.entries[0][0], VarRef(Var("x"))),
            (sctx.entries[1][0], VarRef(Var("y"))),
            (sctx.entries[2][0], VarRef(Var("f"))),
        ),
        sctx,
    )
    manual = apply_sub_term(sterm, sub)
    assert alpha_eq_term(idf.term, manual)


def test_suspended_comp_on_two_cells():
    env = Environment()
    (decl,) = _check_all(
        env,
        "let vcomp (x : *) (y : *) (p : x -> y) (q : x -> y) (a : p -> q)"
        " (r : x -> y) (b : q -> r) = comp a b",
    )
    assert isinstance(decl.term, Coh)
    assert len(decl.term.ps) == 7  # suspended binary chain


def test_wildcard_solved_from_expected():
    env = Environment()
    (decl,) = _check_all(env, "coh myunitl (x(f)y) : comp (id _) f -> f")
    assert isinstance(decl, CohDecl)


def test_unsolved_wildcard_reported():
    env = Environment()
    with pytest.raises((UnsolvedMeta, UnificationFailure)):
        _check_all(env, "let nope (x : *) = _")


def test_incompatible_boundaries_fail_not_coerce(base_env):
    with pytest.raises(Exception):
        _check_all(base_env, "let bad (x : *) (y : *) (f : x -> y) = cf (id x) f")


def test_inv_decl_arity():
    env = Environment()
    with pytest.raises(ArityError):
        _check_all(env, "inv short (x : *) (y : *) (f : x -> y) (e : Inv (f)) = "
                        "{ f , linv (e) , rinv (e) , lunit (e) , runit (e) , ilunit (e) }")


def test_rec_requires_walking_equivalence():
    env = Environment()
    with pytest.raises(NotEquivContext):
        _check_all(env, "rec bad (x : *) (y : *) = { x , x , x , x , x , x , x }")


def test_ih_outside_rec_rejected():
    env = Environment()
    with pytest.raises(IHOutsideRec):
        _check_all(env, "let bad (x : *) = IHleft")


def test_ih_resolves_inside_rec(corpus_env):
    env, checked = corpus_env
    rec = next(d for d in checked if isinstance(d, RecDecl))
    assert rec.name == "linv-inv"
    from icatt.syntax import variables_used_term

    used = set(variables_used_term(rec.components[5]))
    assert "h+" in used  # IHright resolved to the right hypothesis


def test_shadowing_rejected():
    env = Environment()
    _check_all(env, "let one (x : *) = x")
    with pytest.raises(ShadowedName):
        _check_all(env, "let one (x : *) = x")


def test_elaboration_is_kernel_independent(corpus_env):
    """Every emitted declaration re-checks from scratch in a fresh
    environment (no elaborator state needed)."""
    _, checked = corpus_env
    fresh = Environment()
    for decl in checked:
        check_decl(fresh, decl)


def test_let_bodies_are_inlined(corpus_env):
    env, checked = corpus_env
    lri = next(d for d in checked if isinstance(d, TermDecl) and d.name == "lriU")
    # the body applies lriU-aux, whose own body is a Can: inlining means
    # the stored term is a Can, not a reference
    from icatt.syntax import Can

    assert isinstance(lri.term, Can)


def test_reused_definitions_are_stored_once():
    """``r_i`` applies ``r_{i-1}`` twice at the same arguments: the
    elaborated term is a tree of 2^(i+2) nodes, which the strict zonk
    stores as a DAG with a few nodes per level."""
    from icatt.syntax import subterms

    levels = 12
    lines = ["let r0 (x : *) (f : x -> x) = comp f (id _)"]
    for i in range(1, levels + 1):
        lines.append(f"let r{i} (x : *) (f : x -> x) = comp (r{i - 1} f) (id _) (r{i - 1} f)")
    last = _check_all(Environment(), "\n".join(lines))[-1]
    assert last.name == f"r{levels}"
    assert sum(1 for _ in subterms((last.term,))) <= 4 * levels


def _doubling_chain(leaf, depth):
    """A binary composite of the previous level with itself, ``depth``
    times over ``leaf : x -> x``: as a tree it holds 2^depth copies of
    ``leaf``, as a DAG one composite per level."""
    ps, ty = comp_schema(2, 1)
    x = VarRef(Var("x"))
    t = leaf
    for _ in range(depth):
        names = [v for v, _ in ps]
        t = Coh(ps, ty, Substitution(tuple(zip(names, (x, x, t, x, t))), ps))
    return t


def _count_unify_calls(monkeypatch):
    calls = [0]
    unify = Elaborator.unify_term

    def counted(self, *args):
        calls[0] += 1
        return unify(self, *args)

    monkeypatch.setattr(Elaborator, "unify_term", counted)
    return calls


def test_unification_costs_distinct_pairs(monkeypatch):
    """Two separately built doubling DAGs unify in a few calls per level,
    not one per tree node, and a term unifies with itself in one call."""
    depth = 16
    el = Elaborator(Environment())
    m = el.metas.fresh("f")
    a = _doubling_chain(VarRef(Var("f")), depth)
    b = _doubling_chain(m, depth)
    calls = _count_unify_calls(monkeypatch)
    el.unify_term(a, b)
    assert el.resolve(m) == VarRef(Var("f"))
    assert calls[0] <= 8 * depth
    calls[0] = 0
    el.unify_term(a, a)
    assert calls[0] == 1


def test_unification_of_reused_definitions_is_linear(monkeypatch):
    """``h`` unifies three instances of ``r16 f``, each a tree of 2^17
    leaves sharing no node with the others."""
    levels = 16
    lines = ["let r0 (x : *) (f : x -> x) = comp f f"]
    for i in range(1, levels + 1):
        lines.append(f"let r{i} (x : *) (f : x -> x) = comp (r{i - 1} f) (r{i - 1} f)")
    lines.append(f"let h (x : *) (f : x -> x) : r{levels} f -> r{levels} f = id (r{levels} f)")
    *defs, h = parse("\n".join(lines))
    env = Environment()
    for sdecl in defs:
        check_decl(env, elaborate_decl(env, sdecl))
    calls = _count_unify_calls(monkeypatch)
    check_decl(env, elaborate_decl(env, h))
    assert calls[0] <= 40 * levels


def test_occurs_check_follows_shared_and_solved_nodes():
    el = Elaborator(Environment())
    m, n = el.metas.fresh("m"), el.metas.fresh("n")
    with pytest.raises(UnificationFailure, match="circular implicit argument"):
        el.unify_term(m, _doubling_chain(m, 16))
    el.metas.solve(n.uid, _doubling_chain(m, 16))
    with pytest.raises(UnificationFailure, match="circular implicit argument") as info:
        el.unify_term(_doubling_chain(n, 2), m)
    assert info.value.category == "unification"


def test_failed_unification_interns_nothing():
    """Terms with different heads fail to unify without being keyed, so
    a failure adds no shape to the intern table."""
    el = Elaborator(Environment())
    a = Destr("linv", el.metas.fresh("a"))
    b = Destr("rinv", VarRef(Var("x-unify-probe")))
    gc.collect()
    before = set(syntax._INTERN)
    with pytest.raises(UnificationFailure) as info:
        el.unify_term(a, b)
    assert info.value.category == "unification"
    gc.collect()
    assert set(syntax._INTERN) <= before


def test_can_subject_from_expected(corpus_env):
    env, checked = corpus_env
    decl = next(d for d in checked if getattr(d, "name", "") == "rinv-inv")
    # component 7 of the inv declaration elaborated `can (_ {...})`
    from icatt.syntax import Can, Coind

    assert isinstance(decl.term, Coind)
    assert isinstance(decl.term.tiru, Can)


def test_reserved_names_rejected():
    from icatt.errors import ShadowedName

    env = Environment()
    with pytest.raises(ShadowedName):
        _check_all(env, "let comp (x : *) = x")
    with pytest.raises(ShadowedName):
        _check_all(env, "let ok (linv : *) = linv")


def test_telescope_errors_keep_their_categories():
    """A repeated telescope name is a duplicate variable, and a reserved
    one a shadowed name, whatever comes after it."""
    env = Environment()
    with pytest.raises(DuplicateVariable, match="^variable x already in context "):
        _check_all(env, "let t (x : *) (y : *) (x : *) (id : *) = y")
    with pytest.raises(ShadowedName):
        _check_all(env, "let t (x : *) (id : *) (x : *) = x")


def test_telescope_builds_one_context(monkeypatch):
    """Elaborating a declaration builds its telescope's context once,
    however long the telescope: 20 and 2,000 entries make the same
    single ``Context``, where building each prefix made one per entry."""
    cons = syntax._cons
    built = [0]

    def counting(cls, *fields):
        built[0] += cls is Context
        return cons(cls, *fields)

    monkeypatch.setattr(syntax, "_cons", counting)
    counts = []
    for n in (20, 2000):
        built[0] = 0
        tele = " ".join(f"(x{i} : *)" for i in range(n))
        decl = elaborate_decl(Environment(), parse(f"let t {tele} = x0")[0])
        assert len(decl.ctx) == n
        counts.append(built[0])
    assert counts == [1, 1]


def test_definition_suspended_once_per_declaration(monkeypatch):
    """A definition applied k times above its dimension in one body is
    suspended once, not k times: 20 applications of a two-cell ``let``
    to pairs of 2-cells make one ``suspend_judgment`` call."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return suspend_judgment(*args)

    env = Environment()
    _check_all(env, "let c2 (x : *) (y : *) (z : *) (f : x -> y) (g : y -> z) = comp f g")
    uses = " ".join(["(c2 a a)"] * 20)
    monkeypatch.setattr(elaborate, "suspend_judgment", counting)
    (decl,) = _check_all(env, f"let t (x : *) (y : *) (h : x -> y) (a : h -> h) = comp {uses}")
    assert calls[0] == 1
    assert isinstance(decl.term, Coh) and len(decl.term.sub.pairs) == 2 * 20 + 3


def _load_scaling_generator(monkeypatch):
    """The benchmark's script generator, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location("bench_generate", fresh.ROOT / "bench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, generate)
    spec.loader.exec_module(generate)
    return generate


def _script_verdicts(text):
    """Each declaration of ``text`` with ``accepted`` or the category of
    its rejection, up to the first rejection, as ``icatt check`` goes."""
    env = Environment()
    out = []
    for sdecl in parse(text):
        try:
            check_decl(env, elaborate_decl(env, sdecl))
        except IcattError as e:
            out.append((sdecl.name, e.category))
            break
        out.append((sdecl.name, "accepted"))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scaling_scripts_get_their_recorded_verdicts(seed, monkeypatch):
    """Every declaration of the benchmark's ``scaling`` scripts is
    accepted, or rejected with the category its mutant was designed to
    raise, the late-failing mutants included."""
    generate = _load_scaling_generator(monkeypatch)
    for script in generate.scaling_scripts(seed):
        assert run_on_worker_stack(_script_verdicts, script.text) == list(script.expected), script.label


def test_unifier_failure_texts():
    """Each way ``unify_term`` and ``unify_type``, with and without an
    assignment table, fail keeps its text, and the traversals keep
    theirs on what is not a node of the kind they take."""
    from icatt.builtins import id_schema
    from icatt.syntax import Can, Inv, MemoMap, Rec, children, dim_type, identity_sub

    el = Elaborator(Environment())
    x, y = VarRef(Var("x")), VarRef(Var("y"))
    seed = Context(((Var("x"), Obj()),))

    def cell(schema):
        ps, ty = schema
        return Coh(ps, ty, identity_sub(ps))

    def rec(t):
        return Rec(t, x, x, x, x, x, x, identity_sub(seed))

    ident = cell(id_schema(1))
    terms = [
        (cell(comp_schema(2, 1)), ident, "distinct coherence heads"),
        (rec(x), rec(Destr("linv", x)), "distinct recursive definitions"),
        (ident, Destr("linv", x), "terms do not unify"),
        (Destr("linv", x), Destr("rinv", x), "terms do not unify"),
        (x, y, "terms do not unify"),
        (Can(ident, ((Var("x"), x),)), Can(ident, ()), "terms do not unify"),
    ]
    for a, b, text in terms:
        with pytest.raises(UnificationFailure) as info:
            el.unify_term(a, b)
        assert str(info.value) == f"{text} [unification]"
    arr = Arr(Obj(), x, x)
    for a, b in [(Obj(), arr), (arr, Inv(arr, y)), (Inv(arr, y), Obj())]:
        for fail in (lambda: el.unify_type(a, b), lambda: el.unify_type(a, b, assign={})):
            with pytest.raises(UnificationFailure) as info:
                fail()
            assert str(info.value) == "types do not unify [unification]"
    # same heads unify position by position
    m = el.metas.fresh("m")
    el.unify_term(Destr("linv", m), Destr("linv", x))
    el.unify_type(Inv(Arr(Obj(), y, y), y), Inv(Arr(Obj(), y, y), y))
    assert el.resolve(m) is x
    for fail, arg, text in [
        (children, Obj(), "not a term: Obj()"),
        (MemoMap().type, x, "not a type: VarRef(var=Var(name='x'))"),
        (dim_type, x, "not a type: VarRef(var=Var(name='x'))"),
    ]:
        with pytest.raises(TypeError) as info:
            fail(arg)
        assert str(info.value) == text


def test_closed_sides_that_clash_unify_up_to_conversion():
    """A body whose type differs from the declared one only up to
    beta-reduction is accepted: ``linv (can (id x { }))`` reduces to
    ``id x``, and the elaborator settles a clash of two closed sides by
    the kernel's conversion, as the kernel does."""
    env = Environment()
    (sdecl,) = parse("let c (x : *) : linv (can (id x { })) -> linv (can (id x { })) = id (id x)\n")
    check_decl(env, elaborate_decl(env, sdecl))
    assert isinstance(env.lookup("c"), TermDecl)
