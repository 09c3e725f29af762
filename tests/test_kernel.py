"""Kernel judgments: contexts, types, terms, substitutions, pasting
recognition and fullness, conversion, environment."""

import gc
import itertools
import random
import sys
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from icatt import elaborate, kernel, syntax
from icatt.builtins import comp_of, comp_schema, id_of
from icatt.elaborate import elaborate_decl
from icatt.errors import (
    BadSubstitution,
    DuplicateVariable,
    IcattError,
    IllFormedType,
    NotFull,
    NotPasting,
    ShadowedName,
    TypeMismatch,
    UnboundVariable,
    WrongWitnessSet,
)
from icatt.kernel import (
    CohDecl,
    Environment,
    RecDecl,
    TermDecl,
    check_ctx,
    check_decl,
    check_ps,
    check_sub,
    check_term,
    check_type,
    convertible,
    infer_term,
)
from icatt.meta import disk, walking_equiv
from icatt.normalize import eta_expand_once
from icatt.parser import parse
from icatt.syntax import (
    DESTRUCTORS,
    Arr,
    alpha_eq_term,
    Can,
    Coh,
    Coind,
    Context,
    Destr,
    Inv,
    Obj,
    Rec,
    Substitution,
    Var,
    VarRef,
    alpha_key_context,
    alpha_key_term,
    apply_sub_type,
    coh_head_key,
    identity_sub,
    rename_vars_term,
    rename_vars_type,
    subterms,
)

import fresh
from oracles import check_sub_by_instantiation, full_type


def arr0(s, t):
    return Arr(Obj(), VarRef(Var(s)), VarRef(Var(t)))


def v(name):
    return VarRef(Var(name))


TWO_CHAIN = Context((
    (Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y")),
    (Var("z"), Obj()), (Var("g"), arr0("y", "z")),
))

GLOBULAR = Context((
    (Var("x"), Obj()), (Var("y"), Obj()),
    (Var("f"), arr0("x", "y")), (Var("g"), arr0("x", "y")),
    (Var("a"), Arr(arr0("x", "y"), v("f"), v("g"))),
    (Var("h"), arr0("x", "x")),
))

PASTING_2 = Context((
    (Var("x"), Obj()), (Var("y"), Obj()),
    (Var("f"), arr0("x", "y")), (Var("g"), arr0("x", "y")),
    (Var("a"), Arr(arr0("x", "y"), v("f"), v("g"))),
    (Var("z"), Obj()), (Var("h"), arr0("y", "z")),
))


# -- contexts ----------------------------------------------------------------


def test_empty_context_ok():
    check_ctx(Context())


def test_globular_context_ok():
    check_ctx(GLOBULAR)


def test_duplicate_variable_rejected():
    with pytest.raises(DuplicateVariable):
        check_ctx(Context(((Var("x"), Obj()), (Var("x"), Obj()))))


def test_one_pass_context_check_keeps_scoping():
    """Each entry's type is checked over the whole context, so only the
    scope check stops an entry from using a later or missing variable,
    and a repeated name is still rejected before its type is looked at."""
    forward = Context(((Var("f"), arr0("x", "y")), (Var("x"), Obj()), (Var("y"), Obj())))
    for ctx in (forward, Context(((Var("x"), Obj()), (Var("f"), arr0("x", "z"))))):
        with pytest.raises(UnboundVariable) as exc:
            check_ctx(ctx)
        assert exc.value.category == "unbound-variable"
    repeated = Context((
        (Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y")),
        (Var("x"), arr0("y", "y")),
    ))
    with pytest.raises(DuplicateVariable) as exc:
        check_ctx(repeated)
    assert exc.value.category == "duplicate-variable"
    with pytest.raises(UnboundVariable):
        infer_term(forward, Coh(forward, arr0("x", "y"), identity_sub(forward)))


# -- types -------------------------------------------------------------------


def test_obj_always_checks():
    check_type(TWO_CHAIN, Obj())


def test_arrow_endpoint_mismatch():
    with pytest.raises(IllFormedType):
        check_type(TWO_CHAIN, Arr(Obj(), v("x"), v("f")))


def test_inv_over_object_rejected():
    with pytest.raises(IllFormedType):
        check_type(TWO_CHAIN, Inv(Obj(), v("x")))


def test_inv_over_disk_ok():
    d1 = disk(1)
    check_type(d1, Inv(arr0("d0-", "d0+"), v("d1")))


# -- pasting diagrams ---------------------------------------------------------


def test_single_object_is_pasting():
    ps = check_ps(Context(((Var("x"), Obj()),)))
    assert ps.dim == 0


def test_pasting_example_sources_targets():
    ps = check_ps(PASTING_2)
    positive_src = set(ps.source_vars(1)) | set(ps.source_vars(2))
    positive_tgt = set(ps.target_vars(1)) | set(ps.target_vars(2))
    assert positive_src == {"f", "a", "h"}
    assert positive_tgt == {"g", "a", "h"}


def test_globular_context_not_pasting():
    with pytest.raises(NotPasting):
        check_ps(GLOBULAR)


def _ps_oracle_contexts(max_entries: int):
    """All pasting contexts with at most max_entries entries, derived
    directly by the four inference rules (up to alpha)."""
    out = {}
    fresh = itertools.count()

    def note(entries):
        ctx = Context(tuple(entries))
        out.setdefault(alpha_key_context(ctx), ctx)

    def explore(entries, focus_var, focus_ty):
        note(entries)
        if len(entries) + 2 <= max_entries:
            y = Var(f"v{next(fresh)}")
            f = Var(f"v{next(fresh)}")
            new = entries + [(y, focus_ty), (f, Arr(focus_ty, VarRef(focus_var), VarRef(y)))]
            explore(new, f, new[-1][1])
        if isinstance(focus_ty, Arr):
            explore(entries, focus_ty.tgt.var, focus_ty.base)

    x0 = Var(f"v{next(fresh)}")
    explore([(x0, Obj())], x0, Obj())
    return out


def test_check_ps_matches_rule_oracle():
    oracle = _ps_oracle_contexts(7)
    assert len(oracle) > 5
    for key, ctx in oracle.items():
        assert check_ps(ctx).ctx is ctx
    # mutations of derivable contexts must be rejected unless they are
    # themselves derivable
    for ctx in list(oracle.values()):
        entries = list(ctx.entries)
        if len(entries) < 3:
            continue
        for i, j in [(1, 2), (0, len(entries) - 1)]:
            swapped = entries[:]
            swapped[i], swapped[j] = swapped[j], swapped[i]
            mutated = Context(tuple(swapped))
            key = alpha_key_context(mutated)
            if key in oracle:
                check_ps(mutated)
            else:
                with pytest.raises(NotPasting):
                    check_ps(mutated)


# -- fullness ------------------------------------------------------------------


def test_composite_type_is_full():
    ps = check_ps(TWO_CHAIN)
    assert full_type(ps, arr0("x", "z"))
    assert not full_type(ps, arr0("x", "y"))


def test_identity_type_is_full():
    ps = check_ps(Context(((Var("x"), Obj()),)))
    assert full_type(ps, arr0("x", "x"))


def test_full_type_needs_arrow():
    ps = check_ps(TWO_CHAIN)
    with pytest.raises(NotFull):
        full_type(ps, Obj())


# -- term inference -------------------------------------------------------------


def test_comp_infers_endpoints():
    cell, ty = comp_of([(v("f"), arr0("x", "y")), (v("g"), arr0("y", "z"))])
    assert infer_term(TWO_CHAIN, cell) == arr0("x", "z")


def test_coherence_over_non_pasting_rejected():
    bad = Coh(GLOBULAR, arr0("x", "y"), identity_sub(GLOBULAR))
    with pytest.raises(NotPasting):
        infer_term(GLOBULAR, bad)


def test_non_full_coherence_rejected():
    bad = Coh(TWO_CHAIN, arr0("x", "y"), identity_sub(TWO_CHAIN))
    with pytest.raises(NotFull):
        infer_term(TWO_CHAIN, bad)


def test_destructor_table_over_walking_equiv():
    e1 = walking_equiv(1)
    e = v("e1")
    lu = infer_term(e1, Destr("lunit", e))
    assert isinstance(lu, Arr)
    left, _ = comp_of([(Destr("linv", e), arr0("d0+", "d0-")), (v("d1"), arr0("d0-", "d0+"))])
    assert lu.src == left
    assert lu.tgt == id_of(v("d0+"), Obj())
    assert infer_term(e1, Destr("lwit", e)) == Inv(lu, Destr("lunit", e))


def test_coind_premises_checked():
    e1 = walking_equiv(1)
    good = eta_expand_once(v("e1"), v("d1"))
    assert isinstance(infer_term(e1, good), Inv)
    bad = Coind(v("d1"), v("d1"), good.tr, good.tlu, good.tru, good.tilu, good.tiru)
    with pytest.raises(TypeMismatch):
        infer_term(e1, bad)


def test_can_wrong_witness_set():
    ctx = Context(TWO_CHAIN.entries + (
        (Var("ef"), Inv(arr0("x", "y"), v("f"))),
    ))
    cell, _ = comp_of([(v("f"), arr0("x", "y")), (v("g"), arr0("y", "z"))])
    with pytest.raises(WrongWitnessSet):
        infer_term(ctx, Can(cell, ((Var("f1"), v("ef")),)))


# -- substitutions ---------------------------------------------------------------


def test_empty_sub_into_empty():
    check_sub(TWO_CHAIN, Substitution((), Context()), Context())


def test_gamma0_checks():
    e1 = walking_equiv(1)
    e10 = Context(((Var("x"), Obj()), (Var("y"), Obj())))
    gamma0 = Substitution(((Var("x"), v("d0-")), (Var("y"), v("d0+"))), e10)
    check_sub(e1, gamma0, e10)


def test_swapped_assignments_rejected():
    cod = Context(((Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y"))))
    bad = Substitution(
        ((Var("x"), v("y")), (Var("y"), v("x")), (Var("f"), v("f"))), cod
    )
    with pytest.raises(BadSubstitution):
        check_sub(TWO_CHAIN, bad, cod)


# -- conversion --------------------------------------------------------------------


def test_convertible_reflexive():
    assert convertible(v("f"), v("f"))


def test_beta_rule_is_conversion():
    tup = eta_expand_once(v("e1"), v("d1"))
    assert convertible(Destr("linv", tup), tup.tl)


def test_distinct_normal_forms_not_convertible():
    idx = id_of(v("x"), Obj())
    two = comp_of([(idx, arr0("x", "x")), (idx, arr0("x", "x"))])[0]
    assert not convertible(idx, two)


# -- environment ---------------------------------------------------------------------


def test_check_decl_and_shadowing():
    env = Environment()
    decl = CohDecl("idcoh", Context(((Var("x"), Obj()),)), arr0("x", "x"))
    check_decl(env, decl)
    with pytest.raises(ShadowedName):
        check_decl(env, decl)


def test_term_decl_recheck():
    env = Environment()
    ctx = Context(((Var("x"), Obj()),))
    idx = id_of(v("x"), Obj())
    check_decl(env, TermDecl("idx", ctx, idx, arr0("x", "x")))
    with pytest.raises(TypeMismatch):
        check_decl(env, TermDecl("bad", ctx, idx, Obj()))


def test_term_dimension():
    from oracles import term_dimension

    assert term_dimension(TWO_CHAIN, v("x")) == 0
    assert term_dimension(TWO_CHAIN, v("f")) == 1
    cell, _ = comp_of([(v("f"), arr0("x", "y")), (v("g"), arr0("y", "z"))])
    assert term_dimension(TWO_CHAIN, cell) == 1


def test_convertible_infers_kind_when_unannotated():
    tup = eta_expand_once(v("e1"), v("d1"))
    assert convertible(tup, tup)
    assert convertible(v("d1"), v("d1"))


def test_check_term_converts_across_beta():
    """Declared and inferred types that differ by a destructor redex are
    identified by conversion."""
    from icatt.builtins import id_of

    e1 = walking_equiv(1)
    tup = eta_expand_once(v("e1"), v("d1"))
    declared = Arr(arr0("d0+", "d0-"), Destr("linv", tup), Destr("linv", v("e1")))
    term = id_of(Destr("linv", v("e1")), arr0("d0+", "d0-"))
    inferred = infer_term(e1, term)
    assert not alpha_eq_term(inferred.src, declared.src)
    check_term(e1, term, declared)


# -- checking once per head ----------------------------------------------------


def _in_fresh_interpreter(body):
    """Run ``body``, a function of this module, in a new interpreter with
    the suite's recursion limit, where no node, and so no fact the
    kernel keeps on one, is left from earlier tests."""
    code = f"import sys; sys.path.insert(0, 'tests'); import conftest, test_kernel; test_kernel.{body.__name__}()"
    out = fresh.run("-c", code)
    assert out.returncode == 0, out.stderr


def _verdict(ctx, t):
    """The type of ``t`` over ``ctx``, or the category of its rejection."""
    try:
        return infer_term(ctx, t)
    except IcattError as exc:
        return exc.category


def _chain_ctx(names):
    x, y, f, z, g = names
    return Context((
        (Var(x), Obj()), (Var(y), Obj()), (Var(f), arr0(x, y)),
        (Var(z), Obj()), (Var(g), arr0(y, z)),
    ))


def test_repeated_name_in_head_rejected_cold_and_warm():
    """A pasting context that repeats a name is rejected whether or not
    the same head with a fresh name was inferred first."""
    _in_fresh_interpreter(_repeated_name_in_head)


def _repeated_name_in_head():
    ambient = _chain_ctx("abpcq")

    def cell(ps):
        pairs = tuple((x, v(a)) for (x, _), a in zip(ps, "abpcq"))
        return Coh(ps, arr0("x", "z"), Substitution(pairs, ps))

    cold = _verdict(ambient, cell(_chain_ctx("xyfzf")))
    good = cell(_chain_ctx("xyfzg"))  # held, and so are the facts on its nodes
    assert _verdict(ambient, good) == arr0("a", "c")
    warm = _verdict(ambient, cell(_chain_ctx("xyfzf")))
    assert cold == warm == "duplicate-variable"


def test_repeated_name_in_seed_rejected_cold_and_warm():
    """A recursor over a seed that repeats a name is rejected for the
    repeated name, whether or not the recursor over the fresh seed was
    inferred first, and so is its declaration."""
    _in_fresh_interpreter(_repeated_name_in_seed)


def _repeated_name_in_seed():
    # the corpus recursor linv-inv, elaborated but not yet checked
    env = Environment()
    for sdecl in parse(fresh.CORPUS.read_text(encoding="utf-8")):
        decl = elaborate_decl(env, sdecl)
        if decl.name == "linv-inv":
            break
        check_decl(env, decl)
    seed = decl.seed
    e, inv_ty = seed.entries[-1]
    f = seed.entries[-2][0]
    bad_seed = Context(seed.entries[:-1] + ((f, inv_ty),))
    bad_comps = tuple(rename_vars_term(c, {e.name: f.name}) for c in decl.components)
    pairs = tuple((x, VarRef(y)) for (x, _), (y, _) in zip(bad_seed, seed))
    bad = Rec(*bad_comps, Substitution(pairs, bad_seed))

    cold = _verdict(seed, bad)
    good = Rec(*decl.components, identity_sub(seed))  # held, and so are the facts on its nodes
    assert isinstance(_verdict(seed, good), Inv)
    warm = _verdict(seed, bad)
    assert cold == warm == "duplicate-variable"
    with pytest.raises(DuplicateVariable):
        check_decl(Environment(), RecDecl("bad", bad_seed, bad_comps))


_ABC = ("a", "b", "c")


@st.composite
def _small_ctx(draw, max_len):
    """A context of names from ``a``, ``b``, ``c``, repeats allowed, whose
    types are ``*`` or arrows between earlier objects, described as
    ``(name, None)`` or ``(name, (source, target))`` entries."""
    entries = []
    for _ in range(draw(st.integers(1, max_len))):
        objs = [x for x, ends in entries if ends is None]
        ends = None
        if objs and draw(st.booleans()):
            ends = (draw(st.sampled_from(objs)), draw(st.sampled_from(objs)))
        entries.append((draw(st.sampled_from(_ABC)), ends))
    return tuple(entries)


@st.composite
def _small_cell(draw):
    """A coherence over a small context, of an arrow type of dimension
    0 or 1, whose substitution assigns to each entry's name, or to
    another name, a named variable, described by its context, the
    endpoints of its type and each assigned name with the name of its
    image."""
    ps = draw(_small_ctx(3))
    name = st.sampled_from(_ABC)
    ends = [(draw(name), draw(name))]
    if draw(st.booleans()):
        ends.append((draw(name), draw(name)))
    return ps, tuple(ends), tuple((x if draw(st.booleans()) else draw(name), draw(name)) for x, _ in ps)


def _ctx_of(desc):
    return Context(tuple((Var(x), Obj() if ends is None else arr0(*ends)) for x, ends in desc))


def _cell_of(desc):
    ps_desc, ends, images = desc
    ps = _ctx_of(ps_desc)
    ty = Obj()
    for src, tgt in ends:
        ty = Arr(ty, v(src), v(tgt))
    return Coh(ps, ty, Substitution(tuple((Var(x), v(a)) for x, a in images), ps))


def _verdicts(ambient, cells, order):
    """The verdict on each described cell over the described ambient
    context, built and inferred in ``order`` from syntax made for this
    call (a cell whose substitution cannot be built gets the category of
    that error) and kept as text, so no node of the call outlives it;
    and weak references to the canonical nodes of the cells built and of
    their heads."""
    ctx = _ctx_of(ambient)
    built = {}

    def verdict(i):
        try:
            built[i] = _cell_of(cells[i])
        except IcattError as exc:
            return exc.category
        return _verdict(ctx, built[i])

    verdicts = {i: repr(verdict(i)) for i in order}
    keys = [alpha_key_term(c) for c in built.values()] + [coh_head_key(c.ps, c.ty) for c in built.values()]
    return verdicts, list(map(weakref.ref, keys))


# over (a : *), a cell that assigns z where its pasting context has x,
# after its correctly named twin: bad-substitution cold and warm
_WRONGLY_NAMED = [((("x", None),), (("x", "x"),), (("x", "a"),)), ((("x", None),), (("x", "x"),), (("z", "a"),))]


@settings(max_examples=40, deadline=None)
@given(_small_ctx(3), st.lists(_small_cell(), min_size=1, max_size=6), st.randoms(use_true_random=False))
@example((("a", None),), _WRONGLY_NAMED, random.Random(0))
def test_cold_and_warm_runs_agree(ambient, cells, rng):
    """Inferring cells in a random order, and then in the reverse order
    from syntax built again once every node and canonical node the first
    pass made for a cell or a head is dead, with the facts kept on them,
    gives every cell the same type or the same error category."""
    order = list(range(len(cells)))
    rng.shuffle(order)
    # the nodes alive before the first pass, held so that they stay so
    before = [ref() for ref in syntax._INTERN.values()]
    # the collector then looks only at what the first pass made
    gc.freeze()
    try:
        first, keys = _verdicts(ambient, cells, order)
        gc.collect()
    finally:
        gc.unfreeze()
    known = set(map(id, before))
    assert all(ref() is None or id(ref()) in known for ref in keys)
    second, _ = _verdicts(ambient, cells, order[::-1])
    assert first == second


def _comp_id_chain(depth):
    t = "f"
    for i in range(depth):
        t = f"(comp {t} (id _))" if i % 2 else f"(comp (id _) {t})"
    return f"let d (x : *) (f : x -> x) = {t}\n"


def test_context_checks_once_per_head():
    """Elaborating and checking a depth-200 comp/id chain checks each
    distinct coherence head's context once, and the telescope once, by
    the kernel."""
    _in_fresh_interpreter(_context_checks_once_per_head)


def _context_checks_once_per_head():
    calls = []
    check_ctx_once = kernel.check_ctx

    def counting(ctx):
        calls.append(ctx)
        return check_ctx_once(ctx)

    # wherever it is imported, so a check by any caller is counted
    for mod in [m for n, m in sys.modules.items() if n.startswith("icatt.")]:
        if getattr(mod, "check_ctx", None) is check_ctx_once:
            mod.check_ctx = counting
    env = Environment()
    decl = elaborate_decl(env, parse(_comp_id_chain(200))[0])
    check_decl(env, decl)
    heads = {coh_head_key(c.ps, c.ty) for c in subterms([decl.term]) if isinstance(c, Coh)}
    assert len(heads) == 2
    assert len(calls) <= len(heads) + 1


def test_elaboration_work_on_comp_id_chain(monkeypatch):
    """Elaborating the depth-200 comp/id chain makes at most one
    metavariable per level and raises no error, so it undoes nothing:
    the ``_`` of each ``id _`` is read off its neighbour's boundary.
    The counts repeat exactly."""
    metas, errors = [0], [0]
    make_meta = elaborate._Metas.fresh
    make_error = IcattError.__init__

    def counted_meta(self, hint):
        metas[0] += 1
        return make_meta(self, hint)

    def counted_error(self, *args, **kwargs):
        errors[0] += 1
        make_error(self, *args, **kwargs)

    monkeypatch.setattr(elaborate._Metas, "fresh", counted_meta)
    monkeypatch.setattr(IcattError, "__init__", counted_error)
    counts = []
    for _ in range(2):
        metas[0] = errors[0] = 0
        env = Environment()
        check_decl(env, elaborate_decl(env, parse(_comp_id_chain(200))[0]))
        counts.append((metas[0], errors[0]))
    assert counts[0] == counts[1]
    assert counts[0][0] <= 200
    assert counts[0][1] == 0


def test_instantiated_codomains_agree_with_instantiation(corpus_terms):
    """For every substitution reachable from the checked corpus and from
    the checked canonical components of its ``can``s, each type of the
    instantiated codomain kept on it is the node that instantiating the
    entry's type at the substitution gives, entry by entry."""
    from icatt.inverse import canonical_component

    roots = []
    for _, ctx, term, _ in corpus_terms:
        roots.append(term)
        for can in [s for s in subterms([term]) if isinstance(s, Can)]:
            for kind in DESTRUCTORS:
                component = canonical_component(can, kind)
                infer_term(ctx, component)
                roots.append(component)
    subs = {id(s.sub): s.sub for s in subterms(roots) if isinstance(s, (Coh, Rec))}
    assert len(subs) > 100
    for sub in subs.values():
        at = sub.codomain_types()
        assert len(at) == len(sub.codomain)
        for (_, ty), got in zip(sub.codomain, at):
            assert got is apply_sub_type(ty, sub)


def test_matching_agrees_with_instantiation(corpus_terms):
    """For every substitution reachable from the checked corpus and from
    the checked canonical components of its ``can``s, and for the cone
    substitutions into the walking equivalence's truncations (whose entry
    types hold terms other than variables), matching each codomain
    entry's type against the type of each image of the substitution
    gives the verdict of converting it with the entry's type
    instantiated: true for the entry's own image, and false for most
    others."""
    from icatt.equiv import gamma_sub
    from icatt.inverse import canonical_component

    roots = []
    for _, ctx, term, _ in corpus_terms:
        roots.append((ctx, term))
        for can in [s for s in subterms([term]) if isinstance(s, Can)]:
            for kind in DESTRUCTORS:
                component = canonical_component(can, kind)
                infer_term(ctx, component)
                roots.append((ctx, component))
    subs = {}
    for ctx, root in roots:
        for s in subterms([root]):
            if isinstance(s, (Coh, Rec)):
                subs[id(s.sub)] = (ctx, s.sub)
    subs = list(subs.values())
    assert len(subs) > 100
    subs += [(walking_equiv(1), gamma_sub(n)) for n in (2, 3)]
    verdicts = set()
    for ctx, sub in subs:
        inst = kernel._Instantiate(sub)
        actuals = [infer_term(ctx, t) for t in sub.terms()]
        for i, (_, v_ty) in enumerate(sub.codomain):
            expected = apply_sub_type(v_ty, sub)
            for j, actual in enumerate(actuals):
                verdict = kernel._fits(inst, v_ty, actual)
                assert verdict == kernel.convertible_types(ctx, actual, expected)
                assert verdict or i != j
                verdicts.add(verdict)
    assert verdicts == {True, False}


def _fg():
    """The composite of ``f`` and ``g`` of ``TWO_CHAIN``."""
    return comp_of([(v("f"), arr0("x", "y")), (v("g"), arr0("y", "z"))])[0]


# TWO_CHAIN with a 2-cell from the composite of f and g to h: the type of
# a holds a term that is not a variable
COMPOSED = Context(TWO_CHAIN.entries + (
    (Var("h"), arr0("x", "z")),
    (Var("a"), Arr(arr0("x", "z"), _fg(), v("h"))),
))
# COMPOSED with a second arrow from y to z and a second 2-cell, over
# which substitutions into COMPOSED live
COMPOSED_AMBIENT = Context(COMPOSED.entries + (
    (Var("g2"), arr0("y", "z")),
    (Var("k"), arr0("x", "z")),
    (Var("b"), Arr(arr0("x", "z"), _fg(), v("k"))),
))
# the images drawn: the variables of COMPOSED_AMBIENT, then the composite
_IMAGES = [VarRef(x) for x in COMPOSED_AMBIENT.vars()] + [_fg()]


def _check_outcome(check, ctx, sub, cod):
    try:
        check(ctx, sub, cod)
    except IcattError as e:
        return type(e), str(e)
    return "accepted"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(0, len(_IMAGES) - 1)), min_size=7, max_size=7))
@example([None] * 7)  # the identity: accepted
@example([1, 0] + [None] * 5)  # x and y swapped: f's image has the wrong type
@example([None] * 4 + [7, None, None])  # g to g2: a's type is not its image's
@example([None] * 5 + [8, 9])  # h to k and a to b: accepted
def test_check_sub_diagnoses_as_instantiation(choice):
    """A substitution into COMPOSED, each image the identity's (None) or
    one drawn, gets the verdict and the diagnostic, byte for byte, of
    instantiating each entry's type and converting."""
    pairs = tuple(
        (x, VarRef(x) if i is None else _IMAGES[i]) for x, i in zip(COMPOSED.vars(), choice)
    )
    sub = Substitution(pairs, COMPOSED)
    assert _check_outcome(check_sub, COMPOSED_AMBIENT, sub, COMPOSED) == _check_outcome(
        check_sub_by_instantiation, COMPOSED_AMBIENT, sub, COMPOSED
    )


def test_bad_substitution_text():
    """The diagnostics of a wrong image, for an entry type of variables
    and for one holding a composite."""
    pairs = identity_sub(COMPOSED).pairs
    swapped = Substitution(((Var("x"), v("y")), (Var("y"), v("x"))) + pairs[2:], COMPOSED)
    to_g2 = Substitution(pairs[:4] + ((Var("g"), v("g2")),) + pairs[5:], COMPOSED)
    texts = []
    for sub in (swapped, to_g2):
        with pytest.raises(BadSubstitution) as exc:
            check_sub(COMPOSED_AMBIENT, sub, COMPOSED)
        texts.append(str(exc.value))
    assert texts == [
        "image of f has type x -> y, expected y -> x [bad-substitution]",
        "image of a has type comp f g -> h, expected comp f g2 -> h [bad-substitution]",
    ]


def test_substitution_structure_texts_cold_and_warm():
    """The diagnostics of a substitution that assigns the wrong name or
    too many names, which cannot be built, and of one onto the wrong
    codomain, byte for byte: cold, and again after the cell of a correct
    twin was inferred."""
    _in_fresh_interpreter(_substitution_structure_texts)


def _substitution_structure_texts():
    x, y, z = Var("x"), Var("y"), Var("z")
    ps = Context(((x, Obj()),))
    ambient = Context(((x, Obj()), (z, Obj())))
    loop = arr0("x", "x")
    misnamed = [((z, v("x")),), ((x, v("x")), (z, v("z")))]
    wrong_codomain = Substitution(((y, v("x")),), Context(((y, Obj()),)))
    want = [
        "substitution assigns z where x was expected [bad-substitution]",
        "substitution has 2 assignments for 1 variables [bad-substitution]",
        "substitution codomain does not match [bad-substitution]",
    ]

    def texts():
        out = []
        for pairs in misnamed:
            with pytest.raises(BadSubstitution) as exc:
                Substitution(pairs, ps)
            out.append(str(exc.value))
        with pytest.raises(BadSubstitution) as exc:
            check_sub(ambient, wrong_codomain, ps)
        out.append(str(exc.value))
        return out

    assert texts() == want
    twin = Substitution(((x, v("z")),), ps)
    assert infer_term(ambient, Coh(ps, loop, twin)) == arr0("z", "z")
    assert texts() == want
    with pytest.raises(BadSubstitution):
        infer_term(ambient, Coh(ps, loop, wrong_codomain))


def test_a_codomain_ordering_its_names_otherwise_is_refused():
    """A substitution onto an alpha-equivalent pasting context that
    orders the same names otherwise is refused at its first misplaced
    name: its images follow its codomain's order, not the cell's."""
    ps = Context(((Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y"))))
    flipped = Context(((Var("y"), Obj()), (Var("x"), Obj()), (Var("f"), arr0("y", "x"))))
    ambient = Context(((Var("a"), Obj()), (Var("b"), Obj()), (Var("g"), arr0("a", "b"))))
    sub = Substitution(((Var("y"), v("a")), (Var("x"), v("b")), (Var("f"), v("g"))), flipped)
    with pytest.raises(BadSubstitution) as exc:
        infer_term(ambient, Coh(ps, Arr(arr0("x", "y"), v("f"), v("f")), sub))
    assert str(exc.value) == "substitution assigns y where x was expected [bad-substitution]"


def test_recursor_bodies_check_once_per_head():
    """Checking the corpus infers recursors 7 times, over 3 canonical
    heads, and checks each head's body once."""
    _in_fresh_interpreter(_recursor_bodies_check_once_per_head)


def _counting_rec_bodies() -> tuple[list, list]:
    bodies, inferences = [], []
    check_body, infer_rec = kernel._check_rec_body, kernel._infer_rec

    def counting_body(seed, t):
        bodies.append(t)  # held, so no head is rebuilt as a new node
        return check_body(seed, t)

    def counting_rec(ctx, t):
        inferences.append(t)
        return infer_rec(ctx, t)

    kernel._check_rec_body, kernel._infer_rec = counting_body, counting_rec
    return bodies, inferences


def _recursor_bodies_check_once_per_head():
    bodies, inferences = _counting_rec_bodies()
    env = Environment()
    for sdecl in parse(fresh.CORPUS.read_text(encoding="utf-8")):
        check_decl(env, elaborate_decl(env, sdecl))
    assert (len(bodies), len(inferences)) == (3, 7)
    assert len({syntax.rec_head_key(t) for t in inferences}) == 3


def _linv_inv_unchecked():
    """The corpus up to linv-inv checked, and linv-inv elaborated."""
    env = Environment()
    for sdecl in parse(fresh.CORPUS.read_text(encoding="utf-8")):
        decl = elaborate_decl(env, sdecl)
        if decl.name == "linv-inv":
            return decl
        check_decl(env, decl)


def _renamed_rec(seed, comps, tag):
    """The recursor over ``seed`` with ``comps``, its seed's names renamed
    apart by ``tag``."""
    ren = {x.name: f"{x.name}.{tag}" for x, _ in seed}
    renamed = Context(tuple((Var(ren[x.name]), rename_vars_type(ty, ren)) for x, ty in seed))
    return Rec(*(rename_vars_term(c, ren) for c in comps), identity_sub(renamed))


def test_alpha_renamed_recursors_share_one_body_check():
    """Two copies of linv-inv with their seeds renamed apart have one
    canonical head, and inferring both checks its body once."""
    _in_fresh_interpreter(_alpha_renamed_recursors_share_one_body_check)


def _alpha_renamed_recursors_share_one_body_check():
    decl = _linv_inv_unchecked()
    bodies, _ = _counting_rec_bodies()
    copies = [_renamed_rec(decl.seed, decl.components, tag) for tag in "ab"]
    assert copies[0] is not copies[1]
    assert syntax.rec_head_key(copies[0]) is syntax.rec_head_key(copies[1])
    for r in copies:
        assert isinstance(infer_term(r.sub.codomain, r), Inv)
    assert len(bodies) == 1


def test_failing_recursor_body_fails_on_every_use():
    """A recursor whose body does not check is never remembered: each use
    raises the same category, before and after its well-typed twin and an
    alpha-renamed copy of it are inferred."""
    _in_fresh_interpreter(_failing_recursor_body_fails_on_every_use)


def _failing_recursor_body_fails_on_every_use():
    decl = _linv_inv_unchecked()
    t, _, *rest = decl.components
    bad_comps = (t, t, *rest)  # the left inverse of f : x -> y must go y -> x
    bad = Rec(*bad_comps, identity_sub(decl.seed))
    cold = _verdict(decl.seed, bad)
    good = Rec(*decl.components, identity_sub(decl.seed))  # held, and so are the facts on its nodes
    assert isinstance(_verdict(decl.seed, good), Inv)
    copy = _renamed_rec(decl.seed, bad_comps, "a")
    assert syntax.rec_head_key(copy) is syntax.rec_head_key(bad)
    warm = [_verdict(decl.seed, bad), _verdict(copy.sub.codomain, copy), _verdict(decl.seed, bad)]
    assert cold == "type-mismatch" and warm == [cold] * 3


def test_checking_the_corpus_instantiates_no_codomain():
    """Checking the corpus and the depth-2000 comp/id chain decides each
    substitution entry by matching its codomain type against the image's
    type: though substitutions are checked again and again, no codomain
    is instantiated, in one pass or entry by entry, and no entry's type
    holds a term other than a variable, which would be instantiated."""
    _in_fresh_interpreter(_checking_the_corpus_instantiates_no_codomain)


def _checking_the_corpus_instantiates_no_codomain():
    made, checks, alone, rebuilt = [], [0], [], []
    codomain_types, check_sub_once = Substitution.codomain_types, kernel.check_sub

    def counting_codomain(sub):
        if sub._fact is None:
            made.append(sub)  # held, so no node is rebuilt as a new one
        return codomain_types(sub)

    def counting_check(*args):
        checks[0] += 1
        return check_sub_once(*args)

    def counting_entry(ty, sub):
        if any(ty is e for _, e in sub.codomain):
            alone.append((ty, sub))
        return apply_sub_type(ty, sub)

    class CountingPass(kernel._Instantiate):
        __slots__ = ()

        def rebuild(self, t):
            rebuilt.append(t)
            return super().rebuild(t)

    Substitution.codomain_types = counting_codomain
    kernel.check_sub = counting_check
    kernel.apply_sub_type = syntax.apply_sub_type = counting_entry
    kernel._Instantiate = CountingPass
    env = Environment()
    for sdecl in parse(fresh.CORPUS.read_text(encoding="utf-8")):
        check_decl(env, elaborate_decl(env, sdecl))
    chain = Environment()
    check_decl(chain, elaborate_decl(chain, parse(_comp_id_chain(2000))[0]))
    assert checks[0] > 2000
    assert made == [] and alone == [] and rebuilt == []


def test_checking_the_corpus_reads_images_by_position():
    """Checking the corpus reads the image of each variable of a
    codomain entry's type by the variable's position in the codomain:
    ``check_sub`` itself, leaving out the inference of each image, makes
    no ``Substitution.get`` call."""
    _in_fresh_interpreter(_checking_the_corpus_reads_images_by_position)


def _checking_the_corpus_reads_images_by_position():
    # whether the innermost traced call is check_sub's own work
    inside, gets, checks = [False], [0], [0]
    get, check_sub_once, infer_once = Substitution.get, kernel.check_sub, kernel.infer_term

    def counting_get(sub, name):
        gets[0] += inside[-1]
        return get(sub, name)

    def marking(fn, own):
        def marked(*args):
            checks[0] += own
            inside.append(own)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return marked

    Substitution.get = counting_get
    kernel.check_sub = marking(check_sub_once, True)
    kernel.infer_term = marking(infer_once, False)
    env = Environment()
    for sdecl in parse(fresh.CORPUS.read_text(encoding="utf-8")):
        check_decl(env, elaborate_decl(env, sdecl))
    assert checks[0] > 100
    assert gets[0] == 0


def test_context_check_keys_linearly():
    """Checking a composite's head keys its pasting context in one pass:
    doubling the arity of the composite about doubles the nodes built
    while checking it, where keying every prefix afresh would quadruple
    them."""
    _in_fresh_interpreter(_context_check_keys_linearly)


def _context_check_keys_linearly():
    built = []
    cons = syntax._cons

    def counting(cls, is_open, *fields):
        built.append(cls)
        return cons(cls, is_open, *fields)

    counts = []
    for k in (64, 128):
        ps, ty = comp_schema(k, 1)
        syntax._cons = counting
        built.clear()
        kernel.check_coh_head(ps, ty)
        syntax._cons = cons
        counts.append(len(built))
    assert 0 < counts[0] and counts[1] <= 2.5 * counts[0]


def test_non_full_head_fails_on_every_use():
    """A failing head is never remembered: each use raises again, and a
    declared coherence keeps its name in the diagnostic."""
    env = Environment()
    script = "coh bad1 (x(f)y(g)z) : x -> y\ncoh bad2 (x(f)y(g)z) : x -> y\n"
    for sdecl in parse(script):
        with pytest.raises(NotFull, match=f"^coherence {sdecl.name}: "):
            check_decl(env, elaborate_decl(env, sdecl))
    bad = Coh(TWO_CHAIN, arr0("x", "y"), identity_sub(TWO_CHAIN))
    for _ in range(2):
        with pytest.raises(NotFull):
            infer_term(TWO_CHAIN, bad)


def test_dispatchers_keep_their_fallthrough_texts():
    """Each function that picks its case by a node's class raises the
    same class and text on a value of none of its cases."""
    from icatt.elaborate import Elaborator
    from icatt.errors import IllFormedType, NotCategorical
    from icatt.kernel import _infer_term, check_type
    from icatt.meta import classify_term, classify_type
    from icatt.normalize import nf
    from icatt.parser import SApp, STStar, SVar, SWild
    from icatt.printer import show

    class Odd:
        name = "odd"

        def __repr__(self):
            return "Odd()"

    x = VarRef(Var("x"))
    ctx = Context(((Var("x"), Obj()),))
    el = Elaborator(Environment())
    not_a_type = "not a type: VarRef(var=Var(name='x'))"
    for fail, cls, text in [
        (lambda: check_type(ctx, x), IllFormedType, f"{not_a_type} [ill-formed-type]"),
        (lambda: _infer_term(ctx, Obj()), TypeMismatch, "not a term: Obj() [type-mismatch]"),
        (lambda: check_decl(Environment(), Odd()), TypeMismatch, "unknown declaration Odd() [type-mismatch]"),
        (lambda: el.elab_infer(SApp(SWild(), ())), TypeMismatch,
         "cannot elaborate SApp(head=SWild(span=(0, 0)), args=(), span=(0, 0)) [type-mismatch]"),
        (lambda: el.elab_infer(STStar()), TypeMismatch, "cannot elaborate STStar(span=(0, 0)) [type-mismatch]"),
        (lambda: el.elab_type(SVar("x")), TypeMismatch,
         "not a surface type: SVar(name='x', span=(0, 0)) [type-mismatch]"),
        (lambda: nf(Inv(Arr(Obj(), x, x), x)), NotCategorical,
         "normal forms are defined for categorical entities only [not-categorical]"),
        (lambda: classify_type(x), TypeError, not_a_type),
        (lambda: classify_term(x, x), TypeError, not_a_type),
        (lambda: show(Var("x")), TypeError, "cannot print Var(name='x')"),
    ]:
        with pytest.raises(cls) as info:
            fail()
        assert type(info.value) is cls and str(info.value) == text
