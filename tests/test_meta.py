"""Meta-operations: suspension, opposites, disks/spheres, classifiers,
the inductive extension of the walking equivalence."""

import json

import pytest

from icatt.builtins import comp_of, id_of
from icatt.errors import OppositeOnInv
from icatt.kernel import check_ctx, check_ps, check_sub, infer_term
from icatt.meta import (
    classify_term,
    classify_type,
    disk,
    equiv_display,
    equiv_ind_context,
    instantiation,
    opposite_context,
    opposite_term,
    opposite_type,
    sphere,
    sphere_inclusion,
    suspend_context,
    suspend_judgment,
    to_ps_order,
    walking_equiv,
    wit_classifier,
)
import fresh
from icatt.syntax import (
    Arr,
    Substitution,
    Context,
    Destr,
    Inv,
    Obj,
    Var,
    VarRef,
    alpha_eq_context,
    alpha_eq_term,
    alpha_eq_type,
    alpha_key_sub,
    apply_sub_type,
    compose_sub,
    dim_type,
)


def arr0(s, t):
    return Arr(Obj(), VarRef(Var(s)), VarRef(Var(t)))


def test_disks_are_iterated_suspensions():
    for n in range(4):
        assert alpha_eq_context(suspend_context(disk(n)), disk(n + 1))
        assert alpha_eq_context(suspend_context(sphere(n - 1)), sphere(n))


def test_sphere_minus_one_is_empty():
    assert sphere(-1) == Context()


def test_disk_one_shape():
    d1 = disk(1)
    assert [v.name for v, _ in d1] == ["d0-", "d0+", "d1"]
    assert d1.entries[2][1] == arr0("d0-", "d0+")


def test_sphere_inclusion_forgets_top():
    inc = sphere_inclusion(1)
    assert [v.name for v, _ in inc.pairs] == ["d0-", "d0+"]
    check_sub(disk(1), inc, sphere(0))


def test_suspended_identity_checks():
    ctx = Context(((Var("x"), Obj()),))
    idx = id_of(VarRef(Var("x")), Obj())
    sctx, st, sty = suspend_judgment(ctx, idx, Arr(Obj(), VarRef(Var("x")), VarRef(Var("x"))))
    assert infer_term(sctx, st) == sty
    assert dim_type(sty) == 1  # x -> x one dimension up


def test_suspension_preserves_ps():
    chain = Context((
        (Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y")),
        (Var("z"), Obj()), (Var("g"), arr0("y", "z")),
    ))
    s = suspend_context(chain)
    check_ctx(s)
    assert check_ps(s).dim == 2


def test_suspend_walking_equiv():
    assert alpha_eq_context(suspend_context(walking_equiv(1)), walking_equiv(2))
    assert alpha_eq_context(suspend_context(walking_equiv(2)), walking_equiv(3))


def test_opposite_base_cases():
    assert opposite_type(3, Obj()) == Obj()
    ty = Arr(arr0("x", "y"), VarRef(Var("a")), VarRef(Var("b")))
    flipped = opposite_type(2, ty)
    assert flipped == Arr(arr0("x", "y"), VarRef(Var("b")), VarRef(Var("a")))
    # below the target dimension nothing moves
    assert opposite_type(3, ty) == ty


def test_opposite_context_reorders_to_ps():
    chain = Context((
        (Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y")),
        (Var("z"), Obj()), (Var("g"), arr0("y", "z")),
    ))
    reordered = opposite_context(1, chain)
    assert alpha_eq_context(reordered, chain)  # a reversed chain is a chain
    assert [v.name for v, _ in reordered] == ["z", "y", "g", "x", "f"]
    check_ps(reordered)
    assert reordered.lookup(Var("f")) == arr0("y", "x")


def test_opposite_involution_on_catt():
    chain = Context((
        (Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y")),
        (Var("z"), Obj()), (Var("g"), arr0("y", "z")),
    ))
    cell, ty = comp_of([(VarRef(Var("f")), arr0("x", "y")), (VarRef(Var("g")), arr0("y", "z"))])
    once = opposite_term(1, cell)
    twice = opposite_term(1, once)
    assert alpha_eq_term(twice, cell)


def test_opposite_rejects_inv():
    with pytest.raises(OppositeOnInv):
        opposite_type(1, Inv(arr0("x", "y"), VarRef(Var("f"))))
    with pytest.raises(OppositeOnInv):
        opposite_term(1, Destr("linv", VarRef(Var("e"))))


def test_to_ps_order_needs_valid_shape():
    from icatt.errors import NotPasting

    entries = ((Var("x"), Obj()), (Var("y"), Obj()))
    with pytest.raises(NotPasting):
        to_ps_order(entries)  # two roots


def test_classify_obj_is_empty():
    chi = classify_type(Obj())
    assert chi.pairs == ()
    assert chi.codomain == sphere(-1)


def test_classify_arrow_one_unfold():
    chi = classify_type(arr0("u", "v"))
    assert [(v.name, t.var.name) for v, t in chi.pairs] == [("d0-", "u"), ("d0+", "v")]


def test_classify_inv_extends_disk():
    e1 = walking_equiv(1)
    inv_ty = e1.entries[-1][1]
    chi = classify_type(inv_ty)
    assert chi.codomain == disk(1)
    assert chi.pairs[-1][0].name == "d1"


def test_classify_term_smallest_case():
    ctx = Context(((Var("x"), Obj()),))
    chi = classify_term(VarRef(Var("x")), Obj())
    assert [(v.name, t.var.name) for v, t in chi.pairs] == [("d0", "x")]
    check_sub(ctx, chi, disk(0))


def test_classify_inv_term_ends_with_equiv_var():
    e1 = walking_equiv(1)
    inv_ty = e1.entries[-1][1]
    chi = classify_term(VarRef(Var("e1")), inv_ty)
    assert chi.pairs[-1][0].name == "e1"
    check_sub(e1, chi, walking_equiv(1))


def test_classifier_display_roundtrip():
    e1 = walking_equiv(1)
    d1 = VarRef(Var("d1"))
    arrty = arr0("d0-", "d0+")
    chi_t = classify_term(d1, arrty)
    assert alpha_key_sub(compose_sub(sphere_inclusion(1), chi_t)) == alpha_key_sub(classify_type(arrty))
    inv_ty = Inv(arrty, d1)
    chi_e = classify_term(VarRef(Var("e1")), inv_ty)
    assert alpha_key_sub(compose_sub(equiv_display(1), chi_e)) == alpha_key_sub(classify_type(inv_ty))


def test_wit_classifier_types():
    e1 = walking_equiv(1)
    chi = wit_classifier(e1, "lwit")
    check_sub(e1, chi, walking_equiv(2))
    assert chi.pairs[-1][1] == Destr("lwit", VarRef(Var("e1")))


def test_equiv_ind_context_shape():
    e1 = walking_equiv(1)
    d1 = VarRef(Var("d1"))
    arrty = arr0("d0-", "d0+")
    ind, hm, hp = equiv_ind_context(e1, d1, arrty)
    check_ctx(ind)
    assert len(ind) == len(e1) + 2
    # for the top cell itself, the left hypothesis is an invertibility
    # structure on the left cancellation cell of the generic structure
    hm_ty = ind.lookup(hm)
    assert isinstance(hm_ty, Inv)
    assert hm_ty.subject == Destr("lunit", VarRef(Var("e1")))


def test_instantiation_restricts_to_identity():
    e1 = walking_equiv(1)
    d1 = VarRef(Var("d1"))
    arrty = arr0("d0-", "d0+")
    from icatt.normalize import eta_expand_once

    r = eta_expand_once(VarRef(Var("e1")), d1)
    inst = instantiation(e1, r, d1, arrty)
    for (v, t), (w, _) in zip(inst.pairs[: len(e1)], e1):
        assert v.name == w.name and t == VarRef(w)
    check_sub(e1, inst, inst.codomain)


def test_instantiation_images_have_hypothesis_types():
    e1 = walking_equiv(1)
    d1 = VarRef(Var("d1"))
    arrty = arr0("d0-", "d0+")
    from icatt.normalize import eta_expand_once

    r = eta_expand_once(VarRef(Var("e1")), d1)
    ind, hm, hp = equiv_ind_context(e1, d1, arrty)
    inst = instantiation(e1, r, d1, arrty)
    img = dict((v.name, t) for v, t in inst.pairs)
    expected_minus = apply_sub_type(ind.lookup(hm), inst)
    assert alpha_eq_type(infer_term(e1, img["h-"]), expected_minus)


def test_distinguished_context_roles():
    from oracles import distinguished

    eq = distinguished("equiv", 1)
    assert eq.role("top").name == "d1"
    assert eq.role("inv").name == "e1"
    ind = distinguished("equiv-ind", 1, VarRef(Var("d1")), arr0("d0-", "d0+"))
    assert ind.role("hyp-left").name == "h-"
    assert len(ind.body) == len(eq.body) + 2
    assert distinguished("disk", 2).role("top").name == "d2"


def test_opposite_substitution_pointwise():
    from oracles import opposite_sub

    chain = Context((
        (Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y")),
    ))
    sub = Substitution(
        ((Var("x"), VarRef(Var("b"))), (Var("y"), VarRef(Var("a"))),
         (Var("f"), VarRef(Var("g")))),
        chain,
    )
    out = opposite_sub(1, sub)
    assert [w.name for w, _ in out.pairs] == ["x", "y", "f"]  # order kept
    assert out.codomain.entries[2][1] == arr0("y", "x")  # type flipped


def test_to_ps_order_recovers_shuffled_telescopes():
    """Every pasting context that the rules derive with at most 13
    entries, and three longer chains, come back exactly (names and
    order) from 5 shuffles of their entries; without any one of their
    entries they are no pasting diagram."""
    import random

    from icatt.builtins import chain_context
    from icatt.errors import NotPasting
    from test_kernel import _ps_oracle_contexts

    oracle = list(_ps_oracle_contexts(13).values())
    assert len(oracle) == 197  # the Catalan numbers C_0 + ... + C_6
    chains = [chain_context(k, dim) for k, dim in [(3, 3), (5, 2), (4, 1)]]
    rng = random.Random(0)
    for ctx in oracle + chains:
        for _ in range(5):
            entries = list(ctx.entries)
            rng.shuffle(entries)
            assert to_ps_order(tuple(entries)).entries == ctx.entries
        for i in range(len(ctx)):
            with pytest.raises(NotPasting):
                to_ps_order(ctx.entries[:i] + ctx.entries[i + 1 :])


def test_opposites_and_suspension_cost_distinct_nodes(monkeypatch):
    """Opposites and suspension are passes over the shared DAG: on the
    doubling chain ``r_i = comp r_(i-1) r_(i-1)`` of depth 16, whose tree
    has 2^17 composites but whose DAG has 17, each builds a number of
    nodes linear in the depth, and the opposite is an involution on the
    nodes themselves."""
    from icatt import syntax

    ty = arr0("x", "x")
    ctx = Context(((Var("x"), Obj()), (Var("f"), ty)))
    depth, r = 16, VarRef(Var("f"))
    for _ in range(depth + 1):
        r, _ = comp_of([(r, ty), (r, ty)])
    cons, built = syntax._cons, []

    def counting(cls, is_open, *fields):
        built.append(cls)
        return cons(cls, is_open, *fields)

    monkeypatch.setattr(syntax, "_cons", counting)
    for run in (lambda: opposite_term(1, r), lambda: suspend_judgment(ctx, r, ty)):
        built.clear()
        run()
        assert len(built) <= 20 * depth
    monkeypatch.setattr(syntax, "_cons", cons)
    assert opposite_term(1, opposite_term(1, r)) is r


# the corpus checked, then every corpus body and coherence cell suspended
# twice, each time with its context: the suspensions of contexts,
# coherence heads and recursors that are built, and the ones met
_SUSPENSIONS_PER_HEAD = """
import json, sys
sys.setrecursionlimit(200_000)
from icatt import meta, syntax as s
from icatt.elaborate import elaborate_decl
from icatt.kernel import CohDecl, Environment, TermDecl, check_decl
from icatt.parser import parse

met, built = [], []
rebuild, keep = meta._Suspension.rebuild, meta.built_on
def counting_rebuild(self, t):
    met.append(t)
    return rebuild(self, t)
def counting_keep(node, key, build):
    def counted():
        built.append(node)
        return build()
    return keep(node, key, counted)
meta._Suspension.rebuild, meta.built_on = counting_rebuild, counting_keep

env, items = Environment(), []
with open("proofs/invertibility.catt", encoding="utf-8") as corpus:
    for sdecl in parse(corpus.read()):
        decl = elaborate_decl(env, sdecl)
        check_decl(env, decl)
        if isinstance(decl, TermDecl):
            items.append((decl.ctx, decl.term, decl.ty))
        elif isinstance(decl, CohDecl):
            items.append((decl.ps, s.Coh(decl.ps, decl.ty, s.identity_sub(decl.ps)), decl.ty))

out, rounds = [], []
for _ in range(2):
    out += [meta.suspend_judgment(*item) for item in items]
    rounds.append(len(built))
kinds = [type(node).__name__ for node in built]
heads = {(t.ty, meta.suspension_base(meta.suspend_context(t.ps))) for t in met if type(t) is s.Coh}
contexts = {ctx for ctx, _, _ in items} | {t.ps for t in met if type(t) is s.Coh}
contexts |= {t.sub.codomain for t in met if type(t) is s.Rec}
recs = {t for t in met if type(t) is s.Rec}
print(json.dumps([rounds, kinds.count("Context"), len(contexts), kinds.count("Arr"), len(heads),
                  kinds.count("Rec"), len(recs), len(built) == len(set(map(id, built)))]))
"""


def test_suspension_keeps_each_head_once():
    """Suspension keeps what it derives from a head on the node it
    suspends: checking the corpus, then suspending every corpus body and
    coherence cell twice, suspends each context, each coherence head and
    each recursor once, and the second round suspends none."""
    out = fresh.run("-c", _SUSPENSIONS_PER_HEAD)
    assert out.returncode == 0, out.stderr
    rounds, contexts, met_contexts, heads, met_heads, recs, met_recs, once = json.loads(out.stdout)
    assert rounds[0] == rounds[1] > 0 and once
    assert (contexts, heads, recs) == (met_contexts, met_heads, met_recs)
