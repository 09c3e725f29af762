"""The rewrite system: beta, guarded eta, normal forms, erasure."""

import pytest

from icatt.builtins import comp_of, id_of
from icatt.errors import NotCategorical
from icatt.inverse import canonical_component
from icatt.kernel import infer_term
from icatt.meta import suspend_judgment, walking_equiv
from icatt.normalize import beta_reduce, beta_step, erase_check, eta_expand_once, nf
from icatt.syntax import (
    Arr,
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
    alpha_eq_term,
    identity_sub,
    subterms,
)


def arr0(s, t):
    return Arr(Obj(), VarRef(Var(s)), VarRef(Var(t)))


def v(name):
    return VarRef(Var(name))


E1 = walking_equiv(1)


def _coind():
    return eta_expand_once(v("e1"), v("d1"))


def test_beta_projects_coind_components():
    tup = _coind()
    mapping = {
        "linv": tup.tl, "rinv": tup.tr, "lunit": tup.tlu,
        "runit": tup.tru, "lwit": tup.tilu, "rwit": tup.tiru,
    }
    for kind, comp in mapping.items():
        assert beta_step(Destr(kind, tup)) == comp


def test_beta_normal_term_is_fixpoint():
    t = Destr("linv", v("e1"))
    assert beta_reduce(t) == t


def test_beta_reduces_under_congruence():
    tup = _coind()
    cell = id_of(Destr("linv", tup), arr0("d0+", "d0-"))
    reduced = beta_reduce(cell)
    assert alpha_eq_term(reduced, id_of(Destr("linv", v("e1")), arr0("d0+", "d0-")))


def test_rec_beta_categorical_substitutes():
    tup = _coind()
    rec = Rec(v("d1"), tup.tl, tup.tr, tup.tlu, tup.tru, tup.tilu, tup.tiru,
              identity_sub(E1))
    assert alpha_eq_term(beta_reduce(Destr("linv", rec)), Destr("linv", v("e1")))
    assert alpha_eq_term(beta_reduce(Destr("runit", rec)), Destr("runit", v("e1")))


def test_rec_beta_witness_instantiates():
    tup = _coind()
    rec = Rec(v("d1"), tup.tl, tup.tr, tup.tlu, tup.tru, tup.tilu, tup.tiru,
              identity_sub(E1))
    for kind in ("lwit", "rwit"):
        reduct = beta_reduce(Destr(kind, rec))
        expected_ty = infer_term(E1, Destr(kind, rec))
        from icatt.kernel import convertible_types

        assert convertible_types(E1, infer_term(E1, reduct), expected_ty)


def test_nf_on_variables_and_types():
    assert nf(v("d1")) == v("d1")
    assert nf(Obj()) == Obj()
    ty = arr0("d0-", "d0+")
    assert nf(ty) == ty


def test_nf_rejects_inv_entities():
    with pytest.raises(NotCategorical):
        nf(Inv(arr0("d0-", "d0+"), v("d1")))


def test_critical_pair_converges():
    """Starting from a canonical structure, reducing a destructor
    directly or through the coinductive expansion meets at one normal
    form."""
    can_id = Can(id_of(v("x"), Obj()), ())
    expanded = eta_expand_once(can_id, id_of(v("x"), Obj()))
    for kind in ("linv", "rinv", "lunit", "runit"):
        direct = nf(Destr(kind, can_id))
        via_eta = nf(Destr(kind, expanded))
        assert alpha_eq_term(direct, via_eta), kind


def test_nf_idempotent_on_corpus(corpus_terms):
    for name, ctx, term, ty in corpus_terms:
        if isinstance(ty, Inv):
            continue
        once = nf(term)
        assert alpha_eq_term(nf(once), once), name


def _one_step_reducts(t):
    """All single-position beta contractions of a term."""
    out = []
    root = beta_step(t)
    if root is not None:
        out.append(root)

    def rebuild_at(children, build):
        for i, child in enumerate(children):
            for reduced in _one_step_reducts(child):
                replaced = list(children)
                replaced[i] = reduced
                out.append(build(replaced))

    match t:
        case Coh(ps, ty, sub):
            rebuild_at(
                [s for _, s in sub.pairs],
                lambda cs: Coh(ps, ty, Substitution(tuple((x, c) for (x, _), c in zip(sub.pairs, cs)), sub.codomain)),
            )
        case Coind():
            rebuild_at(list(t.components()), lambda cs: Coind(*cs))
        case Rec():
            rebuild_at(
                [s for _, s in t.sub.pairs],
                lambda cs: Rec(*t.components(), Substitution(tuple((x, c) for (x, _), c in zip(t.sub.pairs, cs)), t.sub.codomain)),
            )
        case Can(subject, wit):
            rebuild_at(
                [subject] + [w for _, w in wit],
                lambda cs: Can(cs[0], tuple((x, c) for (x, _), c in zip(wit, cs[1:]))),
            )
        case Destr(kind, arg):
            rebuild_at([arg], lambda cs: Destr(kind, cs[0]))
    return out


def test_local_confluence_on_redex_rich_terms():
    ctx = Context(((Var("x"), Obj()),))
    idx = id_of(v("x"), Obj())
    can_id = Can(idx, ())
    tup = eta_expand_once(can_id, idx)
    samples = [
        Destr("lunit", tup),
        Destr("linv", Destr("lwit", tup)),
        Destr("runit", Destr("rwit", Destr("rwit", tup))),
    ]
    for t in samples:
        ty = infer_term(ctx, t)
        if isinstance(ty, Inv):
            continue
        target = nf(t)
        reducts = _one_step_reducts(t)
        assert reducts
        for r in reducts:
            assert alpha_eq_term(nf(r), target)


def test_local_confluence_on_corpus(corpus_terms):
    for name, ctx, term, ty in corpus_terms:
        if isinstance(ty, Inv):
            continue
        target = nf(term)
        for r in _one_step_reducts(term):
            assert alpha_eq_term(nf(r), target), name


def test_erase_check_requires_inv_free_context():
    with pytest.raises(NotCategorical):
        erase_check(E1, v("d1"))


def test_erase_check_on_catt_terms():
    ctx = Context((
        (Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y")),
        (Var("z"), Obj()), (Var("g"), arr0("y", "z")),
    ))
    cell, _ = comp_of([(v("f"), arr0("x", "y")), (v("g"), arr0("y", "z"))])
    assert erase_check(ctx, cell)


def test_erase_check_on_invertibility_reducts():
    ctx = Context(((Var("x"), Obj()),))
    idx = id_of(v("x"), Obj())
    can_id = Can(idx, ())
    assert erase_check(ctx, Destr("linv", can_id))
    assert erase_check(ctx, Destr("lunit", can_id))
    # a destructor chain through the canonical witnesses also erases
    assert erase_check(ctx, Destr("runit", Destr("lwit", can_id)))


def test_conversion_soundness_definitional():
    from icatt.kernel import convertible_terms

    ctx = Context(((Var("x"), Obj()),))
    idx = id_of(v("x"), Obj())
    can_id = Can(idx, ())
    a = Destr("linv", can_id)
    b = Destr("linv", eta_expand_once(can_id, idx))
    infer_term(ctx, a)
    assert convertible_terms(a, b)
    assert alpha_eq_term(nf(a), nf(b))


def test_rec_over_higher_walking_equivalence():
    E2 = walking_equiv(2)
    tup2 = eta_expand_once(v("e2"), v("d2"))
    rec2 = Rec(v("d2"), tup2.tl, tup2.tr, tup2.tlu, tup2.tru, tup2.tilu, tup2.tiru,
               identity_sub(E2))
    assert isinstance(infer_term(E2, rec2), Inv)
    from icatt.kernel import convertible_types

    for kind in ("linv", "runit", "lwit", "rwit"):
        red = beta_reduce(Destr(kind, rec2))
        assert convertible_types(E2, infer_term(E2, red), infer_term(E2, Destr(kind, rec2)))


def test_suspended_rec_beta(corpus_env):
    """Destructors of the (implicitly suspended) recursive definition
    inside the corpus reduce and re-check."""
    env, checked = corpus_env
    from icatt.kernel import TermDecl, convertible_types

    lriU = next(d for d in checked if isinstance(d, TermDecl) and d.name == "lriU")

    def find_rec(t):
        match t:
            case Rec():
                return t
            case Can(subject, wit):
                for c in [subject] + [w for _, w in wit]:
                    hit = find_rec(c)
                    if hit is not None:
                        return hit
            case Coh(_, _, sub):
                for s in sub.terms():
                    hit = find_rec(s)
                    if hit is not None:
                        return hit
            case Destr(_, arg):
                return find_rec(arg)
            case Coind():
                for c in t.components():
                    hit = find_rec(c)
                    if hit is not None:
                        return hit
        return None

    rec = find_rec(lriU.term)
    assert rec is not None and len(rec.sub.codomain) == 6  # suspended seed
    for kind in ("linv", "lunit", "rwit"):
        red = beta_reduce(Destr(kind, rec))
        want = infer_term(lriU.ctx, Destr(kind, rec))
        assert convertible_types(lriU.ctx, infer_term(lriU.ctx, red), want)


# -- normal forms are beta-normal forms ----------------------------------------------


def _assert_beta_normal_is_normal(t, label):
    """``nf`` of a categorical term is its beta-normal form, and no free
    position of that form holds a constructor that eta could expand."""
    normal = beta_reduce(t)
    assert nf(t) is normal, label
    constructors = [type(s).__name__ for s in subterms((normal,)) if isinstance(s, (Coind, Can, Rec))]
    assert not constructors, (label, constructors)


def test_nf_is_beta_normal_on_corpus(corpus_terms):
    for name, _, term, ty in corpus_terms:
        if not isinstance(ty, Inv):
            _assert_beta_normal_is_normal(term, name)


def test_nf_is_beta_normal_on_canonical_components():
    """The categorical destructor images of the canonical structures
    built by ``test_inverse`` (and of one suspended), each with its
    reduct; a witness image is taken through a further destructor."""
    from test_inverse import ALL_KINDS, _chain_can, _comp_can, _vertical_can, _whisk_can

    fixtures = [_comp_can(), _whisk_can(), _vertical_can()]
    fixtures += [_chain_can(k, dim) for k, dim in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]]
    ctx, can_term = _comp_can()
    fixtures.append(suspend_judgment(ctx, can_term, infer_term(ctx, can_term))[:2])
    for ctx, can_term in fixtures:
        for kind in ALL_KINDS:
            terms = [Destr(kind, can_term), canonical_component(can_term, kind)]
            if kind in ("lwit", "rwit"):
                terms = [Destr(outer, t) for t in terms for outer in ("linv", "runit")]
            for t in terms:
                assert not isinstance(infer_term(ctx, t), Inv), kind
                _assert_beta_normal_is_normal(t, kind)
