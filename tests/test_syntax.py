"""Raw syntax: substitution calculus, dimensions, variable usage."""

import pytest
from hypothesis import given, settings, strategies as st

from icatt.builtins import comp_of, id_of
from icatt.errors import UnboundVariable
from icatt.meta import walking_equiv
from icatt.syntax import (
    Arr,
    Coh,
    Context,
    Destr,
    Inv,
    Obj,
    Substitution,
    Var,
    VarRef,
    alpha_eq_context,
    alpha_eq_term,
    apply_sub_term,
    apply_sub_type,
    compose_sub,
    dim_context,
    dim_type,
    identity_sub,
    rename_vars_term,
    variables_used_term,
    variables_used_type,
)


def arr0(s, t):
    return Arr(Obj(), VarRef(Var(s)), VarRef(Var(t)))


@pytest.fixture
def two_chain():
    return Context((
        (Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y")),
        (Var("z"), Obj()), (Var("g"), arr0("y", "z")),
    ))


def sub_to(ctx, **images):
    pairs = tuple((v, images[v.name]) for v, _ in ctx)
    return Substitution(pairs, ctx)


def test_apply_sub_obj_fixed(two_chain):
    assert apply_sub_type(Obj(), identity_sub(two_chain)) == Obj()


def test_apply_sub_arr_componentwise():
    cod = Context(((Var("x"), Obj()), (Var("y"), Obj())))
    gamma = Substitution(((Var("x"), VarRef(Var("a"))), (Var("y"), VarRef(Var("b")))), cod)
    out = apply_sub_type(arr0("x", "y"), gamma)
    assert out == arr0("a", "b")


def test_apply_sub_inv_componentwise():
    cod = Context((
        (Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y")),
    ))
    gamma = sub_to(cod, x=VarRef(Var("a")), y=VarRef(Var("b")), f=VarRef(Var("g")))
    out = apply_sub_type(Inv(arr0("x", "y"), VarRef(Var("f"))), gamma)
    assert out == Inv(arr0("a", "b"), VarRef(Var("g")))


def test_var_lookup_and_unbound():
    cod = Context(((Var("x"), Obj()),))
    gamma = sub_to(cod, x=VarRef(Var("t")))
    assert apply_sub_term(VarRef(Var("x")), gamma) == VarRef(Var("t"))
    with pytest.raises(UnboundVariable):
        apply_sub_term(VarRef(Var("q")), gamma)


def test_compose_empty_and_identity(two_chain):
    empty = Substitution((), Context())
    gamma = identity_sub(two_chain)
    assert compose_sub(empty, gamma).pairs == ()
    assert compose_sub(identity_sub(two_chain), gamma).pairs == gamma.pairs


def test_compose_unfolds_pointwise():
    cod_f = Context(((Var("y0"), Obj()), (Var("y1"), Obj()), (Var("f"), arr0("y0", "y1"))))
    cod_x = cod_f
    delta = sub_to(cod_x, y0=VarRef(Var("y0")), y1=VarRef(Var("y1")), f=VarRef(Var("f")))
    gamma = sub_to(cod_f, y0=VarRef(Var("a")), y1=VarRef(Var("b")), f=VarRef(Var("g")))
    out = compose_sub(delta, gamma)
    assert out.lookup(Var("f")) == VarRef(Var("g"))


def test_dimension_base_cases(two_chain):
    assert dim_type(Obj()) == -1
    assert dim_type(Arr(arr0("x", "y"), VarRef(Var("f")), VarRef(Var("g")))) == 1
    assert dim_context(Context()) == -1
    assert dim_context(two_chain) == 1


def test_dimension_of_globular_example():
    # the six-entry context with a 2-cell has dimension 2
    ctx = Context((
        (Var("x"), Obj()), (Var("y"), Obj()),
        (Var("f"), arr0("x", "y")), (Var("g"), arr0("x", "y")),
        (Var("a"), Arr(arr0("x", "y"), VarRef(Var("f")), VarRef(Var("g")))),
        (Var("h"), arr0("x", "x")),
    ))
    assert dim_context(ctx) == 2


def test_inv_dimension_matches_subject():
    e1 = walking_equiv(1)
    inv_ty = e1.entries[-1][1]
    assert dim_type(inv_ty) == 1  # dimension of d1


def test_variables_used(two_chain):
    assert list(variables_used_term(VarRef(Var("x")))) == ["x"]
    cell, _ = comp_of([(VarRef(Var("f")), arr0("x", "y")), (VarRef(Var("g")), arr0("y", "z"))])
    assert set(variables_used_term(cell)) == {"x", "y", "f", "z", "g"}


def test_variables_used_can_union():
    can_like = Destr("linv", VarRef(Var("e")))
    assert set(variables_used_term(can_like)) == {"e"}
    ty = Inv(arr0("x", "y"), VarRef(Var("f")))
    assert set(variables_used_type(ty)) == {"x", "y", "f"}


def test_alpha_equality_of_contexts():
    a = Context(((Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y"))))
    b = Context(((Var("p"), Obj()), (Var("q"), Obj()), (Var("r"), arr0("p", "q"))))
    assert alpha_eq_context(a, b)
    assert not alpha_eq_context(a, Context(a.entries[:2]))


def test_alpha_equality_of_coherences(two_chain):
    cell, _ = comp_of([(VarRef(Var("f")), arr0("x", "y")), (VarRef(Var("g")), arr0("y", "z"))])
    # identity cells over alpha-equal disks are alpha-equal
    a = id_of(VarRef(Var("x")), Obj())
    b = id_of(VarRef(Var("x")), Obj())
    assert alpha_eq_term(a, b)
    assert not alpha_eq_term(a, cell)


# -- property tests ----------------------------------------------------------

_E1 = walking_equiv(1)


@st.composite
def e1_terms(draw):
    """Small checked terms over the walking equivalence."""
    depth = draw(st.integers(min_value=0, max_value=3))
    term = VarRef(Var("e1"))
    for _ in range(depth):
        term = Destr(draw(st.sampled_from(["lwit", "rwit"])), term)
    final = draw(st.sampled_from(["linv", "rinv", "lunit", "runit", None]))
    if final is not None:
        term = Destr(final, term)
        return term
    return term


@st.composite
def e1_renamings(draw):
    names = [f"r{i}" for i in range(len(_E1))]
    draw(st.just(None))
    fresh = Context(tuple((Var(n), _rename_entry(ty, dict(zip([v.name for v, _ in _E1], names))))
                          for n, (v, ty) in zip(names, _E1.entries)))
    pairs = tuple((v, VarRef(w)) for (v, _), (w, _) in zip(_E1, fresh))
    return Substitution(pairs, _E1), fresh


def _rename_entry(ty, mapping):
    from icatt.syntax import rename_vars_type

    return rename_vars_type(ty, mapping)


@settings(max_examples=40, deadline=None)
@given(e1_terms())
def test_substitution_identity_law(t):
    assert apply_sub_term(t, identity_sub(_E1)) == t


@settings(max_examples=40, deadline=None)
@given(e1_terms(), st.data())
def test_substitution_composition_law(t, data):
    gamma, fresh = data.draw(e1_renamings())
    back = Substitution(tuple((w, VarRef(v)) for (v, _), (w, _) in zip(_E1, fresh)), fresh)
    composed = compose_sub(gamma, back)
    lhs = apply_sub_term(t, composed)
    rhs = apply_sub_term(apply_sub_term(t, gamma), back)
    assert alpha_eq_term(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(e1_terms())
def test_variables_used_under_substitution(t):
    gamma = identity_sub(_E1)
    used = set(variables_used_term(apply_sub_term(t, gamma)))
    bound = set()
    for name in variables_used_term(t):
        bound |= set(variables_used_term(gamma.lookup(Var(name))))
    assert used <= bound


@settings(max_examples=20, deadline=None)
@given(e1_terms())
def test_dimension_substitution_invariant(t):
    from icatt.kernel import infer_term

    ty = infer_term(_E1, t)
    if isinstance(ty, Inv):
        return
    assert dim_type(apply_sub_type(ty, identity_sub(_E1))) == dim_type(ty)


def _doubling_chain(x, f, depth=12):
    """``t_0 = f`` and ``t_{i+1} = comp t_i t_i`` over ``x : *``: a DAG
    of ``depth`` coherence nodes whose tree has 2^depth leaves."""
    ty = Arr(Obj(), x, x)
    t = f
    for _ in range(depth):
        t, _ = comp_of([(t, ty), (t, ty)])
    return t


def _distinct_nodes(t):
    """Distinct term nodes (by identity) reachable through the
    substitutions of coherence cells."""
    seen = {}
    stack = [t]
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen[id(u)] = u
            if isinstance(u, Coh):
                stack.extend(u.sub.terms())
    return len(seen)


def test_traversals_keep_sharing():
    from icatt.elaborate import Elaborator
    from icatt.kernel import Environment

    x, f = VarRef(Var("x")), VarRef(Var("f"))
    ctx = Context(((Var("x"), Obj()), (Var("f"), Arr(Obj(), x, x))))
    expected = _doubling_chain(VarRef(Var("y")), VarRef(Var("g")))
    over_vars = _doubling_chain(x, f)
    el = Elaborator(Environment())
    mx, mf = el.metas.fresh("x"), el.metas.fresh("f")
    el.metas.solutions.update({mx.uid: VarRef(Var("y")), mf.uid: VarRef(Var("g"))})
    over_metas = _doubling_chain(mx, mf)
    cases = {
        "apply_sub_term": (over_vars, lambda t: apply_sub_term(t, sub_to(ctx, x=VarRef(Var("y")), f=VarRef(Var("g"))))),
        "rename_vars_term": (over_vars, lambda t: rename_vars_term(t, {"x": "y", "f": "g"})),
        "zonk_term": (over_metas, el.zonk_term),
    }
    for name, (source, rename) in cases.items():
        out = rename(source)
        assert out == expected, name
        assert _distinct_nodes(out) <= _distinct_nodes(source), (name, _distinct_nodes(out))
