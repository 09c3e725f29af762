"""Walking-equivalence analysis: neutral enumeration, truncations,
the variable-to-neutral correspondence."""

import pytest

from icatt.builtins import comp_of, id_of
from icatt.equiv import (
    MAX_COUNT_DIM,
    check_gamma,
    count_neutrals,
    enumerate_neutrals,
    equiv_truncation,
    gamma_sub,
    inv_neutrals,
    pullback_along_display,
)
from icatt.errors import BoundExceeded
from icatt.kernel import check_ctx, check_sub, infer_term
from icatt.meta import walking_equiv
from icatt.syntax import (
    Arr,
    Context,
    Destr,
    Inv,
    Obj,
    Substitution,
    Var,
    VarRef,
    alpha_eq_context,
    alpha_key_term,
    dim_type,
    identity_sub,
)

from oracles import brute_force_neutrals


def arr0(s, t):
    return Arr(Obj(), VarRef(Var(s)), VarRef(Var(t)))


def v(name):
    return VarRef(Var(name))


def test_neutral_base_cases():
    assert [alpha_key_term(t) for t in enumerate_neutrals(0)] == [
        alpha_key_term(v("d0-")),
        alpha_key_term(v("d0+")),
    ]
    dim1 = enumerate_neutrals(1)
    assert dim1 == (v("d1"), Destr("linv", v("e1")), Destr("rinv", v("e1")))


def test_neutral_counts_exponential():
    counts = [len(enumerate_neutrals(n)) for n in range(8)]
    assert counts == [2, 3, 6, 12, 24, 48, 96, 192]
    for n in range(2, 8):
        assert counts[n] == 3 * 2 ** (n - 1)
        assert len(inv_neutrals(n)) == 2 ** (n - 1)


def test_neutral_count_follows_the_enumeration():
    for n in range(-2, 13):
        assert count_neutrals(n) == len(enumerate_neutrals(n))
    assert count_neutrals(40) == 3 * 2**39
    with pytest.raises(BoundExceeded):
        count_neutrals(MAX_COUNT_DIM + 1)


def test_neutrals_typecheck_and_are_neutral():
    e1 = walking_equiv(1)
    for n in range(5):
        for t in enumerate_neutrals(n):
            ty = infer_term(e1, t)
            assert not isinstance(ty, Inv)
            assert dim_type(ty) + 1 == n


def test_brute_force_agrees_setwise():
    for n in range(6):
        fast = {alpha_key_term(t) for t in enumerate_neutrals(n)}
        assert brute_force_neutrals(n) == fast


def test_pullback_along_identity_is_extension():
    base = Context(((Var("x"), Obj()),))
    extended = Context(base.entries + ((Var("f"), arr0("x", "x")),))
    pulled, p, q = pullback_along_display(
        base, identity_sub(base), base, extended, lambda s: s
    )
    assert alpha_eq_context(pulled, extended)
    check_sub(pulled, q, extended)


def test_pullback_single_entry():
    delta = Context(((Var("a"), Obj()), (Var("b"), Obj())))
    gamma = Context(((Var("x"), Obj()),))
    extended = Context(gamma.entries + ((Var("l"), arr0("x", "x")),))
    f = Substitution(((Var("x"), v("a")),), gamma)
    pulled, p, q = pullback_along_display(delta, f, gamma, extended, lambda s: s)
    assert [w.name for w, _ in pulled] == ["a", "b", "l"]
    assert pulled.entries[-1][1] == arr0("a", "a")
    check_ctx(pulled)


def test_truncation_base_cases():
    t0 = equiv_truncation(0)
    assert [w.name for w, _ in t0.ctx] == ["x", "y"]
    t1 = equiv_truncation(1)
    assert [w.name for w, _ in t1.ctx] == ["x", "y", "u", "v", "w"]
    check_ctx(t1.ctx)
    check_sub(t1.ctx, t1.to_prev, t0.ctx)
    from icatt.meta import suspend_context

    check_sub(t1.ctx, t1.to_susp_left, suspend_context(t0.ctx))
    check_sub(t1.ctx, t1.to_susp_right, suspend_context(t0.ctx))


def _explicit_e12():
    """The two-stage truncation written out by hand, entry by entry."""
    x, y = v("x"), v("y")
    u_ty, v_ty = arr0("x", "y"), arr0("y", "x")
    vu, _ = comp_of([(v("v"), v_ty), (v("u"), u_ty)])
    uw, _ = comp_of([(v("u"), u_ty), (v("w"), v_ty)])
    idy, idx = id_of(y, Obj()), id_of(x, Obj())
    loop_y, loop_x = arr0("y", "y"), arr0("x", "x")
    return Context((
        (Var("x"), Obj()), (Var("y"), Obj()),
        (Var("u"), u_ty), (Var("v"), v_ty), (Var("w"), v_ty),
        (Var("u_v"), Arr(loop_y, vu, idy)),
        (Var("v_v"), Arr(loop_y, idy, vu)),
        (Var("w_v"), Arr(loop_y, idy, vu)),
        (Var("u_w"), Arr(loop_x, uw, idx)),
        (Var("v_w"), Arr(loop_x, idx, uw)),
        (Var("w_w"), Arr(loop_x, idx, uw)),
    ))


def test_truncation_two_matches_explicit_listing():
    t2 = equiv_truncation(2)
    assert alpha_eq_context(t2.ctx, _explicit_e12())
    assert [w.name for w, _ in t2.ctx] == [w.name for w, _ in _explicit_e12()]


def test_truncation_growth_recurrence():
    sizes = [len(equiv_truncation(n).ctx) for n in range(5)]
    assert sizes[0] == 2 and sizes[1] == 5
    for n in range(2, 5):
        top_prev = sizes[n - 1] - sizes[n - 2]
        assert sizes[n] == sizes[n - 1] + 2 * top_prev


def test_truncation_bound():
    with pytest.raises(BoundExceeded, match="exceeds the bound 5 "):
        equiv_truncation(9)
    with pytest.raises(BoundExceeded):
        equiv_truncation(-1)


def test_gamma_base_case_images():
    g1 = gamma_sub(1)
    imgs = dict((w.name, t) for w, t in g1.pairs)
    assert imgs["u"] == v("d1")
    assert imgs["v"] == Destr("linv", v("e1"))
    assert imgs["w"] == Destr("rinv", v("e1"))


def test_gamma_checks_and_is_bijective():
    for n in range(5):
        report = check_gamma(n)
        assert report.ok, report.details
    assert check_gamma(4).counts == {0: 2, 1: 3, 2: 6, 3: 12, 4: 24}


def test_gamma_two_new_images_are_dim_two_neutrals():
    g2 = gamma_sub(2)
    new = [t for w, t in g2.pairs if w.name.endswith(("_v", "_w"))]
    keys = {alpha_key_term(t) for t in new}
    want = {alpha_key_term(t) for t in enumerate_neutrals(2)}
    assert keys == want
