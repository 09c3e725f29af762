"""The inverse and cancellator construction for coherence cells."""

import json

import pytest

from icatt.builtins import comp_of, id_of
from icatt.errors import WrongWitnessSet
from icatt.inverse import (
    canonical_component,
    coh_inverse,
    gamma_inverse,
)
from icatt.kernel import convertible_types, infer_term
from icatt.meta import opposite_context, suspend_judgment
from icatt.syntax import (
    Arr,
    Can,
    Coh,
    Context,
    Destr,
    Inv,
    Obj,
    Substitution,
    Var,
    VarRef,
    alpha_eq_term,
    apply_sub_term,
    dim_type,
    identity_sub,
)

import fresh
from oracles import corpus_component_digests


def arr0(s, t):
    return Arr(Obj(), VarRef(Var(s)), VarRef(Var(t)))


def v(name):
    return VarRef(Var(name))


def _inv_ctx_two_chain():
    """x -> y -> z with invertibility entries on both arrows."""
    return Context((
        (Var("x"), Obj()), (Var("y"), Obj()), (Var("z"), Obj()),
        (Var("f"), arr0("x", "y")), (Var("g"), arr0("y", "z")),
        (Var("ef"), Inv(arr0("x", "y"), v("f"))),
        (Var("eg"), Inv(arr0("y", "z"), v("g"))),
    ))


def _comp_can():
    ctx = _inv_ctx_two_chain()
    cell, _ = comp_of([(v("f"), arr0("x", "y")), (v("g"), arr0("y", "z"))])
    return ctx, Can(cell, ((Var("f1"), v("ef")), (Var("f2"), v("eg"))))


def _whisk_can():
    """A canonical structure on a whiskering-shaped coherence."""
    ps = Context((
        (Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y")),
        (Var("z"), Obj()), (Var("g"), arr0("y", "z")), (Var("h"), arr0("y", "z")),
        (Var("a"), Arr(arr0("y", "z"), v("g"), v("h"))),
    ))
    fg, _ = comp_of([(v("f"), arr0("x", "y")), (v("g"), arr0("y", "z"))])
    fh, _ = comp_of([(v("f"), arr0("x", "y")), (v("h"), arr0("y", "z"))])
    ty = Arr(arr0("x", "z"), fg, fh)
    whisk = Coh(ps, ty, identity_sub(ps))
    ctx = Context(ps.entries + ((Var("ea"), Inv(Arr(arr0("y", "z"), v("g"), v("h")), v("a"))),))
    return ctx, Can(whisk, ((Var("a"), v("ea")),))


def _vertical_can():
    """A canonical structure on a vertical composite of 2-cells."""
    base = arr0("x", "y")
    ps = Context((
        (Var("x"), Obj()), (Var("y"), Obj()),
        (Var("p"), base), (Var("q"), base), (Var("a"), Arr(base, v("p"), v("q"))),
        (Var("r"), base), (Var("b"), Arr(base, v("q"), v("r"))),
    ))
    cell, _ = comp_of([
        (v("a"), Arr(base, v("p"), v("q"))),
        (v("b"), Arr(base, v("q"), v("r"))),
    ])
    assert isinstance(cell, Coh)
    inner = cell.sub
    # express the composite over its own pasting context
    ctx = Context(ps.entries + (
        (Var("ea"), Inv(Arr(base, v("p"), v("q")), v("a"))),
        (Var("eb"), Inv(Arr(base, v("q"), v("r")), v("b"))),
    ))
    comp2 = Coh(cell.ps, cell.ty, inner)
    tops = [w for w, ty in cell.ps if dim_type(ty) + 1 == 2]
    return ctx, Can(comp2, ((tops[0], v("ea")), (tops[1], v("eb"))))


ALL_KINDS = ("linv", "rinv", "lunit", "runit", "lwit", "rwit")


def _assert_components_check(ctx, can_term):
    for kind in ALL_KINDS:
        expected = infer_term(ctx, Destr(kind, can_term))
        component = canonical_component(can_term, kind)
        actual = infer_term(ctx, component)
        assert convertible_types(ctx, actual, expected), kind


def test_inverse_of_identity_flips_type_only():
    ctx = Context(((Var("x"), Obj()),))
    idx = id_of(v("x"), Obj())
    inv = coh_inverse(idx, "left", {})
    assert isinstance(inv, Coh)
    assert infer_term(ctx, inv) == arr0("x", "x")
    # symmetric full type: the double inverse is the identity again
    assert alpha_eq_term(coh_inverse(inv, "left", {}), idx)


def test_inverse_of_composite_reverses_witnesses():
    ctx, can_term = _comp_can()
    inv = canonical_component(can_term, "linv")
    assert isinstance(inv, Coh)
    tops = [t for (x, t), (w, ty) in zip(inv.sub.pairs, inv.ps.entries)
            if dim_type(ty) + 1 == 1]
    assert tops == [Destr("linv", v("eg")), Destr("linv", v("ef"))]
    assert infer_term(ctx, inv) == arr0("z", "x")


def test_gamma_inverse_below_dimension_is_identity():
    chain = Context((
        (Var("x"), Obj()), (Var("y"), Obj()), (Var("f"), arr0("x", "y")),
    ))
    sub = identity_sub(chain)
    assert gamma_inverse(2, opposite_context(2, chain), sub, "left", {}) is sub


def test_gamma_inverse_two_dim_example():
    """Top cells get replaced (in reversed vertical order) by the
    witness inverses; everything lower keeps its image."""
    base = arr0("x", "y")
    ps = Context((
        (Var("x"), Obj()), (Var("y"), Obj()),
        (Var("p"), base), (Var("q"), base), (Var("a"), Arr(base, v("p"), v("q"))),
        (Var("r"), base), (Var("b"), Arr(base, v("q"), v("r"))),
        (Var("z"), Obj()), (Var("k"), arr0("y", "z")),
    ))
    wit = {"a": v("ea"), "b": v("eb")}
    out = gamma_inverse(2, opposite_context(2, ps), identity_sub(ps), "left", wit)
    imgs = dict((x.name, t) for x, t in out.pairs)
    assert imgs["a"] == Destr("linv", v("ea"))
    assert imgs["b"] == Destr("linv", v("eb"))
    assert imgs["k"] == v("k")
    # the flipped context lists b before a
    order = [x.name for x, _ in out.pairs]
    assert order.index("b") < order.index("a")


def test_missing_witness_reported():
    ctx, can_term = _comp_can()
    assert isinstance(can_term.subject, Coh)
    with pytest.raises(WrongWitnessSet):
        coh_inverse(can_term.subject, "left", {})


def test_cancellator_of_identity_single_coherence():
    ctx = Context(((Var("x"), Obj()),))
    can_id = Can(id_of(v("x"), Obj()), ())
    cancel = canonical_component(can_id, "lunit")
    assert isinstance(cancel, Coh)  # one coherence, no composite
    expected = infer_term(ctx, Destr("lunit", can_id))
    assert convertible_types(ctx, infer_term(ctx, cancel), expected)


def test_all_components_check_binary_composite():
    ctx, can_term = _comp_can()
    _assert_components_check(ctx, can_term)


def test_all_components_check_whiskering():
    ctx, can_term = _whisk_can()
    _assert_components_check(ctx, can_term)


def test_all_components_check_vertical_composite():
    ctx, can_term = _vertical_can()
    _assert_components_check(ctx, can_term)


def test_all_components_check_suspended():
    ctx, can_term = _comp_can()
    ty = infer_term(ctx, can_term)
    sctx, sterm, _ = suspend_judgment(ctx, can_term, ty)
    assert isinstance(sterm, Can)
    _assert_components_check(sctx, sterm)


def test_components_stable_under_substitution():
    ctx, can_term = _comp_can()
    renamed = Context(tuple((Var(w.name + "0"), _rn(ty)) for w, ty in ctx))
    sigma = Substitution(tuple((w, v(w.name + "0")) for w, _ in ctx), ctx)
    for kind in ALL_KINDS:
        direct = canonical_component(apply_sub_term(can_term, sigma), kind)
        routed = apply_sub_term(canonical_component(can_term, kind), sigma)
        assert alpha_eq_term(direct, routed), kind


def _rn(ty):
    from icatt.syntax import rename_vars_type

    names = {"x": "x0", "y": "y0", "z": "z0", "f": "f0", "g": "g0", "ef": "ef0", "eg": "eg0"}
    return rename_vars_type(ty, names)


def test_lwit_component_shape():
    ctx, can_term = _comp_can()
    wit = canonical_component(can_term, "lwit")
    assert isinstance(wit, Can)
    # the witness family points back at the argument witnesses
    flat = [w for _, w in wit.witnesses]
    inner = []
    for w in flat:
        if isinstance(w, Can):
            inner.extend(x for _, x in w.witnesses)
    assert Destr("lwit", v("ef")) in inner
    assert Destr("lwit", v("eg")) in inner


def _chain_can(k, dim):
    from icatt.builtins import comp_schema

    ctx, full = comp_schema(k, dim)
    cell = Coh(ctx, full, identity_sub(ctx))
    tops = [w for w, ty in ctx if dim_type(ty) + 1 == dim]
    amb = Context(ctx.entries + tuple(
        (Var(f"e{w.name}"), Inv(ctx.lookup(w), VarRef(w))) for w in tops))
    return amb, Can(cell, tuple((w, v(f"e{w.name}")) for w in tops))


@pytest.mark.parametrize("k,dim", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_all_components_check_chains(k, dim):
    amb, can_term = _chain_can(k, dim)
    _assert_components_check(amb, can_term)


# four rounds of the six canonical components of every corpus `can`, each
# round over the corpus contexts renamed apart; after each round, the live
# entries of the intern table
_ROUNDS_OF_COMPONENTS = """
import gc, json, sys
sys.setrecursionlimit(200_000)
from icatt import syntax as s
from icatt.elaborate import elaborate_decl
from icatt.inverse import canonical_component
from icatt.kernel import Environment, TermDecl, check_decl
from icatt.parser import parse

env, bodies = Environment(), []
with open("proofs/invertibility.catt", encoding="utf-8") as corpus:
    for sdecl in parse(corpus.read()):
        decl = elaborate_decl(env, sdecl)
        check_decl(env, decl)
        if isinstance(decl, TermDecl):
            bodies.append((decl.ctx, decl.term))
sizes = []
for i in range(4):
    for ctx, term in bodies:
        renamed = s.rename_vars_term(term, {v.name: f"{v.name}.{i}" for v, _ in ctx})
        for t in s.subterms([renamed]):
            if type(t) is s.Can:
                for kind in s.DESTRUCTORS:
                    canonical_component(t, kind)
    gc.collect()
    sizes.append(len(s._INTERN))
print(json.dumps(sizes))
"""


def test_canonical_components_keep_no_dead_subject_alive():
    """The cancellator stages of a canonical structure contain its
    subject, so keeping them on the subject would root it through the
    intern table's keys: after the first of four rounds of every corpus
    ``can``'s components over renamed contexts, each round adds at most 8
    live intern-table entries."""
    out = fresh.run("-c", _ROUNDS_OF_COMPONENTS)
    assert out.returncode == 0, out.stderr
    sizes = json.loads(out.stdout)
    assert all(b - a <= 8 for a, b in zip(sizes, sizes[1:])), sizes


def test_canonical_components_match_golden_digests(corpus_env):
    """The six canonical components of every distinct ``can`` in the
    checked corpus are, node for node, the syntax recorded in
    ``tests/golden/can_components.txt`` (see
    :func:`oracles.corpus_component_digests`)."""
    _, checked = corpus_env
    golden = (fresh.ROOT / "tests" / "golden" / "can_components.txt").read_text(encoding="utf-8")
    assert corpus_component_digests(checked) == golden.splitlines()


# the six canonical components of every corpus `can`, twice: the plans and
# instance passes each round makes, and the distinct heads and structures
_PLANS_PER_HEAD = """
import json, sys
sys.setrecursionlimit(200_000)
from icatt import inverse, syntax as s
from icatt.elaborate import elaborate_decl
from icatt.kernel import Environment, TermDecl, check_decl
from icatt.parser import parse

plans, passes = [], []
make, stages = inverse._Plan.__init__, inverse._Plan.stages
def counting_make(self, subject, side):
    plans.append((subject.ps, subject.ty, side))
    make(self, subject, side)
def counting_stages(self, subject, witnesses):
    passes.append((subject, self.side))
    return stages(self, subject, witnesses)
inverse._Plan.__init__, inverse._Plan.stages = counting_make, counting_stages

env, bodies = Environment(), []
with open("proofs/invertibility.catt", encoding="utf-8") as corpus:
    for sdecl in parse(corpus.read()):
        decl = elaborate_decl(env, sdecl)
        check_decl(env, decl)
        if isinstance(decl, TermDecl):
            bodies.append(decl.term)
cans = [t for t in s.subterms(bodies) if type(t) is s.Can]
rounds = []
for _ in range(2):
    for t in cans:
        for kind in s.DESTRUCTORS:
            inverse.canonical_component(t, kind)
    rounds.append((len(plans), len(passes)))
heads = {(c.ps, c.ty, side) for c, side in passes}
print(json.dumps([rounds, len(heads), len(set(plans)), len({(id(c.ps), id(c.ty), side) for c, side in passes})]))
"""


def test_cancellator_plans_once_per_head():
    """Each cancellator plan is built once per subject pasting context,
    type and side, while every structure's stages are built by their own
    pass over it, once: over the corpus's ``can``s, fewer plans than
    passes, and a second round builds neither."""
    out = fresh.run("-c", _PLANS_PER_HEAD)
    assert out.returncode == 0, out.stderr
    rounds, heads, distinct_plans, _ = json.loads(out.stdout)
    (plans, passes), again = rounds
    assert again == [plans, passes]
    assert plans == distinct_plans == heads < passes
