"""Raw syntax: substitution calculus, dimensions, variable usage."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from icatt import syntax
from icatt.builtins import comp_of, id_of
from icatt.errors import UnboundVariable
from icatt.inverse import canonical_component
from icatt.kernel import infer_term
from icatt.meta import suspend_judgment, walking_equiv
from icatt.normalize import beta_reduce
from icatt.syntax import (
    DESTRUCTORS,
    Arr,
    Can,
    Coh,
    Coind,
    Context,
    Destr,
    Inv,
    MemoMap,
    MetaRef,
    Obj,
    Rec,
    Substitution,
    Var,
    VarRef,
    alpha_eq_context,
    alpha_eq_term,
    alpha_eq_type,
    alpha_key_context,
    alpha_key_term,
    alpha_key_type,
    apply_sub_term,
    apply_sub_type,
    coh_type,
    compose_sub,
    dim_context,
    dim_type,
    fresh_name,
    identity_sub,
    map_children,
    rec_head_key,
    rename_vars_term,
    rename_vars_type,
    subterms,
    variables_used_term,
    variables_used_type,
)

from oracles import dimension


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


def test_dimension_refuses_what_is_not_a_type():
    """A value that is not a type node is refused as a term node is."""
    for x in (5, VarRef(Var("x"))):
        with pytest.raises(TypeError) as exc:
            dim_type(x)
        assert str(exc.value) == f"not a type: {x!r}"


def test_dimension_refuses_a_node_keeping_another_fact():
    """A coherence cell and a recursor are refused before and after they
    keep another fact in the slot where a type keeps its dimension: the
    cell its instantiated type, the recursor its canonical head."""
    x = VarRef(Var("x"))
    cell = id_of(x, Obj())
    rec = Rec(x, x, x, x, x, x, x, identity_sub(Context(((Var("x"), Obj()),))))
    for node, keep in ((cell, coh_type), (rec, rec_head_key)):
        for _ in range(2):
            with pytest.raises(TypeError) as exc:
                dim_type(node)
            assert str(exc.value) == f"not a type: {node!r}"
            keep(node)
    assert coh_type(cell) is Arr(Obj(), x, x)


def test_inv_dimension_matches_subject():
    e1 = walking_equiv(1)
    inv_ty = e1.entries[-1][1]
    assert dim_type(inv_ty) == 1  # dimension of d1


def test_dimension_agrees_with_recursion(corpus_terms):
    """The dimension kept on a type node is the one recursion on its
    bases gives, on every type of the corpus: the declared and inferred
    types, the context entries, the coherence types and their pasting
    contexts, and the type each subterm infers, with all their bases."""
    types = []
    for _, ctx, term, ty in corpus_terms:
        types += [ty, *(e for _, e in ctx)]
        for s in subterms([term]):
            types.append(infer_term(ctx, s))
            if isinstance(s, Coh):
                types += [s.ty, *(e for _, e in s.ps)]
    seen = set()
    for ty in types:
        while id(ty) not in seen:
            seen.add(id(ty))
            assert dim_type(ty) == dimension(ty), ty
            if isinstance(ty, Obj):
                break
            ty = ty.base
    assert len(seen) > 100


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
    # the last doubling over two copies built apart, over distinct metas
    # solved to the same variables: the zonk stores the copies once
    my, mg = el.metas.fresh("x"), el.metas.fresh("f")
    el.metas.solutions.update({my.uid: VarRef(Var("y")), mg.uid: VarRef(Var("g"))})
    half_ty = Arr(Obj(), mx, mx)
    two_copies, _ = comp_of([(_doubling_chain(mx, mf, 11), half_ty), (_doubling_chain(my, mg, 11), half_ty)])
    cases = {
        "apply_sub_term": (over_vars, lambda t: apply_sub_term(t, sub_to(ctx, x=VarRef(Var("y")), f=VarRef(Var("g"))))),
        "rename_vars_term": (over_vars, lambda t: rename_vars_term(t, {"x": "y", "f": "g"})),
        "zonk_term": (over_metas, el.zonk_term),
        "zonk_term of two copies": (two_copies, el.zonk_term),
    }
    for name, (source, rename) in cases.items():
        out = rename(source)
        assert out == expected, name
        assert _distinct_nodes(out) <= _distinct_nodes(over_vars), (name, _distinct_nodes(out))


def test_zonk_merges_only_equal_nodes():
    """The strict zonk merges a node with an equal one, the same closed
    parts at the same children, but never with one that is only
    alpha-equivalent: the two name their bound variables apart, and the
    printer shows those names."""
    from icatt.elaborate import Elaborator
    from icatt.kernel import Environment

    def cell(names):
        x, y, f = (Var(n) for n in names)
        ps = Context(((x, Obj()), (y, Obj()), (f, Arr(Obj(), VarRef(x), VarRef(y)))))
        return ps, Arr(Arr(Obj(), VarRef(x), VarRef(y)), VarRef(f), VarRef(f))

    el = Elaborator(Environment())

    def instance(ps, ty):
        """A cell over ``ps`` whose images are fresh metas solved to a, b, h."""
        metas = [el.metas.fresh(v.name) for v in ps.vars()]
        for m, image in zip(metas, "abh"):
            el.metas.solve(m.uid, VarRef(Var(image)))
        return Coh(ps, ty, Substitution(tuple(zip(ps.vars(), metas)), ps))

    head, renamed = cell("xyf"), cell("uvk")
    same, same_again, alpha = instance(*head), instance(*head), instance(*renamed)
    a = VarRef(Var("a"))
    out = el.zonk_term(Coind(same, alpha, same_again, a, a, a, a))
    assert out.t is out.tr
    assert alpha_key_term(out.t) == alpha_key_term(out.tl) and out.t != out.tl
    assert out.t is not out.tl
    assert [v.name for v in out.tl.ps.vars()] == ["u", "v", "k"]


# -- alpha-keys against a reference ------------------------------------------


class _ReferenceKeys:
    """The nested-tuple alpha-keys that interned keys replaced, kept as a
    reference: two entities are alpha-equivalent exactly when their
    reference keys are equal.  Closed keys are memoised per object for
    the life of the instance."""

    def __init__(self):
        self.cache = {}

    def _cached(self, obj, compute):
        hit = self.cache.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        key = compute()
        self.cache[id(obj)] = (obj, key)
        return key

    def type(self, ty, bound=None):
        b = bound or {}
        if not b:
            return self._cached(ty, lambda: self._type_raw(ty, b))
        return self._type_raw(ty, b)

    def _type_raw(self, ty, b):
        match ty:
            case Obj():
                return ("obj",)
            case Arr(base, src, tgt):
                return ("arr", self.type(base, b), self.term(src, b), self.term(tgt, b))
            case Inv(base, subject):
                return ("inv", self.type(base, b), self.term(subject, b))
        raise TypeError(ty)

    def term(self, t, bound=None):
        b = bound or {}
        if not b:
            return self._cached(t, lambda: self._term_raw(t, b))
        return self._term_raw(t, b)

    def _term_raw(self, t, b):
        match t:
            case VarRef(v):
                if v.name in b:
                    return ("bv", b[v.name])
                return ("fv", v.name)
            case Coh(ps, ty, sub):
                pk, pb = self._ctx(ps)
                return ("coh", pk, self.type(ty, pb), tuple(self.term(s, b) for s in sub.terms()))
            case Coind():
                return ("coind",) + tuple(self.term(c, b) for c in t.components())
            case Rec():
                ek, eb = self._ctx(t.sub.codomain)
                comps = t.components()
                keys = [self.term(c, eb) for c in comps[:5]]
                avoid = t.sub.codomain.names()
                ebh = dict(eb)
                for i, hv in enumerate((fresh_name("h-", avoid), fresh_name("h+", avoid))):
                    ebh[hv] = len(eb) + i
                keys += [self.term(c, ebh) for c in comps[5:]]
                return ("rec", ek, tuple(keys), tuple(self.term(s, b) for s in t.sub.terms()))
            case Can(subject, wit):
                return ("can", self.term(subject, b), tuple(self.term(w, b) for _, w in wit))
            case Destr(kind, arg):
                return ("destr", kind, self.term(arg, b))
            case MetaRef(uid, _):
                return ("meta", uid)
        raise TypeError(t)

    def _ctx(self, ctx):
        def compute():
            b = {}
            keys = []
            for v, ty in ctx:
                keys.append(self.type(ty, b))
                b[v.name] = len(b)
            return tuple(keys), b

        return self._cached(ctx, compute)

    def context(self, ctx):
        return self._ctx(ctx)[0]


def _rename_binders(c, m, ty):
    """The coherence of type ``ty`` over the pasting context of ``c``
    with its variables renamed by ``m``, instantiated as ``c`` is."""
    ps = Context(tuple((Var(m.get(v.name, v.name)), rename_vars_type(t, m)) for v, t in c.ps))
    sub = Substitution(tuple((Var(m.get(x.name, x.name)), s) for x, s in c.sub.pairs), ps)
    return Coh(ps, ty, sub)


def _swap_bound(x, a, b):
    """``x``, a coherence or recursor, with its bound variables ``a`` and
    ``b`` exchanged in its type or components: usually not
    alpha-equivalent to ``x``, so keys must tell bound positions apart."""
    swap = {a: b, b: a}
    if isinstance(x, Coh):
        return Coh(x.ps, rename_vars_type(x.ty, swap), x.sub)
    return Rec(*[rename_vars_term(c, swap) for c in x.components()], x.sub)


def _assert_same_classes(items, key, ref_key):
    """``key`` and ``ref_key`` induce the same partition of ``items``:
    equal keys exactly when equal reference keys."""
    by_key, by_ref = {}, {}
    for x in items:
        k, r = key(x), ref_key(x)
        assert by_key.setdefault(k, r) == r, x
        assert by_ref.setdefault(r, k) == k, x
    return len(by_key)


def test_alpha_keys_agree_with_reference(corpus_terms):
    """Over the corpus terms' subterms, renamings of their free and
    bound variables, and suspensions, interned keys are equal exactly
    when the nested-tuple reference keys are."""
    rng = random.Random(7)
    terms, types, contexts = [], [], []
    for _, ctx, term, ty in corpus_terms:
        names = [v.name for v, _ in ctx]
        fresh = {n: n + "_" for n in names}
        collapse = {n: rng.choice(names) for n in names}
        same = {n: n for n in names}
        roots = [term] + [rename_vars_term(term, m) for m in (fresh, collapse, same)]
        sctx, sterm, sty = suspend_judgment(ctx, term, ty)
        roots.append(sterm)
        terms.extend(subterms(roots))
        types.extend([ty, sty, rename_vars_type(ty, fresh), rename_vars_type(ty, same)])
        renamed_ctx = Context(tuple((Var(fresh[v.name]), rename_vars_type(t, fresh)) for v, t in ctx))
        contexts.extend([ctx, sctx, renamed_ctx])
    cohs = [t for t in terms if isinstance(t, Coh)]
    rec_heads = {id(t.t): t for t in terms if isinstance(t, Rec)}.values()
    for c in rng.sample(cohs, min(len(cohs), 400)):
        primes = {v.name: v.name + "'" for v, _ in c.ps}
        renamed = _rename_binders(c, primes, rename_vars_type(c.ty, primes))
        terms.append(renamed)
        types.extend([c.ty, renamed.ty])
        contexts.extend([c.ps, renamed.ps])
        if len(c.ps) > 1:
            a, b = rng.sample([v.name for v, _ in c.ps], 2)
            swapped = _swap_bound(c, a, b)
            # the same type object over a renamed context: the swapped cell
            terms.extend([swapped, _rename_binders(c, {a: b, b: a}, c.ty)])
            contexts.append(Context(tuple((v, swapped.ty) for v, _ in c.ps)))
    for r in rec_heads:
        avoid = r.sub.codomain.names()
        terms.append(_swap_bound(r, *rng.sample(sorted(avoid), 2)))
        terms.append(_swap_bound(r, fresh_name("h-", avoid), fresh_name("h+", avoid)))

    ref = _ReferenceKeys()
    n_terms = _assert_same_classes(terms, alpha_key_term, ref.term)
    n_types = _assert_same_classes(types, alpha_key_type, ref.type)
    n_ctxs = _assert_same_classes(contexts, alpha_key_context, ref.context)
    # the pools hold both alpha-equivalent and inequivalent entities
    assert 1 < n_terms < len(terms) and 1 < n_types < len(types) and 1 < n_ctxs < len(contexts)


class _RenameApart(MemoMap):
    """Each coherence rebuilt over its pasting context with every binder
    renamed apart (``x`` to ``x~``), and each witness family's keys with
    it: an alpha-equivalent copy sharing no coherence node."""

    __slots__ = ()

    def rebuild(self, t):
        if isinstance(t, Coh):
            m = {v.name: v.name + "~" for v, _ in t.ps}
            ps = Context(tuple((Var(m[v.name]), rename_vars_type(ty, m)) for v, ty in t.ps))
            sub = Substitution(tuple(zip(ps.vars(), map(self, t.sub.terms()))), ps)
            return Coh(ps, rename_vars_type(t.ty, m), sub)
        if isinstance(t, Can):
            return Can(self(t.subject), tuple((Var(x.name + "~"), self(w)) for x, w in t.witnesses))
        return map_children(t, self)


def test_alpha_equality_is_equality_of_keys(corpus_terms):
    """For every pair of a pool of terms (the corpus terms, copies of them
    with every pasting-context binder renamed apart, their beta-normal
    forms and the canonical components of their ``can``s), and of their
    types, alpha-equality holds exactly when the alpha-keys are one node.
    Every verdict is taken before any key of the copies is built."""
    terms, types = [], []
    for _, ctx, term, ty in corpus_terms:
        apart = _RenameApart()
        terms += [term, apart(term), beta_reduce(term)]
        types += [ty, apart.type(ty)]
        for can in [x for x in subterms([term]) if isinstance(x, Can)]:
            for kind in DESTRUCTORS:
                component = canonical_component(can, kind)
                terms.append(component)
                types.append(infer_term(ctx, component))
    for pool, eq, key in ((terms, alpha_eq_term, alpha_key_term), (types, alpha_eq_type, alpha_key_type)):
        pool = list({id(x): x for x in pool}.values())
        verdicts = [[eq(a, b) for b in pool] for a in pool]
        keys = [key(a) for a in pool]
        assert verdicts == [[ka is kb for kb in keys] for ka in keys]
        assert 1 < len(set(map(id, keys))) < len(pool)


def _small_contexts(n):
    """Every context of ``n`` entries named from ``a``, ``b``, ``c`` whose
    types are ``*`` or an arrow between earlier objects."""
    if n == 0:
        yield ()
        return
    for pre in _small_contexts(n - 1):
        objs = [v.name for v, ty in pre if isinstance(ty, Obj)]
        tys = [Obj()] + [arr0(p, q) for p in objs for q in objs]
        for name in "abc":
            for ty in tys:
                yield pre + ((Var(name), ty),)


def test_repeated_names_never_key_like_fresh_ones():
    """A context that repeats a name is alpha-equivalent to no context
    without repeats, so their keys differ."""
    fresh, repeating = {}, []
    for n in range(5):
        for entries in _small_contexts(n):
            names = [v.name for v, _ in entries]
            if len(set(names)) == len(names):
                fresh[alpha_key_context(Context(entries))] = entries
            else:
                repeating.append(entries)
    collisions = [e for e in repeating if alpha_key_context(Context(e)) in fresh]
    assert not collisions, collisions[:3]
    assert len(fresh) > 1 and len(repeating) > 1000


def test_rekeying_a_key_is_the_identity_only_without_repeats():
    """A known limit: the key of a context that repeats a name names the
    entry it shadows (``#2>#0``), and keying that key again drops the
    mark, so a key is not its own key; a context with no repeated name
    keys to a node that is its own key.  No caller may rely on keying a
    key again."""
    repeating = Context(((Var("x"), Obj()), (Var("y"), Obj()), (Var("x"), Obj())))
    key = alpha_key_context(repeating)
    assert [v.name for v in key.vars()] == ["#0", "#1", "#2>#0"]
    rekeyed = alpha_key_context(key)
    assert [v.name for v in rekeyed.vars()] == ["#0", "#1", "#2"]
    assert rekeyed is not key
    for n in range(4):
        for entries in _small_contexts(n):
            names = [v.name for v, _ in entries]
            if len(set(names)) == len(names):
                key = alpha_key_context(Context(entries))
                assert alpha_key_context(key) is key


def _probe_entries():
    """The keys in the intern table of the live nodes of the lifetime
    probe variable: its ``Var`` and its ``VarRef``."""
    name = "class-lifetime-probe"
    return [k for k in syntax._INTERN if k[1:] == (name,) or (k[0] is VarRef and k[1].name == name)]


def test_a_canonical_node_lives_as_long_as_syntax_refers_to_it():
    """A term's canonical nodes and its nodes, and their entries in the
    intern table, live exactly as long as some node refers to them:
    dropping a term frees them, and building the term again makes one
    new canonical node, which alpha-equivalent live nodes share."""
    probe = VarRef(Var("class-lifetime-probe"))
    t = Destr("linv", id_of(probe, Obj()))
    keys = [alpha_key_term(s) for s in subterms([t])]
    assert keys[0] is not t and keys[-1] is probe  # a renamed binder, and a free variable
    assert all((type(k), *[getattr(k, f) for f in type(k).__match_args__]) in syntax._INTERN for k in keys)
    keys = list(map(weakref.ref, keys))
    nodes = [weakref.ref(s) for s in subterms([t])]
    assert len(_probe_entries()) == 2
    del t, probe
    gc.collect()
    assert [ref() for ref in keys] == [None, None, None]
    assert [ref() for ref in nodes] == [None, None, None]
    assert not _probe_entries()

    # over a pasting context named apart from the one of id_of
    z = Context(((Var("z"), Obj()),))
    renamed = Coh(z, arr0("z", "z"), Substitution(((Var("z"), VarRef(Var("class-lifetime-probe"))),), z))
    again = Destr("linv", id_of(VarRef(Var("class-lifetime-probe")), Obj()))
    assert alpha_key_term(again) is alpha_key_term(Destr("linv", renamed))
    assert len(_probe_entries()) == 2 and keys[0]() is None


def _twice(build):
    """``build()`` called twice, each time from children built anew."""
    return build(), build()


_NODE_BUILDERS = {
    Var: lambda: Var("hc-x"),
    Obj: lambda: Obj(),
    Arr: lambda: arr0("hc-x", "hc-y"),
    Inv: lambda: Inv(arr0("hc-x", "hc-y"), VarRef(Var("hc-f"))),
    VarRef: lambda: VarRef(Var("hc-x")),
    Coh: lambda: id_of(VarRef(Var("hc-x")), Obj()),
    Coind: lambda: Coind(*[VarRef(Var(f"hc-{i}")) for i in range(7)]),
    Rec: lambda: Rec(*[VarRef(Var(f"d{i % 2}")) for i in range(7)], identity_sub(walking_equiv(1))),
    Can: lambda: Can(id_of(VarRef(Var("hc-x")), Obj()), ((Var("d0"), VarRef(Var("hc-e"))),)),
    Destr: lambda: Destr("rwit", VarRef(Var("hc-e"))),
    Context: lambda: Context(((Var("hc-x"), Obj()), (Var("hc-f"), arr0("hc-x", "hc-x")))),
    Substitution: lambda: Substitution(((Var("d0"), VarRef(Var("hc-x"))),), Context(((Var("d0"), Obj()),))),
}


@pytest.mark.parametrize("cls", list(_NODE_BUILDERS), ids=lambda c: c.__name__)
def test_equal_fields_give_the_same_node(cls):
    """Each constructor returns the one live node with its fields, kept
    in the intern table; equality and hashing are identity, and the
    node's facts are not among its dataclass fields."""
    import dataclasses

    a, b = _twice(_NODE_BUILDERS[cls])
    assert type(a) is cls and a is b and not a._open
    assert (cls, *[getattr(a, f.name) for f in dataclasses.fields(a)]) in syntax._INTERN
    assert hash(a) == object.__hash__(a)
    assert tuple(f.name for f in dataclasses.fields(a)) == cls.__match_args__


def _mentions_open(key) -> bool:
    return any(
        _mentions_open(x) if isinstance(x, tuple) else isinstance(x, syntax._Node) and x._open
        for x in key
    )


def test_nodes_over_a_meta_are_plain_and_never_reach_the_kernel():
    """Syntax over an unsolved metavariable is built as new plain nodes
    outside the intern table, the kernel refuses it, and an elaboration
    that leaves a metavariable unsolved stops before the kernel."""
    from icatt.elaborate import elaborate_decl
    from icatt.errors import UnsolvedMeta
    from icatt.kernel import Environment, infer_term
    from icatt.parser import parse

    m = MetaRef(0, "m")
    built = [Arr(Obj(), m, VarRef(Var("x"))), Destr("linv", m), Coind(*[m] * 7)]
    again = [Arr(Obj(), m, VarRef(Var("x"))), Destr("linv", m), Coind(*[m] * 7)]
    assert m is not MetaRef(0, "m")
    for x, y in zip(built, again):
        assert x._open and x is not y
    ctx = Context(((Var("x"), Obj()),))
    for t in (m, built[1], Destr("rinv", Destr("linv", m))):
        with pytest.raises(UnsolvedMeta):
            infer_term(ctx, t)
        assert t._key is None
    (sdecl,) = parse("let w (x : *) (f : x -> x) = comp _ f\n")
    with pytest.raises(UnsolvedMeta):
        elaborate_decl(Environment(), sdecl)
    assert not any(_mentions_open(k) for k in list(syntax._INTERN))
