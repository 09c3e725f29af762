"""Raw syntax of the theory: types, terms, contexts, substitutions.

Terms and types are immutable trees.  Variables are named; equality of
entities that contain binders (the pasting context of a coherence, the
seed context of a recursive definition) is alpha-insensitive, via their
alpha-keys (:func:`alpha_key_term`, :func:`alpha_key_type`,
:func:`alpha_key_context`, :func:`alpha_key_sub`).  Free variables
always compare by name, so two terms over the same ambient context have
equal keys exactly when they denote the same syntax up to renaming of
bound contexts.  A key is an :class:`AlphaClass`, the one live object
for a shallow shape (a tag, the keys of the children, and the names
that matter: free variables, destructor kinds) in one weak intern
table; a bound variable's shape is its binding position.  Keys compare
by identity, so comparing or hashing one costs O(1), and computing a
node's key costs O(arity) once its children's keys are known.

Context keys.  Each entry of a context binds its name to its position,
and its type is keyed over the entries before it.  An entry that
repeats an earlier name is marked with the position it shadows, so a
context that repeats a name never shares its key with one that does
not; the two inductive hypotheses of a recursor are bound at the
positions after its seed.  A context's key is a chain, the key of its
prefix extended by the key of its last entry, computed in one pass over
its entries (:func:`_ctx_key`).  The key of a coherence head
(:func:`coh_head_key`) and of a recursor's body (:func:`rec_head_key`)
leave out the instantiating substitution.

The six destructors are identified by the strings in :data:`DESTRUCTORS`
("lwit"/"rwit" are the invertibility witnesses of the left/right
cancellation cells, written ``ilunit``/``irunit`` in source files);
that table decides their spellings, the components they project and
their sides, for every module.

Traversal.  Substitution, renaming, free variables and metavariable
instantiation are one structural recursion over the *free positions* of
a term: the images of a ``Coh``'s or ``Rec``'s substitution, the seven
components of a ``Coind``, the subject and witnesses of a ``Can``, and
the argument of a ``Destr``.  :func:`children` lists them and
:func:`map_children` rebuilds a node from their images; ``VarRef`` and
``MetaRef`` have none.  Bound contexts are never entered: the pasting
context and type of a ``Coh``, and the seed context and components of a
``Rec``, are closed and pass through unchanged.  :class:`MemoMap` lifts
a map on leaves to whole terms, memoised on node identity so a shared
DAG costs its number of distinct nodes; :class:`SharingMap` also merges
equal nodes of its output.  The memo lives for one top-level call
(shared across every pair of a substitution and every part of a type)
and is dropped after it, so a cold run and a warm run cannot differ.

Cache policy.  Memory of past work lives as long as the syntax it is
about.  The intern table, the only module-level table, holds each class
weakly: a class lives while a node, a context or a larger class's shape
refers to it.  Facts that carry no names are kept on the class (see
:class:`AlphaClass`), facts that carry names on the node (see
:class:`_Node`).  Traversal memos (:class:`MemoMap`, the keys under
binders, suspension) are keyed on node identity and last one top-level
call, and so does the merge table of :class:`SharingMap`, which maps
the fields of each node a call has built (:func:`share_key`) to that
node.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Callable, Iterable, Iterator, Union
from weakref import KeyedRef

from .errors import DuplicateVariable, UnboundVariable

# The six destructors.  Destructor i projects component i + 1 of an
# invertibility structure; they come in (left, right) pairs: the
# inverses, the cancellation cells, and the witnesses of the
# cancellation cells, whose argument and result are both invertibility
# data.  Their spellings in source files come in the same order.
DESTRUCTORS = ("linv", "rinv", "lunit", "runit", "lwit", "rwit")
DESTRUCTOR_SPELLINGS = ("linv", "rinv", "lunit", "runit", "ilunit", "irunit")
INVERSES, UNITS, WITNESSES = DESTRUCTORS[0:2], DESTRUCTORS[2:4], DESTRUCTORS[4:6]
SIDES = ("left", "right")


class _Node:
    """Facts about a node, cached on it in its instance ``__dict__``
    (written with ``object.__setattr__``, the dataclasses being frozen):
    the alpha-class of a closed node, the head key of a coherence type
    over its pasting context (:func:`coh_head_key`) or of a recursor's
    body (:func:`rec_head_key`), the beta-normal form of a term, which
    :mod:`icatt.normalize` writes, and on a :class:`Context` its keys
    and binder map (:func:`_ctx_key`) and the positions of its explicit
    arguments, which the elaborator writes.  None until computed."""

    _key = None
    _beta = None
    _head_key = None
    _keys = None
    _explicit = None


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Obj(_Node):
    """The base type of objects (0-cells)."""


@dataclass(frozen=True)
class Arr(_Node):
    """Arrow type between two parallel terms of a common base type."""

    base: Type
    src: Term
    tgt: Term


@dataclass(frozen=True)
class Inv(_Node):
    """Type of invertibility structures on ``subject : base``."""

    base: Type  # always an Arr in checked syntax
    subject: Term


Type = Union[Obj, Arr, Inv]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarRef(_Node):
    var: Var


@dataclass(frozen=True)
class Coh(_Node):
    """A coherence cell: a pasting context, a full type over it, and the
    substitution instantiating it in the ambient context."""

    ps: Context
    ty: Type
    sub: Substitution


@dataclass(frozen=True)
class Coind(_Node):
    """Direct coinductive invertibility tuple."""

    t: Term
    tl: Term
    tr: Term
    tlu: Term
    tru: Term
    tilu: Term
    tiru: Term

    def components(self) -> tuple[Term, ...]:
        return (self.t, self.tl, self.tr, self.tlu, self.tru, self.tilu, self.tiru)


@dataclass(frozen=True)
class Rec(_Node):
    """Recursive invertibility definition.

    The first five components live over ``sub.codomain`` (a walking
    equivalence), the last two over its inductive extension; ``sub``
    instantiates the seed context in the ambient context.
    """

    t: Term
    tl: Term
    tr: Term
    tlu: Term
    tru: Term
    tilu: Term
    tiru: Term
    sub: Substitution

    def components(self) -> tuple[Term, ...]:
        return (self.t, self.tl, self.tr, self.tlu, self.tru, self.tilu, self.tiru)


@dataclass(frozen=True)
class Can(_Node):
    """Canonical invertibility structure on a coherence cell.

    ``witnesses`` maps the top-dimensional variables of the subject's
    pasting context (in telescope order) to invertibility structures on
    their images.
    """

    subject: Term  # a Coh in checked syntax
    witnesses: tuple[tuple[Var, Term], ...]


@dataclass(frozen=True)
class Destr(_Node):
    kind: str  # one of DESTRUCTORS
    arg: Term


@dataclass(frozen=True)
class MetaRef(_Node):
    """An unsolved elaboration metavariable.  Never reaches the kernel:
    declarations are zonked before checking."""

    uid: int
    hint: str = "_"


Term = Union[VarRef, Coh, Coind, Rec, Can, Destr, MetaRef]


# ---------------------------------------------------------------------------
# Contexts and substitutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Context(_Node):
    entries: tuple[tuple[Var, Type], ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Var, Type]]:
        return iter(self.entries)

    def vars(self) -> tuple[Var, ...]:
        return tuple(v for v, _ in self.entries)

    def names(self) -> set[str]:
        return {v.name for v, _ in self.entries}

    def lookup(self, var: Var) -> Type:
        for v, ty in self.entries:
            if v.name == var.name:
                return ty
        raise UnboundVariable(f"variable {var.name} not in context")

    def has(self, var: Var) -> bool:
        return any(v.name == var.name for v, _ in self.entries)

    def extend(self, var: Var, ty: Type) -> Context:
        if self.has(var):
            raise DuplicateVariable(f"variable {var.name} already in context")
        return Context(self.entries + ((var, ty),))


@dataclass(frozen=True)
class Substitution:
    """Ordered assignments onto the variables of ``codomain``."""

    pairs: tuple[tuple[Var, Term], ...]
    codomain: Context

    def lookup(self, var: Var) -> Term:
        for v, t in self.pairs:
            if v.name == var.name:
                return t
        raise UnboundVariable(f"substitution does not assign {var.name}")

    def terms(self) -> tuple[Term, ...]:
        return tuple([t for _, t in self.pairs])


def identity_sub(ctx: Context) -> Substitution:
    return Substitution(tuple((v, VarRef(v)) for v, _ in ctx), ctx)


# ---------------------------------------------------------------------------
# The traversal of free positions
# ---------------------------------------------------------------------------


def children(t: Term) -> tuple[Term, ...]:
    """The terms at the free positions of ``t``, in order."""
    match t:
        case Coh() | Rec():
            return t.sub.terms()
        case Coind():
            return t.components()
        case Can():
            return (t.subject, *[w for _, w in t.witnesses])
        case Destr():
            return (t.arg,)
        case VarRef() | MetaRef():
            return ()
    raise TypeError(f"not a term: {t!r}")


def _with_images(sub: Substitution, images: Iterable[Term]) -> Substitution:
    return Substitution(tuple([(x, s) for (x, _), s in zip(sub.pairs, images)]), sub.codomain)


def map_children(t: Term, f: Callable[[Term], Term]) -> Term:
    """``t`` rebuilt with ``f`` applied at each free position; ``t``
    itself when every image is the child it replaces."""
    old = children(t)
    new = tuple(map(f, old))
    if all(map(is_, old, new)):
        return t
    match t:
        case Coh(ps, ty, sub):
            return Coh(ps, ty, _with_images(sub, new))
        case Rec():
            return Rec(*t.components(), _with_images(t.sub, new))
        case Coind():
            return Coind(*new)
        case Can(_, wit):
            return Can(new[0], tuple((x, w) for (x, _), w in zip(wit, new[1:])))
    return Destr(t.kind, new[0])  # the only other kind with a child


def map_type(ty: Type, f: Callable[[Term], Term]) -> Type:
    """``ty`` rebuilt with ``f`` applied to each of its terms, base first."""
    match ty:
        case Obj():
            return ty
        case Arr(base, src, tgt):
            return Arr(map_type(base, f), f(src), f(tgt))
        case Inv(base, subject):
            return Inv(map_type(base, f), f(subject))
    raise TypeError(f"not a type: {ty!r}")


def _type_terms(ty: Type) -> tuple[Term, ...]:
    """The terms of ``ty`` in the order :func:`map_type` visits them."""
    match ty:
        case Obj():
            return ()
        case Arr(base, src, tgt):
            return _type_terms(base) + (src, tgt)
        case Inv(base, subject):
            return _type_terms(base) + (subject,)
    raise TypeError(f"not a type: {ty!r}")


class MemoMap:
    """The map sending each ``VarRef`` or ``MetaRef`` ``x`` to
    ``leaf(x, self)`` and rebuilding every other node from the images of
    its children, memoised on node identity.  The memo lives as long as
    the map: make one per top-level call, whose roots keep every keyed
    node alive.  (A class rather than a
    closure: a closure that calls itself is a reference cycle, and every
    memo would wait for the garbage collector.)"""

    __slots__ = ("leaf", "memo")

    def __init__(self, leaf: Callable[[Term, MemoMap], Term]):
        self.leaf = leaf
        self.memo: dict[int, Term] = {}

    def __call__(self, t: Term) -> Term:
        if isinstance(t, (VarRef, MetaRef)):
            return self.leaf(t, self)
        out = self.memo.get(id(t))
        if out is None:
            out = self.memo[id(t)] = map_children(t, self)
        return out


def share_key(t: Term) -> tuple:
    """The fields of ``t`` with every node among them by identity: its
    class, destructor kind and names (variables, the variables a
    substitution or a ``Can`` assigns), and the identities of its closed
    parts (pasting context, coherence type, a substitution's codomain,
    a recursor's components) and of its children.  Two nodes with equal
    keys are equal as dataclasses; alpha-equivalent nodes over
    differently named binders are not, and keep distinct keys.  A key
    names live objects only while a node with that key is kept."""
    match t:
        case VarRef(v):
            return (VarRef, v.name)
        case Coh(ps, ty, sub):
            return (Coh, id(ps), id(ty), *_sub_fields(sub))
        case Rec():
            return (Rec, *map(id, t.components()), *_sub_fields(t.sub))
        case Coind():
            return (Coind, *map(id, t.components()))
        case Can(subject, wit):
            return (Can, id(subject), *[x.name for x, _ in wit], *[id(w) for _, w in wit])
        case Destr(kind, arg):
            return (Destr, kind, id(arg))
        case MetaRef(uid, hint):
            return (MetaRef, uid, hint)
    raise TypeError(f"not a term: {t!r}")


def _sub_fields(sub: Substitution) -> tuple:
    return (id(sub.codomain), *[x.name for x, _ in sub.pairs], *[id(s) for _, s in sub.pairs])


class SharingMap(MemoMap):
    """A :class:`MemoMap` that also merges every node it returns with an
    equal one it returned before (same :func:`share_key`), so its output
    is a maximally shared DAG: equal subterms built separately, such as
    two instances of one definition at the same arguments, are stored
    once.  The merge table lives as long as the map, one top-level call;
    its nodes keep alive every object their keys name."""

    __slots__ = ("table",)

    def __init__(self, leaf: Callable[[Term, MemoMap], Term]):
        super().__init__(leaf)
        self.table: dict[tuple, Term] = {}

    def __call__(self, t: Term) -> Term:
        if isinstance(t, (VarRef, MetaRef)):
            out = self.leaf(t, self)
            return self.table.setdefault(share_key(out), out)
        out = self.memo.get(id(t))
        if out is None:
            out = map_children(t, self)
            out = self.memo[id(t)] = self.table.setdefault(share_key(out), out)
        return out


def subterms(roots: Iterable[Term]) -> Iterator[Term]:
    """Each distinct node reachable from ``roots`` through free
    positions, once, depth first in pre-order (so in order of first
    occurrence)."""
    seen: set[int] = set()
    stack = list(roots)[::-1]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            yield t
            stack.extend(children(t)[::-1])


# ---------------------------------------------------------------------------
# Substitution action
# ---------------------------------------------------------------------------


def _sub_leaf(sub: Substitution) -> Callable[[Term, MemoMap], Term]:
    return lambda x, _: sub.lookup(x.var) if isinstance(x, VarRef) else x


def apply_sub_type(ty: Type, sub: Substitution) -> Type:
    return map_type(ty, MemoMap(_sub_leaf(sub)))


def apply_sub_term(t: Term, sub: Substitution) -> Term:
    if isinstance(t, VarRef):  # a leaf root needs no memo
        return sub.lookup(t.var)
    return MemoMap(_sub_leaf(sub))(t)


def compose_sub(first: Substitution, second: Substitution) -> Substitution:
    """Pointwise composition: apply ``second`` to the terms of ``first``."""
    return _with_images(first, map(MemoMap(_sub_leaf(second)), first.terms()))


# ---------------------------------------------------------------------------
# Dimension
# ---------------------------------------------------------------------------


def dim_type(ty: Type) -> int:
    match ty:
        case Obj():
            return -1
        case Arr(base, _, _) | Inv(base, _):
            # an invertibility structure has the dimension of its subject
            return dim_type(base) + 1
    raise TypeError(f"not a type: {ty!r}")


def dim_context(ctx: Context) -> int:
    return max((dim_type(ty) + 1 for _, ty in ctx), default=-1)


def top_variables(coh: Coh) -> tuple[Var, ...]:
    """The variables of a coherence's pasting context that have the
    cell's own dimension, in order: the keys of its witnesses."""
    n = dim_type(coh.ty) + 1
    return tuple(v for v, ty in coh.ps if dim_type(ty) + 1 == n)


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------


def variables_used_term(t: Term, acc: dict[str, Var] | None = None) -> dict[str, Var]:
    """Free variables of a term, in first-occurrence order.

    Variables bound by an internal context (the pasting context of a
    coherence, the seed of a recursive definition) do not occur free;
    what does occur free are the terms assigned by the attached
    substitution, witness images and so on.
    """
    return _variables_used((t,), acc)


def variables_used_type(ty: Type, acc: dict[str, Var] | None = None) -> dict[str, Var]:
    return _variables_used(_type_terms(ty), acc)


def _variables_used(roots: Iterable[Term], acc: dict[str, Var] | None) -> dict[str, Var]:
    out: dict[str, Var] = {} if acc is None else acc
    for t in subterms(roots):
        if isinstance(t, VarRef):
            out.setdefault(t.var.name, t.var)
    return out


def fresh_name(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# Alpha-invariant canonical keys
# ---------------------------------------------------------------------------

class AlphaClass:
    """The one live object for a shape (see :func:`_intern`), so keys
    are equal exactly when they are the same object, with the facts the
    kernel learns about the members of the class, made on first use:
    ``types``, the type a member infers over the named key of a context
    (a pair for the first context, then a dict; it keeps those keys
    alive); ``checked``, set once a coherence head passes its check;
    ``steps``, the stages of a cancellator by side and witness keys."""

    __slots__ = ("types", "checked", "steps", "__weakref__")

    def __init__(self) -> None:
        self.types = None
        self.checked = False
        self.steps = None


# shape (a tag, child classes, names) -> a weak reference to its class,
# whose key is the shape; see the module docstring
_INTERN: dict[tuple, KeyedRef] = {}


def _intern(shape: tuple) -> AlphaClass:
    ref = _INTERN.get(shape)
    cls = None if ref is None else ref()
    if cls is None:
        cls = AlphaClass()
        _INTERN[shape] = KeyedRef(cls, _forget, shape)
    return cls


def _forget(ref: KeyedRef, table: dict[tuple, KeyedRef] = _INTERN) -> None:
    # a class died: drop its entry, unless a new class took the shape
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Keys:
    """Alpha-keys of terms and types under ``bound`` (bound variable
    name -> binding position), memoised on node identity for the life of
    the object.  With nothing bound, the keys cached on the nodes."""

    __slots__ = ("bound", "memo")

    def __init__(self, bound: dict[str, int]):
        self.bound = bound
        self.memo: dict[int, AlphaClass] = {}

    def __call__(self, x: Term | Type) -> AlphaClass:
        if not self.bound:
            return _closed_key(x)
        k = self.memo.get(id(x))
        if k is None:
            k = self.memo[id(x)] = _intern(_shape(x, self))
        return k


_CLOSED = _Keys({})


def _closed_key(x: Term | Type) -> AlphaClass:
    k = x._key
    if k is None:
        k = _intern(_shape(x, _CLOSED))
        object.__setattr__(x, "_key", k)
    return k


def _shape(x: Term | Type, key: _Keys) -> tuple:
    match x:
        case VarRef(v):
            i = key.bound.get(v.name)
            return ("fv", v.name) if i is None else ("bv", i)
        case Coh(ps, ty, sub):
            return ("coh", coh_head_key(ps, ty), *map(key, sub.terms()))
        case Destr(kind, arg):
            return ("destr", kind, key(arg))
        case Coind():
            return ("coind", *map(key, x.components()))
        case Rec():
            return ("rec", rec_head_key(x), *map(key, x.sub.terms()))
        case Can(subject, wit):
            return ("can", key(subject), *[key(w) for _, w in wit])
        case MetaRef(uid, _):
            return ("meta", uid)
        case Obj():
            return ("obj",)
        case Arr(base, src, tgt):
            return ("arr", key(base), key(src), key(tgt))
        case Inv(base, subject):
            return ("inv", key(base), key(subject))
    raise TypeError(f"not a term or type: {x!r}")


def alpha_key_term(t: Term) -> AlphaClass:
    return _closed_key(t)


def alpha_key_type(ty: Type) -> AlphaClass:
    return _closed_key(ty)


def coh_head_key(ps: Context, ty: Type) -> AlphaClass:
    """Alpha-invariant key of a coherence head: its pasting context and
    its type over that context.  Cached on the type, with the named key
    of the context it was keyed over."""
    pk, over, pb = _ctx_key(ps)
    hit = ty._head_key
    if hit is None or hit[0] is not over:
        hit = (over, _intern(("head", pk, _Keys(pb)(ty))))
        object.__setattr__(ty, "_head_key", hit)
    return hit[1]


def rec_hyp_names(seed: Context) -> tuple[str, str]:
    """Names of the two inductive-hypothesis variables that extend a
    recursor's seed context.  They are derived from the seed, so they
    are recomputed rather than stored, by the one rule that both
    :func:`rec_head_key` and :func:`icatt.meta.equiv_ind_context` use."""
    avoid = seed.names()
    return fresh_name("h-", avoid), fresh_name("h+", avoid)


def rec_head_key(t: Rec) -> AlphaClass:
    """Alpha-invariant key of a recursor's body, its seed context and
    its components without the instantiating substitution: the first
    five components over the seed, the last two over the seed extended
    by the two inductive-hypothesis variables.  Cached on ``t``."""
    k = t._head_key
    if k is None:
        seed = t.sub.codomain
        ek, _, eb = _ctx_key(seed)
        ebh = dict(eb)
        for i, hv in enumerate(rec_hyp_names(seed)):
            ebh[hv] = len(seed) + i
        comps = t.components()
        k = _intern(("rec-head", ek, *map(_Keys(eb), comps[:5]), *map(_Keys(ebh), comps[5:])))
        object.__setattr__(t, "_head_key", k)
    return k


def _ctx_key(ctx: Context) -> tuple[AlphaClass, AlphaClass, dict[str, int]]:
    """The key of ``ctx``, its named key and its binder map (variable
    name -> position of its last entry), cached on ``ctx``.  Each
    entry's type is keyed over the entries before it; an entry that
    repeats a name is marked with the position it shadows, so it never
    keys like a fresh name."""
    keys = ctx._keys
    if keys is None:
        k, nk, b = _intern(("ctx",)), _intern(("named",)), {}
        for i, (v, ty) in enumerate(ctx):
            ek = _Keys(b)(ty)
            shadowed = b.get(v.name)
            if shadowed is not None:
                ek = _intern(("shadows", shadowed, ek))
            k, nk = _intern(("ctx", k, ek)), _intern(("named", nk, ek, v.name))
            b[v.name] = i
        keys = (k, nk, b)
        object.__setattr__(ctx, "_keys", keys)
    return keys


def alpha_key_context(ctx: Context) -> AlphaClass:
    return _ctx_key(ctx)[0]


def named_context_key(ctx: Context) -> AlphaClass:
    """A key of ``ctx`` that also tells its variable names apart: equal
    exactly for alpha-equivalent contexts with the same names in the same
    order, the contexts over which terms have the same meaning."""
    return _ctx_key(ctx)[1]


def alpha_key_sub(sub: Substitution) -> AlphaClass:
    return _intern(("sub", alpha_key_context(sub.codomain), *map(_closed_key, sub.terms())))


def alpha_eq_term(a: Term, b: Term) -> bool:
    return alpha_key_term(a) == alpha_key_term(b)


def alpha_eq_type(a: Type, b: Type) -> bool:
    return alpha_key_type(a) == alpha_key_type(b)


def alpha_eq_context(a: Context, b: Context) -> bool:
    return alpha_key_context(a) == alpha_key_context(b)


def rename_vars_type(ty: Type, mapping: dict[str, str]) -> Type:
    return map_type(ty, MemoMap(_rename_leaf(mapping)))


def rename_vars_term(t: Term, mapping: dict[str, str]) -> Term:
    return MemoMap(_rename_leaf(mapping))(t)


def _rename_leaf(mapping: dict[str, str]) -> Callable[[Term, MemoMap], Term]:
    m = {old: VarRef(Var(new)) for old, new in mapping.items()}
    return lambda x, _: m.get(x.var.name, x) if isinstance(x, VarRef) else x
