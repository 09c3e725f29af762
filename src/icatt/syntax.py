"""Raw syntax of the theory: types, terms, contexts, substitutions.

Hash-consing.  Syntax is a DAG of immutable nodes, and each constructor
(``Var``, ``Obj``, ``Arr``, ``Inv``, ``VarRef``, ``Coh``, ``Coind``,
``Rec``, ``Can``, ``Destr``, ``Context``, ``Substitution``) returns the
one live node with its fields: child nodes compared by identity, names
and destructor kinds by value (Filliatre & Conchon, *Type-Safe Modular
Hash-Consing*, 2006).  So ``==`` and ``hash`` are identity, two closed
nodes are equal exactly when they are the same object, and a fact about
a node is computed once however often the node is rebuilt.  The one
exception is syntax over an unsolved elaboration metavariable
(``MetaRef``): such a node is *open*, and stays a plain node outside the
table, because the elaborator builds many short-lived ones and zonks
them away before the kernel sees a declaration.

Canonical nodes.  Variables are named, and the binders of the pasting
context of a coherence and of the seed of a recursor stay named, since
they are printed.  Two entities are alpha-equivalent when they are
equal up to renaming bound names, and then their alpha-keys
(:func:`alpha_key_term`, :func:`alpha_key_type`,
:func:`alpha_key_context`, :func:`alpha_key_sub`) are the same
*canonical node*: the entity with each bound name renamed to its
binding position, spelled ``#i`` so no source identifier can spell it.
Bound are the names of a coherence's pasting context, of a recursor's
seed and its two inductive hypotheses (at the positions after the
seed), and of a keyed context; the names a substitution or a witness
family assigns are renamed with the context they name.  An entry that
repeats a name also records the position it shadows, so a context that
repeats a name never keys like one that does not.

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
``MetaRef`` have none.  Bound contexts are never entered.
:class:`MemoMap` lifts a map on leaves (its method ``leaf``) to whole
terms and to types, with one memo on node identity for both, so a pass
costs its number of distinct nodes, and a type spine shared by several
roots of the pass is rebuilt once; the constructors share its output.
Substitution and renaming are one subclass, with no closure, made per
pass, and canonical nodes another.  The codomain of a
:class:`Substitution` is instantiated in one such pass, the first time
it is asked for (:meth:`Substitution.codomain_types`), and so is the
type of a coherence cell (:func:`coh_type`).

Cache policy.  Memory of past work lives as long as the syntax it is
about.  ``_INTERN``, the only module-level table, holds every closed
node weakly, under its fields; an entry goes when its node dies.  Facts
about a node are slots on it (see :class:`_Node`): among them its
canonical node, its dimension, a substitution's instantiated codomain
and a coherence cell's instantiated type, each computed once per node.
A fact about a node over a context is kept on the node under a weak
reference to the context (:func:`learn_over`), and traversal memos last
one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Callable, Iterable, Iterator, Mapping, Union
from weakref import ref

from .errors import UnboundVariable

# The six destructors.  Destructor i projects component i + 1 of an
# invertibility structure; they come in (left, right) pairs: the
# inverses, the cancellation cells, and the witnesses of the
# cancellation cells, whose argument and result are both invertibility
# data.  Their spellings in source files come in the same order.
DESTRUCTORS = ("linv", "rinv", "lunit", "runit", "lwit", "rwit")
DESTRUCTOR_SPELLINGS = ("linv", "rinv", "lunit", "runit", "ilunit", "irunit")
INVERSES, UNITS, WITNESSES = DESTRUCTORS[0:2], DESTRUCTORS[2:4], DESTRUCTORS[4:6]
SIDES = ("left", "right")


# ---------------------------------------------------------------------------
# The intern table
# ---------------------------------------------------------------------------


class _Ref(ref):
    """A weak reference that knows its key in ``_INTERN``."""

    __slots__ = ("key",)


# a node's class and fields -> a weak reference to the one live node
# with them; see the module docstring
_INTERN: dict[tuple, _Ref] = {}


def _forget(r: _Ref, table: dict[tuple, _Ref] = _INTERN) -> None:
    # a node died: drop its entry, unless a new node took the key
    if table.get(r.key) is r:
        del table[r.key]


def _cons(cls, is_open: bool, *fields):
    """The node of class ``cls`` with ``fields``: the one live such node,
    made and kept on first use; a new plain node when ``is_open``."""
    if not is_open:
        key = (cls, *fields)
        r = _INTERN.get(key)
        if r is not None:
            node = r()
            if node is not None:
                return node
    node = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        setattr(node, name, value)
    node._key = node._beta = node._keys = node._known = node._fact = None
    node._open = is_open
    if not is_open:
        r = _INTERN[key] = _Ref(node, _forget)
        r.key = key
    return node


def _open_in(pairs: tuple) -> bool:
    """Whether the second item of any pair is an open node."""
    for _, x in pairs:
        if x._open:
            return True
    return False


class _Node:
    """Facts about a node, in slots outside its dataclass fields, None
    until computed: its canonical node (``_key``; a context's comes with
    its binders); a term's beta-normal form (``_beta``, written by
    :mod:`icatt.normalize`); each name's type in a :class:`Context` or
    image in a :class:`Substitution` (``_keys``); what the kernel and
    :mod:`icatt.inverse` learn about it (``_known``, see
    :func:`learn_over` and :func:`built_on`); in ``_fact``, a type's
    dimension, a substitution's instantiated codomain, a coherence's
    instantiated type, or a telescope's explicit argument positions,
    which the elaborator writes; and whether it is open (``_open``)."""

    __slots__ = ("_key", "_beta", "_keys", "_known", "_fact", "_open", "__weakref__")


# a node class: a slotted dataclass whose equality is identity, built by
# its __new__, which interns it
_syntax_node = dataclass(eq=False, init=False, slots=True)


@_syntax_node
class Var(_Node):
    name: str

    def __new__(cls, name: str) -> Var:
        return _cons(cls, False, name)

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@_syntax_node
class Obj(_Node):
    """The base type of objects (0-cells)."""

    def __new__(cls) -> Obj:
        return _cons(cls, False)


@_syntax_node
class Arr(_Node):
    """Arrow type between two parallel terms of a common base type."""

    base: Type
    src: Term
    tgt: Term

    def __new__(cls, base: Type, src: Term, tgt: Term) -> Arr:
        return _cons(cls, base._open or src._open or tgt._open, base, src, tgt)


@_syntax_node
class Inv(_Node):
    """Type of invertibility structures on ``subject : base``."""

    base: Type  # always an Arr in checked syntax
    subject: Term

    def __new__(cls, base: Type, subject: Term) -> Inv:
        return _cons(cls, base._open or subject._open, base, subject)


Type = Union[Obj, Arr, Inv]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@_syntax_node
class VarRef(_Node):
    var: Var

    def __new__(cls, var: Var) -> VarRef:
        return _cons(cls, False, var)


@_syntax_node
class Coh(_Node):
    """A coherence cell: a pasting context, a full type over it, and the
    substitution instantiating it in the ambient context."""

    ps: Context
    ty: Type
    sub: Substitution

    def __new__(cls, ps: Context, ty: Type, sub: Substitution) -> Coh:
        return _cons(cls, ps._open or ty._open or sub._open, ps, ty, sub)


@_syntax_node
class Coind(_Node):
    """Direct coinductive invertibility tuple."""

    t: Term
    tl: Term
    tr: Term
    tlu: Term
    tru: Term
    tilu: Term
    tiru: Term

    def __new__(cls, t, tl, tr, tlu, tru, tilu, tiru) -> Coind:
        is_open = t._open or tl._open or tr._open or tlu._open or tru._open or tilu._open or tiru._open
        return _cons(cls, is_open, t, tl, tr, tlu, tru, tilu, tiru)

    def components(self) -> tuple[Term, ...]:
        return (self.t, self.tl, self.tr, self.tlu, self.tru, self.tilu, self.tiru)


@_syntax_node
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

    def __new__(cls, t, tl, tr, tlu, tru, tilu, tiru, sub) -> Rec:
        is_open = (
            t._open or tl._open or tr._open or tlu._open or tru._open or tilu._open or tiru._open or sub._open
        )
        return _cons(cls, is_open, t, tl, tr, tlu, tru, tilu, tiru, sub)

    def components(self) -> tuple[Term, ...]:
        return (self.t, self.tl, self.tr, self.tlu, self.tru, self.tilu, self.tiru)


@_syntax_node
class Can(_Node):
    """Canonical invertibility structure on a coherence cell.

    ``witnesses`` maps the top-dimensional variables of the subject's
    pasting context (in telescope order) to invertibility structures on
    their images.
    """

    subject: Term  # a Coh in checked syntax
    witnesses: tuple[tuple[Var, Term], ...]

    def __new__(cls, subject: Term, witnesses: tuple[tuple[Var, Term], ...]) -> Can:
        return _cons(cls, subject._open or _open_in(witnesses), subject, witnesses)


@_syntax_node
class Destr(_Node):
    kind: str  # one of DESTRUCTORS
    arg: Term

    def __new__(cls, kind: str, arg: Term) -> Destr:
        return _cons(cls, arg._open, kind, arg)


@_syntax_node
class MetaRef(_Node):
    """An unsolved elaboration metavariable, always a new open node.
    Never reaches the kernel: declarations are zonked before checking."""

    uid: int
    hint: str = "_"

    def __new__(cls, uid: int, hint: str = "_") -> MetaRef:
        return _cons(cls, True, uid, hint)


Term = Union[VarRef, Coh, Coind, Rec, Can, Destr, MetaRef]


# ---------------------------------------------------------------------------
# Contexts and substitutions
# ---------------------------------------------------------------------------


@_syntax_node
class Context(_Node):
    entries: tuple[tuple[Var, Type], ...] = ()

    def __new__(cls, entries: tuple[tuple[Var, Type], ...] = ()) -> Context:
        return _cons(cls, _open_in(entries), entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Var, Type]]:
        return iter(self.entries)

    def vars(self) -> tuple[Var, ...]:
        return tuple(v for v, _ in self.entries)

    def names(self) -> set[str]:
        return {v.name for v, _ in self.entries}

    def types(self) -> dict[str, Type]:
        """The type of each name (of its first entry), kept on the node;
        callers only read it."""
        out = self._keys
        if out is None:
            out = self._keys = {v.name: ty for v, ty in reversed(self.entries)}
        return out

    def lookup(self, var: Var) -> Type:
        ty = self.types().get(var.name)
        if ty is None:
            raise UnboundVariable(f"variable {var.name} not in context")
        return ty


@_syntax_node
class Substitution(_Node):
    """Ordered assignments onto the variables of ``codomain``."""

    pairs: tuple[tuple[Var, Term], ...]
    codomain: Context

    def __new__(cls, pairs: tuple[tuple[Var, Term], ...], codomain: Context) -> Substitution:
        return _cons(cls, codomain._open or _open_in(pairs), pairs, codomain)

    def images(self) -> dict[str, Term]:
        """The image of each assigned name (of its first assignment),
        kept on the node; callers only read it."""
        out = self._keys
        if out is None:
            out = self._keys = {v.name: t for v, t in reversed(self.pairs)}
        return out

    def lookup(self, var: Var) -> Term:
        t = self.images().get(var.name)
        if t is None:
            raise UnboundVariable(f"substitution does not assign {var.name}")
        return t

    def terms(self) -> tuple[Term, ...]:
        return tuple([t for _, t in self.pairs])

    def codomain_types(self) -> tuple[Type, ...] | None:
        """The type of each entry of ``codomain``, by position,
        instantiated at this substitution in one pass, so a type shared by
        several entries is rebuilt once; kept on the node.  None when the
        substitution does not assign exactly the codomain's names."""
        out = self._fact
        if out is None and self.images().keys() == self.codomain.types().keys():
            inst = _Instantiate(self.images())
            out = self._fact = tuple([inst.type(ty) for _, ty in self.codomain.entries])
        return out


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


def _type_terms(ty: Type) -> tuple[Term, ...]:
    """The terms of ``ty``, base first, in the order :meth:`MemoMap.type`
    visits them."""
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
    ``self.leaf(x)`` and rebuilding every other term, and every type, from
    the images of its parts, memoised on node identity: a node whose parts
    all map to themselves maps to itself.  Terms and types share the memo,
    which lives as long as the map: make one per pass, whose roots keep
    every keyed node alive.  A subclass overrides :meth:`leaf`.  (A class
    rather than a closure: a closure that calls itself is a reference
    cycle, and every memo would wait for the garbage collector.)"""

    __slots__ = ("memo",)

    def __init__(self) -> None:
        self.memo: dict[int, Term | Type] = {}

    def leaf(self, x: Term) -> Term:
        return x

    def __call__(self, t: Term) -> Term:
        if isinstance(t, (VarRef, MetaRef)):
            return self.leaf(t)
        out = self.memo.get(id(t))
        if out is None:
            out = self.memo[id(t)] = map_children(t, self)
        return out

    def type(self, ty: Type) -> Type:
        out = self.memo.get(id(ty))
        if out is None:
            match ty:
                case Obj():
                    return ty
                case Arr(base, src, tgt):
                    b, s, t = self.type(base), self(src), self(tgt)
                    out = ty if b is base and s is src and t is tgt else Arr(b, s, t)
                case Inv(base, subject):
                    b, s = self.type(base), self(subject)
                    out = ty if b is base and s is subject else Inv(b, s)
                case _:
                    raise TypeError(f"not a type: {ty!r}")
            self.memo[id(ty)] = out
        return out


class _Instantiate(MemoMap):
    """The map sending each variable to its image in ``images``; one with
    no image raises, or maps to itself when ``keep``."""

    __slots__ = ("images", "keep")

    def __init__(self, images: Mapping[str, Term], keep: bool = False):
        self.memo = {}
        self.images = images
        self.keep = keep

    def leaf(self, x: Term) -> Term:
        if isinstance(x, VarRef):
            t = self.images.get(x.var.name)
            if t is not None:
                return t
            if not self.keep:
                raise UnboundVariable(f"substitution does not assign {x.var.name}")
        return x


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


def instantiate_type(ty: Type, images: Mapping[str, Term]) -> Type:
    """``ty`` with each variable replaced by its image in ``images``,
    every variable of ``ty`` having one."""
    return _Instantiate(images).type(ty)


def apply_sub_type(ty: Type, sub: Substitution) -> Type:
    return _Instantiate(sub.images()).type(ty)


def apply_sub_term(t: Term, sub: Substitution) -> Term:
    return _Instantiate(sub.images())(t)


def compose_sub(first: Substitution, second: Substitution) -> Substitution:
    """Pointwise composition: apply ``second`` to the terms of ``first``."""
    return _with_images(first, map(_Instantiate(second.images()), first.terms()))


def rename_vars_type(ty: Type, mapping: dict[str, str]) -> Type:
    return _renaming(mapping).type(ty)


def rename_vars_term(t: Term, mapping: dict[str, str]) -> Term:
    return _renaming(mapping)(t)


def _renaming(mapping: dict[str, str]) -> _Instantiate:
    return _Instantiate({old: VarRef(Var(new)) for old, new in mapping.items()}, True)


# ---------------------------------------------------------------------------
# Dimension
# ---------------------------------------------------------------------------


def dim_type(ty: Type) -> int:
    """The dimension of ``ty``'s cells minus one; kept on the node, from
    its base's."""
    d = ty._fact
    if d is None:
        match ty:
            case Obj():
                d = -1
            case Arr(base, _, _) | Inv(base, _):
                # an invertibility structure has the dimension of its subject
                d = dim_type(base) + 1
            case _:
                raise TypeError(f"not a type: {ty!r}")
        ty._fact = d
    return d


def dim_context(ctx: Context) -> int:
    return max((dim_type(ty) + 1 for _, ty in ctx), default=-1)


def top_variables(coh: Coh) -> tuple[Var, ...]:
    """The variables of a coherence's pasting context that have the
    cell's own dimension, in order: the keys of its witnesses."""
    n = dim_type(coh.ty) + 1
    return tuple(v for v, ty in coh.ps if dim_type(ty) + 1 == n)


def coh_type(coh: Coh) -> Type:
    """The type of a coherence cell where it is used: its type
    instantiated at its substitution, kept on the node."""
    out = coh._fact
    if out is None:
        out = coh._fact = apply_sub_type(coh.ty, coh.sub)
    return out


def top_entries(coh: Coh) -> Iterator[tuple[Var, Type]]:
    """Each of :func:`top_variables` with its type instantiated at the
    coherence's substitution, in order: read off the substitution's
    instantiated codomain when that is the pasting context, else
    instantiated as it is reached."""
    n = dim_type(coh.ty) + 1
    sub = coh.sub
    at = sub.codomain_types() if sub.codomain is coh.ps else None
    for i, (v, ty) in enumerate(coh.ps.entries):
        if dim_type(ty) + 1 == n:
            yield v, apply_sub_type(ty, sub) if at is None else at[i]


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
# Facts over a context, and canonical nodes
# ---------------------------------------------------------------------------


class _ContextRef(ref):
    """A weak reference to a context, keying a fact in the ``_known`` of
    the node that ``owner`` names weakly."""

    __slots__ = ("owner",)


def _forget_fact(r: _ContextRef) -> None:
    # the context died: drop the fact kept over it
    node = r.owner()
    if node is not None:
        node._known.pop(r, None)


def known_over(node: _Node, ctx: Context):
    """The fact kept on ``node`` over ``ctx`` (:func:`learn_over`), or None."""
    return None if node._known is None else node._known.get(ref(ctx))


def learn_over(node: _Node, ctx: Context, fact):
    """Keep ``fact`` on ``node`` over ``ctx``, under a weak reference to
    ``ctx``, so it keeps no context alive and goes when either dies."""
    if node._known is None:
        node._known = {}
    over = _ContextRef(ctx, _forget_fact)
    over.owner = ref(node)
    node._known[over] = fact
    return fact


def built_on(node: _Node, key: tuple, build: Callable[[], object]):
    """The construction ``key`` from ``node``, kept on it: ``build()``
    the first time."""
    if node._known is None:
        node._known = {}
    out = node._known.get(key)
    if out is None:
        out = node._known[key] = build()
    return out


def _keyed(x, make: Callable):
    """The canonical node of the closed node ``x``, kept in its ``_key``
    (True when it is ``x`` itself, so no node refers to itself):
    ``make(x)`` the first time."""
    k = x._key
    if k is None:
        k = make(x)
        x._key = True if k is x else k
    return x if k is True else k


class _Canon(MemoMap):
    """The canonical node of terms and types: each variable in ``bound``
    renamed to its position, each coherence and recursor head made
    canonical, and the names a substitution or witness family assigns
    renamed with the context they name.  With nothing bound, each closed
    node keeps its canonical node (:func:`_keyed`)."""

    __slots__ = ("bound",)

    def __init__(self, bound: Mapping[str, Var]):
        self.memo = {}
        self.bound = bound

    def leaf(self, x: Term) -> Term:
        v = self.bound.get(x.var.name) if isinstance(x, VarRef) else None
        return x if v is None else VarRef(v)

    def __call__(self, t: Term) -> Term:
        if not self.bound and not t._open:
            return _keyed(t, self._rebuild)
        if isinstance(t, (VarRef, MetaRef)):
            return self.leaf(t)
        out = self.memo.get(id(t))
        if out is None:
            out = self.memo[id(t)] = self._rebuild(t)
        return out

    def type(self, ty: Type) -> Type:
        if not self.bound and not ty._open:
            return _keyed(ty, lambda x: MemoMap.type(self, x))
        return MemoMap.type(self, ty)

    def _rebuild(self, t: Term) -> Term:
        match t:
            case Coh(ps, ty, sub):
                head = coh_head_key(ps, ty)
                return Coh(head.ps, head.ty, self.sub(sub))
            case Rec():
                return Rec(*rec_head_key(t).components(), self.sub(t.sub))
            case Can(subject, wit):
                names = _canon_context(subject.ps)[1] if isinstance(subject, Coh) else {}
                return Can(self(subject), tuple([(names.get(x.name, x), self(w)) for x, w in wit]))
        return map_children(t, self)

    def sub(self, sub: Substitution) -> Substitution:
        codomain, names = _canon_context(sub.codomain)
        return Substitution(tuple([(names.get(x.name, x), self(s)) for x, s in sub.pairs]), codomain)


def _canon_context(ctx: Context) -> tuple[Context, dict[str, Var]]:
    """The canonical node of ``ctx`` and its binders (each name -> the
    position of its last entry), kept on ``ctx``: each entry renamed to
    its position ``#i``, which no source identifier can spell, and its
    type made canonical over the entries before it.  An entry that
    shadows an earlier one also names the position it shadows."""
    k = ctx._key
    if k is None:
        entries, bound = [], {}
        for i, (v, ty) in enumerate(ctx):
            shadowed = bound.get(v.name)
            x = Var(f"#{i}" if shadowed is None else f"#{i}>{shadowed.name}")
            entries.append((x, _Canon(bound).type(ty)))
            bound[v.name] = x
        canon = Context(tuple(entries))
        k = ctx._key = (None if canon is ctx else canon, bound)
    return ctx if k[0] is None else k[0], k[1]


def alpha_key_term(t: Term) -> Term:
    return _Canon({})(t)


def alpha_key_type(ty: Type) -> Type:
    return _Canon({}).type(ty)


def alpha_key_context(ctx: Context) -> Context:
    return _canon_context(ctx)[0]


def alpha_key_sub(sub: Substitution) -> Substitution:
    return _keyed(sub, _Canon({}).sub)


def coh_head_key(ps: Context, ty: Type) -> Coh:
    """The canonical head cell ``Coh(ps', ty', identity_sub(ps'))`` of a
    coherence over ``ps`` of type ``ty``, with ``ps'`` and ``ty'`` their
    canonical nodes, which alpha-equivalent heads share; kept on ``ty``
    over ``ps``."""
    head = known_over(ty, ps)
    if head is None:
        canon, bound = _canon_context(ps)
        head = learn_over(ty, ps, Coh(canon, _Canon(bound).type(ty), identity_sub(canon)))
    return head


def rec_hyp_names(seed: Context) -> tuple[str, str]:
    """Names of the two inductive-hypothesis variables that extend a
    recursor's seed context.  They are derived from the seed, so they
    are recomputed rather than stored, by the one rule that both
    :func:`rec_head_key` and :func:`icatt.meta.equiv_ind_context` use."""
    avoid = seed.names()
    return fresh_name("h-", avoid), fresh_name("h+", avoid)


def rec_head_key(t: Rec) -> Rec:
    """The canonical head of a recursor: its components made canonical,
    the first five over its seed and the last two over the seed extended
    by the two inductive-hypothesis variables, at the identity of its
    canonical seed."""
    seed = t.sub.codomain
    canon, bound = _canon_context(seed)
    ext = {**bound, **{h: Var(f"#{len(seed) + i}") for i, h in enumerate(rec_hyp_names(seed))}}
    comps = t.components()
    return Rec(*map(_Canon(bound), comps[:5]), *map(_Canon(ext), comps[5:]), identity_sub(canon))


def alpha_eq_term(a: Term, b: Term) -> bool:
    return a is b or alpha_key_term(a) is alpha_key_term(b)


def alpha_eq_type(a: Type, b: Type) -> bool:
    return a is b or alpha_key_type(a) is alpha_key_type(b)


def alpha_eq_context(a: Context, b: Context) -> bool:
    return a is b or alpha_key_context(a) is alpha_key_context(b)
