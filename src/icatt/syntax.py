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
them away before the kernel sees a declaration.  A :class:`Substitution`
is its images, one tuple in the order of its codomain's variables, as in
the theory; built from pairs, it refuses any that name other variables,
so a misnamed substitution cannot be written.  A name's image is read
through the codomain's map from names to positions
(:meth:`Context.positions`), and ``pairs`` is built on demand.

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
seed), and of a keyed context; a substitution's codomain is keyed with
it, and the keys of a witness family are renamed with the subject's
pasting context.  An entry that
repeats a name also records the position it shadows, so a context that
repeats a name never keys like one that does not.  Alpha-equality of
terms and types (:func:`alpha_eq_term`, :func:`alpha_eq_type`) is
decided without building canonical nodes, by one walk over both DAGs:
heads compare by their canonical heads, variables by name, and two
nodes that both keep their canonical node by it.  So conversion keeps
no canonical twin of what it compares, and keys serve where a hash key
is needed: canonical heads, and sets of terms up to alpha-equivalence.

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
A memo miss calls its hook ``rebuild`` (by default :func:`map_children`).
Each map over syntax is one subclass, made per pass: ``_Instantiate``
(substitution, renaming), ``_Canon`` (canonical nodes), ``_Zonk`` and
``_Instantiator`` (:mod:`icatt.elaborate`), and ``_Suspension`` and
``_Opposite`` (:mod:`icatt.meta`); the last two and ``_Canon`` also map
heads in ``rebuild``.  The type of a coherence cell is instantiated in
one such pass, the first time it is asked for (:func:`coh_type`), and so
is the codomain of a :class:`Substitution`
(:meth:`Substitution.codomain_types`).  The kernel's substitution check
builds no codomain: it matches each entry's type against its image's,
and instantiates only the terms of it that are not variables
(:func:`icatt.kernel.check_sub`).

Every per-node function, here and in the modules built on this one,
picks its case by the node's exact class (``c = type(t)``, then ``if c
is Arr: ...``, reading the fields it needs by name), never by a ``match``
on class patterns, and a test made once per node (for a leaf, a
metavariable, the kind of a surface term) is ``type(x) is C``, not
``isinstance``.  On CPython 3.11 a class pattern looks up
``__match_args__`` and calls ``getattr`` for each capture: choosing
between ``Obj`` and ``Arr(base, src, tgt)`` costs about 590 ns by
``match`` and 190 ns by ``type`` tests, a pair pattern ``(Arr(),
Arr())`` 310 ns against 105 ns (``timeit``, best of 5, call included),
and an ``isinstance`` that fails 64 ns against 29 ns.  Exact-class
tests agree with both because no node class is subclassed.

Cache policy.  Memory of past work lives as long as the syntax it is
about.  ``_INTERN``, the only module-level table, holds every closed
node weakly, under its fields; an entry goes when its node dies.  Facts
about a node are slots on it (see :class:`_Node`): among them its
canonical node, its dimension, a substitution's instantiated codomain,
a coherence cell's instantiated type and a recursor's canonical head
(:func:`rec_head_key`), each computed once per node.
A fact about a node over a context is one weak reference to the
context, which carries the fact, kept on the node (a dict of them once
it has several; :func:`learn_over`); its callback drops it when the
context dies.  What depends only on a head is kept on the head, and so
made once per head: on a coherence's type, over its pasting context,
its canonical head cell (:func:`coh_head_key`); on that cell, the mark
of a checked head (:mod:`icatt.kernel`) and, over the pasting context,
weak references to its cancellator plans (:mod:`icatt.inverse`); on a
canonical recursor head, the mark of a checked body; on a context, its
suspension; on a coherence's type, its suspension onto the base of its
context's; and on a recursor, its suspended head cell
(:mod:`icatt.meta`; :func:`built_on`).  No fact kept
on a node may contain that node: the keys of
``_INTERN`` hold the fields of every node strongly, so the fact would
keep the node alive for the life of the process.  Traversal memos last
one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Callable, Iterable, Iterator, Mapping, Union
from weakref import ref

from .errors import BadSubstitution, UnboundVariable

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


def _open_in(nodes) -> bool:
    """Whether any of ``nodes`` is open."""
    for x in nodes:
        if x._open:
            return True
    return False


class _Node:
    """Facts about a node, in slots outside its dataclass fields, None
    until computed: its canonical node (``_key``; a context's comes with
    its binders); a term's beta-normal form (``_beta``, written by
    :mod:`icatt.normalize`); each name's position in a :class:`Context`
    (``_keys``); what the kernel and
    :mod:`icatt.inverse` learn about it (``_known``, see
    :func:`learn_over` and :func:`built_on`); in ``_fact``, a type's
    dimension, a substitution's instantiated codomain, a coherence's
    instantiated type, a recursor's canonical head, or a telescope's
    explicit argument positions, which the elaborator writes; and
    whether it is open (``_open``)."""

    __slots__ = ("_key", "_beta", "_keys", "_known", "_fact", "_open", "__weakref__")

    def __repr__(self) -> str:
        """Cut short: the tree of a shared DAG can be exponentially larger."""
        from .printer import show_fields  # the printer imports this module
        return show_fields(self)


# a node class: a slotted dataclass whose equality is identity and whose
# repr is _Node's, built by its __new__, which interns it
_syntax_node = dataclass(eq=False, init=False, slots=True, repr=False)


@_syntax_node
class Var(_Node):
    name: str

    def __new__(cls, name: str) -> Var:
        return _cons(cls, False, name)


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
        return _cons(cls, subject._open or _open_in([w for _, w in witnesses]), subject, witnesses)


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
        return _cons(cls, _open_in([ty for _, ty in entries]), entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Var, Type]]:
        return iter(self.entries)

    def vars(self) -> tuple[Var, ...]:
        return tuple(v for v, _ in self.entries)

    def names(self) -> set[str]:
        return {v.name for v, _ in self.entries}

    def positions(self) -> dict[str, int]:
        """The position of each name (of its first entry), kept on the
        node; callers only read it."""
        out = self._keys
        if out is None:
            out = self._keys = {v.name: i for i, (v, _) in reversed(tuple(enumerate(self.entries)))}
        return out

    def lookup(self, var: Var) -> Type:
        i = self.positions().get(var.name)
        if i is None:
            raise UnboundVariable(f"variable {var.name} not in context")
        return self.entries[i][1]


@_syntax_node
class Substitution(_Node):
    """Assignments onto the variables of ``codomain``: its ``images``,
    one per variable, in codomain order."""

    images: tuple[Term, ...]
    codomain: Context

    def __new__(cls, pairs: Iterable[tuple[Var, Term]], codomain: Context) -> Substitution:
        """The substitution assigning each term of ``pairs`` to its name;
        the names must be the codomain's, in order."""
        pairs = tuple(pairs)
        if len(pairs) != len(codomain):
            raise BadSubstitution(f"substitution has {len(pairs)} assignments for {len(codomain)} variables")
        for (x, _), (v, _) in zip(pairs, codomain.entries):
            if x is not v:
                raise BadSubstitution(f"substitution assigns {x.name} where {v.name} was expected")
        return cls.of(tuple([t for _, t in pairs]), codomain)

    @classmethod
    def of(cls, images: tuple[Term, ...], codomain: Context) -> Substitution:
        """The substitution assigning ``images`` to the codomain's names
        in order."""
        return _cons(cls, codomain._open or _open_in(images), images, codomain)

    @property
    def pairs(self) -> tuple[tuple[Var, Term], ...]:
        """Each assigned name with its image, in order; built on demand."""
        return tuple(zip(self.codomain.vars(), self.images))

    def get(self, name: str) -> Term | None:
        """The image of ``name`` (of its first entry), or None; so a
        substitution serves as the mapping of an :class:`_Instantiate`."""
        i = self.codomain.positions().get(name)
        return None if i is None else self.images[i]

    def lookup(self, var: Var) -> Term:
        t = self.get(var.name)
        if t is None:
            raise UnboundVariable(f"substitution does not assign {var.name}")
        return t

    def terms(self) -> tuple[Term, ...]:
        return self.images

    def codomain_types(self) -> tuple[Type, ...]:
        """The type of each entry of ``codomain``, by position,
        instantiated at this substitution in one pass, so a type shared by
        several entries is rebuilt once; kept on the node."""
        out = self._fact
        if out is None:
            inst = _Instantiate(self)
            out = self._fact = tuple([inst.type(ty) for _, ty in self.codomain.entries])
        return out


def identity_sub(ctx: Context) -> Substitution:
    return Substitution.of(tuple([VarRef(v) for v, _ in ctx.entries]), ctx)


# ---------------------------------------------------------------------------
# The traversal of free positions
# ---------------------------------------------------------------------------


def children(t: Term) -> tuple[Term, ...]:
    """The terms at the free positions of ``t``, in order."""
    c = type(t)
    if c is Coh or c is Rec:
        return t.sub.terms()
    if c is Coind:
        return t.components()
    if c is Can:
        return (t.subject, *[w for _, w in t.witnesses])
    if c is Destr:
        return (t.arg,)
    if c is VarRef or c is MetaRef:
        return ()
    raise TypeError(f"not a term: {t!r}")


def map_children(t: Term, f: Callable[[Term], Term]) -> Term:
    """``t`` rebuilt with ``f`` applied at each free position; ``t``
    itself when every image is the child it replaces."""
    old = children(t)
    new = tuple(map(f, old))
    if all(map(is_, old, new)):
        return t
    c = type(t)
    if c is Coh:
        return Coh(t.ps, t.ty, Substitution.of(new, t.sub.codomain))
    if c is Rec:
        return Rec(*t.components(), Substitution.of(new, t.sub.codomain))
    if c is Coind:
        return Coind(*new)
    if c is Can:
        return Can(new[0], tuple((x, w) for (x, _), w in zip(t.witnesses, new[1:])))
    return Destr(t.kind, new[0])  # the only other kind with a child


class MemoMap:
    """The map sending each ``VarRef`` or ``MetaRef`` ``x`` to
    ``self.leaf(x)`` and rebuilding every other term, and every type, from
    the images of its parts, memoised on node identity: a node whose parts
    all map to themselves maps to itself.  Terms and types share the memo,
    which lives as long as the map: make one per pass, whose roots keep
    every keyed node alive.  A subclass overrides :meth:`leaf`, and
    :meth:`rebuild` or :meth:`type` to map some nodes otherwise.  (A class
    rather than a closure: a closure that calls itself is a reference
    cycle, and every memo would wait for the garbage collector.)"""

    __slots__ = ("memo",)

    def __init__(self) -> None:
        self.memo: dict[int, Term | Type] = {}

    def leaf(self, x: Term) -> Term:
        return x

    def rebuild(self, t: Term) -> Term:
        """The image of a term other than a leaf, on a memo miss."""
        return map_children(t, self)

    def __call__(self, t: Term) -> Term:
        c = type(t)
        if c is VarRef or c is MetaRef:
            return self.leaf(t)
        out = self.memo.get(id(t))
        if out is None:
            out = self.memo[id(t)] = self.rebuild(t)
        return out

    def type(self, ty: Type) -> Type:
        out = self.memo.get(id(ty))
        if out is None:
            c = type(ty)
            if c is Obj:
                return ty
            if c is Arr:
                base, src, tgt = ty.base, ty.src, ty.tgt
                b, s, t = self.type(base), self(src), self(tgt)
                out = ty if b is base and s is src and t is tgt else Arr(b, s, t)
            elif c is Inv:
                base, subject = ty.base, ty.subject
                b, s = self.type(base), self(subject)
                out = ty if b is base and s is subject else Inv(b, s)
            else:
                raise TypeError(f"not a type: {ty!r}")
            self.memo[id(ty)] = out
        return out


class _Instantiate(MemoMap):
    """The map sending each variable to its image in ``images``, a map
    from names or a substitution; one with no image raises, or maps to
    itself when ``keep``."""

    __slots__ = ("images", "keep")

    def __init__(self, images: Mapping[str, Term] | Substitution, keep: bool = False):
        self.memo = {}
        self.images = images
        self.keep = keep

    def leaf(self, x: Term) -> Term:
        if type(x) is VarRef:
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
    return _Instantiate(sub).type(ty)


def apply_sub_term(t: Term, sub: Substitution) -> Term:
    return _Instantiate(sub)(t)


def compose_sub(first: Substitution, second: Substitution) -> Substitution:
    """Pointwise composition: apply ``second`` to the terms of ``first``."""
    return Substitution.of(tuple(map(_Instantiate(second), first.images)), first.codomain)


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
    """The dimension of ``ty``'s cells minus one; kept on an arrow or
    invertibility type, from its base's.  The class is tested first,
    since other nodes keep other facts in the same slot."""
    c = type(ty)
    if c is Arr or c is Inv:
        d = ty._fact
        if d is None:
            # an invertibility structure has the dimension of its subject
            d = ty._fact = dim_type(ty.base) + 1
        return d
    if c is Obj:
        return -1
    raise TypeError(f"not a type: {ty!r}")


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
    coherence's substitution, in order, by one pass for them all."""
    n = dim_type(coh.ty) + 1
    inst = _Instantiate(coh.sub)
    for v, ty in coh.ps.entries:
        if dim_type(ty) + 1 == n:
            yield v, inst.type(ty)


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
    terms: list[Term] = []  # base first, in the order MemoMap.type visits them
    while type(ty) is not Obj:
        terms[:0] = (ty.src, ty.tgt) if type(ty) is Arr else (ty.subject,)
        ty = ty.base
    return _variables_used(terms, acc)


def _variables_used(roots: Iterable[Term], acc: dict[str, Var] | None) -> dict[str, Var]:
    out: dict[str, Var] = {} if acc is None else acc
    for t in subterms(roots):
        if type(t) is VarRef:
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


class _Fact(ref):
    """A fact about the node that ``owner`` names weakly, over the context
    this references: the one object a fact costs.  Its callback drops it
    from the node when the context dies."""

    __slots__ = ("owner", "fact")


def _forget_fact(r: _Fact) -> None:
    # the context died: drop the fact kept over it
    node = r.owner()
    if node is not None:
        known = node._known
        if known is r:
            node._known = None
        elif type(known) is dict:
            known.pop(r, None)


def known_over(node: _Node, ctx: Context):
    """The fact kept on ``node`` over ``ctx`` (:func:`learn_over`), or None."""
    known = node._known
    if type(known) is _Fact:
        return known.fact if known() is ctx else None
    return None if known is None else known.get(ref(ctx))


def learn_over(node: _Node, ctx: Context, fact):
    """Keep ``fact`` on ``node`` over ``ctx``, in a weak reference to
    ``ctx``, so it keeps no context alive and goes when either dies.  A
    node keeps its one such reference itself, and a dict of them once it
    has facts over several contexts, or constructions (:func:`built_on`)."""
    r = _Fact(ctx, _forget_fact)
    r.owner, r.fact = ref(node), fact
    known = node._known
    if known is None:
        node._known = r
    else:
        if type(known) is _Fact:
            known = node._known = {known: known.fact}
        known[r] = fact
    return fact


def built_on(node: _Node, key: tuple, build: Callable[[], object]):
    """The construction ``key`` from ``node``, kept on it: ``build()``
    the first time.  It must not contain ``node``: the intern table holds
    the fields of every node strongly, so it would keep ``node`` alive."""
    known = node._known
    if type(known) is not dict:
        known = node._known = {} if known is None else {known: known.fact}
    out = known.get(key)
    if out is None:
        out = known[key] = build()
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
    canonical, a substitution's codomain keyed, and the keys of a witness
    family renamed with the subject's pasting context.  With nothing bound, each closed
    node keeps its canonical node (:func:`_keyed`)."""

    __slots__ = ("bound",)

    def __init__(self, bound: Mapping[str, Var]):
        self.memo = {}
        self.bound = bound

    def leaf(self, x: Term) -> Term:
        v = self.bound.get(x.var.name) if type(x) is VarRef else None
        return x if v is None else VarRef(v)

    def __call__(self, t: Term) -> Term:
        if not self.bound and not t._open:
            return _keyed(t, self.rebuild)
        return MemoMap.__call__(self, t)

    def type(self, ty: Type) -> Type:
        if not self.bound and not ty._open:
            return _keyed(ty, lambda x: MemoMap.type(self, x))
        return MemoMap.type(self, ty)

    def rebuild(self, t: Term) -> Term:
        c = type(t)
        if c is Coh:
            head = coh_head_key(t.ps, t.ty)
            return Coh(head.ps, head.ty, self.sub(t.sub))
        if c is Rec:
            return Rec(*rec_head_key(t).components(), self.sub(t.sub))
        if c is Can:
            return Can(self(t.subject), tuple(zip(_witness_keys(t), [self(w) for _, w in t.witnesses])))
        return map_children(t, self)

    def sub(self, sub: Substitution) -> Substitution:
        return Substitution.of(tuple(map(self, sub.images)), _canon_context(sub.codomain)[0])


def _witness_keys(t: Can) -> tuple[Var, ...]:
    """The keys of the witness family of the canonical node of ``t``:
    renamed with its subject's pasting context."""
    names = _canon_context(t.subject.ps)[1] if type(t.subject) is Coh else {}
    return tuple([names.get(x.name, x) for x, _ in t.witnesses])


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
    canonical seed.  Kept on ``t`` and on its head cell, the recursor
    with its components at the identity of its seed, so recursors share
    it while one of them or their head cell lives (True when it is the
    node itself, so no node refers to itself)."""
    k = t._fact
    if k is None:
        seed = t.sub.codomain
        cell = Rec(*t.components(), identity_sub(seed))
        k = cell._fact
        if k is None:
            canon, bound = _canon_context(seed)
            ext = {**bound, **{h: Var(f"#{len(seed) + i}") for i, h in enumerate(rec_hyp_names(seed))}}
            comps = t.components()
            k = Rec(*map(_Canon(bound), comps[:5]), *map(_Canon(ext), comps[5:]), identity_sub(canon))
            cell._fact = True if k is cell else k
        elif k is True:
            k = cell
        if t is not cell:
            t._fact = k
    return t if k is True else k


def alpha_eq_term(a: Term, b: Term) -> bool:
    return a is b or _alpha_eq(a, b)


def alpha_eq_type(a: Type, b: Type) -> bool:
    return a is b or _alpha_eq(a, b)


def _alpha_eq(a: Term | Type, b: Term | Type) -> bool:
    """Whether ``a`` and ``b`` have the same canonical node, decided by one
    walk over both DAGs that builds no canonical node: heads compare by
    their canonical heads (:func:`coh_head_key`, :func:`rec_head_key`),
    variables by name, and two nodes that both keep their canonical node
    by it.  A pair of nodes is visited once: a pair met again is equal,
    for a pair found unequal ends the walk."""
    seen: set[tuple[int, int]] = set()
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        c = type(a)
        if c is not type(b) or c is VarRef or c is MetaRef or c is Obj:
            # interned: distinct variables have distinct names, and there
            # is one Obj; a metavariable is equal to itself only
            return False
        ka, kb = a._key, b._key
        if ka is not None and kb is not None:
            if (a if ka is True else ka) is not (b if kb is True else kb):
                return False
            continue
        pair = (id(a), id(b))
        if pair in seen:
            continue
        seen.add(pair)
        if c is Arr:
            todo += ((a.base, b.base), (a.src, b.src), (a.tgt, b.tgt))
            continue
        if c is Inv:
            todo += ((a.base, b.base), (a.subject, b.subject))
            continue
        # a term: its head, everything but its free positions, then those
        if (
            c is Coh and coh_head_key(a.ps, a.ty) is not coh_head_key(b.ps, b.ty)
            or c is Rec and rec_head_key(a) is not rec_head_key(b)
            or c is Destr and a.kind != b.kind
            or c is Can and _witness_keys(a) != _witness_keys(b)
            or (c is Coh or c is Rec)
            and _canon_context(a.sub.codomain)[0] is not _canon_context(b.sub.codomain)[0]
        ):
            return False
        xs, ys = children(a), children(b)
        if len(xs) != len(ys):
            return False
        todo += zip(xs, ys)
    return True


def alpha_eq_context(a: Context, b: Context) -> bool:
    return a is b or alpha_key_context(a) is alpha_key_context(b)
