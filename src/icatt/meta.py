"""Meta-operations, pasting diagrams and distinguished contexts.

Pasting diagrams have one definition here: :func:`to_ps_order` derives
the order in which the pasting rules add a set of entries, and
:func:`check_ps` recognises a pasting context as one whose entries come
in that order, so the kernel's pasting judgment and the reordering used
by opposites and the inverse construction cannot disagree.

Suspension and opposites are :class:`~icatt.syntax.MemoMap` passes, so
they cost the distinct nodes of shared syntax.  What suspension derives
from a head alone is kept on the node it suspends, so it is made once
per head, however many passes meet it: a context's suspension on the
context, a coherence type's on the type (by the base of its pasting
context's suspension), and a recursor's suspended head cell on the
recursor.  Disks, spheres and
walking equivalences are built with canonical names (``d0-``, ``d0+``,
``d1``, ``e1``, ...) so that classifying substitutions are easy to
assemble.  Suspending a canonical context gives an alpha-equal copy of
the next canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from weakref import ref

from .errors import NotPasting, OppositeOnInv
from .syntax import (
    Arr,
    Coh,
    Context,
    Destr,
    Inv,
    MemoMap,
    Obj,
    Rec,
    Substitution,
    Term,
    Type,
    Var,
    VarRef,
    apply_sub_term,
    apply_sub_type,
    built_on,
    compose_sub,
    dim_context,
    dim_type,
    fresh_name,
    identity_sub,
    map_children,
    rec_hyp_names,
)

# ---------------------------------------------------------------------------
# Suspension
# ---------------------------------------------------------------------------


def suspend_type(ty: Type, base: tuple[Term, Term]) -> Type:
    return _Suspension(base).type(ty)


def suspend_term(t: Term, base: tuple[Term, Term]) -> Term:
    return _Suspension(base)(t)


def suspend_context(ctx: Context) -> Context:
    return _suspended_context(ctx)


def suspension_base(sctx: Context) -> tuple[Term, Term]:
    """The two objects a suspended context starts with, as terms."""
    return VarRef(sctx.entries[0][0]), VarRef(sctx.entries[1][0])


def suspend_sub(sub: Substitution, base: tuple[Term, Term]) -> Substitution:
    """Suspend a substitution; ``base`` gives the images of the two new
    codomain objects (the new domain objects, at a top-level use)."""
    return _Suspension(base).onto(sub, _suspended_context(sub.codomain))


def suspend_judgment(ctx: Context, t: Term, ty: Type) -> tuple[Context, Term, Type]:
    """Suspend a typed term together with its context."""
    sctx = _suspended_context(ctx)
    s = _Suspension(suspension_base(sctx))
    return sctx, s(t), s.type(ty)


def _suspended_context(ctx: Context) -> Context:
    """``ctx`` suspended onto two new objects whose names it avoids, kept
    on ``ctx``."""

    def build() -> Context:
        avoid = ctx.names()
        neg, pos = Var(fresh_name("v-", avoid)), Var(fresh_name("v+", avoid))
        s = _Suspension((VarRef(neg), VarRef(pos)))
        return Context(((neg, Obj()), (pos, Obj())) + tuple((v, s.type(ty)) for v, ty in ctx))

    return built_on(ctx, ("suspension",), build)


class _Suspension(MemoMap):
    """Suspension onto ``base``: the object type becomes the arrow type
    between the base objects, and each coherence or recursor head is
    suspended onto its own base, the one its context's suspension starts
    with.  A head's suspension is kept on the node it suspends: a
    context's on the context, a coherence type's on the type (by base),
    and a recursor's suspended head cell on the recursor.  The first pass
    of a call keeps one pass per other base in ``passes``, and each
    refers to it weakly (``first``), so no pass is part of a reference
    cycle."""

    __slots__ = ("base", "first", "passes", "__weakref__")

    def __init__(self, base: tuple[Term, Term], first: ref | None = None):
        self.memo, self.base, self.passes = {}, base, {}
        self.first = ref(self) if first is None else first

    def at(self, base: tuple[Term, Term]) -> _Suspension:
        """The pass of this call onto ``base``."""
        first = self.first()
        if base == first.base:
            return first
        return first.passes.get(base) or first.passes.setdefault(base, _Suspension(base, self.first))

    def type(self, ty: Type) -> Type:
        return Arr(ty, *self.base) if type(ty) is Obj else MemoMap.type(self, ty)

    def rebuild(self, t: Term) -> Term:
        c = type(t)
        if c is Coh:
            sps = _suspended_context(t.ps)
            base = suspension_base(sps)
            sty = built_on(t.ty, ("suspension", *base), lambda: self.at(base).type(t.ty))
            return Coh(sps, sty, self.onto(t.sub, sps))
        if c is Rec:
            cell = built_on(t, ("suspension",), lambda: self.head_cell(t))
            return Rec(*cell.components(), self.onto(t.sub, cell.sub.codomain))
        return map_children(t, self)

    def head_cell(self, t: Rec) -> Rec:
        """The suspension of ``t``'s head: its components suspended onto
        the base of its seed's suspension, at the identity of that."""
        sseed = _suspended_context(t.sub.codomain)
        return Rec(*map(self.at(suspension_base(sseed)), t.components()), identity_sub(sseed))

    def onto(self, sub: Substitution, scod: Context) -> Substitution:
        """``sub`` suspended onto ``scod``, the suspension of its codomain."""
        return Substitution.of((*self.base, *map(self, sub.images)), scod)


# ---------------------------------------------------------------------------
# Pasting diagrams
# ---------------------------------------------------------------------------


def to_ps_order(entries: tuple[tuple[Var, Type], ...]) -> Context:
    """The entries in the order in which the pasting rules derive them,
    raising NotPasting if they derive no pasting diagram.

    A pasting diagram has one derivation (Finster & Mimram, LICS 2017),
    and this follows it.  It starts at the one object that no arrow
    targets.  From the focus it extends by the unused arrow out of the
    focus that no unused arrow targets: every other arrow out of the
    focus must come later, as the target of a higher cell, and one
    left out now could never be added.  That arrow's target must be
    unused and typed like the focus, and the arrow typed over the focus.
    If there is no such arrow, the focus lowers to its target.  The
    derivation succeeds when it has used every entry.
    """
    if not entries:
        raise NotPasting("empty context is not a pasting diagram")
    # each name's own entry pair, so that check_ps compares by identity
    entry: dict[str, tuple[Var, Type]] = {}
    for e in entries:
        name = e[0].name
        if name in entry:
            raise NotPasting(f"duplicate variable {name}")
        entry[name] = e
    out_of: dict[str, list[str]] = {}
    into: dict[str, int] = {}  # the number of unused arrows into each name
    for name, (_, ty) in entry.items():
        if isinstance(ty, Inv):
            raise NotPasting("invertibility entries cannot occur in a pasting diagram")
        if isinstance(ty, Arr):
            if not isinstance(ty.src, VarRef) or not isinstance(ty.tgt, VarRef):
                raise NotPasting("pasting entries must be variable arrows")
            s, t = ty.src.var.name, ty.tgt.var.name
            if s not in entry or t not in entry:
                raise NotPasting(f"dangling boundary in entry {name}")
            out_of.setdefault(s, []).append(name)
            into[t] = into.get(t, 0) + 1
    roots = [name for name, (_, ty) in entry.items() if isinstance(ty, Obj) and name not in into]
    if len(roots) != 1:
        raise NotPasting("pasting diagram must have a unique initial object")
    focus = roots[0]
    order = [entry[focus]]
    used = {focus}
    while True:
        focus_ty = entry[focus][1]
        arrows = [f for f in out_of.get(focus, ()) if f not in used and not into.get(f)]
        if len(arrows) == 1:
            f = arrows[0]
            f_ty = entry[f][1]
            y = f_ty.tgt.var.name
            if y not in used and entry[y][1] == focus_ty == f_ty.base:
                order += (entry[y], entry[f])
                used.update((y, f))
                into[y] -= 1
                focus = f
                continue
        if not isinstance(focus_ty, Arr):
            break
        focus = focus_ty.tgt.var.name
    if len(order) != len(entry):
        raise NotPasting("context entries do not assemble into a pasting diagram")
    return Context(tuple(order))


@dataclass(frozen=True)
class PsContext:
    """A validated pasting diagram with its boundary variable data."""

    ctx: Context
    dim: int
    # by dimension k from 0 to dim: the dim-k variables that are not the
    # target (sources), or not the source (targets), of another variable
    sources: tuple[tuple[str, ...], ...]
    targets: tuple[tuple[str, ...], ...]

    def source_vars(self, k: int) -> tuple[str, ...]:
        return self.sources[k] if 0 <= k <= self.dim else ()

    def target_vars(self, k: int) -> tuple[str, ...]:
        return self.targets[k] if 0 <= k <= self.dim else ()

    def boundary_src(self, m: int) -> set[str]:
        """Variables of the m-th source boundary."""
        out = {v.name for v, ty in self.ctx if dim_type(ty) + 1 < m}
        out.update(self.source_vars(m))
        return out

    def boundary_tgt(self, m: int) -> set[str]:
        out = {v.name for v, ty in self.ctx if dim_type(ty) + 1 < m}
        out.update(self.target_vars(m))
        return out


def check_ps(ctx: Context) -> PsContext:
    """Recognise a pasting diagram: its entries come in the order the
    pasting rules derive them (:func:`to_ps_order`)."""
    if to_ps_order(ctx.entries) is not ctx:
        raise NotPasting("context entries are not in the order of their pasting derivation")
    return pasting_data(ctx)


def pasting_data(ctx: Context) -> PsContext:
    """The boundary data of ``ctx``, a context that :func:`check_ps`
    accepts."""
    entries = ctx.entries
    dims = {v.name: dim_type(ty) + 1 for v, ty in entries}
    tgt_of: set[str] = set()
    src_of: set[str] = set()
    for _, ty in entries:
        if isinstance(ty, Arr):
            src_of.add(ty.src.var.name)
            tgt_of.add(ty.tgt.var.name)
    dim = dim_context(ctx)
    at = [[v.name for v, _ in entries if dims[v.name] == k] for k in range(dim + 1)]
    sources = tuple(tuple(n for n in at_k if n not in tgt_of) for at_k in at)
    targets = tuple(tuple(n for n in at_k if n not in src_of) for at_k in at)
    return PsContext(ctx, dim, sources, targets)


# ---------------------------------------------------------------------------
# Opposites
# ---------------------------------------------------------------------------


def opposite_type(n: int, ty: Type) -> Type:
    return _Opposite(n).type(ty)


def opposite_term(n: int, t: Term) -> Term:
    return _Opposite(n)(t)


def opposite_context(n: int, ctx: Context) -> Context:
    """Opposite of a pasting context: the opposites of its entries, in
    the order in which the pasting rules derive them."""
    return _Opposite(n).context(ctx)


class _Opposite(MemoMap):
    """The opposite in dimension ``n`` of Inv-free syntax: the source and
    target of each n-cell's type swapped, and each coherence rebuilt over
    the opposite of its pasting context."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.memo = {}
        self.n = n

    def type(self, ty: Type) -> Type:
        if isinstance(ty, Inv):
            raise OppositeOnInv("opposite is only defined on Inv-free syntax")
        out = MemoMap.type(self, ty)
        return Arr(out.base, out.tgt, out.src) if isinstance(ty, Arr) and dim_type(ty) + 1 == self.n else out

    def context(self, ctx: Context) -> Context:
        return to_ps_order(tuple((v, self.type(ty)) for v, ty in ctx))

    def rebuild(self, t: Term) -> Term:
        if not isinstance(t, Coh):
            raise OppositeOnInv("opposite is only defined on Inv-free syntax")
        ps, sub = self.context(t.ps), t.sub
        return Coh(ps, self.type(t.ty), Substitution.of(tuple([self(sub.lookup(v)) for v, _ in ps]), ps))


# ---------------------------------------------------------------------------
# Disks, spheres, walking equivalences
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def sphere(n: int) -> Context:
    """S^n with entries d0-, d0+, ..., dn-, dn+ (S^{-1} is empty)."""
    if n < -1:
        raise ValueError("sphere dimension must be >= -1")
    if n == -1:
        return Context()
    prev = sphere(n - 1)
    ty = _sphere_top_type(n)
    return Context(prev.entries + ((Var(f"d{n}-"), ty), (Var(f"d{n}+"), ty)))


def _sphere_top_type(n: int) -> Type:
    if n == 0:
        return Obj()
    return Arr(_sphere_top_type(n - 1), VarRef(Var(f"d{n-1}-")), VarRef(Var(f"d{n-1}+")))


@lru_cache(maxsize=None)
def disk(n: int) -> Context:
    """D^n: the sphere S^{n-1} with one top cell dn."""
    if n < 0:
        raise ValueError("disk dimension must be >= 0")
    return Context(sphere(n - 1).entries + ((Var(f"d{n}"), _sphere_top_type(n)),))


def disk_var(n: int) -> Var:
    return Var(f"d{n}")


def sphere_inclusion(n: int) -> Substitution:
    """The substitution D^n -> S^{n-1} forgetting the top cell."""
    return identity_sub(sphere(n - 1))


@lru_cache(maxsize=None)
def walking_equiv(n: int) -> Context:
    """E^n = D^n extended by an invertibility entry on the top cell."""
    if n < 1:
        raise ValueError("walking equivalence needs dimension >= 1")
    d = disk(n)
    inv_ty = Inv(_sphere_top_type(n), VarRef(disk_var(n)))
    return Context(d.entries + ((Var(f"e{n}"), inv_ty),))


def equiv_var(n: int) -> Var:
    return Var(f"e{n}")


def equiv_display(n: int) -> Substitution:
    """The weakening E^n -> D^n."""
    return identity_sub(disk(n))


# ---------------------------------------------------------------------------
# Classifying substitutions
# ---------------------------------------------------------------------------


def classify_type(ty: Type) -> Substitution:
    """chi_A : the substitution into S^n (categorical) or D^{n+1} (Inv)
    classifying a type."""
    c = type(ty)
    if c is Obj:
        return Substitution.of((), sphere(-1))
    if c is Arr:
        return Substitution.of((*classify_type(ty.base).images, ty.src, ty.tgt), sphere(dim_type(ty)))
    if c is Inv:
        return Substitution.of((*classify_type(ty.base).images, ty.subject), disk(dim_type(ty.base) + 1))
    raise TypeError(f"not a type: {ty!r}")


def classify_term(t: Term, ty: Type) -> Substitution:
    """chi_{t,A} : into D^n for categorical types, E^{n} for Inv types."""
    c = type(ty)
    if c is Obj or c is Arr:
        return Substitution.of((*classify_type(ty).images, t), disk(dim_type(ty) + 1))
    if c is Inv:
        return Substitution.of((*classify_type(ty).images, t), walking_equiv(dim_type(ty)))
    raise TypeError(f"not a type: {ty!r}")


def rename_to(src_ctx: Context, dst_ctx: Context) -> Substitution:
    """Positional renaming substitution dst |- ren : src for alpha-equal
    contexts (src variables mapped to the dst variables in order)."""
    assert len(src_ctx) == len(dst_ctx)
    return Substitution.of(tuple([VarRef(w) for w, _ in dst_ctx.entries]), src_ctx)


# ---------------------------------------------------------------------------
# The inductive extension of the walking equivalence
# ---------------------------------------------------------------------------


def wit_classifier(seed: Context, kind: str) -> Substitution:
    """chi of lwit/rwit applied to the top invertibility entry of a
    context alpha-equal to E^{n}, as a substitution seed -> E^{n+1}."""
    from .builtins import destructor_result_type

    e_var, e_ty = seed.entries[-1]
    assert isinstance(e_ty, Inv)
    ren = rename_to(seed, walking_equiv(dim_type(e_ty)))
    e_ty_canon = apply_sub_type(e_ty, ren)  # over canonical E^n names
    canon_e = VarRef(equiv_var(dim_type(e_ty)))
    wit = Destr(kind, canon_e)
    wit_ty = destructor_result_type(kind, canon_e, e_ty_canon)
    chi = classify_term(wit, wit_ty)  # E^n -> E^{n+1}
    back = rename_to(walking_equiv(dim_type(e_ty)), seed)
    return compose_sub(chi, back)


def equiv_ind_context(seed: Context, t: Term, t_ty: Type) -> tuple[Context, Var, Var]:
    """Extend a walking equivalence by the two inductive hypotheses for
    recursion on ``t : t_ty`` (a categorical term over ``seed``)."""
    sseed, st, st_ty = suspend_judgment(seed, t, t_ty)
    n = dim_type(seed.entries[-1][1])
    canon = walking_equiv(n + 1)
    ren = rename_to(sseed, canon)
    inv_up = Inv(apply_sub_type(st_ty, ren), apply_sub_term(st, ren))  # over E^{n+1}
    chi_l = wit_classifier(seed, "lwit")
    chi_r = wit_classifier(seed, "rwit")
    h_minus, h_plus = map(Var, rec_hyp_names(seed))
    entries = seed.entries
    entries += ((h_minus, apply_sub_type(inv_up, chi_l)),)
    entries += ((h_plus, apply_sub_type(inv_up, chi_r)),)
    return Context(entries), h_minus, h_plus


def instantiation(seed: Context, r: Term, t: Term, t_ty: Type) -> Substitution:
    """The substitution seed -> EquivInd(seed, t) feeding the recursive
    calls ``r : Inv(t)`` into the inductive hypotheses."""
    ind_ctx, _, _ = equiv_ind_context(seed, t, t_ty)
    sseed, sr, _ = suspend_judgment(seed, r, Inv(t_ty, t))
    n = dim_type(seed.entries[-1][1])
    ren = rename_to(sseed, walking_equiv(n + 1))
    sr_canon = apply_sub_term(sr, ren)
    chi_l = wit_classifier(seed, "lwit")
    chi_r = wit_classifier(seed, "rwit")
    images = (*identity_sub(seed).images, apply_sub_term(sr_canon, chi_l), apply_sub_term(sr_canon, chi_r))
    return Substitution.of(images, ind_ctx)
