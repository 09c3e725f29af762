"""The rewrite system: beta-reduction, the normal form of categorical
entities, and the conservativity erasure check.

Beta-reduction fires whenever a destructor meets a constructor head (a
coinductive tuple, a canonical structure or a recursor) and is applied
exhaustively, innermost first.

The normal form of a categorical term is its beta-normal form.  The
theory's normal forms also eta-expand invertibility structures of
bounded dimension that are not under a destructor, but a well-typed
beta-normal categorical term holds no such structure.  Every free
position of a categorical term is categorical (an image of a pasting
diagram's variable, and pasting diagrams are Inv-free) or is the
argument of a destructor.  A beta-normal destructor argument has an
invertibility type and no constructor head, so it is neutral: a
variable, or a witness destructor applied to a neutral term.  No
coinductive tuple, canonical structure or recursor is left to expand.
:func:`eta_expand_once` builds one expansion, for stating the laws.
"""

from __future__ import annotations

from .errors import BoundExceeded, NotCategorical
from .inverse import canonical_component
from .meta import instantiation
from .syntax import (
    DESTRUCTORS,
    WITNESSES,
    Arr,
    Can,
    Coh,
    Coind,
    Context,
    Destr,
    Inv,
    Obj,
    Rec,
    Term,
    Type,
    apply_sub_term,
    compose_sub,
    identity_sub,
    map_children,
    subterms,
)

_BETA_FUEL = 1_000_000


def beta_step(t: Term) -> Term | None:
    """One beta-contraction at the root, if the root is a redex."""
    if type(t) is not Destr:
        return None
    kind, arg = t.kind, t.arg
    c = type(arg)
    if c is Coind:
        return arg.components()[DESTRUCTORS.index(kind) + 1]
    if c is Can:
        return canonical_component(arg, kind)
    if c is Rec:
        gamma = arg.sub
        comp = arg.components()[DESTRUCTORS.index(kind) + 1]
        if kind not in WITNESSES:
            return apply_sub_term(comp, gamma)
        # witness rules: instantiate the inductive hypotheses with
        # the recursive call over the seed context, then substitute
        from .kernel import infer_term

        seed = gamma.codomain
        t_ty = infer_term(seed, arg.t)
        rec_over_seed = Rec(*arg.components(), identity_sub(seed))
        inst = instantiation(seed, rec_over_seed, arg.t, t_ty)
        return apply_sub_term(comp, compose_sub(inst, gamma))
    return None


def beta_reduce(t: Term) -> Term:
    """Exhaustive beta-normalisation (innermost first, with sharing)."""
    return _Beta(_BETA_FUEL)(t)


class _Beta:
    """Beta-normalisation with ``fuel`` contractions left.  A node's
    normal form is a fact about the node and is cached on it: ``_beta``
    holds the normal form, or ``True`` when the node is its own (which
    keeps a normal node from referring to itself)."""

    __slots__ = ("fuel",)

    def __init__(self, fuel: int):
        self.fuel = fuel

    def __call__(self, term: Term) -> Term:
        hit = term._beta
        if hit is not None:
            return term if hit is True else hit
        mapped = map_children(term, self)
        step = beta_step(mapped)
        if step is None:
            result = mapped
        else:
            self.fuel -= 1
            if self.fuel <= 0:
                raise BoundExceeded("beta-reduction fuel exhausted")
            result = self(step)
        for node in (term, mapped):
            if node is not result:
                node._beta = result
        result._beta = True
        return result


def eta_expand_once(e: Term, subject: Term) -> Coind:
    """The coinductive tuple of destructor images of an invertibility
    structure on ``subject``."""
    return Coind(subject, *(Destr(kind, e) for kind in DESTRUCTORS))


def nf(entity: Term | Type) -> Term | Type:
    """Normal form of a categorical term or type: its beta-normal form,
    termwise for a type."""
    c = type(entity)
    if c is Obj:
        return entity
    if c is Arr:
        return Arr(nf(entity.base), nf(entity.src), nf(entity.tgt))
    if c is Inv:
        raise NotCategorical("normal forms are defined for categorical entities only")
    return beta_reduce(entity)


def _mentions_inv(roots) -> bool:
    for t in subterms(roots):
        if isinstance(t, (Destr, Coind, Can, Rec)):
            return True
        if isinstance(t, Coh) and (any(isinstance(vty, Inv) for _, vty in t.ps) or _mentions_inv_type(t.ty)):
            return True
    return False


def _mentions_inv_type(ty: Type) -> bool:
    while isinstance(ty, Arr):
        if _mentions_inv((ty.src, ty.tgt)):
            return True
        ty = ty.base
    return isinstance(ty, Inv)


def erase_check(ctx: Context, entity) -> bool:
    """Conservativity check: over an Inv-free context, the normal form
    of a categorical entity contains no invertibility syntax."""
    if any(isinstance(ty, Inv) for _, ty in ctx):
        raise NotCategorical("erasure is only meaningful over an Inv-free context")
    normal = nf(entity)
    if isinstance(normal, (Obj, Arr, Inv)):
        return not _mentions_inv_type(normal)
    return not _mentions_inv((normal,))
