"""The rewrite system: beta-reduction, dimension-guarded eta-expansion,
the normal-form procedure for categorical entities, and the
conservativity erasure check.

Beta-reduction fires whenever a destructor meets a constructor head and
is applied exhaustively, innermost first.  Eta-expansion replaces an
invertibility structure by the coinductive tuple of its destructor
images; it is guarded by dimension, never applied under a destructor,
and applied at most once per position, which keeps the restricted
system terminating.
"""

from __future__ import annotations

from .errors import BoundExceeded, NotCategorical
from .inverse import canonical_component
from .meta import instantiation
from .syntax import (
    DESTRUCTORS,
    INVERSES,
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
    Substitution,
    Term,
    Type,
    apply_sub_term,
    compose_sub,
    dim_type,
    identity_sub,
    map_children,
    subterms,
)

_BETA_FUEL = 1_000_000


def beta_step(t: Term) -> Term | None:
    """One beta-contraction at the root, if the root is a redex."""
    if not isinstance(t, Destr):
        return None
    kind, arg = t.kind, t.arg
    match arg:
        case Coind():
            return arg.components()[DESTRUCTORS.index(kind) + 1]
        case Can():
            return canonical_component(arg, kind)
        case Rec():
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
                object.__setattr__(node, "_beta", result)
        object.__setattr__(result, "_beta", True)
        return result


def eta_expand_once(e: Term, subject: Term) -> Coind:
    """The coinductive tuple of destructor images of an invertibility
    structure on ``subject``."""
    return Coind(subject, *(Destr(kind, e) for kind in DESTRUCTORS))


def _eta_pass(t: Term, guard: int) -> Term:
    """Expand invertibility subterms of dimension at most ``guard`` not
    under a destructor, once each, recursing into the new components.

    In a beta-normal categorical term such positions only occur inside
    surviving constructor tuples, so this is usually the identity.
    """
    return _Eta(guard)(t)


class _Eta:
    """The eta pass of :func:`_eta_pass` at one dimension guard."""

    __slots__ = ("guard",)

    def __init__(self, guard: int):
        self.guard = guard

    def expand_at(self, e: Term, subject: Term, subject_dim: int) -> Term:
        if subject_dim > self.guard or isinstance(e, Coind):
            return self(e)
        expanded = eta_expand_once(self(e), self(subject))
        return self(beta_reduce(expanded))

    def __call__(self, term: Term) -> Term:
        match term:
            case Coind():
                comps = term.components()
                out = [self(c) for c in comps[:5]]
                # the witness components are structures on the
                # cancellation cells, whose dimension is read off the
                # syntax (a bare-variable subject counts as expandable)
                dim_up = _term_dim_bound(comps[3])
                out.append(self.expand_at(comps[5], comps[3], dim_up))
                out.append(self.expand_at(comps[6], comps[4], dim_up))
                return Coind(*out)
            case Can(subject, wit):
                assert isinstance(subject, Coh)
                new_wit = []
                for x, w in wit:
                    x_img = subject.sub.lookup(x)
                    x_dim = dim_type(subject.ps.lookup(x)) + 1
                    new_wit.append((x, self.expand_at(w, x_img, x_dim)))
                return Can(self(subject), tuple(new_wit))
            case Rec():
                new_pairs = []
                for x, s in term.sub.pairs:
                    x_ty = term.sub.codomain.lookup(x)
                    if isinstance(x_ty, Inv):
                        subj = apply_sub_term(x_ty.subject, term.sub)
                        new_pairs.append((x, self.expand_at(s, subj, dim_type(x_ty.base) + 1)))
                    else:
                        new_pairs.append((x, self(s)))
                return Rec(*term.components(), Substitution(tuple(new_pairs), term.sub.codomain))
            case _:
                return map_children(term, self)


def _term_dim_bound(t: Term) -> int:
    """Dimension of a checked term, read off its syntax (coherences and
    destructor results carry their type)."""
    match t:
        case Coh(_, ty, _):
            return dim_type(ty) + 1
        case Destr(kind, arg):
            inner = _term_dim_bound(arg)
            if kind not in INVERSES:
                return inner + 1
            return inner
        case Coind() | Can():
            return _term_dim_bound(t.components()[0] if isinstance(t, Coind) else t.subject)
        case Rec():
            return _term_dim_bound(t.t)
        case _:
            # a bare variable: no syntactic dimension; treat as 0 so the
            # guard always allows expansion at variable subjects
            return 0


def nf(ctx: Context, entity, n: int):
    """Normal form of an n-dimensional categorical term or type.

    Beta-normalises exhaustively, then eta-expands invertibility
    subterms of dimension at most n that are not under a destructor.
    """
    if isinstance(entity, (Obj, Arr)):
        match entity:
            case Obj():
                return entity
            case Arr(base, src, tgt):
                return Arr(nf(ctx, base, n - 1), nf(ctx, src, n), nf(ctx, tgt, n))
    if isinstance(entity, Inv):
        raise NotCategorical("normal forms are defined for categorical entities only")
    reduced = beta_reduce(entity)
    return _eta_pass(reduced, n)


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


def erase_check(ctx: Context, entity, n: int) -> bool:
    """Conservativity check: over an Inv-free context, the normal form
    of a categorical entity contains no invertibility syntax."""
    if any(isinstance(ty, Inv) for _, ty in ctx):
        raise NotCategorical("erasure is only meaningful over an Inv-free context")
    normal = nf(ctx, entity, n)
    if isinstance(normal, (Obj, Arr, Inv)):
        return not _mentions_inv_type(normal)
    return not _mentions_inv((normal,))
