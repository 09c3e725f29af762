"""Constructions that only the tests use: independent oracles, and
helpers over the checker's public functions that the checker itself
never needs."""

from __future__ import annotations

from dataclasses import dataclass

from icatt.errors import NotFull
from icatt.kernel import fullness_failure, infer_term
from icatt.meta import (
    PsContext,
    disk,
    disk_var,
    equiv_ind_context,
    equiv_var,
    opposite_term,
    opposite_type,
    sphere,
    walking_equiv,
)
from icatt.parser import SApp, SCan, STArrow, STInv, STStar, SurfaceDecl, SVar, SWild
from icatt.syntax import (
    DESTRUCTORS,
    Arr,
    Context,
    Destr,
    Inv,
    Obj,
    Substitution,
    Term,
    Type,
    Var,
    VarRef,
    alpha_key_term,
    dim_type,
)

# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------


def dimension(ty: Type) -> int:
    """The dimension of the cells of ``ty`` minus one, by recursion on
    its bases: -1 for ``*``; an invertibility structure has its
    subject's."""
    match ty:
        case Obj():
            return -1
        case Arr(base, _, _) | Inv(base, _):
            return dimension(base) + 1
    raise TypeError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


def full_type(ps: PsContext, ty: Type) -> bool:
    """Whether an arrow type over a pasting diagram is full."""
    failure = fullness_failure(ps, ty)
    if not isinstance(ty, Arr):
        raise NotFull(failure)
    return failure is None


def term_dimension(ctx: Context, t: Term) -> int:
    return dim_type(infer_term(ctx, t)) + 1


# ---------------------------------------------------------------------------
# Meta-operations
# ---------------------------------------------------------------------------


def opposite_sub(n: int, sub: Substitution) -> Substitution:
    cod = Context(tuple((v, opposite_type(n, ty)) for v, ty in sub.codomain))
    return Substitution(tuple((x, opposite_term(n, t)) for x, t in sub.pairs), cod)


@dataclass(frozen=True)
class DistinguishedContext:
    """A named distinguished context together with its special variables."""

    kind: str  # "disk" | "sphere" | "equiv" | "equiv-ind"
    body: Context
    roles: tuple[tuple[str, Var], ...] = ()

    def role(self, name: str) -> Var:
        for role_name, var in self.roles:
            if role_name == name:
                return var
        raise KeyError(name)


def distinguished(kind: str, n: int, t: Term | None = None, t_ty: Type | None = None) -> DistinguishedContext:
    """Build one of the distinguished context families with its role map."""
    if kind == "disk":
        return DistinguishedContext("disk", disk(n), (("top", disk_var(n)),))
    if kind == "sphere":
        return DistinguishedContext("sphere", sphere(n))
    if kind == "equiv":
        return DistinguishedContext(
            "equiv", walking_equiv(n), (("top", disk_var(n)), ("inv", equiv_var(n)))
        )
    if kind == "equiv-ind":
        assert t is not None and t_ty is not None
        body, h_minus, h_plus = equiv_ind_context(walking_equiv(n), t, t_ty)
        roles = (
            ("top", disk_var(n)),
            ("inv", equiv_var(n)),
            ("hyp-left", h_minus),
            ("hyp-right", h_plus),
        )
        return DistinguishedContext("equiv-ind", body, roles)
    raise ValueError(f"unknown distinguished context kind {kind}")


# ---------------------------------------------------------------------------
# Neutral terms
# ---------------------------------------------------------------------------


def brute_force_neutrals(n: int) -> set:
    """Independent oracle: generate every destructor string of length at
    most n + 1 over the variables of the walking equivalence, keep those
    the kernel accepts, and collect the categorical ones of dimension n."""
    e1 = walking_equiv(1)
    found: set = set()
    frontier: list[Term] = [VarRef(v) for v, _ in e1]
    for t in frontier:
        ty = infer_term(e1, t)
        if not isinstance(ty, Inv) and dim_type(ty) + 1 == n:
            found.add(alpha_key_term(t))
    for _ in range(n + 1):
        new_frontier = []
        for t in frontier:
            for kind in DESTRUCTORS:
                cand = Destr(kind, t)
                try:
                    ty = infer_term(e1, cand)
                except Exception:
                    continue
                new_frontier.append(cand)
                if not isinstance(ty, Inv) and dim_type(ty) + 1 == n:
                    found.add(alpha_key_term(cand))
        frontier = new_frontier
    return found


# ---------------------------------------------------------------------------
# Surface printer (round-trip stable)
# ---------------------------------------------------------------------------


def print_surface_term(t) -> str:
    match t:
        case SVar(name, _):
            return name
        case SWild(_):
            return "_"
        case SApp(head, args, _):
            parts = [head.name] + [_surface_atom(a) for a in args]
            return " ".join(parts)
        case SCan(subject, wits, _):
            inner = " , ".join(print_surface_term(w) for w in wits)
            return f"can ({print_surface_term(subject)} {{ {inner} }})"
    raise TypeError(f"not a surface term: {t!r}")


def _surface_atom(t) -> str:
    if isinstance(t, (SApp,)):
        return f"({print_surface_term(t)})"
    return print_surface_term(t)


def print_surface_type(ty) -> str:
    match ty:
        case STStar(_):
            return "*"
        case STInv(subject, _):
            return f"Inv ({print_surface_term(subject)})"
        case STArrow(src, tgt, _):
            return f"{print_surface_term(src)} -> {print_surface_term(tgt)}"
    raise TypeError(f"not a surface type: {ty!r}")


def print_surface_decl(d: SurfaceDecl) -> str:
    tele = " ".join(f"({name} : {print_surface_type(ty)})" for name, ty in d.telescope)
    head = f"{d.kind} {d.name} {tele}".rstrip()
    if d.kind == "coh":
        return f"{head} : {print_surface_type(d.ty)}"
    if d.kind == "let":
        ann = f" : {print_surface_type(d.ty)}" if d.ty is not None else ""
        return f"{head}{ann} = {print_surface_term(d.body)}"
    comps = " ,\n    ".join(print_surface_term(c) for c in d.components)
    return f"{head} = {{ {comps} }}"


def print_surface_file(decls) -> str:
    return "\n\n".join(print_surface_decl(d) for d in decls) + "\n"
