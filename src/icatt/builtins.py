"""Built-in coherence schemas: identities and unbiased composites.

The binary composite produced here is the one used by the destructor
typing rules, so everything that mentions "comp" (kernel, elaborator,
normaliser, inverse construction) agrees syntactically.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import TypeMismatch
from .syntax import (
    DESTRUCTORS,
    Arr,
    Coh,
    Context,
    Destr,
    Inv,
    Obj,
    Substitution,
    Term,
    Type,
    Var,
    VarRef,
    alpha_eq_term,
    coh_type,
    dim_type,
)
from .meta import classify_term, disk, disk_var


def chain_context(k: int, dim: int) -> Context:
    """The linear pasting context for a k-ary composite of dim-cells:
    a tower of base pairs b0-,b0+,...,then parallel boundary cells
    x0..xk with the composands f1..fk between consecutive ones."""
    if k < 1 or dim < 1:
        raise ValueError("chain needs k >= 1 and dim >= 1")
    entries: list[tuple[Var, Type]] = []
    base: Type = Obj()
    for j in range(dim - 1):
        entries.append((Var(f"b{j}-"), base))
        entries.append((Var(f"b{j}+"), base))
        base = Arr(base, VarRef(Var(f"b{j}-")), VarRef(Var(f"b{j}+")))
    xs = [Var(f"x{i}") for i in range(k + 1)]
    entries.append((xs[0], base))
    for i in range(1, k + 1):
        entries.append((xs[i], base))
        entries.append((Var(f"f{i}"), Arr(base, VarRef(xs[i - 1]), VarRef(xs[i]))))
    return Context(tuple(entries))


@lru_cache(maxsize=None)
def comp_schema(k: int, dim: int) -> tuple[Context, Type]:
    """The k-ary composite coherence of dim-cells along their
    codimension-1 boundary: its pasting context and full type."""
    ctx = chain_context(k, dim)
    base = ctx.lookup(Var("x0"))
    ty = Arr(base, VarRef(Var("x0")), VarRef(Var(f"x{k}")))
    return ctx, ty


@lru_cache(maxsize=None)
def id_schema(dim: int) -> tuple[Context, Type]:
    """The identity coherence on dim-cells: D^dim with the reflexive
    arrow on its top variable."""
    ctx = disk(dim)
    top = disk_var(dim)
    ty = Arr(ctx.lookup(top), VarRef(top), VarRef(top))
    return ctx, ty


def id_of(t: Term, ty: Type) -> Term:
    """The identity cell on a checked term ``t : ty``."""
    n = dim_type(ty) + 1
    ctx, full = id_schema(n)
    return Coh(ctx, full, classify_term(t, ty))


def type_tower(ty: Type) -> list[tuple[Term, Term]]:
    """Source/target pairs of an iterated arrow type, outermost last."""
    tower: list[tuple[Term, Term]] = []
    while isinstance(ty, Arr):
        tower.append((ty.src, ty.tgt))
        ty = ty.base
    tower.reverse()
    return tower


def comp_of(args: list[tuple[Term, Type]]) -> tuple[Term, Type]:
    """The unbiased composite of composable cells, with its type.

    All arguments must share dimension and compose along their
    codimension-1 boundary (target of one = source of the next,
    syntactically).
    """
    if not args:
        raise ValueError("comp_of needs at least one argument")
    if len(args) == 1:
        return args[0]
    k = len(args)
    first_ty = args[0][1]
    if not isinstance(first_ty, Arr):
        raise TypeMismatch("only positive-dimensional cells compose")
    dim = dim_type(first_ty) + 1
    ctx, full = comp_schema(k, dim)
    tower = type_tower(first_ty)
    # the images of the entries of chain_context, in its order:
    # b0-, b0+, ..., x0, then x1, f1, x2, f2, ...
    images: list[Term] = [end for pair in tower[:-1] for end in pair]
    images.append(tower[-1][0])
    for i, (t, ty) in enumerate(args):
        if not isinstance(ty, Arr) or dim_type(ty) + 1 != dim:
            raise TypeMismatch("composite arguments must share dimension")
        if i > 0 and not alpha_eq_term(ty.src, images[-2]):
            raise TypeMismatch(f"composite boundary mismatch at argument {i}")
        images += (ty.tgt, t)
    cell = Coh(ctx, full, Substitution.of(tuple(images), ctx))
    return cell, coh_type(cell)


def component_type(kind: str, ty: Arr, comps: Sequence[Term]) -> Type:
    """The typing table of invertibility structures on ``t : ty``.

    ``comps`` lists the seven components ``t, tl, tr, tlu, tru, tilu,
    tiru``; the result is the type of the one that destructor ``kind``
    projects (``linv`` gives ``tl``, ..., ``rwit`` gives ``tiru``).  It
    reads only components before that one.
    """
    t = comps[0]
    flipped = Arr(ty.base, ty.tgt, ty.src)
    if kind == "linv" or kind == "rinv":
        return flipped
    if kind == "lunit" or kind == "lwit":
        left, _ = comp_of([(comps[1], flipped), (t, ty)])
        lu_ty = Arr(Arr(ty.base, ty.tgt, ty.tgt), left, id_of(ty.tgt, ty.base))
        return lu_ty if kind == "lunit" else Inv(lu_ty, comps[3])
    if kind == "runit" or kind == "rwit":
        right, _ = comp_of([(t, ty), (comps[2], flipped)])
        ru_ty = Arr(Arr(ty.base, ty.src, ty.src), right, id_of(ty.src, ty.base))
        return ru_ty if kind == "runit" else Inv(ru_ty, comps[4])
    raise ValueError(f"unknown destructor {kind}")


def destructor_result_type(kind: str, e: Term, inv_ty: Inv) -> Type:
    """Result type of a destructor applied to ``e : inv_ty``."""
    if not isinstance(inv_ty.base, Arr):
        raise TypeMismatch("invertibility subject must have an arrow type")
    comps = (inv_ty.subject,) + tuple(Destr(k, e) for k in DESTRUCTORS)
    return component_type(kind, inv_ty.base, comps)
