"""The printer of kernel entities, in a readable concrete form.

It recognises the built-in composite and identity schemas and prints
them applied to their top arguments; other coherences are printed with
their full pasting telescope, so output is self-contained and
deterministic.  Error messages print syntax cut short (:func:`show`).
"""

from __future__ import annotations

from .builtins import comp_schema, id_schema
from .syntax import (
    DESTRUCTOR_SPELLINGS,
    DESTRUCTORS,
    Arr,
    Can,
    Coh,
    Coind,
    Context,
    Destr,
    Inv,
    MetaRef,
    Obj,
    Rec,
    Term,
    Type,
    VarRef,
    _Node,
    coh_head_key,
    dim_type,
    top_variables,
)

# ---------------------------------------------------------------------------
# Kernel printer
# ---------------------------------------------------------------------------


def _schema_kind(coh: Coh) -> tuple[str, int] | None:
    """Recognise the built-in composite/identity schemas.  A chain of k
    cells of dimension n has 2n - 1 + 2k entries, so the length of the
    pasting context leaves one composite to compare with."""
    n = dim_type(coh.ty) + 1
    key = coh_head_key(coh.ps, coh.ty)
    k = (len(coh.ps) - 2 * n + 1) // 2
    if k >= 1 and key is coh_head_key(*comp_schema(k, n)):
        return ("comp", k)
    if key is coh_head_key(*id_schema(n - 1)):
        return ("id", 1)
    return None


def print_term(x: Term | Type | Context) -> str:
    """The term, type or context ``x`` printed."""
    return _printed(x, _pieces, None)


print_type = print_context = print_term


def show(x: Term | Type | Context) -> str:
    """``x`` printed for an error message: cut with "…" after 300
    characters, at a cost bounded by the cut, however large its tree."""
    return _printed(x, _pieces, 300)


def show_fields(x) -> str:
    """The repr of syntax nodes: ``x`` as a dataclass repr writes it, cut at 1,000."""
    return _printed(x, _fields, 1000)


def _printed(x, pieces, cap: int | None) -> str:
    """The strings of ``pieces(x)`` in order, each other piece replaced by
    its own text, from a stack rather than by recursion."""
    out, size, todo = [], 0, [x]
    while todo:
        x = todo.pop()
        if not isinstance(x, str):
            todo.extend(reversed(pieces(x)))
            continue
        out.append(x)
        size += len(x)
        if cap is not None and size > cap:
            return "".join(out)[:cap] + "…"
    return "".join(out)


def _pieces(x) -> tuple:
    """The printed form of ``x``: strings, and syntax printed in place."""
    c = type(x)
    if c is VarRef:
        return (x.var.name,)
    if c is MetaRef:
        return (f"?{x.hint}",)
    if c is Coh:
        kind = _schema_kind(x)
        if kind is None:
            return ("coh[", x.ps, " : ", x.ty, "][", *_commas(x.sub.terms()), "]")
        if kind[0] == "id":
            return ("id ", *_atom(x.sub.images[-1]))
        return ("comp", *[p for v in top_variables(x) for p in (" ", *_atom(x.sub.lookup(v)))])
    if c is Destr:
        return (f"{DESTRUCTOR_SPELLINGS[DESTRUCTORS.index(x.kind)]} (", x.arg, ")")
    if c is Coind:
        return ("coind { ", *_commas(x.components()), " }")
    if c is Rec:
        return ("rec { ", *_commas(x.components()), " }[", *_commas(x.sub.terms()), "]")
    if c is Can:
        return ("can (", x.subject, " { ", *_commas([w for _, w in x.witnesses]), " })")
    if c is Obj:
        return ("*",)
    if c is Arr:
        return (x.src, " -> ", x.tgt)
    if c is Inv:
        return ("Inv (", x.subject, ")")
    if c is Context:
        return tuple(p for i, (v, ty) in enumerate(x) for p in (" (" if i else "(", v.name, " : ", ty, ")"))
    raise TypeError(f"cannot print {x!r}")


def _commas(items, sep: str = " , ") -> list:
    return [p for i, y in enumerate(items) for p in ((sep, y) if i else (y,))]


def _atom(t: Term) -> tuple:
    """``t``, in parentheses unless it is a name (printed with no space)."""
    return (t,) if isinstance(t, (VarRef, MetaRef)) else ("(", t, ")")


def _fields(x) -> tuple:
    """The node or tuple ``x`` as a dataclass repr writes it, in pieces."""
    if isinstance(x, tuple):
        return ("(", *_commas(map(_field, x), ", "), ",)" if len(x) == 1 else ")")
    named = [(f"{name}=", _field(getattr(x, name))) for name in x.__match_args__]
    return (f"{type(x).__name__}(", *[p for i, f in enumerate(named) for p in ((", ",) if i else ()) + f], ")")


def _field(y):
    return y if isinstance(y, (tuple, _Node)) else repr(y)
