"""The printer of kernel entities, in a readable concrete form.

It recognises the built-in composite and identity schemas and prints
them applied to their top arguments; other coherences are printed with
their full pasting telescope, so output is self-contained and
deterministic.
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
    if k >= 1 and key == coh_head_key(*comp_schema(k, n)):
        return ("comp", k)
    if key == coh_head_key(*id_schema(n - 1)):
        return ("id", 1)
    return None


def print_term(t: Term) -> str:
    match t:
        case MetaRef(_, hint):
            return f"?{hint}"
        case Coh() as coh:
            kind = _schema_kind(coh)
            if kind is not None:
                name, _ = kind
                if name == "id":
                    top = coh.sub.pairs[-1][1]
                    return f"id {_atom(top)}"
                args = " ".join(_atom(coh.sub.lookup(v)) for v in top_variables(coh))
                return f"comp {args}"
            args = " , ".join(print_term(s) for s in coh.sub.terms())
            return f"coh[{print_context(coh.ps)} : {print_type(coh.ty)}][{args}]"
        case Destr(kind, arg):
            return f"{DESTRUCTOR_SPELLINGS[DESTRUCTORS.index(kind)]} ({print_term(arg)})"
        case Coind():
            inner = " , ".join(print_term(c) for c in t.components())
            return f"coind {{ {inner} }}"
        case Rec():
            inner = " , ".join(print_term(c) for c in t.components())
            args = " , ".join(print_term(s) for s in t.sub.terms())
            return f"rec {{ {inner} }}[{args}]"
        case Can(subject, wit):
            inner = " , ".join(print_term(w) for _, w in wit)
            return f"can ({print_term(subject)} {{ {inner} }})"
        case _:
            if hasattr(t, "var"):
                return t.var.name
    raise TypeError(f"not a term: {t!r}")


def _atom(t: Term) -> str:
    s = print_term(t)
    return f"({s})" if " " in s else s


def print_type(ty: Type) -> str:
    match ty:
        case Obj():
            return "*"
        case Arr(_, src, tgt):
            return f"{print_term(src)} -> {print_term(tgt)}"
        case Inv(_, subject):
            return f"Inv ({print_term(subject)})"
    raise TypeError(f"not a type: {ty!r}")


def print_context(ctx: Context) -> str:
    return " ".join(f"({v.name} : {print_type(ty)})" for v, ty in ctx)
