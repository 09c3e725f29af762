"""Constructions that only the tests use: independent oracles, and
helpers over the checker's public functions that the checker itself
never needs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from icatt.errors import BadSubstitution, NotFull, SyntaxErrorIcatt
from icatt.kernel import convertible_types, fullness_failure, infer_term
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
from icatt.printer import show
from icatt.syntax import (
    DESTRUCTORS,
    Arr,
    Can,
    Context,
    Destr,
    Inv,
    Obj,
    Substitution,
    Term,
    Type,
    Var,
    VarRef,
    alpha_eq_context,
    alpha_key_term,
    apply_sub_type,
    dim_type,
    subterms,
)

# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'-")
_SIMPLE = {"(": "lpar", ")": "rpar", "{": "lbrace", "}": "rbrace",
           ":": "colon", ",": "comma", "=": "eq", "*": "star"}


def tokenize_by_characters(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of ``text`` as ``(kind, text, line, column)``, by a loop
    over its characters: the reference for :func:`icatt.parser.tokenize`."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = (line, col)
        if text.startswith("->", i):
            toks.append(("arrow", "->", *start))
            i += 2
            col += 2
            continue
        if ch in _SIMPLE:
            toks.append((_SIMPLE[ch], ch, *start))
            i += 1
            col += 1
            continue
        if ch in _IDENT_CHARS:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                # keep "->" out of identifiers ("x->y")
                if text[j] == "-" and j + 1 < n and text[j + 1] == ">":
                    break
                j += 1
            toks.append(("ident", text[i:j], *start))
            col += j - i
            i = j
            continue
        raise SyntaxErrorIcatt(f"unexpected character {ch!r}", span=start)
    return toks


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


def check_sub_by_instantiation(ctx: Context, sub: Substitution, cod: Context) -> Substitution:
    """The substitution check with each codomain entry's type instantiated
    at the substitution and then compared by conversion, with the
    kernel's diagnostics: the reference for :func:`icatt.kernel.check_sub`."""
    if sub.codomain is not cod and (
        not alpha_eq_context(sub.codomain, cod) or sub.codomain.names() != cod.names()
    ):
        raise BadSubstitution("substitution codomain does not match")
    if len(sub.pairs) != len(cod):
        raise BadSubstitution(
            f"substitution has {len(sub.pairs)} assignments for {len(cod)} variables"
        )
    for (x, t), (v, v_ty) in zip(sub.pairs, cod):
        if x.name != v.name:
            raise BadSubstitution(f"substitution assigns {x.name} where {v.name} was expected")
        expected = apply_sub_type(v_ty, sub)
        actual = infer_term(ctx, t)
        if not convertible_types(ctx, actual, expected):
            raise BadSubstitution(
                f"image of {v.name} has type {show(actual)}, expected {show(expected)}"
            )
    return sub


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


# ---------------------------------------------------------------------------
# Structural digests
# ---------------------------------------------------------------------------


def dag_digest(root) -> str:
    """The SHA-256 of ``root``'s DAG serialised with node numbering: each
    distinct node once, after its parts, as its class and its fields,
    where a node is written as its number and a name, a destructor kind
    or None by value.  Two roots digest alike exactly when they are the
    same syntax, names included, whatever their sharing."""
    number: dict[int, int] = {}
    lines: list[str] = []
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in number:
            continue
        fields = [getattr(node, f) for f in type(node).__match_args__]
        if ready:
            number[id(node)] = len(lines)
            lines.append(f"{type(node).__name__} {_serialise(fields, number)}")
            continue
        stack.append((node, True))
        stack += [(x, False) for x in reversed(_nodes_in(fields))]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _nodes_in(value) -> list:
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _nodes_in(v)]
    return [] if value is None or isinstance(value, str) else [value]


def _serialise(value, number: dict[int, int]) -> str:
    if isinstance(value, (list, tuple)):
        return "(" + " ".join(_serialise(v, number) for v in value) + ")"
    if value is None or isinstance(value, str):
        return repr(value)
    return f"#{number[id(value)]}"


def corpus_component_digests(decls) -> list[str]:
    """One line per distinct canonical structure of the checked
    declarations ``decls``, in order of first occurrence: its digest and
    the digests of its six canonical components, in the order of
    :data:`~icatt.syntax.DESTRUCTORS`."""
    from icatt.inverse import canonical_component
    from icatt.kernel import RecDecl, TermDecl

    roots = []
    for decl in decls:
        if isinstance(decl, TermDecl):
            roots.append(decl.term)
        elif isinstance(decl, RecDecl):
            roots += decl.components
    return [
        " ".join([dag_digest(t)] + [dag_digest(canonical_component(t, kind)) for kind in DESTRUCTORS])
        for t in subterms(roots)
        if isinstance(t, Can)
    ]
