"""Parser for the concrete proof-script syntax.

Declarations::

    coh name TELESCOPE : TYPE
    let name TELESCOPE [: TYPE] = TERM
    inv name TELESCOPE = { TERM, ... }      (seven components)
    rec name TELESCOPE = { TERM, ... }      (seven components)

Telescopes are sequences of parenthesised groups, either typed entries
``(x : TYPE)`` or the pasting shorthand ``(x(f)y(g(a)h)z)``, which may
nest arbitrarily.  Comments run from ``#`` to the end of the line.
Application is juxtaposition; the unary heads (the destructors and
``id``) greedily take the next atom, so ``linv-inv irunit (e)`` parses
as ``linv-inv (irunit (e))``.

Tokens are plain ``(kind, text, line, column)`` tuples, made by one
compiled regular expression, and the parser reads them by index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ShadowedName, SyntaxErrorIcatt
from .syntax import DESTRUCTOR_SPELLINGS

KEYWORDS = ("coh", "let", "inv", "rec")
UNARY_HEADS = DESTRUCTOR_SPELLINGS + ("id",)

# the kind of each token that is not an identifier
_KIND = {"(": "lpar", ")": "rpar", "{": "lbrace", "}": "rbrace", ":": "colon",
         ",": "comma", "=": "eq", "*": "star", "->": "arrow"}

# blanks and a comment, then a newline (1), a token (2) or a character
# that starts none (3); identifiers keep "->" out ("x->y"); nothing but
# blanks is left at the end of the input
_TOKEN = re.compile(
    r"[ \t\r]*(?:#[^\n]*)?(?:(\n)|(->|[(){}:,=*]|(?:[A-Za-z0-9_']|-(?!>))+)|(.))?", re.S
)

# a token: (kind, text, line, column); the kind is ident or one of _KIND's
Token = tuple[str, str, int, int]


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, start = 1, 0  # the line and the offset where it starts
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 2:
            tok = m[2]
            toks.append((_KIND.get(tok, "ident"), tok, line, m.start(2) - start + 1))
        elif group == 1:
            line, start = line + 1, m.end()
        elif group == 3:
            raise SyntaxErrorIcatt(f"unexpected character {m[3]!r}", span=(line, m.start(3) - start + 1))
    return toks


# ---------------------------------------------------------------------------
# Surface syntax trees
# ---------------------------------------------------------------------------

# surface nodes are built once per token and only read: slotted, not frozen,
# since a frozen dataclass pays a setattr call per field
_surface = dataclass(slots=True)


@_surface
class SVar:
    name: str
    span: tuple[int, int] = (0, 0)


@_surface
class SWild:
    span: tuple[int, int] = (0, 0)


@_surface
class SApp:
    head: SVar
    args: tuple = ()
    span: tuple[int, int] = (0, 0)


@_surface
class SCan:
    subject: object
    witnesses: tuple = ()
    span: tuple[int, int] = (0, 0)


SurfaceTerm = SVar | SWild | SApp | SCan


@_surface
class STStar:
    span: tuple[int, int] = (0, 0)


@_surface
class STArrow:
    src: SurfaceTerm
    tgt: SurfaceTerm
    span: tuple[int, int] = (0, 0)


@_surface
class STInv:
    subject: SurfaceTerm
    span: tuple[int, int] = (0, 0)


SurfaceType = STStar | STArrow | STInv


@_surface
class SurfaceDecl:
    kind: str  # coh | let | inv | rec
    name: str
    telescope: tuple[tuple[str, SurfaceType], ...]
    ty: SurfaceType | None = None
    body: SurfaceTerm | None = None
    components: tuple[SurfaceTerm, ...] | None = None
    span: tuple[int, int] = (0, 0)


# the kinds of token that end a term, as a declaration keyword does
_ENDS_TERM = frozenset(("rpar", "rbrace", "comma", "arrow", "lbrace", "colon", "eq"))


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self, k: int = 0) -> Token | None:
        if self.pos + k < len(self.toks):
            return self.toks[self.pos + k]
        return None

    def end_of_input(self, message: str) -> SyntaxErrorIcatt:
        """The error ``message`` for input that ends too soon, at the
        last token, or at 1:1 in an empty input."""
        span = self.toks[-1][2:] if self.toks else (1, 1)
        return SyntaxErrorIcatt(message, span=span)

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.end_of_input("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok[0] != kind:
            raise SyntaxErrorIcatt(f"expected {kind}, got {tok[1]!r}", span=tok[2:])
        return tok

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == kind

    # -- declarations -----------------------------------------------------

    def parse_file(self) -> list[SurfaceDecl]:
        decls = []
        while self.peek() is not None:
            decls.append(self.parse_decl())
        return decls

    def parse_decl(self) -> SurfaceDecl:
        tok = self.next()
        kind, kw, span = tok[0], tok[1], tok[2:]
        if kind != "ident" or kw not in KEYWORDS:
            raise SyntaxErrorIcatt(f"expected a declaration keyword, got {kw!r}", span=span)
        name = self.expect("ident")[1]
        telescope = self.parse_telescope()
        if kw == "coh":
            self.expect("colon")
            ty = self.parse_type()
            return SurfaceDecl("coh", name, telescope, ty=ty, span=span)
        if kw == "let":
            ty = None
            if self.at("colon"):
                self.next()
                ty = self.parse_type()
            self.expect("eq")
            body = self.parse_term()
            return SurfaceDecl("let", name, telescope, ty=ty, body=body, span=span)
        self.expect("eq")
        self.expect("lbrace")
        comps = [self.parse_term()]
        while self.at("comma"):
            self.next()
            comps.append(self.parse_term())
        self.expect("rbrace")
        return SurfaceDecl(kw, name, telescope, components=tuple(comps), span=span)

    # -- telescopes --------------------------------------------------------

    def parse_telescope(self) -> tuple[tuple[str, SurfaceType], ...]:
        entries: list[tuple[str, SurfaceType]] = []
        while self.at("lpar"):
            self.next()
            after = self.peek(1)
            if self.at("ident") and after is not None and after[0] == "colon":
                name = self.binder()
                self.next()  # colon
                ty = self.parse_type()
                entries.append((name, ty))
                self.expect("rpar")
            else:
                items = self.parse_ps_items()
                self.expect("rpar")
                entries.extend(_emit_ps(items, STStar()))
        return tuple(entries)

    def parse_ps_items(self) -> list:
        """Alternating names and nested groups: x (f) y (g(a)h) z ..."""
        items: list = [self.binder()]
        while self.at("lpar"):
            self.next()
            inner = self.parse_ps_items()
            self.expect("rpar")
            nxt = self.binder()
            items.append(inner)
            items.append(nxt)
        return items

    def binder(self) -> str:
        """A name bound by a telescope; one spelled like a declaration
        keyword is refused here, where it is bound, since a term would
        end at it."""
        _, name, line, col = self.expect("ident")
        if name in KEYWORDS:
            raise ShadowedName(f"{name} is a reserved name", span=(line, col))
        return name

    # -- types -------------------------------------------------------------

    def parse_type(self) -> SurfaceType:
        tok = self.peek()
        if tok is None:
            raise self.end_of_input("expected a type")
        kind, text, span = tok[0], tok[1], tok[2:]
        if kind == "star":
            self.next()
            return STStar(span)
        if kind == "ident" and text == "Inv":
            self.next()
            self.expect("lpar")
            subject = self.parse_term()
            self.expect("rpar")
            return STInv(subject, span)
        src = self.parse_term()
        self.expect("arrow")
        tgt = self.parse_term()
        return STArrow(src, tgt, span)

    # -- terms -------------------------------------------------------------

    def parse_term(self) -> SurfaceTerm:
        toks = self.toks
        atoms = [self.parse_atom()]
        while self.pos < len(toks):
            kind, text, _, _ = toks[self.pos]
            # a declaration keyword at term level ends the term
            if kind in _ENDS_TERM or text in KEYWORDS:
                break
            atoms.append(self.parse_atom())
        return _fold_atoms(atoms)

    def parse_atom(self) -> SurfaceTerm:
        if self.pos == len(self.toks):
            raise self.end_of_input("expected a term")
        kind, text, line, col = self.toks[self.pos]
        if kind == "ident":
            self.pos += 1
            if text == "can":
                self.expect("lpar")
                subject = self.parse_term()
                self.expect("lbrace")
                wits: list[SurfaceTerm] = []
                if not self.at("rbrace"):
                    wits.append(self.parse_term())
                    while self.at("comma"):
                        self.next()
                        wits.append(self.parse_term())
                self.expect("rbrace")
                self.expect("rpar")
                return SCan(subject, tuple(wits), (line, col))
            if text == "_":
                return SWild((line, col))
            return SVar(text, (line, col))
        if kind == "lpar":
            self.pos += 1
            t = self.parse_term()
            self.expect("rpar")
            return t
        raise SyntaxErrorIcatt(f"unexpected token {text!r} in term", span=(line, col))


def _fold_atoms(atoms: list[SurfaceTerm]) -> SurfaceTerm:
    # unary heads greedily capture the following atom
    i = len(atoms) - 2
    while i >= 0:
        a = atoms[i]
        if type(a) is SVar and a.name in UNARY_HEADS and i + 1 < len(atoms):
            atoms[i : i + 2] = [SApp(a, (atoms[i + 1],), a.span)]
        i -= 1
    head = atoms[0]
    if len(atoms) == 1:
        return head
    if isinstance(head, SVar):
        return SApp(head, tuple(atoms[1:]), head.span)
    raise SyntaxErrorIcatt("only names can be applied to arguments", span=_span_of(head))


def _span_of(t) -> tuple[int, int]:
    return getattr(t, "span", (0, 0))


def _emit_ps(items: list, base: SurfaceType) -> list[tuple[str, SurfaceType]]:
    entries: list[tuple[str, SurfaceType]] = [(items[0], base)]
    prev = items[0]
    for k in range(1, len(items), 2):
        group, nxt = items[k], items[k + 1]
        entries.append((nxt, base))
        entries.extend(_emit_ps(group, STArrow(SVar(prev), SVar(nxt))))
        prev = nxt
    return entries


def parse(text: str) -> list[SurfaceDecl]:
    return _Parser(tokenize(text)).parse_file()
