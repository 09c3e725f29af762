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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SyntaxErrorIcatt
from .syntax import DESTRUCTOR_SPELLINGS

KEYWORDS = ("coh", "let", "inv", "rec")
UNARY_HEADS = DESTRUCTOR_SPELLINGS + ("id",)

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'-")


@dataclass(frozen=True)
class Token:
    kind: str  # ident, lpar, rpar, lbrace, rbrace, colon, comma, eq, arrow, star
    text: str
    line: int
    col: int

    @property
    def span(self) -> tuple[int, int]:
        return (self.line, self.col)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    simple = {"(": "lpar", ")": "rpar", "{": "lbrace", "}": "rbrace",
              ":": "colon", ",": "comma", "=": "eq", "*": "star"}
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
            toks.append(Token("arrow", "->", *start))
            i += 2
            col += 2
            continue
        if ch in simple:
            toks.append(Token(simple[ch], ch, *start))
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
            toks.append(Token("ident", text[i:j], *start))
            col += j - i
            i = j
            continue
        raise SyntaxErrorIcatt(f"unexpected character {ch!r}", span=start)
    return toks


# ---------------------------------------------------------------------------
# Surface syntax trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SVar:
    name: str
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class SWild:
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class SApp:
    head: SVar
    args: tuple = ()
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class SCan:
    subject: object
    witnesses: tuple = ()
    span: tuple[int, int] = (0, 0)


SurfaceTerm = SVar | SWild | SApp | SCan


@dataclass(frozen=True)
class STStar:
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class STArrow:
    src: SurfaceTerm
    tgt: SurfaceTerm
    span: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class STInv:
    subject: SurfaceTerm
    span: tuple[int, int] = (0, 0)


SurfaceType = STStar | STArrow | STInv


@dataclass(frozen=True)
class SurfaceDecl:
    kind: str  # coh | let | inv | rec
    name: str
    telescope: tuple[tuple[str, SurfaceType], ...]
    ty: SurfaceType | None = None
    body: SurfaceTerm | None = None
    components: tuple[SurfaceTerm, ...] | None = None
    span: tuple[int, int] = (0, 0)


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self, k: int = 0) -> Token | None:
        if self.pos + k < len(self.toks):
            return self.toks[self.pos + k]
        return None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else Token("ident", "", 1, 1)
            raise SyntaxErrorIcatt("unexpected end of input", span=last.span)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise SyntaxErrorIcatt(f"expected {kind}, got {tok.text!r}", span=tok.span)
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind and (text is None or tok.text == text)

    # -- declarations -----------------------------------------------------

    def parse_file(self) -> list[SurfaceDecl]:
        decls = []
        while self.peek() is not None:
            decls.append(self.parse_decl())
        return decls

    def parse_decl(self) -> SurfaceDecl:
        kw = self.next()
        if kw.kind != "ident" or kw.text not in KEYWORDS:
            raise SyntaxErrorIcatt(f"expected a declaration keyword, got {kw.text!r}", span=kw.span)
        name = self.expect("ident").text
        telescope = self.parse_telescope()
        if kw.text == "coh":
            self.expect("colon")
            ty = self.parse_type()
            return SurfaceDecl("coh", name, telescope, ty=ty, span=kw.span)
        if kw.text == "let":
            ty = None
            if self.at("colon"):
                self.next()
                ty = self.parse_type()
            self.expect("eq")
            body = self.parse_term()
            return SurfaceDecl("let", name, telescope, ty=ty, body=body, span=kw.span)
        self.expect("eq")
        self.expect("lbrace")
        comps = [self.parse_term()]
        while self.at("comma"):
            self.next()
            comps.append(self.parse_term())
        self.expect("rbrace")
        return SurfaceDecl(kw.text, name, telescope, components=tuple(comps), span=kw.span)

    # -- telescopes --------------------------------------------------------

    def parse_telescope(self) -> tuple[tuple[str, SurfaceType], ...]:
        entries: list[tuple[str, SurfaceType]] = []
        while self.at("lpar"):
            self.next()
            if self.at("ident") and self.peek(1) is not None and self.peek(1).kind == "colon":
                name = self.next().text
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
        items: list = [self.expect("ident").text]
        while self.at("lpar"):
            self.next()
            inner = self.parse_ps_items()
            self.expect("rpar")
            nxt = self.expect("ident").text
            items.append(inner)
            items.append(nxt)
        return items

    # -- types -------------------------------------------------------------

    def parse_type(self) -> SurfaceType:
        tok = self.peek()
        if tok is None:
            raise SyntaxErrorIcatt("expected a type", span=(0, 0))
        if tok.kind == "star":
            self.next()
            return STStar(tok.span)
        if tok.kind == "ident" and tok.text == "Inv":
            self.next()
            self.expect("lpar")
            subject = self.parse_term()
            self.expect("rpar")
            return STInv(subject, tok.span)
        src = self.parse_term()
        self.expect("arrow")
        tgt = self.parse_term()
        return STArrow(src, tgt, tok.span)

    # -- terms -------------------------------------------------------------

    def parse_term(self) -> SurfaceTerm:
        atoms = [self.parse_atom()]
        while True:
            tok = self.peek()
            # a declaration keyword at term level ends the term
            if tok is None or tok.kind in ("rpar", "rbrace", "comma", "arrow", "lbrace",
                                           "colon", "eq") or (
                tok.kind == "ident" and tok.text in KEYWORDS
            ):
                break
            atoms.append(self.parse_atom())
        return _fold_atoms(atoms)

    def parse_atom(self) -> SurfaceTerm:
        tok = self.peek()
        if tok is None:
            raise SyntaxErrorIcatt("expected a term", span=(0, 0))
        if tok.kind == "ident" and tok.text == "can":
            self.next()
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
            return SCan(subject, tuple(wits), tok.span)
        if tok.kind == "ident":
            if tok.text == "_":
                self.next()
                return SWild(tok.span)
            self.next()
            return SVar(tok.text, tok.span)
        if tok.kind == "lpar":
            self.next()
            t = self.parse_term()
            self.expect("rpar")
            return t
        raise SyntaxErrorIcatt(f"unexpected token {tok.text!r} in term", span=tok.span)


def _fold_atoms(atoms: list[SurfaceTerm]) -> SurfaceTerm:
    # unary heads greedily capture the following atom
    i = len(atoms) - 2
    while i >= 0:
        a = atoms[i]
        if isinstance(a, SVar) and a.name in UNARY_HEADS and i + 1 < len(atoms):
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
