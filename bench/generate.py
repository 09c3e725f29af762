"""Seeded generator for the ``scaling`` workload's proof scripts.

Pure text generation: nothing here imports ``icatt``, so the scripts and
their known answers come from this file alone.  The same seed always
yields byte-identical scripts.  The seed picks shapes only (nesting
side, where identities sit, which mutants are drawn); the sizes are
fixed, so every seed asks the checker for about the same amount of
work.

Every script carries, for each declaration in order, the verdict it
must get: ``"accepted"`` or the error category it was designed to
raise.  A script stops at its first rejected declaration, as
``icatt check`` does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ACCEPTED = "accepted"

# nesting depths of the comp/id chain: a ladder spanning 8x
DEPTHS = (250, 500, 1000, 2000)
# arities of one multi-ary comp
WIDTHS = (8, 32, 128)
# levels of d_i = comp d_{i-1} d_{i-1}: tree size 2^k, DAG size linear
LET_LEVELS = 11
# cell dimensions the suspension family applies its definitions to
SUSP_DIMS = (2, 3, 4, 5)
# chain depth of the late-failing mutants
LATE_DEPTH = 300
# cheap mutants drawn per seed, on top of the two late ones
CHEAP_MUTANTS = 6


@dataclass(frozen=True)
class Script:
    family: str  # depth | width | let | susp | reject
    label: str
    size: int  # depth, arity, levels, top dimension, or script length for reject
    text: str
    expected: tuple[tuple[str, str], ...]  # (declaration name, verdict) in order


def scaling_scripts(seed: int) -> list[Script]:
    """All scripts of the ``scaling`` workload, in checking order."""
    rng = random.Random(seed)
    return (
        [_depth_script(n, rng) for n in DEPTHS]
        + [_width_script(k, rng) for k in WIDTHS]
        + [_let_script(LET_LEVELS, rng)]
        + [_susp_script(rng)]
        + _reject_scripts(rng)
    )


# -- depth ---------------------------------------------------------------


def _chain(base: str, depth: int, rng: random.Random) -> str:
    """``base`` under ``depth`` binary composites with an identity, each
    on a side the seed picks."""
    t = base
    for _ in range(depth):
        t = f"(comp {t} (id _))" if rng.random() < 0.5 else f"(comp (id _) {t})"
    return t


def _depth_script(n: int, rng: random.Random) -> Script:
    x, f = f"x{n}", f"f{n}"
    name = f"depth-{n}"
    text = f"let {name} ({x} : *) ({f} : {x} -> {x}) = {_chain(f, n, rng)}\n"
    return Script("depth", name, n, text, ((name, ACCEPTED),))


# -- width ---------------------------------------------------------------


def _width_script(k: int, rng: random.Random) -> Script:
    """One ``comp`` of arity k; a quarter of its arguments are identities
    at positions the seed picks."""
    ids = set(rng.sample(range(k), k // 4))
    arrows = k - len(ids)
    tele = [f"(o0 : *)"]
    for i in range(1, arrows + 1):
        tele.append(f"(o{i} : *) (a{i} : o{i - 1} -> o{i})")
    args, nxt = [], 1
    for pos in range(k):
        if pos in ids:
            args.append("(id _)")
        else:
            args.append(f"a{nxt}")
            nxt += 1
    name = f"width-{k}"
    text = f"let {name} {' '.join(tele)} = comp {' '.join(args)}\n"
    return Script("width", name, k, text, ((name, ACCEPTED),))


# -- let reuse -----------------------------------------------------------


def _let_script(levels: int, rng: random.Random) -> Script:
    """``r_i = comp r_{i-1} r_{i-1}`` with one identity per level at a
    side the seed picks."""
    lines = ["let r0 (x : *) (f : x -> x) = comp f (id _)"]
    for i in range(1, levels + 1):
        prev = f"(r{i - 1} f)"
        parts = [prev, prev]
        parts.insert(rng.randrange(3), "(id _)")
        lines.append(f"let r{i} (x : *) (f : x -> x) = comp {' '.join(parts)}")
    names = [f"r{i}" for i in range(levels + 1)]
    return Script(
        "let", f"let-{levels}", levels, "\n".join(lines) + "\n",
        tuple((n, ACCEPTED) for n in names),
    )


# -- suspension ----------------------------------------------------------


def _cell_chain(dim: int, cells: int, tag: str) -> tuple[str, list[str]]:
    """Pasting shorthand for ``cells`` composable ``dim``-cells, and the
    names of those cells."""
    inner = [f"{tag}b{j}" for j in range(cells + 1)]
    top = [f"{tag}c{j}" for j in range(1, cells + 1)]
    body = inner[0] + "".join(f"({c}){b}" for c, b in zip(top, inner[1:]))
    for level in range(dim - 1, 0, -1):
        body = f"{tag}s{level}({body}){tag}t{level}"
    return body, top


def _susp_script(rng: random.Random) -> Script:
    """A coherence and a definition, each applied to chains of cells of
    increasing dimension, so the elaborator suspends them implicitly."""
    coh_ty = rng.choice([
        "comp f (comp g h) -> comp (comp f g) h",
        "comp (comp f g) h -> comp f (comp g h)",
    ])
    let_body = rng.choice(["comp f (id _) g", "comp (id _) f g", "comp f g (id _)"])
    lines = [
        f"coh sassoc (x(f)y(g)z(h)w) : {coh_ty}",
        f"let sdef (x : *) (y : *) (z : *) (f : x -> y) (g : y -> z) = {let_body}",
    ]
    names = ["sassoc", "sdef"]
    for dim in SUSP_DIMS:
        ps, cells = _cell_chain(dim, 3, f"d{dim}")
        uses = [(f"sa{dim}", f"sassoc {' '.join(cells)}"), (f"sd{dim}", f"sdef {' '.join(cells[:2])}")]
        rng.shuffle(uses)
        for name, body in uses:
            lines.append(f"let {name} ({ps}) = {body}")
            names.append(name)
    return Script(
        "susp", "susp", max(SUSP_DIMS), "\n".join(lines) + "\n",
        tuple((n, ACCEPTED) for n in names),
    )


# -- reject --------------------------------------------------------------

# Mutation kinds whose categories the acceptance suite's negative suite
# pins: (category, accepted prefix, mutant).
_CHEAP = [
    ("not-pasting", [], "coh bad (x : *) (y : *) (f : x -> y) (h : x -> x) : x -> y"),
    ("not-full", [], "coh bad ({ps}) : {head} -> {head}"),
    ("arity", [],
     "inv bad (x : *) (y : *) (f : x -> y) (e : Inv (f)) = "
     "{ f , linv (e) , rinv (e) , lunit (e) , runit (e) , ilunit (e) }"),
    ("wrong-witness-set", [],
     "let bad (x : *) (y : *) (z : *) (f : x -> y) (g : y -> z) (e : Inv (f)) "
     ": Inv (comp f g) = can ( comp f g { e })"),
    ("ih-outside-rec", [], "let bad (x : *) = IHleft"),
    ("not-equiv-context", [], "rec bad (x : *) (y : *) (f : x -> y) = { f , f , f , f , f , f , f }"),
    ("type-mismatch", [],
     "inv bad (x : *) (y : *) (f : x -> y) (e : Inv (f)) = "
     "{ f , f , rinv (e) , lunit (e) , runit (e) , ilunit (e) , irunit (e) }"),
    ("duplicate-variable", [], "let bad (x : *) (x : *) = x"),
    ("shadowed-name", ["let one (x : *) = x"], "let one (x : *) = x"),
    ("ill-formed-type", [], "coh bad (x(f)y) : x -> f"),
    ("unification", [], "let bad (x : *) = id _"),
    ("bad-can-subject", [],
     "let bad (x : *) (y : *) (f : x -> y) (e : Inv (f)) : Inv (f) = can (f {})"),
    ("unknown-name", [], "let bad (x : *) = later x"),
]


def _reject_scripts(rng: random.Random) -> list[Script]:
    out = []
    for category, prefix, mutant in rng.sample(_CHEAP, CHEAP_MUTANTS):
        if "{ps}" in mutant:
            # a wide pasting chain whose type leaves out its last arrow
            n = rng.randrange(6, 12)
            ps = "x0" + "".join(f"(f{i})x{i}" for i in range(1, n + 1))
            mutant = mutant.format(ps=ps, head="comp " + " ".join(f"f{i}" for i in range(1, n)))
        out.append(_mutant_script(category, prefix, mutant))
    out += _late_scripts(rng)
    return out


def _late_scripts(rng: random.Random) -> list[Script]:
    """Mutants that fail only after a deep body has been elaborated: a
    chain whose declared target is off by one arrow, and a coinductive
    tuple whose last component has the other witness's type."""
    chain = _chain("f", LATE_DEPTH, rng)
    wrong_target = (
        "let bad (x : *) (y : *) (f : x -> x) (g : x -> y) : x -> y = "
        f"{chain}"
    )
    padded = _chain("(linv (e))", LATE_DEPTH // 10, rng)
    wrong_last = (
        "inv bad (x : *) (y : *) (f : x -> y) (e : Inv (f)) = "
        f"{{ f , {padded} , rinv (e) , lunit (e) , runit (e) , ilunit (e) , ilunit (e) }}"
    )
    return [
        _mutant_script("unification", [], wrong_target, label="late-unification"),
        _mutant_script("type-mismatch", [], wrong_last, label="late-type-mismatch"),
    ]


def _mutant_script(category: str, prefix: list[str], mutant: str, label: str | None = None) -> Script:
    expected = [(line.split()[1], ACCEPTED) for line in prefix]
    expected.append((mutant.split()[1], category))
    text = "\n".join(prefix + [mutant]) + "\n"
    return Script("reject", label or category, len(text), text, tuple(expected))
