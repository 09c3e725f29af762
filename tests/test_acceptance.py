"""Acceptance criteria.

Each test implements one criterion at its stated tolerance and prints
one ``ACCEPTANCE n: PASS/FAIL`` line (visible with ``pytest -s`` or in
the captured output of a failing run).
"""

import random
import time


from icatt.builtins import comp_of, id_of
from icatt.elaborate import elaborate_decl
from icatt.equiv import check_gamma, enumerate_neutrals, equiv_truncation
from icatt.errors import IcattError
from icatt.kernel import (
    Environment,
    check_decl,
    check_sub,
    convertible_types,
    infer_term,
)
from icatt.meta import (
    classify_term,
    classify_type,
    equiv_display,
    sphere_inclusion,
    suspend_judgment,
    walking_equiv,
)
from icatt.normalize import beta_reduce, erase_check, eta_expand_once, nf
from icatt.parser import parse
from icatt.syntax import (
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
    Var,
    VarRef,
    alpha_eq_context,
    alpha_eq_term,
    alpha_key_context,
    alpha_key_sub,
    alpha_key_term,
    apply_sub_term,
    apply_sub_type,
    compose_sub,
    dim_type,
    rename_vars_type,
)

import fresh
from oracles import brute_force_neutrals

CORPUS = fresh.CORPUS


def _report(criterion: int, label: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {criterion} [{label}]: {status}{tail}")
    assert ok, f"criterion {criterion} ({label}) failed {tail}"


# -- 1. corpus check -----------------------------------------------------------


def test_criterion_1_corpus_check():
    start = time.time()
    out = fresh.run("-m", "icatt.cli", "check", str(CORPUS))
    elapsed = time.time() - start
    lines = out.stdout.strip().splitlines()
    ok = out.returncode == 0 and len(lines) == 29 and elapsed < 60.0
    _report(1, "corpus check", ok, f"{len(lines)} declarations, {elapsed:.1f}s")


# -- 2. negative suite -----------------------------------------------------------

_NEGATIVE = [
    # non-pasting context in a coherence
    ("coh bad (x : *) (y : *) (f : x -> y) (h : x -> x) : x -> y", "not-pasting"),
    # non-full type
    ("coh bad (x(f)y(g)z) : x -> y", "not-full"),
    ("coh bad (x(f)y(g)z) : y -> z", "not-full"),
    # wrong coinductive arity
    (
        "inv bad (x : *) (y : *) (f : x -> y) (e : Inv (f)) = "
        "{ f , linv (e) , rinv (e) , lunit (e) , runit (e) , ilunit (e) }",
        "arity",
    ),
    # missing can witness
    (
        "let bad (x : *) (y : *) (z : *) (f : x -> y) (g : y -> z) (e : Inv (f)) "
        ": Inv (comp f g) = can ( comp f g { e })",
        "wrong-witness-set",
    ),
    # inductive hypothesis outside a recursive definition
    ("let bad (x : *) = IHleft", "ih-outside-rec"),
    # inductive hypothesis in an early component of a rec
    (
        "rec bad (x : *) (y : *) (f : x -> y) (e : Inv (f)) = "
        "{ linv (e) , IHleft , f , lunit (e) , lunit (e) , ilunit (e) , ilunit (e) }",
        "ih-outside-rec",
    ),
    # rec over a context that is not a walking equivalence
    (
        "rec bad (x : *) (y : *) (f : x -> y) = "
        "{ f , f , f , f , f , f , f }",
        "not-equiv-context",
    ),
    # component type mismatch in a coinductive tuple
    (
        "inv bad (x : *) (y : *) (f : x -> y) (e : Inv (f)) = "
        "{ f , f , rinv (e) , lunit (e) , runit (e) , ilunit (e) , irunit (e) }",
        "type-mismatch",
    ),
    # destructor applied to a categorical term
    ("let bad (x : *) (y : *) (f : x -> y) = linv (f)", "type-mismatch"),
    # duplicate telescope variable
    ("let bad (x : *) (x : *) = x", "duplicate-variable"),
    # shadowing a name from the same file
    ("let one (x : *) = x\nlet one (x : *) = x", "shadowed-name"),
    # arrow endpoints in different dimensions
    ("coh bad (x(f)y) : x -> f", "ill-formed-type"),
    # unsolvable wildcard
    ("let bad (x : *) = id _", "unification"),
    # canonical structure on something that is not a coherence cell
    (
        "let bad (x : *) (y : *) (f : x -> y) (e : Inv (f)) : Inv (f) = can (f {})",
        "bad-can-subject",
    ),
    # use before declaration
    ("let a (x : *) = later x\nlet later (x : *) = x", "unknown-name"),
]


def test_criterion_2_negative_suite():
    failures = []
    for text, want in _NEGATIVE:
        env = Environment()
        got = None
        try:
            for sdecl in parse(text):
                check_decl(env, elaborate_decl(env, sdecl))
        except IcattError as exc:
            got = exc.category
        if got != want:
            failures.append((text.splitlines()[0][:40], want, got))
    ok = not failures and len(_NEGATIVE) >= 10
    _report(2, "negative suite", ok, f"{len(_NEGATIVE)} mutations; mismatches: {failures}")


# -- 3. conservativity erasure ----------------------------------------------------


def _random_catt_terms(count: int, seed: int = 7):
    """Small well-typed terms over an Inv-free chain context."""
    rng = random.Random(seed)
    names = ["o0", "o1", "o2", "o3"]
    arrows = [("a1", "o0", "o1"), ("a2", "o1", "o2"), ("a3", "o2", "o3")]
    entries = [(Var(n), Obj()) for n in names]
    for a, s, t in arrows:
        entries.append((Var(a), Arr(Obj(), VarRef(Var(s)), VarRef(Var(t)))))
    ctx = Context(tuple(entries))
    succ = {s: (a, t) for a, s, t in arrows}

    def gen_walk(start: str, fuel: int):
        cells = []
        cur = start
        while fuel > 0:
            fuel -= 1
            if cur in succ and rng.random() < 0.6:
                a, nxt = succ[cur]
                cells.append((VarRef(Var(a)), Arr(Obj(), VarRef(Var(cur)), VarRef(Var(nxt)))))
                cur = nxt
            else:
                cells.append((id_of(VarRef(Var(cur)), Obj()), Arr(Obj(), VarRef(Var(cur)), VarRef(Var(cur)))))
            if rng.random() < 0.4:
                break
        return cells

    out = []
    while len(out) < count:
        start = rng.choice(names)
        cells = gen_walk(start, rng.randint(1, 4))
        if not cells:
            continue
        if len(cells) == 1:
            term, ty = cells[0]
        elif rng.random() < 0.5:
            term, ty = comp_of(cells)
        else:
            term, ty = cells[0]
            for nxt in cells[1:]:
                term, ty = comp_of([(term, ty), nxt])
        if rng.random() < 0.3:
            term, ty = id_of(term, ty), Arr(ty, term, term)
        out.append((ctx, term, ty))
    return out


def _can_tower(term):
    """A canonical invertibility structure with witnesses built the
    same way, all the way down."""
    assert isinstance(term, Coh)
    n = dim_type(term.ty) + 1
    wit = []
    for x, xty in term.ps:
        if dim_type(xty) + 1 == n:
            wit.append((x, _can_tower(term.sub.lookup(x))))
    return Can(term, tuple(wit))


def test_criterion_3_conservativity(corpus_env):
    env, checked = corpus_env
    bad = []
    total = 0
    # the Inv-free coherences of the corpus
    from icatt.kernel import CohDecl
    from icatt.syntax import identity_sub

    for decl in checked:
        if isinstance(decl, CohDecl):
            cell = Coh(decl.ps, decl.ty, identity_sub(decl.ps))
            total += 1
            if not erase_check(decl.ps, cell):
                bad.append(decl.name)
    # a thousand random invertibility-free terms
    for ctx, term, ty in _random_catt_terms(1000):
        infer_term(ctx, term)
        total += 1
        if not erase_check(ctx, term):
            bad.append("random")
    # destructor chains through canonical towers over an Inv-free context
    ctx1 = Context(((Var("p"), Obj()),))
    idp = id_of(VarRef(Var("p")), Obj())
    two, two_ty = comp_of([(idp, Arr(Obj(), VarRef(Var("p")), VarRef(Var("p"))))] * 2)
    for base in (idp, two):
        tower = _can_tower(base)
        infer_term(ctx1, tower)
        for kind in ("linv", "rinv", "lunit", "runit"):
            total += 1
            if not erase_check(ctx1, Destr(kind, tower)):
                bad.append(f"tower-{kind}")
        for kind in ("lwit", "rwit"):
            total += 1
            if not erase_check(ctx1, Destr("lunit", Destr(kind, tower))):
                bad.append(f"tower-{kind}")
    ok = not bad
    _report(3, "conservativity erasure", ok, f"{total} terms, failures: {bad[:5]}")


# -- 4. beta/eta law suite ----------------------------------------------------------


def _random_coind_tuples(count: int, seed: int = 13):
    rng = random.Random(seed)
    e1 = walking_equiv(1)
    out = []
    for _ in range(count):
        depth = rng.randint(0, 3)
        e = VarRef(Var("e1"))
        for _ in range(depth):
            e = Destr(rng.choice(["lwit", "rwit"]), e)
        ty = infer_term(e1, e)
        assert isinstance(ty, Inv)
        out.append((e1, eta_expand_once(e, ty.subject)))
    return out


def test_criterion_4_beta_eta_laws(corpus_terms):
    problems = []
    # destructors project the coinductive components, alpha-exactly
    for ctx, tup in _random_coind_tuples(30):
        infer_term(ctx, tup)
        comps = dict(zip(["linv", "rinv", "lunit", "runit", "lwit", "rwit"],
                         tup.components()[1:]))
        for kind, comp in comps.items():
            if not alpha_eq_term(beta_reduce(Destr(kind, tup)), beta_reduce(comp)):
                problems.append(f"beta {kind}")
    # the critical pair: direct beta vs expansion-then-beta
    idp = id_of(VarRef(Var("p")), Obj())
    can_id = Can(idp, ())
    expanded = eta_expand_once(can_id, idp)
    for kind in ("linv", "rinv", "lunit", "runit"):
        a = nf(Destr(kind, can_id))
        b = nf(Destr(kind, expanded))
        if not alpha_eq_term(a, b):
            problems.append(f"critical pair {kind}")
    # idempotence of the normal form on every categorical corpus term
    for name, ctx, term, ty in corpus_terms:
        if isinstance(ty, Inv):
            continue
        once = nf(term)
        if not alpha_eq_term(nf(once), once):
            problems.append(f"idempotence {name}")
    _report(4, "beta/eta laws", not problems, f"problems: {problems[:5]}")


# -- 5. typing preservation ----------------------------------------------------------


def test_criterion_5_preservation(corpus_terms):
    failures = []
    total = 0
    for name, ctx, term, ty in corpus_terms:
        total += 1
        # substitution along a renaming
        mapping = {v.name: f"{v.name}.r" for v, _ in ctx}
        renamed_ctx = Context(
            tuple((Var(mapping[v.name]), rename_vars_type(t, mapping)) for v, t in ctx)
        )
        gamma = Substitution(
            tuple((v, VarRef(Var(mapping[v.name]))) for v, _ in ctx), ctx
        )
        try:
            moved = apply_sub_term(term, gamma)
            want = apply_sub_type(ty, gamma)
            got = infer_term(renamed_ctx, moved)
            if not convertible_types(renamed_ctx, got, want):
                failures.append(f"sub {name}")
        except IcattError as exc:
            failures.append(f"sub {name}: {exc.category}")
        # suspension
        try:
            sctx, sterm, sty = suspend_judgment(ctx, term, ty)
            got = infer_term(sctx, sterm)
            if not convertible_types(sctx, got, sty):
                failures.append(f"susp {name}")
        except IcattError as exc:
            failures.append(f"susp {name}: {exc.category}")
    ok = not failures
    _report(5, "substitution/suspension preservation", ok,
            f"{total} terms x 2 transports, failures: {failures[:5]}")


# -- 6. classifier round-trip -----------------------------------------------------------


def test_criterion_6_classifier_roundtrip(corpus_terms):
    failures = []
    for name, ctx, term, ty in corpus_terms:
        chi_t = classify_term(term, ty)
        chi_a = classify_type(ty)
        try:
            check_sub(ctx, chi_t, chi_t.codomain)
            if isinstance(ty, Inv):
                display = equiv_display(dim_type(ty))
            else:
                display = sphere_inclusion(dim_type(ty) + 1)
            back = compose_sub(display, chi_t)
            if alpha_key_sub(back) != alpha_key_sub(chi_a):
                failures.append(name)
        except IcattError as exc:
            failures.append(f"{name}: {exc.category}")
    _report(6, "classifier round-trip", not failures, f"failures: {failures[:5]}")


# -- 7. neutral counts ------------------------------------------------------------------


def test_criterion_7_neutral_counts():
    counts = [len(enumerate_neutrals(n)) for n in range(8)]
    ok = counts == [2, 3, 6, 12, 24, 48, 96, 192]
    for n in range(2, 8):
        ok = ok and counts[n] == 3 * 2 ** (n - 1)
    for n in range(6):
        fast = {alpha_key_term(t) for t in enumerate_neutrals(n)}
        ok = ok and brute_force_neutrals(n) == fast
    _report(7, "neutral counts", ok, f"counts {counts}")


# -- 8. truncation fidelity --------------------------------------------------------------


def test_criterion_8_truncations():
    from tests.test_equiv import _explicit_e12

    ok = alpha_eq_context(equiv_truncation(2).ctx, _explicit_e12())
    details = []
    for n in range(4):
        report = check_gamma(n)
        if not report.ok:
            ok = False
            details.extend(report.details)
    _report(8, "truncation fidelity", ok, f"details: {details[:3]}")


# -- 9. invertibility theorem instances ------------------------------------------------------


def _collect_cans(term, ctx, seen, out):
    match term:
        case Can(subject, wit):
            key = (alpha_key_context(ctx), alpha_key_term(term))
            if key not in seen:
                seen.add(key)
                out.append((ctx, term))
            _collect_cans(subject, ctx, seen, out)
            for _, w in wit:
                _collect_cans(w, ctx, seen, out)
        case Coh(_, _, sub):
            for s in sub.terms():
                _collect_cans(s, ctx, seen, out)
        case Coind():
            for c in term.components():
                _collect_cans(c, ctx, seen, out)
        case Rec():
            for s in term.sub.terms():
                _collect_cans(s, ctx, seen, out)
        case Destr(_, arg):
            _collect_cans(arg, ctx, seen, out)
        case _:
            pass


def test_criterion_9_canonical_components(corpus_terms):
    from icatt.inverse import canonical_component

    start = time.time()
    seen: set = set()
    occurrences: list = []
    for name, ctx, term, ty in corpus_terms:
        _collect_cans(term, ctx, seen, occurrences)
    assert occurrences, "corpus must contain canonical structures"
    failures = []
    checked = 0
    for ctx, can_term in occurrences:
        for kind in ("linv", "rinv", "lunit", "runit", "lwit", "rwit"):
            checked += 1
            try:
                expected = infer_term(ctx, Destr(kind, can_term))
                component = canonical_component(can_term, kind)
                actual = infer_term(ctx, component)
                if not convertible_types(ctx, actual, expected):
                    failures.append(f"{kind}")
            except IcattError as exc:
                failures.append(f"{kind}: {exc.category}")
    elapsed = time.time() - start
    ok = not failures and elapsed < 300.0
    _report(
        9,
        "canonical components",
        ok,
        f"{len(occurrences)} structures, {checked} components, {elapsed:.1f}s, "
        f"failures: {failures[:5]}",
    )
