"""The judgments of the theory: context, type, term and substitution
checking, fullness, and conversion.  Pasting diagrams are recognised in
:mod:`icatt.meta` (:func:`~icatt.meta.check_ps`), which derives the
pasting order of a context's entries; the kernel accepts a coherence
only over a context whose entries come in that order.

All checking is self-contained: coherence cells carry their pasting
context and type, so no global environment is needed to re-check a
term.  The environment here only stores accepted top-level declarations
for the elaborator to draw on.

A context is checked in one pass over itself (:func:`check_ctx`), with
no prefix context built; weakening is admissible, so an entry's type
may be checked over the whole context once its variables are in scope.

What the kernel learns lives as long as the syntax it is about: the type
a term infers over a context is kept on the term node, in one weak
reference to the context node (:func:`~icatt.syntax.learn_over`), and
goes when either dies.
Whether a coherence is valid depends only on its head, never on the
substitution that instantiates it.  Inference therefore splits in two.
The closed part, the pasting context, the type over it and its
fullness, is checked once per canonical head cell
(:func:`~icatt.syntax.coh_head_key`), which alpha-equivalent heads
share, and only its successes are marked on that cell, so a failing
head raises on every use.  The per-instance
part runs at every inference of a node: each image of the substitution
is inferred, and the type of its codomain entry is *matched* against
the inferred type (:func:`_fits`), so the codomain instantiated at the
substitution is never built.  A variable of the entry's type stands for
its image, which is compared with the inferred side by identity and
then by conversion; only a term that is not a variable (in the walking
equivalence's seeds and truncations) is instantiated, by one pass
shared by the whole check.  The expected type is built only to report a
failure.  The result type is instantiated once and kept on the
coherence node (:func:`~icatt.syntax.coh_type`), where the elaborator
put it when it built the cell.  A recursive
definition splits the same way: its body (the seed, the arrow-typed
subject and the six other components over the seed and its inductive
extension) is checked once per canonical head
(:func:`~icatt.syntax.rec_head_key`), and only its successes are marked
on that head (:func:`_check_rec_body`), while every instance infers its
subject, checks its substitution and builds its result type.  A body
check costs an inductive extension, a suspension and seven inferences:
checking the corpus infers recursors 7 times over 3 heads, and the
``metatheory`` benchmark 9 times over 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .builtins import component_type, destructor_result_type
from .errors import (
    BadCanSubject,
    BadSubstitution,
    DuplicateVariable,
    IllFormedType,
    NotEquivContext,
    NotFull,
    ShadowedName,
    TypeMismatch,
    UnboundVariable,
    UnsolvedMeta,
    WrongWitnessSet,
)
from .meta import PsContext, check_ps, equiv_ind_context, walking_equiv
from .printer import show
from .syntax import (
    DESTRUCTORS,
    WITNESSES,
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
    Substitution,
    Term,
    Type,
    VarRef,
    _Instantiate,
    alpha_eq_context,
    alpha_eq_term,
    alpha_eq_type,
    apply_sub_term,
    apply_sub_type,
    built_on,
    coh_head_key,
    coh_type,
    dim_type,
    identity_sub,
    known_over,
    learn_over,
    rec_head_key,
    top_entries,
    top_variables,
    variables_used_term,
    variables_used_type,
)

# ---------------------------------------------------------------------------
# Fullness
# ---------------------------------------------------------------------------


def fullness_failure(ps: PsContext, ty: Type) -> str | None:
    """None when ``ty`` is full over ``ps``, else a diagnostic naming the
    variables that break fullness.

    Two clauses make an arrow type full: both sides use every variable,
    or the type is of the diagram's dimension and each side uses exactly
    the variables of its (n-1)-boundary.  A side's variables are the
    free variables of the side together with those of the base type.
    """
    if not isinstance(ty, Arr):
        return "only arrow types can be full"
    base_fv = set(variables_used_type(ty.base))
    src_fv = base_fv | set(variables_used_term(ty.src))
    tgt_fv = base_fv | set(variables_used_term(ty.tgt))
    allvars = {v.name for v, _ in ps.ctx}
    if src_fv == allvars and tgt_fv == allvars:
        return None
    if dim_type(ty) == ps.dim - 1:
        want_src, want_tgt = ps.boundary_src(ps.dim - 1), ps.boundary_tgt(ps.dim - 1)
    else:
        want_src, want_tgt = allvars, allvars
    parts = []
    for side, fv, want in (("source", src_fv, want_src), ("target", tgt_fv, want_tgt)):
        missing = sorted(want - fv)
        stray = sorted(fv - want)
        if missing:
            parts.append(f"{side} side does not use {', '.join(missing)}")
        if stray:
            parts.append(f"{side} side uses non-boundary {', '.join(stray)}")
    if not parts:
        return None
    return f"type is not full over its pasting context: {'; '.join(parts)}"


# ---------------------------------------------------------------------------
# Judgments
# ---------------------------------------------------------------------------


def check_ctx(ctx: Context) -> Context:
    """For each entry ``v : ty`` in order: ``v`` is new, every variable
    of ``ty`` is bound before it, and ``ty`` is well formed over all of
    ``ctx``, where lookup finds the first entry of each name, so the
    same entry as over the entries before ``v``."""
    bound: set[str] = set()
    for v, ty in ctx:
        if v.name in bound:
            raise DuplicateVariable(f"duplicate variable {v.name} in context")
        for name in variables_used_type(ty):
            if name not in bound:
                raise UnboundVariable(f"variable {name} not in context")
        check_type(ctx, ty)
        bound.add(v.name)
    return ctx


def check_coh_head(ps_ctx: Context, ty: Type, where: str = "") -> None:
    """Check a coherence head: its pasting context and a full type over
    it.  Runs once per canonical head cell, which a success marks with
    the type it infers over its own pasting context; ``where`` prefixes
    the fullness diagnostic."""
    head = coh_head_key(ps_ctx, ty)
    if known_over(head, head.ps) is not None:
        return
    check_ctx(ps_ctx)
    ps = check_ps(ps_ctx)
    check_type(ps_ctx, ty)
    failure = fullness_failure(ps, ty)
    if failure is not None:
        raise NotFull(where + failure)
    learn_over(head, head.ps, head.ty)


def check_type(ctx: Context, ty: Type) -> Type:
    c = type(ty)
    if c is Obj:
        return ty
    if c is Arr:
        base = ty.base
        check_type(ctx, base)
        src_ty = infer_term(ctx, ty.src)
        tgt_ty = infer_term(ctx, ty.tgt)
        if not convertible_types(ctx, src_ty, base) or not convertible_types(ctx, tgt_ty, base):
            raise IllFormedType(
                f"arrow endpoints must share the base type (got {show(src_ty)} and {show(tgt_ty)}, "
                f"expected {show(base)})"
            )
        return ty
    if c is Inv:
        base = ty.base
        if type(base) is not Arr:
            raise IllFormedType("invertibility requires a positive-dimensional subject")
        check_type(ctx, base)
        sub_ty = infer_term(ctx, ty.subject)
        if not convertible_types(ctx, sub_ty, base):
            raise IllFormedType(f"invertibility subject has type {show(sub_ty)}, expected {show(base)}")
        return ty
    raise IllFormedType(f"not a type: {ty!r}")


def infer_term(ctx: Context, t: Term) -> Type:
    if t._open:  # syntax over a metavariable, which elaboration zonks away
        hint = t.hint if isinstance(t, MetaRef) else "_"
        raise UnsolvedMeta(f"unsolved implicit argument {hint}; give it explicitly")
    ty = known_over(t, ctx)
    if ty is None:
        ty = learn_over(t, ctx, _infer_term(ctx, t))
    return ty


def _infer_term(ctx: Context, t: Term) -> Type:
    c = type(t)
    if c is VarRef:
        return ctx.lookup(t.var)
    if c is Coh:
        ps_ctx = t.ps
        check_coh_head(ps_ctx, t.ty)
        check_sub(ctx, t.sub, ps_ctx)
        return coh_type(t)
    if c is Destr:
        kind, arg = t.kind, t.arg
        arg_ty = infer_term(ctx, arg)
        if type(arg_ty) is not Inv:
            raise TypeMismatch(f"destructor {kind} needs an invertibility structure, got {show(arg_ty)}")
        return destructor_result_type(kind, arg, arg_ty)
    if c is Coind:
        return _infer_coind(ctx, t)
    if c is Can:
        return _infer_can(ctx, t)
    if c is Rec:
        return _infer_rec(ctx, t)
    raise TypeMismatch(f"not a term: {t!r}")


def check_term(ctx: Context, t: Term, expected: Type) -> Type:
    actual = infer_term(ctx, t)
    if not convertible_types(ctx, actual, expected):
        raise TypeMismatch(f"term has type {show(actual)}, expected {show(expected)}")
    return actual


def _infer_coind(ctx: Context, t: Coind) -> Type:
    ty = infer_term(ctx, t.t)
    if not isinstance(ty, Arr):
        raise TypeMismatch("coinductive tuple needs a positive-dimensional subject")
    _check_components(ctx, ctx, ty, t.components())
    return Inv(ty, t.t)


def _check_components(ctx: Context, wit_ctx: Context, ty: Arr, comps: tuple[Term, ...]) -> None:
    """Check the last six components of an invertibility structure on
    ``comps[0] : ty``; the two witnesses live over ``wit_ctx``."""
    for kind, c in zip(DESTRUCTORS, comps[1:]):
        check_term(wit_ctx if kind in WITNESSES else ctx, c, component_type(kind, ty, comps))


def _infer_can(ctx: Context, t: Can) -> Type:
    if not isinstance(t.subject, Coh):
        raise BadCanSubject("canonical invertibility requires a coherence cell subject")
    subject_ty = infer_term(ctx, t.subject)
    if not isinstance(subject_ty, Arr):
        raise BadCanSubject("canonical invertibility requires a positive-dimensional subject")
    tops = top_variables(t.subject)
    if tuple(v.name for v, _ in t.witnesses) != tuple(v.name for v in tops):
        raise WrongWitnessSet(
            f"witness family must cover exactly the dimension-{dim_type(subject_ty) + 1} variables "
            f"{[v.name for v in tops]} in order, got {[v.name for v, _ in t.witnesses]}"
        )
    entries = top_entries(t.subject)
    for x, w in t.witnesses:
        x_img = t.subject.sub.lookup(x)
        _, x_ty = next(entries)
        if not isinstance(x_ty, Arr):
            raise WrongWitnessSet(f"witness key {x.name} is not positive-dimensional")
        check_term(ctx, w, Inv(x_ty, x_img))
    return Inv(subject_ty, t.subject)


def _infer_rec(ctx: Context, t: Rec) -> Type:
    seed = t.sub.codomain
    built_on(rec_head_key(t), ("body",), lambda: _check_rec_body(seed, t))
    t_ty = infer_term(seed, t.t)
    check_sub(ctx, t.sub, seed)
    return Inv(apply_sub_type(t_ty, t.sub), apply_sub_term(t.t, t.sub))


def _check_rec_body(seed: Context, t: Rec) -> bool:
    """Check a recursor's body: its seed is a walking equivalence, its
    subject is arrow-typed over the seed, and its six other components
    have their types over the seed and its inductive extension."""
    if len(seed.names()) != len(seed):
        raise DuplicateVariable("seed context of a recursive definition repeats a name")
    if not seed.entries or not isinstance(seed.entries[-1][1], Inv):
        raise NotEquivContext("recursive definitions live over a walking equivalence")
    n = dim_type(seed.entries[-1][1])
    if not alpha_eq_context(seed, walking_equiv(n)):
        raise NotEquivContext("seed context of a recursive definition must be a walking equivalence")
    t_ty = infer_term(seed, t.t)
    if not isinstance(t_ty, Arr):
        raise TypeMismatch("recursive definitions need a positive-dimensional subject")
    ind_ctx, _, _ = equiv_ind_context(seed, t.t, t_ty)
    _check_components(seed, ind_ctx, t_ty, t.components())
    return True


def check_sub(ctx: Context, sub: Substitution, cod: Context) -> Substitution:
    if sub.codomain is not cod and (
        not alpha_eq_context(sub.codomain, cod) or sub.codomain.names() != cod.names()
    ):
        raise BadSubstitution("substitution codomain does not match")
    images = sub.images
    if len(images) != len(cod):
        raise BadSubstitution(f"substitution has {len(images)} assignments for {len(cod)} variables")
    # the names assigned, unless they are cod's
    names = sub.names
    if names is None and sub.codomain is not cod:
        names = sub.codomain.vars()
    # the one pass for the terms of the codomain that are not variables
    inst = _Instantiate(sub)
    for i, (v, v_ty) in enumerate(cod.entries):
        if names is not None and names[i].name != v.name:
            raise BadSubstitution(f"substitution assigns {names[i].name} where {v.name} was expected")
        actual = infer_term(ctx, images[i])
        if not _fits(inst, v_ty, actual):
            raise BadSubstitution(
                f"image of {v.name} has type {show(actual)}, expected {show(apply_sub_type(v_ty, sub))}"
            )
    return sub


def _fits(inst: _Instantiate, pat: Type, ty: Type) -> bool:
    """Whether ``inst.type(pat)`` is convertible with ``ty``, decided by
    matching ``pat`` against ``ty`` from the top down to its base,
    without building the instance."""
    c = type(pat)
    while c is not Obj:
        if c is not type(ty):
            return False
        if c is Arr:
            if not (_same(inst, pat.src, ty.src) and _same(inst, pat.tgt, ty.tgt)):
                return False
        elif not _same(inst, pat.subject, ty.subject):
            return False
        pat, ty = pat.base, ty.base
        c = type(pat)
    return type(ty) is Obj


def _same(inst: _Instantiate, pat: Term, t: Term) -> bool:
    """Whether ``inst(pat)`` is convertible with ``t``: a variable is read
    off the images, and only another term is instantiated."""
    image = inst.images.get(pat.var.name) if type(pat) is VarRef else inst(pat)
    return image is t or convertible_terms(image, t)


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------


def convertible_types(ctx: Context, a: Type, b: Type) -> bool:
    """Conversion of types: structural, with their terms compared by
    :func:`convertible_terms`.  Conversion reads no context; ``ctx``,
    the context both types live over, is kept for the callers."""
    if alpha_eq_type(a, b):
        return True
    c = type(a)
    if c is not type(b):
        return False
    if c is Obj:
        return True
    if c is Arr:
        return (
            convertible_types(ctx, a.base, b.base)
            and convertible_terms(a.src, b.src)
            and convertible_terms(a.tgt, b.tgt)
        )
    if c is Inv:
        return convertible_types(ctx, a.base, b.base) and convertible_terms(a.subject, b.subject)
    return False


def convertible_terms(a: Term, b: Term) -> bool:
    """Conversion of terms: alpha-equality of their beta-normal forms,
    which are their normal forms (see :mod:`icatt.normalize`)."""
    if alpha_eq_term(a, b):
        return True
    from .normalize import beta_reduce

    return alpha_eq_term(beta_reduce(a), beta_reduce(b))


def convertible(a, b) -> bool:
    """Public conversion entry point for two types or two terms."""
    if isinstance(a, (Obj, Arr, Inv)):
        return convertible_types(Context(()), a, b)
    return convertible_terms(a, b)


# ---------------------------------------------------------------------------
# Environment of top-level declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CohDecl:
    name: str
    ps: Context
    ty: Type


@dataclass(frozen=True)
class TermDecl:
    """A `let` or `inv` declaration: a named checked term over a telescope."""

    name: str
    ctx: Context
    term: Term
    ty: Type


@dataclass(frozen=True)
class RecDecl:
    name: str
    seed: Context
    components: tuple[Term, ...]  # t, tl, tr, tlu, tru, tilu, tiru


Decl = CohDecl | TermDecl | RecDecl


@dataclass
class Environment:
    decls: dict[str, Decl] = field(default_factory=dict)

    def lookup(self, name: str) -> Decl | None:
        return self.decls.get(name)


def check_decl(env: Environment, decl: Decl) -> Environment:
    """Re-check a declaration from scratch and extend the environment."""
    if decl.name in env.decls:
        raise ShadowedName(f"name {decl.name} is already declared")
    c = type(decl)
    if c is CohDecl:
        check_coh_head(decl.ps, decl.ty, f"coherence {decl.name}: ")
    elif c is TermDecl:
        ctx, ty = decl.ctx, decl.ty
        check_ctx(ctx)
        check_type(ctx, ty)
        check_term(ctx, decl.term, ty)
    elif c is RecDecl:
        seed = decl.seed
        check_ctx(seed)
        probe = Rec(*decl.components, identity_sub(seed))
        infer_term(seed, probe)
    else:
        raise TypeMismatch(f"unknown declaration {decl!r}")
    env.decls[decl.name] = decl
    return env

