"""Surface-to-kernel elaboration.

Declared names are schemas over a telescope.  Only arguments whose
variables do not occur in the types of later telescope entries are
given explicitly; the rest are reconstructed from the explicit
arguments' types (best effort: unsolved metavariables are reported,
never guessed).  Definitions are implicitly suspended: when the
explicit arguments (or the expected type) live uniformly above the
schema's dimension, the schema is suspended to match, once per level
in one declaration.  A declaration's telescope is read into the
elaborator's scope, a map from names to types, and its context is built
once.

``comp`` is multi-ary and elaborates through the linear composite
schema of the right arity and dimension; ``id`` is the identity schema;
``IHleft``/``IHright`` resolve to the inductive-hypothesis variables
inside the last two components of a recursive definition.  Let-bodies
are inlined at use sites, so the kernel re-checks declarations with no
elaborator state left behind.

A schema application is checked against its expected type when that is
known (bidirectional elaboration).  The arguments that synthesise a
type are elaborated first, on their own; the others (``_``, and a
``comp``, ``id`` or definition none of whose arguments synthesises)
are checked against their slots.  Each telescope variable then gets its
image in one pass: each synthesised argument's type is matched against
its slot's type, and the schema's type against the expected type, so a
variable gets its counterpart the first time it is met and is unified
with its image after that.  An explicit ``_`` whose variable got an
image this way (the ``_`` of ``id _``, from its neighbour's boundary)
is not elaborated at all.  A metavariable is made only for a slot that
nothing has determined by the time a surface argument is checked
against a type that mentions it.  Each schema type is instantiated once
per application, at images with their solved metavariables followed,
so an application whose images are closed is a closed node at once;
the strict instantiation of metavariables (a zonk) at the end of a
declaration returns closed nodes as they are and rebuilds only open
ones.  Closed nodes are shared by their constructors (see
:mod:`icatt.syntax`), so a definition inlined several times at the same
arguments is stored once, and later traversals of the declaration cost
its number of distinct nodes.  Nothing is attempted that may fail on
accepted input, so no solution is ever undone.

Unification is the fallback of matching, for a pattern that is not a
telescope variable.  It costs distinct node pairs, not tree size.
Identical terms unify at once, and each top-level call (a
:meth:`Elaborator.unify_term` or :meth:`Elaborator.unify_type` from
outside the unifier) keeps one set of the pairs of nodes, by identity,
it has unified, visiting each pair once; the set is dropped when the
call returns.  This is sound because a pair unified once stays unified,
and a failure raises out of the whole elaboration.  The occurs check
walks each open node once, following solved metas, and builds nothing.
A telescope's explicit positions are computed once and cached on its
:class:`~icatt.syntax.Context`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .builtins import comp_schema, component_type, destructor_result_type, id_schema
from .errors import (
    ArityError,
    BadCanSubject,
    DuplicateVariable,
    IHOutsideRec,
    IllFormedType,
    NotEquivContext,
    ShadowedName,
    TypeMismatch,
    UnificationFailure,
    UnknownName,
    UnsolvedMeta,
    WrongWitnessSet,
)
from .kernel import CohDecl, Environment, RecDecl, TermDecl, convertible_terms, infer_term
from .meta import (
    equiv_ind_context,
    suspend_context,
    suspend_judgment,
    suspend_term,
    suspend_type,
    suspension_base,
    walking_equiv,
)
from .parser import (
    SApp,
    SCan,
    STArrow,
    STInv,
    STStar,
    SurfaceDecl,
    SurfaceTerm,
    SurfaceType,
    SVar,
    SWild,
)
from .printer import show
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
    MemoMap,
    MetaRef,
    Obj,
    Rec,
    Substitution,
    Term,
    Type,
    Var,
    VarRef,
    alpha_eq_context,
    apply_sub_term,
    children,
    coh_head_key,
    coh_type,
    dim_type,
    instantiate_type,
    rec_head_key,
    top_entries,
    top_variables,
    variables_used_type,
)

_DESTRUCTOR_OF_SPELLING = dict(zip(DESTRUCTOR_SPELLINGS, DESTRUCTORS))


@dataclass
class _Schema:
    """A declared name instantiable at a substitution: its telescope,
    and how to build the applied term and type."""

    kind: str  # coh | term | rec
    telescope: Context
    ty: Type
    term: Term | None = None  # for term schemas (let/inv bodies)
    components: tuple[Term, ...] | None = None  # for rec schemas


def _schema_of_decl(decl) -> _Schema:
    if isinstance(decl, CohDecl):
        return _Schema("coh", decl.ps, decl.ty)
    if isinstance(decl, TermDecl):
        return _Schema("term", decl.ctx, decl.ty, term=decl.term)
    if isinstance(decl, RecDecl):
        t_ty = infer_term(decl.seed, decl.components[0])
        return _Schema(
            "rec", decl.seed, Inv(t_ty, decl.components[0]), components=decl.components
        )
    raise UnknownName(f"unknown declaration {decl!r}")


def _suspend_schema(s: _Schema) -> _Schema:
    if s.kind == "term":
        sctx, sterm, sty = suspend_judgment(s.telescope, s.term, s.ty)
        return _Schema("term", sctx, sty, term=sterm)
    sctx = suspend_context(s.telescope)
    base = suspension_base(sctx)
    comps = None if s.components is None else tuple(suspend_term(c, base) for c in s.components)
    return _Schema(s.kind, sctx, suspend_type(s.ty, base), components=comps)


def _cell_dim(ty: Type | None) -> int | None:
    """Dimension of the cells of type ``ty``; metas inside do not change it."""
    return None if ty is None else dim_type(ty) + 1


def explicit_positions(tele: Context) -> tuple[int, ...]:
    """Positions of the entries of ``tele`` whose variables occur in no
    entry's type: the arguments given explicitly.  Cached on ``tele``."""
    out = tele._fact
    if out is None:
        implicit: dict[str, Var] = {}
        for _, ty in tele:
            variables_used_type(ty, implicit)
        out = tele._fact = tuple(i for i, (v, _) in enumerate(tele) if v.name not in implicit)
    return out


# ---------------------------------------------------------------------------
# Elaboration state
# ---------------------------------------------------------------------------


@dataclass
class _Metas:
    solutions: dict[int, Term] = field(default_factory=dict)
    next_uid: int = 0

    def solve(self, uid: int, t: Term) -> None:
        self.solutions.setdefault(uid, t)

    def fresh(self, hint: str) -> MetaRef:
        """A new meta, as the one node that stands for it: the unifier
        tells metas apart by identity."""
        uid = self.next_uid
        self.next_uid += 1
        return MetaRef(uid, hint)


class _Zonk(MemoMap):
    """The map instantiating the solved metavariables of ``solutions``.
    When ``strict``, an unsolved one raises; otherwise it is kept.  A
    closed node, which holds no metavariable, is returned as it is, so
    instantiating metavariables costs the open nodes only."""

    __slots__ = ("solutions", "strict")

    def __init__(self, solutions: dict[int, Term], strict: bool):
        self.memo = {}
        self.solutions = solutions
        self.strict = strict

    def __call__(self, t: Term) -> Term:
        return MemoMap.__call__(self, t) if t._open else t

    def type(self, ty: Type) -> Type:
        return MemoMap.type(self, ty) if ty._open else ty

    def leaf(self, x: Term) -> Term:
        if type(x) is MetaRef:
            solution = self.solutions.get(x.uid)
            if solution is not None:
                return self(solution)
            if self.strict:
                raise UnsolvedMeta(f"unsolved implicit argument {x.hint or x.uid}; give it explicitly")
        return x


class _Instantiator(MemoMap):
    """The map replacing each telescope variable by its image in
    ``assign``, with solved metas followed; a variable with none gets a
    new meta, recorded in ``assign``."""

    __slots__ = ("el", "assign")

    def __init__(self, el: Elaborator, assign: dict[str, Term]):
        self.memo = {}
        self.el = el
        self.assign = assign

    def leaf(self, x: Term) -> Term:
        name = x.var.name
        image = self.assign.get(name)
        if image is None:
            image = self.assign[name] = self.el.metas.fresh(name)
        return self.el.resolve(image)


class Elaborator:
    def __init__(self, env: Environment):
        self.env = env
        self.metas = _Metas()
        # the variables in scope: name -> type
        self.scope: dict[str, Type] = {}
        self.ih: tuple[tuple[Var, Type], tuple[Var, Type]] | None = None
        # surface node (by identity) -> whether it synthesises a type
        self._synth: dict[int, bool] = {}
        # (declaration name, level) -> its schema suspended that many times
        self._suspended: dict[tuple[str, int], _Schema] = {}

    # -- metavariable plumbing -------------------------------------------

    def resolve(self, t: Term) -> Term:
        while type(t) is MetaRef and t.uid in self.metas.solutions:
            t = self.metas.solutions[t.uid]
        return t

    def zonk_term(self, t: Term) -> Term:
        return _Zonk(self.metas.solutions, True)(t)

    def zonk_type(self, ty: Type) -> Type:
        return _Zonk(self.metas.solutions, True).type(ty)

    # -- unification -------------------------------------------------------

    def unify_term(self, a: Term, b: Term, seen: set | None = None) -> None:
        """Unify ``a`` with ``b``, solving metas.  ``seen`` holds the pairs
        of nodes (by identity) already unified by the same top-level call;
        a call from outside the unifier leaves it out and gets a fresh one."""
        a, b = self.resolve(a), self.resolve(b)
        if a is b:
            return
        if seen is None:
            seen = set()
        pair = (id(a), id(b))
        if pair in seen:
            return
        seen.add(pair)
        if type(a) is MetaRef:
            self._bind(a, b)
            return
        if type(b) is MetaRef:
            self._bind(b, a)
            return
        c = type(a)
        clash = None
        if c is not type(b):
            clash = "terms do not unify"
        elif c is Coh:
            if coh_head_key(a.ps, a.ty) is not coh_head_key(b.ps, b.ty):
                clash = "distinct coherence heads"
        elif c is Rec:
            if rec_head_key(a) is not rec_head_key(b):
                clash = "distinct recursive definitions"
        elif c is VarRef and a.var.name == b.var.name:
            return
        elif not (
            c is Coind or c is Destr and a.kind == b.kind or c is Can and len(a.witnesses) == len(b.witnesses)
        ):
            clash = "terms do not unify"
        if clash is not None:
            # two closed sides that clash are equal when the kernel's
            # conversion, which compares beta-normal forms, says so
            if a._open or b._open or not convertible_terms(a, b):
                raise UnificationFailure(clash)
            return
        # same head: unify position by position
        for c1, c2 in zip(children(a), children(b)):
            self.unify_term(c1, c2, seen)

    def _bind(self, m: MetaRef, t: Term) -> None:
        if t._open and self._occurs(m.uid, t):
            raise UnificationFailure("circular implicit argument")
        self.metas.solve(m.uid, t)

    def _occurs(self, uid: int, t: Term) -> bool:
        """Whether the meta ``uid`` occurs in ``t`` once solved metas are
        followed: each node reached is visited once, and nothing is built."""
        visited: set[int] = set()
        stack = [t]
        while stack:
            x = self.resolve(stack.pop())
            if not x._open or id(x) in visited:
                continue
            visited.add(id(x))
            if type(x) is MetaRef:
                if x.uid == uid:
                    return True
            else:
                stack.extend(children(x))
        return False

    def unify_type(self, a: Type | None, b: Type | None, seen: set | None = None) -> None:
        """Unify two types; ``seen`` as for :meth:`unify_term`."""
        if a is None or b is None:
            return
        if seen is None:
            seen = set()
        c = type(a)
        if c is type(b):
            if c is Obj:
                return
            if c is Arr:
                self.unify_type(a.base, b.base, seen)
                self.unify_term(a.src, b.src, seen)
                self.unify_term(a.tgt, b.tgt, seen)
                return
            if c is Inv:
                self.unify_type(a.base, b.base, seen)
                self.unify_term(a.subject, b.subject, seen)
                return
        raise UnificationFailure("types do not unify")

    # -- terms ---------------------------------------------------------------

    def elab_check(self, s: SurfaceTerm, expected: Type | None) -> Term:
        """Elaborate ``s`` against ``expected``.  A schema application
        checks itself against it and returns it as its type; any other
        term's type is unified with it here."""
        term, ty = self.elab_infer(s, expected)
        if expected is not None and ty is not None and ty is not expected:
            try:
                self.unify_type(ty, expected)
            except UnificationFailure:
                if self._concrete(ty) and self._concrete(expected):
                    raise TypeMismatch(
                        f"term has type {show(self.zonk_type(ty))}, expected {show(self.zonk_type(expected))}"
                    )
                raise
        return term

    def _concrete(self, ty: Type) -> bool:
        try:
            self.zonk_type(ty)
            return True
        except UnsolvedMeta:
            return False

    def elab_infer(self, s: SurfaceTerm, expected: Type | None = None) -> tuple[Term, Type | None]:
        c = type(s)
        if c is SWild:
            return self.metas.fresh("_"), expected
        if c is SVar:
            return self._elab_app(s.name, (), expected, s.span)
        if c is SApp and type(s.head) is SVar:
            return self._elab_app(s.head.name, s.args, expected, s.span)
        if c is SCan:
            return self._elab_can(s, expected)
        raise TypeMismatch(f"cannot elaborate {s!r}")

    def _synthesises(self, s: SurfaceTerm) -> bool:
        """Whether ``s`` elaborates with no expected type.  Everything
        does but ``_``, a ``can`` whose subject does not, and an
        application none of whose arguments does: the dimension of a
        ``comp`` or ``id``, and the suspension of a definition, come from
        an argument or else from the expected type.  Memoised per
        elaborator, so a nested chain is walked once."""
        c = type(s)
        if c is SWild:
            return False
        if c is SCan:
            return self._synthesises(s.subject)
        if c is not SApp or s.head.name in _DESTRUCTOR_OF_SPELLING:
            return True
        out = self._synth.get(id(s))
        if out is None:
            out = False
            for a in s.args:
                if self._synthesises(a):
                    out = True
                    break
            self._synth[id(s)] = out
        return out

    def _elab_app(
        self, name: str, args: tuple, expected: Type | None, span
    ) -> tuple[Term, Type | None]:
        ty = self.scope.get(name)
        if ty is not None:
            if args:
                raise ArityError(f"variable {name} cannot be applied to arguments", span=span)
            return VarRef(Var(name)), ty
        if name in ("IHleft", "IHright"):
            if self.ih is None:
                raise IHOutsideRec(
                    "IHleft/IHright are only available in the last two components "
                    "of a recursive definition",
                    span=span,
                )
            (hm, hm_ty), (hp, hp_ty) = self.ih
            if args:
                raise ArityError(f"{name} cannot be applied to arguments", span=span)
            return (VarRef(hm), hm_ty) if name == "IHleft" else (VarRef(hp), hp_ty)
        kind = _DESTRUCTOR_OF_SPELLING.get(name)
        if kind is not None:
            if len(args) != 1:
                raise ArityError(f"{name} takes exactly one argument", span=span)
            arg, arg_ty = self.elab_infer(args[0])
            arg_ty = self._zonkish_type(arg_ty)
            if not isinstance(arg_ty, Inv):
                raise TypeMismatch(
                    f"{name} needs an invertibility structure, got {show(arg_ty)}", span=span
                )
            return Destr(kind, arg), destructor_result_type(kind, arg, arg_ty)
        if name == "comp":
            return self._elab_comp(args, expected, span)
        if name == "id":
            if len(args) != 1:
                raise ArityError("id takes exactly one argument", span=span)
            arg_data, first = self._pre_elaborate(args)
            if first is not None:
                k = dim_type(first[1]) + 1
            elif expected is not None:
                k = dim_type(expected)
            else:
                raise UnificationFailure("cannot infer the dimension of id here", span=span)
            return self._apply_schema_core(_Schema("coh", *id_schema(k)), arg_data, expected, span)
        decl = self.env.lookup(name)
        if decl is None:
            raise UnknownName(f"unknown name {name}", span=span)
        return self._apply_schema(name, _schema_of_decl(decl), args, expected, span)

    def _elab_comp(self, args: tuple, expected: Type | None, span) -> tuple[Term, Type | None]:
        if not args:
            raise ArityError("comp needs at least one argument", span=span)
        if len(args) == 1:
            # a unary composite is its argument
            return self.elab_infer(args[0], expected)
        arg_data, first = self._pre_elaborate(args)
        dim = _cell_dim(expected) if first is None else dim_type(first[1]) + 1
        if dim is None or dim < 1:
            raise UnificationFailure("cannot infer the dimension of this composite", span=span)
        return self._apply_schema_core(_Schema("coh", *comp_schema(len(args), dim)), arg_data, expected, span)

    def _pre_elaborate(self, args: tuple) -> tuple[list, tuple[int, Type] | None]:
        """The arguments that synthesise a type elaborated on their own,
        as (term, type) pairs, and the others as they are, to be checked
        against their slots; with the position and type of the first
        pair."""
        arg_data: list = []
        first = None
        for i, a in enumerate(args):
            if self._synthesises(a):
                a = self.elab_infer(a)
                if first is None:
                    first = (i, a[1])
            arg_data.append(a)
        return arg_data, first

    def _zonkish_type(self, ty: Type | None) -> Type | None:
        """Resolve solved metas inside a type without failing on
        unsolved ones."""
        return None if ty is None else _Zonk(self.metas.solutions, False).type(ty)

    def _resolve_deep(self, t: Term) -> Term:
        return _Zonk(self.metas.solutions, False)(t)

    def _apply_schema(
        self, name: str, schema: _Schema, args: tuple, expected: Type | None, span
    ) -> tuple[Term, Type | None]:
        explicit = explicit_positions(schema.telescope)
        if len(args) != len(explicit):
            raise ArityError(
                f"expected {len(explicit)} explicit argument(s), got {len(args)}", span=span
            )
        # the suspension level comes from the first argument that
        # synthesises a type, else from the expected type
        arg_data, first = self._pre_elaborate(args)
        if first is not None:
            i, ty = first
            susp = dim_type(ty) - dim_type(schema.telescope.entries[explicit[i]][1])
        else:
            exp_dim = _cell_dim(expected)
            susp = 0 if exp_dim is None else exp_dim - (dim_type(schema.ty) + 1)
        if susp < 0:
            raise UnificationFailure("argument dimensions are below the definition's", span=span)
        # each level of a definition is suspended once per declaration
        for level in range(1, susp + 1):
            suspended = self._suspended.get((name, level))
            if suspended is None:
                suspended = self._suspended[name, level] = _suspend_schema(schema)
            schema = suspended
        return self._apply_schema_core(schema, arg_data, expected, span)

    def _apply_schema_core(
        self, schema: _Schema, arg_data: list, expected: Type | None, span
    ) -> tuple[Term, Type | None]:
        """Instantiate a schema at its explicit arguments: (term, type)
        pairs and surface terms.  Telescope variables get their images,
        in this order, by matching the pairs' types against their slots'
        types, by matching the schema's type against ``expected`` when
        it is known, and by checking each surface argument against its
        slot's type; a variable met again is unified with its image.  A
        ``_`` whose variable has an image already is not elaborated."""
        tele = schema.telescope
        explicit = explicit_positions(tele)
        assign: dict[str, Term] = {}
        for pos, data in zip(explicit, arg_data):
            if type(data) is tuple:
                v, v_ty = tele.entries[pos]
                # an explicit variable occurs in no slot's type
                assign[v.name], ty = data
                try:
                    self._match_type(v_ty, ty, assign)
                except UnificationFailure as e:
                    raise UnificationFailure(
                        f"argument for {v.name} does not fit: {e.message}", span=span
                    )
        if expected is not None:
            try:
                self._match_type(schema.ty, expected, assign)
            except UnificationFailure as e:
                raise UnificationFailure(f"result does not fit here: {e.message}", span=span)
        for pos, data in zip(explicit, arg_data):
            if type(data) is tuple:
                continue
            v, v_ty = tele.entries[pos]
            image = assign.get(v.name)
            if image is not None and type(data) is SWild:
                continue
            term = self.elab_check(data, _Instantiator(self, assign).type(v_ty))
            if image is None:
                assign[v.name] = term
            else:
                try:
                    self.unify_term(image, term)
                except UnificationFailure as e:
                    raise UnificationFailure(
                        f"argument for {v.name} does not fit: {e.message}", span=span
                    )
        # a slot that nothing determined keeps an unsolved meta, which the
        # strict zonk of the declaration reports
        images = []
        for v, _ in tele:
            image = assign.get(v.name)
            image = assign[v.name] = self.metas.fresh(v.name) if image is None else self.resolve(image)
            images.append(image)
        sub = Substitution.of(tuple(images), tele)
        if schema.kind == "coh":
            # with no expected type, the cell's type is a fact kept on it,
            # which the kernel reads again
            cell = Coh(tele, schema.ty, sub)
            return cell, coh_type(cell) if expected is None else expected
        out_ty = expected if expected is not None else instantiate_type(schema.ty, assign)
        if schema.kind == "term":
            return apply_sub_term(schema.term, sub), out_ty
        return Rec(*schema.components, sub), out_ty

    def _match_type(self, pat: Type, ty: Type, assign: dict[str, Term]) -> None:
        """Match ``pat``, a type over a schema's telescope, against
        ``ty``: a telescope variable with no image gets its counterpart,
        and any other pair of terms is unified with ``pat``'s side
        instantiated."""
        c = type(pat)
        if c is type(ty):
            if c is Obj:
                return
            if c is Arr:
                self._match_type(pat.base, ty.base, assign)
                self._match_term(pat.src, ty.src, assign)
                self._match_term(pat.tgt, ty.tgt, assign)
                return
            if c is Inv:
                self._match_type(pat.base, ty.base, assign)
                self._match_term(pat.subject, ty.subject, assign)
                return
        raise UnificationFailure("types do not unify")

    def _match_term(self, pat: Term, t: Term, assign: dict[str, Term]) -> None:
        if type(pat) is VarRef:
            image = assign.get(pat.var.name)
            if image is None:
                assign[pat.var.name] = t
                return
        else:
            image = _Instantiator(self, assign)(pat)
        self.unify_term(image, t)

    def _elab_can(self, s: SCan, expected: Type | None) -> tuple[Term, Type | None]:
        expected = self._zonkish_type(expected)
        subject_hint: Term | None = None
        if isinstance(expected, Inv):
            subject_hint = expected.subject
        if isinstance(s.subject, SWild):
            if subject_hint is None:
                raise BadCanSubject(
                    "cannot infer the subject of can here; write it explicitly", span=s.span
                )
            subject = self._resolve_deep(subject_hint)
        else:
            exp_subject_ty = expected.base if isinstance(expected, Inv) else None
            subject = self.elab_check(s.subject, exp_subject_ty)
            subject = self._resolve_deep(subject)
            if subject_hint is not None:
                self.unify_term(subject, subject_hint)
        if not isinstance(subject, Coh):
            raise BadCanSubject(
                "can needs a coherence cell subject (after inlining definitions)", span=s.span
            )
        tops = top_variables(subject)
        if len(s.witnesses) != len(tops):
            raise WrongWitnessSet(
                f"can needs {len(tops)} witness(es) for {[v.name for v in tops]}, "
                f"got {len(s.witnesses)}",
                span=s.span,
            )
        wit_pairs = []
        entries = top_entries(subject)
        for x, w in zip(tops, s.witnesses):
            x_img = subject.sub.lookup(x)
            _, x_ty = next(entries)
            assert isinstance(x_ty, Arr)
            wit_pairs.append((x, self.elab_check(w, Inv(x_ty, x_img))))
        out_ty = Inv(coh_type(subject), subject)
        return Can(subject, tuple(wit_pairs)), out_ty

    # -- types ---------------------------------------------------------------

    def elab_type(self, s: SurfaceType) -> Type:
        c = type(s)
        if c is STStar:
            return Obj()
        if c is STInv:
            term, ty = self.elab_infer(s.subject)
            ty = self._zonkish_type(ty)
            if type(ty) is not Arr:
                raise TypeMismatch("invertibility needs a positive-dimensional subject", span=s.span)
            return Inv(ty, term)
        if c is STArrow:
            s_term, s_ty = self.elab_infer(s.src)
            t_term, t_ty = self.elab_infer(s.tgt)
            if s_ty is not None and t_ty is not None:
                try:
                    self.unify_type(s_ty, t_ty)
                except UnificationFailure:
                    if self._concrete(s_ty) and self._concrete(t_ty):
                        raise IllFormedType(
                            "arrow endpoints live in different types "
                            f"({show(self.zonk_type(s_ty))} and {show(self.zonk_type(t_ty))})",
                            span=s.span,
                        )
                    raise
            base = self._zonkish_type(s_ty if s_ty is not None else t_ty)
            if base is None:
                raise UnificationFailure("cannot infer the base of this arrow type", span=s.span)
            return Arr(base, s_term, t_term)
        raise TypeMismatch(f"not a surface type: {s!r}")


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


RESERVED_NAMES = frozenset(
    ["comp", "id", "can", "Inv", "IHleft", "IHright", "coh", "let", "inv", "rec", "_"]
    + list(DESTRUCTOR_SPELLINGS)
)


def elaborate_decl(env: Environment, sdecl: SurfaceDecl):
    """Elaborate a surface declaration to a kernel declaration (not yet
    environment-checked)."""
    el = Elaborator(env)
    if sdecl.name in RESERVED_NAMES:
        raise ShadowedName(f"{sdecl.name} is a reserved name", span=sdecl.span)
    # the telescope is read into the elaborator's scope, and its context
    # built once at the end
    entries = []
    for name, sty in sdecl.telescope:
        if name in RESERVED_NAMES:
            raise ShadowedName(f"{name} is a reserved name", span=sdecl.span)
        ty = el.zonk_type(el.elab_type(sty))
        if name in el.scope:
            raise DuplicateVariable(f"variable {name} already in context")
        el.scope[name] = ty
        entries.append((Var(name), ty))
    ctx = Context(tuple(entries))

    if sdecl.kind == "coh":
        ty = el.zonk_type(el.elab_type(sdecl.ty))
        return CohDecl(sdecl.name, ctx, ty)

    if sdecl.kind == "let":
        declared = el.elab_type(sdecl.ty) if sdecl.ty is not None else None
        body = el.elab_check(sdecl.body, declared)
        body = el.zonk_term(body)
        if declared is not None:
            ty = el.zonk_type(declared)
        else:
            ty = infer_term(ctx, body)
        return TermDecl(sdecl.name, ctx, body, ty)

    comps = sdecl.components or ()
    if len(comps) != 7:
        raise ArityError(
            f"{sdecl.kind} declarations take exactly 7 components, got {len(comps)}",
            span=sdecl.span,
        )
    if sdecl.kind == "rec":
        last = ctx.entries[-1][1] if ctx.entries else None
        if not isinstance(last, Inv) or not alpha_eq_context(ctx, walking_equiv(dim_type(last))):
            raise NotEquivContext(
                "the context of a recursive definition must be a walking equivalence",
                span=sdecl.span,
            )
    t_term, t_ty = el.elab_infer(comps[0])
    t_term = el.zonk_term(t_term)
    t_ty = infer_term(ctx, t_term)
    if not isinstance(t_ty, Arr):
        raise TypeMismatch("the first component must be positive-dimensional", span=sdecl.span)
    done = [t_term]
    for kind, surface in zip(DESTRUCTORS, comps[1:]):
        if kind == "lwit" and sdecl.kind == "rec":
            ind_ctx, hm, hp = equiv_ind_context(ctx, t_term, t_ty)
            el.scope = {v.name: ty for v, ty in reversed(ind_ctx.entries)}
            el.ih = ((hm, ind_ctx.lookup(hm)), (hp, ind_ctx.lookup(hp)))
        done.append(el.zonk_term(el.elab_check(surface, component_type(kind, t_ty, done))))
    if sdecl.kind == "inv":
        return TermDecl(sdecl.name, ctx, Coind(*done), Inv(t_ty, t_term))
    return RecDecl(sdecl.name, ctx, tuple(done))
