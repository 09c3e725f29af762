"""Finitary analysis of the walking equivalence: enumeration of its
neutral categorical terms, the truncation contexts built by pullbacks
along display maps, and the variable-to-neutral correspondence.

Neutral terms are destructor chains over the variables of the
one-dimensional walking equivalence; there are 2 of dimension 0, 3 of
dimension 1, and 3 * 2^(n-1) in each dimension n >= 2;
:func:`count_neutrals` counts them without building them.  The
truncation contexts grow exponentially, so construction stops at stage
:data:`MAX_STAGE`.  A stage or dimension outside its bounds raises
:class:`~icatt.errors.BoundExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .builtins import comp_of, id_of
from .errors import BoundExceeded
from .kernel import check_sub
from .meta import rename_to, suspend_context, suspend_sub, walking_equiv, wit_classifier
from .normalize import beta_reduce
from .syntax import (
    Arr,
    Context,
    Destr,
    Obj,
    Substitution,
    Term,
    Var,
    VarRef,
    alpha_key_term,
    compose_sub,
    dim_type,
    identity_sub,
    instantiate_type,
)

MAX_STAGE = 5
# the largest dimension whose neutral terms are counted: the count has
# about 0.3 n decimal digits, and Python prints at most 4,300 by default
MAX_COUNT_DIM = 10_000

_E1 = walking_equiv(1)
_E1_VAR = VarRef(Var("e1"))


# ---------------------------------------------------------------------------
# Neutral terms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def inv_neutrals(n: int) -> tuple[Term, ...]:
    """Neutral invertibility structures of dimension n over the walking
    equivalence: witness chains over its invertibility variable."""
    if n < 1:
        return ()
    if n == 1:
        return (_E1_VAR,)
    out: list[Term] = []
    for e in inv_neutrals(n - 1):
        out.append(Destr("lwit", e))
        out.append(Destr("rwit", e))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_neutrals(n: int) -> tuple[Term, ...]:
    """Neutral categorical terms of dimension exactly n over the
    one-dimensional walking equivalence."""
    if n < 0:
        return ()
    if n == 0:
        return (VarRef(Var("d0-")), VarRef(Var("d0+")))
    if n == 1:
        return (VarRef(Var("d1")), Destr("linv", _E1_VAR), Destr("rinv", _E1_VAR))
    out: list[Term] = []
    for e in inv_neutrals(n):
        out.append(Destr("linv", e))
        out.append(Destr("rinv", e))
    for e in inv_neutrals(n - 1):
        out.append(Destr("lunit", e))
        out.append(Destr("runit", e))
    return tuple(out)


def count_neutrals(n: int) -> int:
    """``len(enumerate_neutrals(n))``, by the same grammar over counts
    alone: O(n) integer work, and no term is built."""
    if n > MAX_COUNT_DIM:
        raise BoundExceeded(f"dimension {n} exceeds the bound {MAX_COUNT_DIM} on neutral counts")
    if n < 0:
        return 0
    if n < 2:
        return (2, 3)[n]
    inv_prev, inv = 0, 1  # the lengths of inv_neutrals(k - 1) and inv_neutrals(k), from k = 1
    for _ in range(1, n):
        inv_prev, inv = inv, 2 * inv
    return 2 * inv + 2 * inv_prev


# ---------------------------------------------------------------------------
# Pullbacks along display maps
# ---------------------------------------------------------------------------


def pullback_along_display(
    dom: Context,
    f: Substitution,
    base: Context,
    extended: Context,
    rename,
) -> tuple[Context, Substitution, Substitution]:
    """Pull the display extension ``base <= extended`` back along
    ``f : dom -> base``: returns the extended domain and the two
    projection substitutions (to ``dom`` and to ``extended``)."""
    if extended.entries[: len(base)] != base.entries:
        raise ValueError("display map must present a telescope extension")
    out_entries = list(dom.entries)
    names = {v.name for v, _ in dom}
    images = {x.name: t for x, t in reversed(f.pairs)}
    for v, ty in extended.entries[len(base):]:
        new_name = rename(v.name)
        while new_name in names:
            new_name = new_name + "'"
        names.add(new_name)
        # entry types only mention earlier entries, all assigned by now
        out_entries.append((Var(new_name), instantiate_type(ty, images)))
        images[v.name] = VarRef(Var(new_name))
    pulled = Context(tuple(out_entries))
    proj_dom = identity_sub(dom)
    proj_top = Substitution.of(tuple([images[v.name] for v, _ in extended]), extended)
    return pulled, proj_dom, proj_top


# ---------------------------------------------------------------------------
# Truncations of the walking equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Truncation:
    ctx: Context
    to_prev: Substitution | None  # i^n
    to_susp_left: Substitution | None  # f^n
    to_susp_right: Substitution | None  # g^n


@lru_cache(maxsize=None)
def equiv_truncation(n: int) -> Truncation:
    """The n-truncation of the walking equivalence, with its display to
    the previous stage and the two comparison substitutions."""
    if n < 0:
        raise BoundExceeded(f"truncation stage {n} is negative")
    if n > MAX_STAGE:
        raise BoundExceeded(
            f"truncation stage {n} exceeds the bound {MAX_STAGE} "
            "(the contexts grow exponentially)"
        )
    if n == 0:
        ctx = Context(((Var("x"), Obj()), (Var("y"), Obj())))
        return Truncation(ctx, None, None, None)
    if n == 1:
        prev = equiv_truncation(0).ctx
        x, y = VarRef(Var("x")), VarRef(Var("y"))
        arr_xy = Arr(Obj(), x, y)
        arr_yx = Arr(Obj(), y, x)
        ctx = Context(
            prev.entries
            + ((Var("u"), arr_xy), (Var("v"), arr_yx), (Var("w"), arr_yx))
        )
        i1 = Substitution(((Var("x"), x), (Var("y"), y)), prev)
        sprev = suspend_context(prev)
        u, v, w = VarRef(Var("u")), VarRef(Var("v")), VarRef(Var("w"))
        vu, _ = comp_of([(v, arr_yx), (u, arr_xy)])
        uw, _ = comp_of([(u, arr_xy), (w, arr_yx)])
        f1 = Substitution(
            ((Var("v-"), y), (Var("v+"), y), (Var("x"), vu), (Var("y"), id_of(y, Obj()))),
            sprev,
        )
        g1 = Substitution(
            ((Var("v-"), x), (Var("v+"), x), (Var("x"), uw), (Var("y"), id_of(x, Obj()))),
            sprev,
        )
        return Truncation(ctx, i1, f1, g1)
    prev = equiv_truncation(n - 1)
    prev2 = equiv_truncation(n - 2)
    sprev = suspend_context(prev.ctx)
    sprev2 = suspend_context(prev2.ctx)
    base_refs = (VarRef(sprev.entries[0][0]), VarRef(sprev.entries[1][0]))
    si = suspend_sub(prev.to_prev, base_refs) if prev.to_prev is not None else None
    # the suspension of the previous display presents sprev over sprev2
    assert si is not None and si.codomain.entries == sprev2.entries
    p1_ctx, p1_dom, q1 = pullback_along_display(
        prev.ctx, prev.to_susp_left, sprev2, sprev, lambda s: s + "_v"
    )
    gf = compose_sub(prev.to_susp_right, p1_dom)
    p2_ctx, p2_dom, q2 = pullback_along_display(
        p1_ctx, gf, sprev2, sprev, lambda s: s + "_w"
    )
    i_new = compose_sub(p1_dom, p2_dom)
    f_new = compose_sub(q1, p2_dom)
    g_new = q2
    return Truncation(p2_ctx, i_new, f_new, g_new)


# ---------------------------------------------------------------------------
# The cone from the walking equivalence
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gamma_sub(n: int) -> Substitution:
    """The substitution from the walking equivalence to its
    n-truncation, sending variables to neutral terms."""
    trunc = equiv_truncation(n)
    if n == 0:
        pairs = ((Var("x"), VarRef(Var("d0-"))), (Var("y"), VarRef(Var("d0+"))))
        return Substitution(pairs, trunc.ctx)
    if n == 1:
        prev = gamma_sub(0)
        pairs = prev.pairs + (
            (Var("u"), VarRef(Var("d1"))),
            (Var("v"), Destr("linv", _E1_VAR)),
            (Var("w"), Destr("rinv", _E1_VAR)),
        )
        return Substitution(pairs, trunc.ctx)
    prev_gamma = gamma_sub(n - 1)
    chi_l = wit_classifier(_E1, "lwit")
    chi_r = wit_classifier(_E1, "rwit")
    sprev_names = suspend_context(equiv_truncation(n - 1).ctx)
    sgamma = suspend_sub(prev_gamma, (VarRef(Var("v-")), VarRef(Var("v+"))))
    # express the suspension over the canonical E^2, then pull along chi
    ren = rename_to(suspend_context(_E1), walking_equiv(2))
    sgamma_canon = compose_sub(sgamma, ren)
    img_left = compose_sub(sgamma_canon, chi_l)
    img_right = compose_sub(sgamma_canon, chi_r)
    assert sgamma.codomain is sprev_names
    pairs = list(prev_gamma.pairs)
    ctx = trunc.ctx
    known = {v.name for v, _ in prev_gamma.pairs}
    for v, _ in ctx:
        if v.name in known:
            continue
        if v.name.endswith("_v"):
            orig = v.name[:-2]
            pairs.append((v, img_left.lookup(Var(orig))))
        elif v.name.endswith("_w"):
            orig = v.name[:-2]
            pairs.append((v, img_right.lookup(Var(orig))))
        else:
            raise BoundExceeded(f"unexpected truncation variable {v.name}")
    images = {p.name: t for p, t in pairs}
    return Substitution(tuple((v, images[v.name]) for v, _ in ctx), ctx)


@dataclass
class GammaReport:
    stage: int
    checked: bool
    bijection: bool
    equations: bool
    counts: dict[int, int]
    details: list[str]

    @property
    def ok(self) -> bool:
        return self.checked and self.bijection and self.equations


def check_gamma(n: int) -> GammaReport:
    """Kernel-check the cone substitution at stage n, verify that its
    variable images enumerate the neutral terms bijectively, and check
    the three compatibility equations at every stage up to n."""
    details: list[str] = []
    counts: dict[int, int] = {}
    gamma = gamma_sub(n)
    trunc = equiv_truncation(n)
    checked = True
    try:
        check_sub(_E1, gamma, trunc.ctx)
    except Exception as exc:  # pragma: no cover - failure reporting
        checked = False
        details.append(f"gamma^{n} fails to check: {exc}")

    # bijection with the neutral terms, dimension by dimension
    bijection = True
    by_dim: dict[int, list] = {}
    for (v, ty), img in zip(trunc.ctx, gamma.images):
        d = dim_type(ty) + 1
        by_dim.setdefault(d, []).append(beta_reduce(img))
    for d, imgs in sorted(by_dim.items()):
        got = {alpha_key_term(t) for t in imgs}
        want = {alpha_key_term(t) for t in enumerate_neutrals(d)}
        counts[d] = len(imgs)
        if len(got) != len(imgs) or got != want:
            bijection = False
            details.append(f"dimension {d}: images do not enumerate the neutrals")

    # compatibility equations at each stage
    equations = True
    chi_l = wit_classifier(_E1, "lwit")
    chi_r = wit_classifier(_E1, "rwit")
    ren = rename_to(suspend_context(_E1), walking_equiv(2))
    for k in range(1, n + 1):
        g_k = gamma_sub(k)
        t_k = equiv_truncation(k)
        sg = compose_sub(suspend_sub(gamma_sub(k - 1), (VarRef(Var("v-")), VarRef(Var("v+")))), ren)
        # both sides are built over one named context: equal ones are one node
        for lhs, rhs, equation in (
            (t_k.to_prev, gamma_sub(k - 1), f"i^{k} . gamma^{k} != gamma^{k-1}"),
            (t_k.to_susp_left, compose_sub(sg, chi_l), f"f^{k} . gamma^{k} != Sigma gamma^{k-1} . chi_lwit"),
            (t_k.to_susp_right, compose_sub(sg, chi_r), f"g^{k} . gamma^{k} != Sigma gamma^{k-1} . chi_rwit"),
        ):
            if compose_sub(lhs, g_k) is not rhs:
                equations = False
                details.append(equation)
    return GammaReport(n, checked, bijection, equations, counts, details)
