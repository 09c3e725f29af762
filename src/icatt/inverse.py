"""Inverses and cancellators of coherence cells.

Given a coherence cell and invertibility structures on the images of
the top-dimensional variables of its pasting context, this module
builds the left/right inverse and the left/right cancellation cells
that back the computation rules for canonical invertibility
structures.

The inverse reverses the coherence through the opposite of its pasting
context, replacing top-dimensional images by the witnessed inverses.
The cancellator is a vertical composite of coherence moves: the source
pair is rewritten into the unbiased total cell of the doubled pasting
diagram, after which the witness pairs are merged and cancelled one at
a time (innermost first) by functorialised total cells carrying the
witness cancellation data, and the leftover identities are absorbed.
The shapes of the intermediate coherences are a deterministic choice of
this implementation; every emitted cell re-checks in the kernel at the
boundary dictated by the destructor typing table.

What a construction derives is kept on the node it is about
(:func:`~icatt.syntax.built_on`), and so lives as long as that syntax:
on a pasting context, per dimension, the opposite context and the
boundaries; on a coherence, per side and witness family, its inverse
cells; and on a canonical structure, per side, its cancellator stages.
The stages contain the subject, so they are not kept on it: no fact
kept on a node may contain that node (see :mod:`icatt.syntax`).  Each
is built once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builtins import comp_of, id_of
from .errors import WrongWitnessSet
from .meta import opposite_context, pasting_data, to_ps_order
from .syntax import (
    DESTRUCTORS,
    INVERSES,
    SIDES,
    UNITS,
    Arr,
    Can,
    Coh,
    Context,
    Destr,
    Substitution,
    Term,
    Type,
    Var,
    VarRef,
    alpha_eq_term,
    apply_sub_term,
    built_on,
    coh_type,
    dim_context,
    dim_type,
    fresh_name,
    identity_sub,
    rename_vars_term,
    rename_vars_type,
    top_variables,
    variables_used_term,
    variables_used_type,
)

def _cell_data(subject: Coh) -> tuple[Context, Arr, Substitution, int, tuple[Var, ...]]:
    ps, ty, sub = subject.ps, subject.ty, subject.sub
    assert isinstance(ty, Arr)
    return ps, ty, sub, dim_type(ty) + 1, top_variables(subject)


def _check_witnesses(tops: tuple[Var, ...], witnesses: dict[str, Term]) -> None:
    missing = [v.name for v in tops if v.name not in witnesses]
    if missing:
        raise WrongWitnessSet(f"missing invertibility witnesses for {missing}")


def gamma_inverse(
    n: int, flipped: Context, sub: Substitution, side: str, witnesses: dict[str, Term]
) -> Substitution:
    """The substitution through ``flipped``, the opposite at dimension n
    of ``sub``'s pasting context (:func:`~icatt.meta.opposite_context`),
    that keeps cells below dimension n and inverts the dimension-n
    images."""
    if dim_context(flipped) < n:
        return sub
    inv_kind = INVERSES[SIDES.index(side)]
    images = []
    for v, vty in flipped:
        if dim_type(vty) + 1 == n:
            _check_witnesses((v,), witnesses)
            images.append(Destr(inv_kind, witnesses[v.name]))
        else:
            images.append(sub.lookup(v))
    return Substitution.of(tuple(images), flipped)


def _opposite(ps: Context, n: int) -> tuple[Context, set[str], set[str]]:
    """The opposite at dimension ``n`` of a pasting context, and the
    context's source and target (n-1)-boundaries.  The kernel has
    checked the context, so its boundaries are read without checking it
    again."""

    def build():
        data = pasting_data(ps)
        return opposite_context(n, ps), data.boundary_src(n - 1), data.boundary_tgt(n - 1)

    return built_on(ps, ("opposite", n), build)


def coh_inverse(subject: Coh, side: str, witnesses: dict[str, Term]) -> Coh:
    """The chosen-side inverse of a coherence cell: with top-dimensional
    variables, a coherence over the opposite of its pasting context.
    Built once per subject node, side and witness family."""
    key = ("inverse", side, *sorted(witnesses.items()))
    return built_on(subject, key, lambda: _coh_inverse(subject, side, witnesses))


def _coh_inverse(subject: Coh, side: str, witnesses: dict[str, Term]) -> Coh:
    ps, ty, sub, n, tops = _cell_data(subject)
    flipped_ty = Arr(ty.base, ty.tgt, ty.src)
    if not tops:
        return Coh(ps, flipped_ty, sub)
    _check_witnesses(tops, witnesses)
    flipped = _opposite(ps, n)[0]
    return Coh(flipped, flipped_ty, gamma_inverse(n, flipped, sub, side, witnesses))


# ---------------------------------------------------------------------------
# Cancellators
# ---------------------------------------------------------------------------


@dataclass
class _Step:
    """One vertical stage of a cancellator, with its endpoints in the
    ambient context and the witness backing it (unit stages only)."""

    cell: Term
    src: Term
    tgt: Term
    unit_witness: Term | None = None


def _tot(theta: Context, base: Type, src_t: Term, tgt_t: Term) -> Coh:
    """The unbiased collapse cell of a glued diagram: the coherence with
    the two boundary copies as its full type."""
    return Coh(theta, Arr(base, src_t, tgt_t), identity_sub(theta))


def _master(theta: Context, base: Type, src_t: Term, tgt_t: Term, a: Term, b: Term, xi: Substitution) -> Term:
    """A coherence between two parallel cells over theta, both of which
    use every variable of theta."""
    return Coh(theta, Arr(Arr(base, src_t, tgt_t), a, b), xi)


def _sub_for(theta: Context, images: dict[str, Term]) -> Substitution:
    return Substitution.of(tuple([images[v.name] for v, _ in theta.entries]), theta)


def _img_ty(xi: Substitution, name: str) -> Arr:
    """The type of ``name`` in ``xi``'s codomain instantiated at ``xi``,
    read off its instantiated codomain."""
    out = xi.codomain_types()[xi.codomain.positions()[name]]
    assert isinstance(out, Arr)
    return out


def coh_cancellator_steps(subject: Coh, side: str, witnesses: dict[str, Term]) -> list[_Step]:
    """The stages of the cancellation cell: from ``comp(inverse, cell)``
    (left) or ``comp(cell, inverse)`` (right) down to the identity.
    Built anew at each call: :func:`canonical_component` keeps them."""
    ps, ty, sub, n, tops = _cell_data(subject)
    _check_witnesses(tops, witnesses)
    unit_kind = UNITS[SIDES.index(side)]
    ty_amb = coh_type(subject)
    base_amb, u_amb, v_amb = ty_amb.base, ty_amb.src, ty_amb.tgt
    flipped_ty = Arr(ty.base, ty.tgt, ty.src)
    flipped_amb = Arr(base_amb, v_amb, u_amb)
    inverse = coh_inverse(subject, side, witnesses)
    if side == "left":
        start, _ = comp_of([(inverse, flipped_amb), (subject, ty_amb)])
        fix_amb, fix_over = v_amb, ty.tgt
    else:
        start, _ = comp_of([(subject, ty_amb), (inverse, flipped_amb)])
        fix_amb, fix_over = u_amb, ty.src
    end = id_of(fix_amb, base_amb)

    if not tops:
        t0 = Coh(ps, ty, identity_sub(ps))
        inv0 = Coh(ps, flipped_ty, identity_sub(ps))
        if side == "left":
            pair0, _ = comp_of([(inv0, flipped_ty), (t0, ty)])
        else:
            pair0, _ = comp_of([(t0, ty), (inv0, flipped_ty)])
        loop = Arr(ty.base, fix_over, fix_over)
        cell = Coh(ps, Arr(loop, pair0, id_of(fix_over, ty.base)), sub)
        return [_Step(cell, start, end)]

    # --- glue the two copies of the pasting context along the shared
    # boundary; the copy providing the inverse keeps the original names
    # on the left composition slot.  The inverse is a coherence over the
    # opposite pasting context, instantiated by gamma_inverse.
    flipped_ctx, gamma_inv = inverse.ps, inverse.sub
    _, boundary_src, boundary_tgt = _opposite(ps, n)
    if side == "left":
        shared = boundary_src
        left_part, right_part = flipped_ctx, ps
        left_is_inverse = True
    else:
        shared = boundary_tgt
        left_part, right_part = ps, flipped_ctx
        left_is_inverse = False

    names = {v.name for v, _ in left_part}
    ren: dict[str, str] = {}
    for v, _ in right_part:
        if v.name in shared:
            continue
        new = fresh_name(v.name + "$r", names)
        names.add(new)
        ren[v.name] = new
    entries = list(left_part.entries)
    for v, vty in right_part:
        if v.name in shared:
            continue
        entries.append((Var(ren[v.name]), rename_vars_type(vty, ren)))
    theta = to_ps_order(tuple(entries))

    images: dict[str, Term] = {}
    for v, _ in left_part:
        images[v.name] = gamma_inv.lookup(v) if left_is_inverse else sub.lookup(v)
    for v, _ in right_part:
        img = sub.lookup(v) if left_is_inverse else gamma_inv.lookup(v)
        images[ren.get(v.name, v.name)] = img

    src_t: Term = fix_over
    tgt_t: Term = rename_vars_term(fix_over, ren)
    base_t: Type = ty.base  # free variables lie in the shared boundary

    left_inc = identity_sub(left_part)
    right_images = tuple([VarRef(Var(ren.get(v.name, v.name))) for v, _ in right_part])
    right_inc = Substitution.of(right_images, right_part)
    if side == "left":
        first, second = Coh(flipped_ctx, flipped_ty, left_inc), Coh(ps, ty, right_inc)
    else:
        first, second = Coh(ps, ty, left_inc), Coh(flipped_ctx, flipped_ty, right_inc)
    pair_over, _ = comp_of([(first, coh_type(first)), (second, coh_type(second))])

    # pairs to merge: the left-slot copy composes with the right-slot
    # copy of each top cell, cancelled by its witness
    merge_pairs: list[tuple[str, str, Term]] = [
        (x.name, ren[x.name], witnesses[x.name]) for x in tops
    ]

    xi = _sub_for(theta, images)
    tot = _tot(theta, base_t, src_t, tgt_t)
    steps: list[_Step] = []
    cur = start
    nxt = apply_sub_term(tot, xi)
    steps.append(_Step(_master(theta, base_t, src_t, tgt_t, pair_over, tot, xi), cur, nxt))
    cur = nxt

    while merge_pairs:
        picked = None
        for i, (a, b, _) in enumerate(merge_pairs):
            a_ty = theta.lookup(Var(a))
            b_ty = theta.lookup(Var(b))
            assert isinstance(a_ty, Arr) and isinstance(b_ty, Arr)
            if (
                isinstance(a_ty.tgt, VarRef)
                and isinstance(b_ty.src, VarRef)
                and a_ty.tgt.var.name == b_ty.src.var.name
            ):
                picked = i
                break
        if picked is None:
            raise WrongWitnessSet("internal: no mergeable witness pair in cancellator")
        a, b, e_x = merge_pairs.pop(picked)
        a_ty = theta.lookup(Var(a))
        b_ty = theta.lookup(Var(b))
        assert isinstance(a_ty, Arr) and isinstance(b_ty, Arr)
        assert isinstance(a_ty.src, VarRef) and isinstance(b_ty.tgt, VarRef)
        mid = a_ty.tgt.var.name
        left_b = a_ty.src.var.name
        right_b = b_ty.tgt.var.name
        c_name = fresh_name("c", {v.name for v, _ in theta})
        c_ty = Arr(a_ty.base, a_ty.src, b_ty.tgt)

        # merge the pair into a single slot, dropping the shared middle
        # boundary cell if nothing else references it
        kept = [(v, vty) for v, vty in theta if v.name not in (a, b)]
        referenced = set(variables_used_term(src_t)) | set(variables_used_term(tgt_t))
        referenced |= set(variables_used_type(base_t)) | set(variables_used_type(c_ty))
        for v, vty in kept:
            if v.name != mid:
                referenced |= set(variables_used_type(vty))
        if mid not in referenced:
            kept = [(v, vty) for v, vty in kept if v.name != mid]
        kept.append((Var(c_name), c_ty))
        theta_merged = to_ps_order(tuple(kept))
        tot_merged = _tot(theta_merged, base_t, src_t, tgt_t)

        # seam: rewrite the current total cell as the merged total cell
        # applied to the composite of the pair
        pair_term, _ = comp_of([(VarRef(Var(a)), a_ty), (VarRef(Var(b)), b_ty)])
        back_images = {v.name: VarRef(v) for v, _ in theta_merged if v.name != c_name}
        back_images[c_name] = pair_term
        back = _sub_for(theta_merged, back_images)
        seam_tgt_over = apply_sub_term(tot_merged, back)
        c_img, _ = comp_of([(images[a], _img_ty(xi, a)), (images[b], _img_ty(xi, b))])
        images_merged = {v.name: images[v.name] for v, _ in theta_merged if v.name != c_name}
        images_merged[c_name] = c_img
        xi_merged = _sub_for(theta_merged, images_merged)
        nxt = apply_sub_term(tot_merged, xi_merged)
        steps.append(_Step(_master(theta, base_t, src_t, tgt_t, tot, seam_tgt_over, xi), cur, nxt))
        cur = nxt

        # unit stage: functorialise the merged total cell at the slot
        # and feed in the witness cancellation cell
        c2_name = fresh_name("c", {v.name for v, _ in theta_merged})
        dot_name = fresh_name("u", {v.name for v, _ in theta_merged} | {c2_name})
        func_entries = theta_merged.entries + (
            (Var(c2_name), c_ty),
            (Var(dot_name), Arr(c_ty, VarRef(Var(c_name)), VarRef(Var(c2_name)))),
        )
        theta_func = to_ps_order(func_entries)
        pi1_images = {v.name: VarRef(v) for v, _ in theta_merged}
        pi1_images[c_name] = VarRef(Var(c2_name))
        pi1 = _sub_for(theta_merged, pi1_images)
        side0 = tot_merged
        side1 = apply_sub_term(tot_merged, pi1)
        func_ty = Arr(Arr(base_t, src_t, tgt_t), side0, side1)
        boundary_img = images[left_b]
        boundary_ty = _img_ty(xi, a).base
        id_img = id_of(boundary_img, boundary_ty)
        func_images = dict(images_merged)
        func_images[c2_name] = id_img
        func_images[dot_name] = Destr(unit_kind, e_x)
        unit_cell = Coh(theta_func, func_ty, _sub_for(theta_func, func_images))
        images_after = dict(images_merged)
        images_after[c_name] = id_img
        nxt = apply_sub_term(tot_merged, _sub_for(theta_merged, images_after))
        steps.append(_Step(unit_cell, cur, nxt, unit_witness=e_x))
        cur = nxt

        # collapse the identity slot, merging the two boundary copies
        collapse_ren = {right_b: left_b}
        kept2 = [
            (v, rename_vars_type(vty, collapse_ren))
            for v, vty in theta_merged
            if v.name not in (c_name, right_b)
        ]
        theta2 = to_ps_order(tuple(kept2))
        src_t = rename_vars_term(src_t, collapse_ren)
        tgt_t = rename_vars_term(tgt_t, collapse_ren)
        base_t = rename_vars_type(base_t, collapse_ren)
        sigma_images = {v.name: VarRef(v) for v, _ in theta_merged if v.name not in (c_name, right_b)}
        sigma_images[right_b] = VarRef(Var(left_b))
        sigma_images[c_name] = id_of(VarRef(Var(left_b)), theta2.lookup(Var(left_b)))
        sigma = _sub_for(theta_merged, sigma_images)
        collapsed_over = apply_sub_term(tot_merged, sigma)
        tot2 = _tot(theta2, base_t, src_t, tgt_t)
        images2 = {v.name: images_after[v.name] for v, _ in theta2}
        xi2 = _sub_for(theta2, images2)
        nxt = apply_sub_term(tot2, xi2)
        steps.append(_Step(_master(theta2, base_t, src_t, tgt_t, collapsed_over, tot2, xi2), cur, nxt))
        cur = nxt

        theta, images, xi, tot = theta2, images2, xi2, tot2

    if not alpha_eq_term(cur, end):
        id_over = id_of(src_t, base_t)
        steps.append(_Step(_master(theta, base_t, src_t, tgt_t, tot, id_over, xi), cur, end))
    return steps


def _loop_type(subject: Coh, side: str) -> Arr:
    ty_amb = coh_type(subject)
    fix = ty_amb.tgt if side == "left" else ty_amb.src
    return Arr(ty_amb.base, fix, fix)


def _compose_steps(subject: Coh, side: str, steps: list[_Step]) -> Term:
    if len(steps) == 1:
        return steps[0].cell
    loop = _loop_type(subject, side)
    args = [(s.cell, Arr(loop, s.src, s.tgt)) for s in steps]
    term, _ = comp_of(args)
    return term


def canonical_component(can_term: Can, kind: str) -> Term:
    """The beta-reduct of a destructor applied to a canonical
    invertibility structure."""
    subject = can_term.subject
    assert isinstance(subject, Coh)
    witnesses = {v.name: w for v, w in can_term.witnesses}
    side = SIDES[DESTRUCTORS.index(kind) % 2]
    if kind in INVERSES:
        return coh_inverse(subject, side, witnesses)
    # the stages contain the subject, so they are kept on the structure,
    # which they do not contain
    steps = built_on(can_term, ("steps", side), lambda: coh_cancellator_steps(subject, side, witnesses))
    cancel = _compose_steps(subject, side, steps)
    if kind in UNITS:
        return cancel
    if len(steps) == 1:
        return Can(cancel, _step_witnesses(steps[0], kind))
    assert isinstance(cancel, Coh)
    fams = tuple(
        (slot, Can(step.cell, _step_witnesses(step, kind)))
        for slot, step in zip(top_variables(cancel), steps)
    )
    return Can(cancel, fams)


def _step_witnesses(step: _Step, wit_kind: str) -> tuple[tuple[Var, Term], ...]:
    assert isinstance(step.cell, Coh)
    tops = top_variables(step.cell)
    if step.unit_witness is None:
        if tops:
            raise WrongWitnessSet("internal: coherence stage with unexpected top cells")
        return ()
    assert len(tops) == 1
    return ((tops[0], Destr(wit_kind, step.unit_witness)),)
