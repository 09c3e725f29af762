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

A cancellator is built in two parts.  Its plan (:class:`_Plan`) is
what depends only on the subject's pasting context, type and side: the
glued, merged, functorialised and collapsed contexts, the merge order,
the fresh names, the total cells and the types of the stages.  It is
built once per context, type and side.  An instance pass then maps the
structure's images and witnesses through the plan, and builds each
stage with constructors, as ``Coh(theta, T, xi)``.

What a construction derives is kept on the node it is about
(:func:`~icatt.syntax.built_on`), and so lives as long as that syntax:
on a pasting context, per dimension, the opposite context and the
boundaries; on a coherence, per side and witness family, its inverse
cells; and on a canonical structure, per side, its cancellator stages
and their plan.  The stages contain the subject, so they are not kept
on it: no fact kept on a node may contain that node (see
:mod:`icatt.syntax`).  A plan contains its pasting context and type, on
which their canonical head is kept (:func:`~icatt.syntax.coh_head_key`),
so the head refers to it weakly, over the context, and finds it for
every structure on a coherence of that head while one that keeps it
lives.  Each is built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import ref

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
    _Instantiate,
    alpha_eq_term,
    apply_sub_term,
    built_on,
    coh_head_key,
    coh_type,
    dim_context,
    dim_type,
    fresh_name,
    identity_sub,
    known_over,
    learn_over,
    rename_vars_term,
    rename_vars_type,
    top_variables,
    variables_used_term,
    variables_used_type,
)


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
    ps, ty, sub = subject.ps, subject.ty, subject.sub
    flipped_ty = Arr(ty.base, ty.tgt, ty.src)
    tops = top_variables(subject)
    if not tops:
        return Coh(ps, flipped_ty, sub)
    _check_witnesses(tops, witnesses)
    n = dim_type(ty) + 1
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


def _sub_for(theta: Context, images: dict[str, Term]) -> Substitution:
    return Substitution.of(tuple([images[v.name] for v, _ in theta.entries]), theta)


def _picks(theta: Context, at: dict[str, int]) -> tuple[int, ...]:
    """For each entry of ``theta``, in order, its position in ``at``."""
    return tuple([at[v.name] for v, _ in theta.entries])


@dataclass(frozen=True)
class _Merge:
    """One merge round of a plan, over the current context: the slots
    ``a`` and ``b`` of the pair that the witness of ``top`` cancels, and
    what the seam, unit and collapse stages are over and of."""

    top: str
    a: int
    b: int
    a_ty: Arr
    b_ty: Arr
    left_b: int  # the boundary cell the pair's composite starts at
    merged: Context  # the pair merged into the one slot ``c``
    c: int
    merged_picks: tuple[int, ...]  # each merged slot's slot before, -1 for c
    merged_ty: Arr  # the type of the merged total cell
    seam_ty: Arr
    func: Context  # the merged context functorialised at c
    func_ty: Arr
    func_picks: tuple[int, ...]  # into the merged images, the identity, the unit
    collapsed: Context  # the identity slot collapsed
    collapsed_picks: tuple[int, ...]  # each collapsed slot's merged slot
    collapsed_ty: Arr  # the type of the collapsed total cell
    collapse_ty: Arr


class _Plan:
    """What the cancellators of a side derive from their subject's
    pasting context and type alone: the glued, merged, functorialised
    and collapsed contexts, the merge order, the fresh names, the total
    cells and the types of the stages.  A stage of an instance is then
    ``Coh(theta, T, xi)``, with ``theta`` and ``T`` read off the plan and
    ``xi`` picking, by position, the images of the subject's and its
    inverse's substitutions and the witnesses (:meth:`stages`).  Each
    stage type is a master coherence ``Arr(tot.ty, a, b)`` between two
    parallel cells over the context of the total cell ``tot``, both of
    which use every variable of it."""

    __slots__ = (
        "side", "tops", "cell_ty", "glued", "glued_picks", "glued_ty", "first_ty", "merges", "last_ty",
        "__weakref__",
    )

    def __init__(self, subject: Coh, side: str):
        ps, ty = subject.ps, subject.ty
        self.side = side
        self.tops = top_variables(subject)
        flipped_ty = Arr(ty.base, ty.tgt, ty.src)
        fix_over = ty.tgt if side == "left" else ty.src
        if not self.tops:
            t0 = Coh(ps, ty, identity_sub(ps))
            inv0 = Coh(ps, flipped_ty, identity_sub(ps))
            if side == "left":
                pair0, _ = comp_of([(inv0, flipped_ty), (t0, ty)])
            else:
                pair0, _ = comp_of([(t0, ty), (inv0, flipped_ty)])
            loop = Arr(ty.base, fix_over, fix_over)
            self.cell_ty = Arr(loop, pair0, id_of(fix_over, ty.base))
            return

        # --- glue the two copies of the pasting context along the shared
        # boundary; the copy providing the inverse keeps the original
        # names on the left composition slot.  The inverse is a coherence
        # over the opposite pasting context, instantiated by gamma_inverse.
        flipped_ctx, boundary_src, boundary_tgt = _opposite(ps, dim_type(ty) + 1)
        if side == "left":
            shared = boundary_src
            left_part, right_part = flipped_ctx, ps
        else:
            shared = boundary_tgt
            left_part, right_part = ps, flipped_ctx

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
        theta = self.glued = to_ps_order(tuple(entries))

        # an instance's images are read off its subject's substitution
        # followed by its inverse's; a shared boundary cell, which both
        # assign alike, is read off the right copy
        left_at, right_at = (len(ps), 0) if side == "left" else (0, len(ps))
        source = {v.name: left_at + i for i, (v, _) in enumerate(left_part)}
        source.update((ren.get(v.name, v.name), right_at + i) for i, (v, _) in enumerate(right_part))
        self.glued_picks = _picks(theta, source)

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
        tot = _tot(theta, base_t, src_t, tgt_t)
        self.glued_ty, self.first_ty = tot.ty, Arr(tot.ty, pair_over, tot)

        # pairs to merge: the left-slot copy composes with the right-slot
        # copy of each top cell, cancelled by its witness
        merge_pairs = [(x.name, ren[x.name]) for x in self.tops]
        merges = []
        while merge_pairs:
            picked = None
            for i, (a, b) in enumerate(merge_pairs):
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
            a, b = merge_pairs.pop(picked)
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
            seam_tgt_over = apply_sub_term(tot_merged, _sub_for(theta_merged, back_images))

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
            side1 = apply_sub_term(tot_merged, _sub_for(theta_merged, pi1_images))
            func_ty = Arr(Arr(base_t, src_t, tgt_t), tot_merged, side1)
            at, at_merged = theta.positions(), theta_merged.positions()
            func_at = {**at_merged, c2_name: len(theta_merged), dot_name: len(theta_merged) + 1}

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
            collapsed_over = apply_sub_term(tot_merged, _sub_for(theta_merged, sigma_images))
            tot2 = _tot(theta2, base_t, src_t, tgt_t)

            merges.append(_Merge(
                a, at[a], at[b], a_ty, b_ty, at[left_b],
                theta_merged, at_merged[c_name], _picks(theta_merged, {**at, c_name: -1}),
                tot_merged.ty, Arr(tot.ty, tot, seam_tgt_over),
                theta_func, func_ty, _picks(theta_func, func_at),
                theta2, _picks(theta2, at_merged), tot2.ty, Arr(tot2.ty, collapsed_over, tot2),
            ))
            theta, tot = theta2, tot2
        self.merges = tuple(merges)
        self.last_ty = Arr(tot.ty, tot, id_of(src_t, base_t))

    def stages(self, subject: Coh, witnesses: dict[str, Term]) -> list[_Step]:
        """The stages of the cancellation cell of ``subject``, a coherence
        with this plan's pasting context and type, and ``witnesses`` on
        the images of its top variables."""
        _check_witnesses(self.tops, witnesses)
        side = self.side
        ty_amb = coh_type(subject)
        base_amb, u_amb, v_amb = ty_amb.base, ty_amb.src, ty_amb.tgt
        flipped_amb = Arr(base_amb, v_amb, u_amb)
        inverse = coh_inverse(subject, side, witnesses)
        if side == "left":
            start, _ = comp_of([(inverse, flipped_amb), (subject, ty_amb)])
        else:
            start, _ = comp_of([(subject, ty_amb), (inverse, flipped_amb)])
        end = id_of(v_amb if side == "left" else u_amb, base_amb)
        if not self.tops:
            return [_Step(Coh(subject.ps, self.cell_ty, subject.sub), start, end)]

        # each total cell tot over theta is instantiated at xi directly, as
        # Coh(theta, tot.ty, xi), which is what substituting xi into it gives
        pool = subject.sub.images + inverse.sub.images
        images = tuple([pool[i] for i in self.glued_picks])
        theta = self.glued
        xi = Substitution.of(images, theta)
        cur = Coh(theta, self.glued_ty, xi)
        steps = [_Step(Coh(theta, self.first_ty, xi), start, cur)]
        unit_kind = UNITS[SIDES.index(side)]
        for m in self.merges:
            inst = _Instantiate(xi)
            a_ty = inst.type(m.a_ty)
            c_img, _ = comp_of([(images[m.a], a_ty), (images[m.b], inst.type(m.b_ty))])
            merged = tuple([c_img if i < 0 else images[i] for i in m.merged_picks])
            nxt = Coh(m.merged, m.merged_ty, Substitution.of(merged, m.merged))
            steps.append(_Step(Coh(theta, m.seam_ty, xi), cur, nxt))
            cur = nxt

            e_x = witnesses[m.top]
            id_img = id_of(images[m.left_b], a_ty.base)
            func_images = merged + (id_img, Destr(unit_kind, e_x))
            func_sub = Substitution.of(tuple([func_images[i] for i in m.func_picks]), m.func)
            after = merged[: m.c] + (id_img,) + merged[m.c + 1 :]
            nxt = Coh(m.merged, m.merged_ty, Substitution.of(after, m.merged))
            steps.append(_Step(Coh(m.func, m.func_ty, func_sub), cur, nxt, unit_witness=e_x))
            cur = nxt

            theta = m.collapsed
            images = tuple([after[i] for i in m.collapsed_picks])
            xi = Substitution.of(images, theta)
            nxt = Coh(theta, m.collapsed_ty, xi)
            steps.append(_Step(Coh(theta, m.collapse_ty, xi), cur, nxt))
            cur = nxt

        if not alpha_eq_term(cur, end):
            steps.append(_Step(Coh(theta, self.last_ty, xi), cur, end))
        return steps


def _plan(subject: Coh, side: str) -> _Plan:
    """The plan of the ``side`` cancellators of coherences with
    ``subject``'s pasting context and type, built once while a structure
    that follows it lives.  It contains that context and type, on which
    their canonical head is kept, so the head refers to it weakly, over
    the context; each structure keeps its plan (see
    :func:`canonical_component`)."""
    ps = subject.ps
    head = coh_head_key(ps, subject.ty)
    if ps is head.ps:  # a canonical context, over which the head keeps its own type
        return _Plan(subject, side)
    refs = known_over(head, ps)
    if refs is None:
        refs = learn_over(head, ps, {})
    plan = refs.get(side)
    plan = None if plan is None else plan()
    if plan is None:
        plan = _Plan(subject, side)
        refs[side] = ref(plan)
    return plan


def coh_cancellator_steps(subject: Coh, side: str, witnesses: dict[str, Term]) -> tuple[_Plan, list[_Step]]:
    """The stages of the cancellation cell, from ``comp(inverse, cell)``
    (left) or ``comp(cell, inverse)`` (right) down to the identity, with
    the plan they follow (:func:`_plan`), which must be kept as long as
    them.  The plan is built once per pasting context, type and side;
    the stages are built anew at each call, by one pass that maps the
    structure's images and witnesses through the plan:
    :func:`canonical_component` keeps them."""
    plan = _plan(subject, side)
    return plan, plan.stages(subject, witnesses)


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
    # which they do not contain, and so is the plan they follow
    _, steps = built_on(can_term, ("steps", side), lambda: coh_cancellator_steps(subject, side, witnesses))
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
