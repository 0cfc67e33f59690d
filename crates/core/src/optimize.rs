//! Reduction optimizations (Section 5).
//!
//! Distributed runtimes implement uncentered reductions with temporary
//! buffers merged after the parallel phase; buffers are wasted when the
//! reduction partition is (or mostly is) disjoint. Two optimizations avoid
//! them:
//!
//! * **Relaxing disjointness of the iteration space** (Section 5.1): when a
//!   loop has several uncentered reductions through different functions, the
//!   loop is rewritten into a *guarded* form — each reduction applies only
//!   when its target falls in the task's subregion of the reduction
//!   partition. The iteration-space `DISJ` requirement disappears, the
//!   reduction targets become `DISJ ∧ COMP` (so `equal` partitions), and the
//!   iteration partition becomes a union of preimages. Each contribution is
//!   applied exactly once because the target partition is disjoint.
//! * **Private sub-partitions** (Section 5.2, Theorem 5.1): when a reduction
//!   partition `fS(P)` is an image of a disjoint partition `P`, the
//!   expression `fS(P) − fS(fR⁻¹(fS(P)) − P)` is a disjoint sub-partition
//!   containing the elements touched by only one task; buffers are needed
//!   only for the (typically small) shared remainder.
//!
//! All rewrites operate on interned [`ExprId`]s; the synthesized Theorem
//! 5.1 expressions are canonicalized on construction (e.g. a preimage that
//! collapses back onto the source folds the shared remainder to ∅).

use crate::infer::Inference;
use crate::lang::{Expr, ExprId, FnRef, Pred, Subset};
use crate::lemmas::{prove_disj, FactCtx};
use partir_ir::ast::AccessId;

/// Relaxation policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum RelaxPolicy {
    /// Never relax (ablation baseline).
    Off,
    /// The paper's heuristic: relax a loop when it has uncentered
    /// reductions through at least two distinct functions, it has no
    /// centered reductions, and every loop sharing its iteration region can
    /// also be relaxed.
    Auto,
}

/// Per-loop relaxation outcome.
#[derive(Clone, Debug, Default)]
pub struct RelaxInfo {
    pub relaxed: bool,
    /// Accesses that must be guarded at runtime (`if target ∈ P[task]`).
    pub guarded: Vec<AccessId>,
    /// Why relaxation fired (`"relaxed"`) or the first legality condition
    /// that blocked it. Stable tags for traces and JSON reports.
    pub reason: &'static str,
}

/// Applies the Section 5.1 relaxation directly to the inferred constraint
/// system (before unification). Returns per-loop info for plan building.
///
/// The transform, per relaxed uncentered reduction with obligation
/// `image(P_iter, f, S) ⊆ P_a`:
/// * the obligation becomes `preimage(R, f, P_a) ⊆ P_iter`;
/// * `DISJ(P_a) ∧ COMP(P_a, S)` are added;
/// * `DISJ(P_iter)` is dropped (replaced by a trivially-true placeholder to
///   keep obligation indices stable).
///
/// `hinted_regions` are regions covered by user-provided external
/// partitions: relaxation would force `equal` partitions on reduction
/// targets in those regions, overriding the user's layout, so such loops
/// keep the buffered strategy (and get private sub-partitions instead) —
/// this is why the paper's Circuit and PENNANT hint configurations retain
/// reduction buffers while MiniAero relaxes.
pub fn apply_relaxation(
    inference: &mut Inference,
    policy: RelaxPolicy,
    hinted_regions: &std::collections::BTreeSet<partir_dpl::region::RegionId>,
) -> Vec<RelaxInfo> {
    let arena = inference.system.arena.clone();
    let n_loops = inference.loops.len();
    let mut out = vec![RelaxInfo::default(); n_loops];
    if policy == RelaxPolicy::Off {
        for info in &mut out {
            info.reason = "policy-off";
        }
        return out;
    }

    // A loop is relax-capable if it has no centered reductions, no field
    // both written and read (tasks re-execute iterations under an aliased
    // iteration partition, so a cross-task write-then-read would race), and
    // all its uncentered-reduction obligations are single image steps from
    // the iteration symbol (or chain aliases of such an access).
    // `None` means capable; `Some` names the first blocking condition.
    let incapable_because: Vec<Option<&'static str>> = inference
        .loops
        .iter()
        .map(|l| {
            let has_centered_reduce =
                l.summary.accesses.iter().any(|a| a.kind.is_reduce() && a.is_centered());
            if has_centered_reduce {
                return Some("centered-reduce");
            }
            let write_read_overlap = {
                let written: Vec<_> = l
                    .summary
                    .accesses
                    .iter()
                    .filter(|a| a.kind.is_write())
                    .map(|a| (a.region, a.field))
                    .collect();
                l.summary
                    .accesses
                    .iter()
                    .any(|a| a.kind.is_read() && written.contains(&(a.region, a.field)))
            };
            if write_read_overlap {
                return Some("write-read-overlap");
            }
            let simple_chains = l.summary.accesses.iter().all(|a| {
                if !a.kind.is_reduce() || a.is_centered() {
                    return true;
                }
                let sub = &inference.system.subset_obligations[l.span.subsets[a.id.0 as usize]];
                // Inference gives every reduction its own un-memoized image
                // constraint, so the lhs is always a single image step;
                // anything else is not relax-capable.
                match arena.node(sub.lhs) {
                    Expr::Image { src, .. } => {
                        matches!(arena.node(src), Expr::Sym(s) if s == l.iter_sym)
                    }
                    _ => false,
                }
            });
            if !simple_chains {
                return Some("non-simple-reduction-chain");
            }
            let hinted_target = l.summary.accesses.iter().any(|a| {
                a.kind.is_reduce() && !a.is_centered() && hinted_regions.contains(&a.region)
            });
            if hinted_target {
                return Some("reduction-target-hinted");
            }
            None
        })
        .collect();
    let capable: Vec<bool> = incapable_because.iter().map(Option::is_none).collect();

    // Count distinct uncentered-reduction functions per loop.
    let wants_relax: Vec<bool> = inference
        .loops
        .iter()
        .map(|l| {
            let mut fns_seen: Vec<&[partir_dpl::func::FnId]> = Vec::new();
            for a in l.summary.accesses.iter().filter(|a| a.kind.is_reduce() && !a.is_centered()) {
                if !fns_seen.contains(&a.path.as_slice()) {
                    fns_seen.push(&a.path);
                }
            }
            fns_seen.len() >= 2
        })
        .collect();

    // Seed each loop's reason with why it would not instigate relaxation;
    // loops that do get relaxed below overwrite it with "relaxed".
    for li in 0..n_loops {
        out[li].reason = match incapable_because[li] {
            Some(r) => r,
            None if !wants_relax[li] => "fewer-than-2-distinct-reduction-fns",
            None => "group-member-not-capable",
        };
    }

    // Group by iteration region: relax a group only when all member loops
    // are capable and at least one wants relaxation.
    for li in 0..n_loops {
        if !wants_relax[li] || !capable[li] {
            continue;
        }
        let region = inference.loops[li].summary.iter_region;
        let group: Vec<usize> =
            (0..n_loops).filter(|&j| inference.loops[j].summary.iter_region == region).collect();
        if !group.iter().all(|&j| capable[j]) {
            continue;
        }
        // Relax every uncentered-reduce loop in the group.
        for &j in &group {
            if !inference.loops[j].summary.has_uncentered_reduce || out[j].relaxed {
                continue;
            }
            relax_loop(inference, j, &mut out[j]);
        }
    }
    if partir_obs::trace_enabled() {
        for (li, info) in out.iter().enumerate() {
            partir_obs::instant(
                "relax.decision",
                vec![
                    ("loop", li.into()),
                    ("fired", info.relaxed.into()),
                    ("reason", info.reason.into()),
                    ("guarded_accesses", info.guarded.len().into()),
                ],
            );
        }
    }
    out
}

fn relax_loop(inference: &mut Inference, li: usize, info: &mut RelaxInfo) {
    info.relaxed = true;
    info.reason = "relaxed";
    let arena = inference.system.arena.clone();
    let iter_sym = inference.loops[li].iter_sym;
    let iter_region = inference.loops[li].summary.iter_region;
    let iter_id = arena.sym(iter_sym);

    // Collect the uncentered reduce accesses.
    let reduce_ids: Vec<AccessId> = inference.loops[li]
        .summary
        .accesses
        .iter()
        .filter(|a| a.kind.is_reduce() && !a.is_centered())
        .map(|a| a.id)
        .collect();

    for id in reduce_ids {
        info.guarded.push(id);
        let sub_idx = inference.loops[li].span.subsets[id.0 as usize];
        let p_a = inference.loops[li].access_syms[id.0 as usize];
        let target_region = inference.system.sym_region(p_a);
        let lhs = inference.system.subset_obligations[sub_idx].lhs;
        match arena.node(lhs) {
            Expr::Image { src, f, .. } if matches!(arena.node(src), Expr::Sym(s) if s == iter_sym) =>
            {
                // image(P_iter, f, S) ⊆ P_a  ⟶  preimage(R, f, P_a) ⊆ P_iter.
                inference.system.subset_obligations[sub_idx] =
                    Subset { lhs: arena.preimage(iter_region, f, arena.sym(p_a)), rhs: iter_id };
                let pi = inference.system.pred_obligations.len();
                inference.system.require_disj(arena.sym(p_a));
                inference.system.require_comp(arena.sym(p_a), target_region);
                inference.loops[li].span.preds.push(pi);
                inference.loops[li].span.preds.push(pi + 1);
            }
            other => unreachable!("relax-capable loop with odd lhs {other:?}"),
        }
    }

    // Drop DISJ(P_iter): replace by a trivially-true PART placeholder so
    // obligation indices recorded in spans stay valid.
    for p in inference.system.pred_obligations.iter_mut() {
        if matches!(p, Pred::Disj(e) if *e == iter_id) {
            *p = Pred::Part(iter_id, iter_region);
        }
    }
}

/// Disjointness preferences (the Example 3 strategy): for un-relaxed loops
/// with uncentered reductions, ask the solver to make the reduction-target
/// partitions disjoint so no buffer is needed. Returns candidate predicates
/// to be tried (and individually dropped when unsatisfiable).
pub fn disjointness_preferences(inference: &Inference, relax: &[RelaxInfo]) -> Vec<Pred> {
    let arena = &inference.system.arena;
    let mut prefs = Vec::new();
    for (li, l) in inference.loops.iter().enumerate() {
        if relax[li].relaxed {
            continue;
        }
        for a in &l.summary.accesses {
            if a.kind.is_reduce() && !a.is_centered() {
                let sub = &inference.system.subset_obligations[l.span.subsets[a.id.0 as usize]];
                let from_iter = match arena.node(sub.lhs) {
                    Expr::Image { src, .. } => {
                        matches!(arena.node(src), Expr::Sym(s) if s == l.iter_sym)
                    }
                    _ => false,
                };
                if from_iter {
                    prefs.push(Pred::Disj(arena.sym(l.access_syms[a.id.0 as usize])));
                }
            }
        }
    }
    prefs
}

/// Synthesizes a private sub-partition expression for a reduction partition
/// bound to `expr`, per Theorem 5.1 (and its intersection generalization
/// for unions of images). Returns `None` when no construction applies.
pub fn private_subpartition(expr: ExprId, ctx: &FactCtx) -> Option<ExprId> {
    let arena = &ctx.system.arena;
    match arena.node(expr) {
        Expr::Image { src, f, target } => {
            let single = match f {
                FnRef::Identity => true,
                FnRef::Fn(id) => ctx.fns.is_single_valued(id),
            };
            if !single || !arena.is_closed(src) || !prove_disj(src, ctx) {
                return None;
            }
            let src_region = ctx.system.expr_region(src)?;
            // fS(P) − fS( fR⁻¹(fS(P)) − P )
            let expanded = arena.preimage(src_region, f, expr);
            let shared_src = arena.difference(expanded, src);
            let shared = arena.image(shared_src, f, target);
            Some(arena.difference(expr, shared))
        }
        Expr::Union(cs) => {
            // Generalization: intersection of the operands' private parts.
            let parts: Option<Vec<ExprId>> =
                cs.into_iter().map(|c| private_subpartition(c, ctx)).collect();
            Some(arena.intersect(parts?))
        }
        _ => None,
    }
}

/// How a reduction access is executed (decided post-solve).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceMode {
    /// The reduction partition is provably disjoint: apply in place.
    Direct,
    /// Relaxed loop: apply iff the target is in the task's subregion of the
    /// access partition; no buffer.
    Guarded,
    /// Buffer the whole subregion, merge after the parallel phase.
    Buffered,
    /// Direct within the private sub-partition; buffer only the shared rest.
    BufferedPrivate { private: ExprId },
}

/// Chooses the reduction mode for an uncentered reduction whose partition
/// resolved to `expr`.
pub fn choose_reduce_mode(
    expr: ExprId,
    guarded: bool,
    ctx: &FactCtx,
    user_private: Option<ExprId>,
    enable_private: bool,
) -> ReduceMode {
    if guarded {
        return ReduceMode::Guarded;
    }
    if prove_disj(expr, ctx) {
        return ReduceMode::Direct;
    }
    if enable_private {
        if let Some(p) = user_private {
            if prove_disj(p, ctx) {
                return ReduceMode::BufferedPrivate { private: p };
            }
        }
        if let Some(p) = private_subpartition(expr, ctx) {
            return ReduceMode::BufferedPrivate { private: p };
        }
    }
    ReduceMode::Buffered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer;
    use crate::lang::{PExpr, System};
    use partir_dpl::func::FnTable;
    use partir_dpl::region::{FieldKind, RegionId, Schema};
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};

    /// Figure 11a: two uncentered reductions through f and g.
    fn figure11() -> (Vec<partir_ir::ast::Loop>, FnTable, Schema) {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let s_ = schema.add_region("S", 10);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s_, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let f = fns.add(
            "f",
            r,
            s_,
            partir_dpl::func::FnDef::Index(partir_dpl::func::IndexFn::AffineMod {
                mul: 1,
                add: 0,
                modulus: 10,
            }),
        );
        let g = fns.add(
            "g",
            r,
            s_,
            partir_dpl::func::FnDef::Index(partir_dpl::func::IndexFn::AffineMod {
                mul: 1,
                add: 1,
                modulus: 10,
            }),
        );
        let mut b = LoopBuilder::new("fig11", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let fi = b.idx_apply(f, i);
        b.val_reduce(s_, sx, fi, ReduceOp::Add, VExpr::var(v));
        let gi = b.idx_apply(g, i);
        b.val_reduce(s_, sx, gi, ReduceOp::Add, VExpr::var(v));
        (vec![b.finish()], fns, schema)
    }

    #[test]
    fn figure11_relaxation_applies_and_solves() {
        let (loops, fns, schema) = figure11();
        let mut inf = infer(&loops, &fns, &schema).unwrap();
        let relax = apply_relaxation(&mut inf, RelaxPolicy::Auto, &Default::default());
        assert!(relax[0].relaxed);
        assert_eq!(relax[0].guarded.len(), 2);
        // DISJ on the iteration space is gone.
        let iter = inf.loops[0].iter_sym;
        let iter_id = inf.system.arena.sym(iter);
        assert!(!inf
            .system
            .pred_obligations
            .iter()
            .any(|p| matches!(p, Pred::Disj(e) if *e == iter_id)));
        // The system solves with equal targets and a union-of-preimages
        // iteration partition.
        let sol = crate::solve::solve(&inf.system, &fns).expect("solvable");
        let p_f = inf.loops[0].access_syms[1];
        let s_region = inf.system.sym_region(p_f);
        assert_eq!(sol.id_for(p_f), inf.system.intern(PExpr::Equal(s_region)));
        assert!(matches!(inf.system.arena.node(sol.id_for(iter)), Expr::Union(_)));
    }

    #[test]
    fn single_reduce_not_relaxed_but_prefers_disj() {
        // Figure 7: one uncentered reduction — use the Example 3 strategy.
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let s_ = schema.add_region("S", 10);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s_, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g = fns.add_affine("g", r, s_, 1, 0);
        let mut b = LoopBuilder::new("fig7", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let gi = b.idx_apply(g, i);
        b.val_reduce(s_, sx, gi, ReduceOp::Add, VExpr::var(v));
        let mut inf = infer(&[b.finish()], &fns, &schema).unwrap();
        let relax = apply_relaxation(&mut inf, RelaxPolicy::Auto, &Default::default());
        assert!(!relax[0].relaxed);
        let prefs = disjointness_preferences(&inf, &relax);
        assert_eq!(prefs.len(), 1);
        // With the preference, the solution is buffer-free (Example 3).
        let mut sys = inf.system.clone();
        sys.pred_obligations.extend(prefs);
        let sol = crate::solve::solve(&sys, &fns).expect("solvable with preference");
        let p2 = inf.loops[0].access_syms[1];
        assert_eq!(sol.id_for(p2), sys.intern(PExpr::Equal(s_)));
        let iter = inf.loops[0].iter_sym;
        assert!(matches!(sys.arena.node(sol.id_for(iter)), Expr::Preimage { .. }));
    }

    #[test]
    fn relaxation_off_policy_is_inert() {
        let (loops, fns, schema) = figure11();
        let mut inf = infer(&loops, &fns, &schema).unwrap();
        let before = inf.system.clone();
        let relax = apply_relaxation(&mut inf, RelaxPolicy::Off, &Default::default());
        assert!(!relax[0].relaxed);
        assert_eq!(inf.system.subset_obligations, before.subset_obligations);
    }

    #[test]
    fn centered_reduce_blocks_group_relaxation() {
        // Same iteration region, second loop has a centered reduction.
        let (mut loops, fns, mut schema) = figure11();
        let r = RegionId(0);
        let rx = partir_dpl::region::FieldId(0);
        let _ = &mut schema;
        let mut b = LoopBuilder::new("centered", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        b.val_reduce(r, rx, i, ReduceOp::Add, VExpr::var(v));
        // A centered reduce on the read field is rejected by analysis
        // (read+reduce on same field); use a different field.
        let lp = {
            let mut schema2 = Schema::new();
            let r2 = schema2.add_region("R", 10);
            let _rx2 = schema2.add_field(r2, "x", FieldKind::F64);
            let ry2 = schema2.add_field(r2, "y", FieldKind::F64);
            let mut b2 = LoopBuilder::new("centered", r2);
            let i2 = b2.loop_var();
            b2.val_reduce(r2, ry2, i2, ReduceOp::Add, VExpr::Const(1.0));
            let _ = (b, i, v);
            b2.finish()
        };
        loops.push(lp);
        let mut inf = infer(&loops, &fns, &schema).unwrap();
        let relax = apply_relaxation(&mut inf, RelaxPolicy::Auto, &Default::default());
        assert!(!relax[0].relaxed, "centered reduce in group blocks relaxation");
        assert!(!relax[1].relaxed);
    }

    #[test]
    fn theorem_5_1_expression_shape() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let s_ = schema.add_region("S", 10);
        let mut fns = FnTable::new();
        let f = FnRef::Fn(fns.add_affine("f", r, s_, 1, 0));
        let sys = System::new();
        let ctx = FactCtx::new(&sys, &fns);
        let img_tree = PExpr::image(PExpr::Equal(r), f, s_);
        let img = sys.intern(&img_tree);
        let pp = private_subpartition(img, &ctx).expect("constructible");
        // Shape: img − image(preimage(R, f, img) − equal(R), f, S).
        match sys.arena.node(pp) {
            Expr::Difference(lhs, rhs) => {
                assert_eq!(lhs, img);
                assert!(matches!(sys.arena.node(rhs), Expr::Image { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Not constructible from a non-disjoint source.
        let img2 = sys.intern(PExpr::image(PExpr::image(PExpr::Equal(r), f, s_), f, s_));
        assert!(private_subpartition(img2, &ctx).is_none());
    }

    #[test]
    fn choose_reduce_mode_priorities() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let s_ = schema.add_region("S", 10);
        let mut fns = FnTable::new();
        let f = FnRef::Fn(fns.add_affine("f", r, s_, 1, 0));
        let sys = System::new();
        let ctx = FactCtx::new(&sys, &fns);
        let eq_s = sys.intern(PExpr::Equal(s_));
        assert_eq!(choose_reduce_mode(eq_s, false, &ctx, None, true), ReduceMode::Direct);
        assert_eq!(choose_reduce_mode(eq_s, true, &ctx, None, true), ReduceMode::Guarded);
        let img = sys.intern(PExpr::image(PExpr::Equal(r), f, s_));
        assert!(matches!(
            choose_reduce_mode(img, false, &ctx, None, true),
            ReduceMode::BufferedPrivate { .. }
        ));
        assert_eq!(choose_reduce_mode(img, false, &ctx, None, false), ReduceMode::Buffered);
    }
}
