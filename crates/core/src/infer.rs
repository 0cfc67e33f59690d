//! Constraint inference (Algorithm 1).
//!
//! For each parallelizable loop, inference:
//!
//! 1. introduces a fresh partition symbol `P_R` for the iteration space with
//!    `PART(P_R, R) ∧ COMP(P_R, R)`;
//! 2. introduces a fresh symbol `P` for every region access and emits
//!    `PART(P, S) ∧ E ⊆ P`, where `E` is the image-chain expression for the
//!    access's index derivation (the environment of Algorithm 1);
//! 3. adds `DISJ(P_R)` when the loop has an uncentered reduction
//!    (lines 16–17) — unless the relaxation of Section 5.1 later removes it;
//! 4. memoizes image expressions through access symbols, so a chain like
//!    `Cells[h(c)]` after `c = Particles[p].cell` yields the constraint
//!    `image(P2, h, Cells) ⊆ P3` of Figure 1c (with `P2` the symbol of the
//!    `Cells[c]` access) rather than a nested two-step image. Substituting
//!    the enclosing access symbol for its lower bound only *strengthens*
//!    the system (the symbol is an upper bound of the chain prefix), so
//!    soundness is preserved, and it is what makes constraint graphs
//!    (Section 3.2) a union of single-edge subset constraints.
//!
//! Constraints are emitted directly as interned [`ExprId`]s in the system's
//! arena; the chain memo keys on ids, so structurally equal image chains
//! hit it for free.
//!
//! Inference runs in linear time in the program size, as the paper states.

use crate::lang::{Expr, ExprId, FnRef, PSym, System};
use partir_dpl::func::FnTable;
use partir_dpl::region::Schema;
use partir_ir::analysis::{analyze, AccessKind, LoopSummary, NotParallelizable};
use partir_ir::ast::Loop;
use std::collections::HashMap;

/// Where each conjunct of a loop's constraints lives inside the global
/// [`System`] (needed by unification to build per-loop constraint graphs).
#[derive(Clone, Debug, Default)]
pub struct ObligationSpan {
    pub preds: Vec<usize>,
    pub subsets: Vec<usize>,
}

/// Inference output for one loop.
#[derive(Clone, Debug)]
pub struct InferredLoop {
    pub loop_index: usize,
    pub iter_sym: PSym,
    /// Partition symbol per access site (indexed by `AccessId`).
    pub access_syms: Vec<PSym>,
    pub summary: LoopSummary,
    pub span: ObligationSpan,
}

/// Inference output for a whole program.
#[derive(Clone, Debug)]
pub struct Inference {
    pub system: System,
    pub loops: Vec<InferredLoop>,
}

/// Runs Algorithm 1 over every loop of a program.
pub fn infer(
    loops: &[Loop],
    fns: &FnTable,
    _schema: &Schema,
) -> Result<Inference, NotParallelizable> {
    let mut system = System::new();
    let mut out = Vec::with_capacity(loops.len());
    for (li, lp) in loops.iter().enumerate() {
        let summary = analyze(lp, fns)?;
        let il = infer_loop(li, lp, summary, fns, &mut system);
        if partir_obs::trace_enabled() {
            partir_obs::instant(
                "infer.loop",
                vec![
                    ("index", li.into()),
                    ("loop", lp.name.as_str().into()),
                    ("symbols", (il.access_syms.len() + 1).into()),
                    ("subset_constraints", il.span.subsets.len().into()),
                    ("pred_constraints", il.span.preds.len().into()),
                ],
            );
        }
        out.push(il);
    }
    Ok(Inference { system, loops: out })
}

/// Infers constraints for one analyzed loop, appending to `system`.
pub fn infer_loop(
    loop_index: usize,
    lp: &Loop,
    summary: LoopSummary,
    fns: &FnTable,
    system: &mut System,
) -> InferredLoop {
    let mut span = ObligationSpan::default();

    // Fresh symbol for the iteration space: PART (implicit) + COMP.
    let iter_sym = system.fresh_sym(lp.region, format!("{}::iter", lp.name));
    let iter_id = system.arena.sym(iter_sym);
    span.preds.push(system.pred_obligations.len());
    system.require_comp(iter_id, lp.region);

    // DISJ(P_R) when the loop has an uncentered reduction.
    if summary.has_uncentered_reduce {
        span.preds.push(system.pred_obligations.len());
        system.require_disj(iter_id);
    }

    // Memo: image-expression id -> access symbol already bounding it.
    let mut memo: HashMap<ExprId, PSym> = HashMap::new();
    let mut access_syms = Vec::with_capacity(summary.accesses.len());

    for acc in &summary.accesses {
        // Reduction targets are distinct instances with their own
        // requirements (disjointness for buffer-free execution, Section 5),
        // so a reduction's *final* image step never reuses a memoized read
        // symbol and is never memoized itself; the chain prefix still
        // shares symbols.
        let is_reduce = matches!(acc.kind, AccessKind::Reduce(_));

        // Build the environment expression E for this access's index.
        let mut expr = iter_id;
        let mut cur_region = lp.region;
        let last = acc.path.len().saturating_sub(1);
        for (k, &f) in acc.path.iter().enumerate() {
            let nf = fns.get(f);
            // Bridge region mismatches with an identity image (f_ID in
            // Algorithm 1), e.g. iterating Y but indexing the separate
            // Ranges region in Figure 10.
            if nf.domain != cur_region {
                expr = canonical_image(system, expr, FnRef::Identity, nf.domain, &memo);
            }
            let final_step = k == last && cur_region == nf.domain && nf.range == acc.region;
            expr = if is_reduce && final_step {
                system.arena.image(expr, FnRef::Fn(f), nf.range)
            } else {
                canonical_image(system, expr, FnRef::Fn(f), nf.range, &memo)
            };
            cur_region = nf.range;
        }
        if cur_region != acc.region {
            expr = if is_reduce {
                system.arena.image(expr, FnRef::Identity, acc.region)
            } else {
                canonical_image(system, expr, FnRef::Identity, acc.region, &memo)
            };
        }

        // Fresh symbol for the access with E ⊆ P.
        let kind = match acc.kind {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Reduce(_) => "reduce",
        };
        let p = system.fresh_sym(acc.region, format!("{}::{kind}@{:?}", lp.name, acc.id));
        let p_id = system.arena.sym(p);
        span.subsets.push(system.subset_obligations.len());
        system.require_subset(expr, p_id);
        // Memoize uncentered chains through the new symbol (reads only).
        if !is_reduce && matches!(system.arena.node(expr), Expr::Image { .. }) {
            memo.entry(expr).or_insert(p);
        }
        access_syms.push(p);
    }

    InferredLoop { loop_index, iter_sym, access_syms, summary, span }
}

/// Builds `image(src, f, target)`, replacing it by a memoized access symbol
/// when one already upper-bounds the same expression.
fn canonical_image(
    system: &System,
    src: ExprId,
    f: FnRef,
    target: partir_dpl::region::RegionId,
    memo: &HashMap<ExprId, PSym>,
) -> ExprId {
    let img = system.arena.image(src, f, target);
    match memo.get(&img) {
        Some(&p) => system.arena.sym(p),
        None => img,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::Pred;
    use partir_dpl::region::{FieldKind, RegionId};
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};

    /// Figure 1a, first loop. Returns (loops, fns, schema, region ids).
    fn figure1() -> (Vec<Loop>, FnTable, Schema, RegionId, RegionId) {
        let mut schema = Schema::new();
        let cells = schema.add_region("Cells", 100);
        let particles = schema.add_region("Particles", 1000);
        let cell_f = schema.add_field(particles, "cell", FieldKind::Ptr(cells));
        let pos = schema.add_field(particles, "pos", FieldKind::F64);
        let vel = schema.add_field(cells, "vel", FieldKind::F64);
        let acc = schema.add_field(cells, "acc", FieldKind::F64);
        let mut fns = FnTable::new();
        let fcell = fns.add_ptr_field("Particles[.].cell", particles, cells, cell_f);
        let h = fns.add(
            "h",
            cells,
            cells,
            partir_dpl::func::FnDef::Index(partir_dpl::func::IndexFn::AffineMod {
                mul: 1,
                add: 1,
                modulus: 100,
            }),
        );

        // Loop 1: particles update.
        let mut b = LoopBuilder::new("particles", particles);
        let p = b.loop_var();
        let c = b.idx_read(particles, cell_f, p, fcell);
        let v1 = b.val_read(cells, vel, c);
        let hc = b.idx_apply(h, c);
        let v2 = b.val_read(cells, vel, hc);
        b.val_reduce(particles, pos, p, ReduceOp::Add, VExpr::add(VExpr::var(v1), VExpr::var(v2)));
        let l1 = b.finish();

        // Loop 2: cells update.
        let mut b = LoopBuilder::new("cells", cells);
        let cv = b.loop_var();
        let a1 = b.val_read(cells, acc, cv);
        let hc = b.idx_apply(h, cv);
        let a2 = b.val_read(cells, acc, hc);
        b.val_reduce(cells, vel, cv, ReduceOp::Add, VExpr::add(VExpr::var(a1), VExpr::var(a2)));
        let l2 = b.finish();

        (vec![l1, l2], fns, schema, particles, cells)
    }

    #[test]
    fn figure1_constraints_shape() {
        let (loops, fns, schema, particles, cells) = figure1();
        let inf = infer(&loops, &fns, &schema).expect("parallelizable");
        let sys = &inf.system;
        let a = &sys.arena;
        // Loop 1: iter sym + 4 access syms; loop 2: iter sym + 3 access syms.
        assert_eq!(inf.loops[0].access_syms.len(), 4);
        assert_eq!(inf.loops[1].access_syms.len(), 3);
        assert_eq!(sys.num_syms(), 2 + 4 + 3);
        // Iteration symbols are COMP; no DISJ (all reductions centered).
        let iter_id = a.sym(inf.loops[0].iter_sym);
        assert!(sys
            .pred_obligations
            .iter()
            .any(|p| matches!(p, Pred::Comp(e, r) if *e == iter_id && *r == particles)));
        assert!(!sys.pred_obligations.iter().any(|p| matches!(p, Pred::Disj(_))));

        // The Cells[c].vel access: image(P_iter, cell, Cells) ⊆ P.
        let cells_acc = inf.loops[0].access_syms[1];
        let sub = sys.subset_obligations.iter().find(|s| s.rhs == a.sym(cells_acc)).unwrap();
        match a.node(sub.lhs) {
            Expr::Image { src, f, target } => {
                assert_eq!(src, a.sym(inf.loops[0].iter_sym));
                assert_eq!(f, FnRef::Fn(partir_dpl::func::FnId(0)));
                assert_eq!(target, cells);
            }
            other => panic!("unexpected lhs {other:?}"),
        }

        // Memoization: the Cells[h(c)].vel access chains from the Cells[c]
        // access symbol (Figure 1c's P2 -h-> P3 edge).
        let hc_acc = inf.loops[0].access_syms[2];
        let sub = sys.subset_obligations.iter().find(|s| s.rhs == a.sym(hc_acc)).unwrap();
        match a.node(sub.lhs) {
            Expr::Image { src, f, .. } => {
                assert_eq!(src, a.sym(cells_acc), "chains through P2");
                assert_eq!(f, FnRef::Fn(partir_dpl::func::FnId(1)));
            }
            other => panic!("unexpected lhs {other:?}"),
        }
    }

    #[test]
    fn figure7_adds_disj_on_iteration_space() {
        // for i in R: S[g(i)] += R[i]
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
        let lp = b.finish();
        let inf = infer(&[lp], &fns, &schema).unwrap();
        let iter = inf.system.arena.sym(inf.loops[0].iter_sym);
        assert!(inf
            .system
            .pred_obligations
            .iter()
            .any(|p| matches!(p, Pred::Disj(e) if *e == iter)));
        // Figure 7 shape: 3 symbols (iter, reduce target, centered read).
        assert_eq!(inf.system.num_syms(), 3);
    }

    #[test]
    fn centered_accesses_bound_by_iter_sym_directly() {
        // Figure 6: both centered accesses get P_iter ⊆ P_i (no chaining
        // between sibling centered accesses).
        let (loops, fns, schema, _, _) = figure1();
        let inf = infer(&loops[..1], &fns, &schema).unwrap();
        let sys = &inf.system;
        let a = &sys.arena;
        let iter = a.sym(inf.loops[0].iter_sym);
        let cell_read = inf.loops[0].access_syms[0];
        let pos_reduce = inf.loops[0].access_syms[3];
        for acc in [cell_read, pos_reduce] {
            let sub = sys.subset_obligations.iter().find(|s| s.rhs == a.sym(acc)).unwrap();
            assert_eq!(sub.lhs, iter);
        }
    }

    #[test]
    fn spmv_identity_bridge_and_multi_chain() {
        // Figure 10 with a separate Ranges region.
        let mut schema = Schema::new();
        let mat = schema.add_region("Mat", 100);
        let x = schema.add_region("X", 10);
        let y = schema.add_region("Y", 10);
        let ranges_r = schema.add_region("Ranges", 10);
        let yv = schema.add_field(y, "val", FieldKind::F64);
        let range_f = schema.add_field(ranges_r, "range", FieldKind::Range(mat));
        let mval = schema.add_field(mat, "val", FieldKind::F64);
        let mind = schema.add_field(mat, "ind", FieldKind::Ptr(x));
        let xv = schema.add_field(x, "val", FieldKind::F64);
        let mut fns = FnTable::new();
        let ranges = fns.add_range_field("Ranges[.]", ranges_r, mat, range_f);
        let ind = fns.add_ptr_field("Mat[.].ind", mat, x, mind);

        let mut b = LoopBuilder::new("spmv", y);
        let i = b.loop_var();
        let k = b.begin_for_each(ranges, i);
        let a_ = b.val_read(mat, mval, k);
        let col = b.idx_read(mat, mind, k, ind);
        let xval = b.val_read(x, xv, col);
        b.val_reduce(y, yv, i, ReduceOp::Add, VExpr::mul(VExpr::var(a_), VExpr::var(xval)));
        b.end_for_each();
        let lp = b.finish();

        let inf = infer(&[lp], &fns, &schema).unwrap();
        let sys = &inf.system;
        let a = &sys.arena;
        let iter = a.sym(inf.loops[0].iter_sym);
        // Header access (Ranges region): image(P_iter, id, Ranges) ⊆ P2.
        let p2 = inf.loops[0].access_syms[0];
        let sub = sys.subset_obligations.iter().find(|s| s.rhs == a.sym(p2)).unwrap();
        assert_eq!(sub.lhs, a.image(iter, FnRef::Identity, ranges_r));
        // Mat accesses chain from P2 via the multi-function:
        // IMAGE(P2, Ranges[.], Mat) ⊆ P3 — and both Mat accesses share the
        // memoized chain (the second chains from the first's symbol).
        let p3 = inf.loops[0].access_syms[1];
        let sub = sys.subset_obligations.iter().find(|s| s.rhs == a.sym(p3)).unwrap();
        assert_eq!(sub.lhs, a.image(a.sym(p2), FnRef::Fn(ranges), mat));
        // X access: image(P3', ind, X) where P3' is the memoized Mat symbol.
        let p_x = inf.loops[0].access_syms[3];
        let sub = sys.subset_obligations.iter().find(|s| s.rhs == a.sym(p_x)).unwrap();
        match a.node(sub.lhs) {
            Expr::Image { src, f, target } => {
                assert_eq!(src, a.sym(p3));
                assert_eq!(f, FnRef::Fn(ind));
                assert_eq!(target, x);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
