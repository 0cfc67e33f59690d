//! The end-to-end auto-parallelization pipeline.
//!
//! `auto_parallelize` mirrors the compiler pass of Section 6: constraint
//! inference (Algorithm 1) → user hints (Section 3.3) → reduction
//! optimizations (Section 5) → unification (Algorithm 3) → solving
//! (Algorithm 2) → plan construction (the "source-to-source rewrite" that
//! binds every loop and access site to a concrete partition and reduction
//! strategy). Per-phase wall-clock timings are recorded for the Table 1
//! reproduction.

use crate::eval::{Evaluator, ExtBindings};
use crate::infer::{infer, Inference};
use crate::lang::{Expr, ExprId, ExtId, PExpr, PSym, Pred, System};
use crate::lemmas::FactCtx;
use crate::optimize::{
    apply_relaxation, choose_reduce_mode, disj_preferences, ReduceMode, RelaxPolicy,
};
use crate::solve::{solve_with, Solution, SolveBudget, SolveError};
use crate::unify::{unify, Rep, Unified};
use partir_dpl::func::FnTable;
use partir_dpl::partition::Partition;
use partir_dpl::region::{FieldId, RegionId, Schema, Store};
use partir_ir::analysis::{analyze_with_table, AccessInfo, AccessKind, NotParallelizable};
use partir_ir::ast::Loop;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A predicate fact in tree form (hints are built before any `System` — and
/// its interning arena — exists; they are interned at install time).
#[derive(Clone, Debug, Hash)]
pub(crate) enum PredFact {
    Disj(PExpr),
    Comp(PExpr, RegionId),
}

/// User-provided hints: external partitions and invariants on them
/// (Section 3.3), plus candidate private sub-partitions (Section 6.5's
/// third PENNANT hint).
#[derive(Clone, Debug, Default, Hash)]
pub struct Hints {
    pub(crate) externals: Vec<(String, RegionId)>,
    pub(crate) subset_facts: Vec<(PExpr, PExpr)>,
    pub(crate) pred_facts: Vec<PredFact>,
    pub(crate) private_subs: Vec<(RegionId, PExpr)>,
}

impl Hints {
    pub fn new() -> Self {
        Hints::default()
    }

    /// Declares an external partition; returns the id to use in fact
    /// expressions and in [`ExtBindings`] (push order must match).
    pub fn external(&mut self, name: impl Into<String>, region: RegionId) -> ExtId {
        self.externals.push((name.into(), region));
        ExtId(self.externals.len() as u32 - 1)
    }

    /// Asserts `lhs ⊆ rhs` as an invariant the environment guarantees.
    pub fn fact_subset(&mut self, lhs: PExpr, rhs: PExpr) {
        self.subset_facts.push((lhs, rhs));
    }

    pub fn fact_disj(&mut self, e: PExpr) {
        self.pred_facts.push(PredFact::Disj(e));
    }

    pub fn fact_comp(&mut self, e: PExpr, r: RegionId) {
        self.pred_facts.push(PredFact::Comp(e, r));
    }

    /// Offers `expr` (typically an external) as a private sub-partition for
    /// reduction partitions of `region`.
    pub fn private_sub(&mut self, region: RegionId, expr: PExpr) {
        self.private_subs.push((region, expr));
    }

    /// Number of declared external partitions (the builder checks its
    /// `ExtBindings` against this).
    pub fn num_externals(&self) -> usize {
        self.externals.len()
    }
}

/// Pipeline options (ablation knobs for the evaluation).
#[derive(Clone, Copy, Debug, Hash)]
pub struct Options {
    pub unify: bool,
    pub relax: RelaxPolicy,
    /// Try `DISJ` preferences on reduction targets (Example 3 strategy).
    pub disj_preference: bool,
    /// Synthesize private sub-partitions (Theorem 5.1).
    pub private_subs: bool,
    /// Resource budget for the constraint solver. On exhaustion the
    /// pipeline degrades to the trivial solution instead of erroring, so
    /// `auto_parallelize` stays total under any budget.
    pub solve_budget: SolveBudget,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            unify: true,
            relax: RelaxPolicy::Auto,
            disj_preference: true,
            private_subs: true,
            solve_budget: SolveBudget::unlimited(),
        }
    }
}

/// Wall-clock breakdown (Table 1 rows).
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    pub inference: Duration,
    pub solver: Duration,
    pub rewrite: Duration,
}

/// Identifies a distinct partition in a plan.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PartId(pub u32);

/// Per-access execution info.
#[derive(Clone, Debug)]
pub struct AccessPlan {
    pub part: PartId,
    pub kind: AccessKind,
    /// Region the access targets (for diagnostics).
    pub region: RegionId,
    /// Field the access targets (drives per-field exchange sets on the
    /// distributed backend); `None` for a `ForEach` header no field backs.
    pub field: Option<FieldId>,
    /// Reduction strategy; `None` for reads/writes and centered reductions.
    pub reduce: Option<PlannedReduce>,
}

#[derive(Clone, Debug, PartialEq)]
pub enum PlannedReduce {
    Direct,
    Guarded,
    Buffered,
    BufferedPrivate { private: PartId },
}

/// Per-loop execution plan.
#[derive(Clone, Debug)]
pub struct LoopPlan {
    pub loop_index: usize,
    pub iter: PartId,
    /// True when the loop has centered reductions, which require the
    /// iteration partition to be disjoint at runtime.
    pub iter_must_be_disjoint: bool,
    pub relaxed: bool,
    pub accesses: Vec<AccessPlan>,
}

/// The complete auto-parallelization result.
#[derive(Clone, Debug, Default)]
pub struct ParallelPlan {
    /// Distinct closed partition expressions, deduplicated canonically
    /// (interned ids: `a ∪ b` and `b ∪ a` are one plan partition).
    pub partition_ids: Vec<ExprId>,
    pub loops: Vec<LoopPlan>,
    /// The post-unification system (facts included, for runtime checks).
    /// Its arena interns every plan expression; evaluators share it.
    pub system: System,
    pub solution: Solution,
    pub unified: Unified,
    pub timings: Timings,
}

/// Evaluator memo statistics from one [`ParallelPlan::evaluate_with_stats`]
/// run: cache hits are partition materializations avoided because a
/// canonically equal subexpression had already been evaluated.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalStats {
    pub cache_hits: u64,
    pub partitions_built: usize,
}

impl ParallelPlan {
    pub fn num_partitions(&self) -> usize {
        self.partition_ids.len()
    }

    /// Evaluates every partition expression against a store. The returned
    /// partitions are shared (`Arc`): canonically equal subexpressions are
    /// materialized once and aliased, not deep-copied.
    pub fn evaluate(
        &self,
        store: &Store,
        fns: &FnTable,
        n_colors: usize,
        exts: &ExtBindings,
    ) -> Vec<Arc<Partition>> {
        self.evaluate_with_stats(store, fns, n_colors, exts).0
    }

    /// [`evaluate`](Self::evaluate) plus the evaluator's memo statistics
    /// (how many partition materializations the interned IR avoided).
    pub fn evaluate_with_stats(
        &self,
        store: &Store,
        fns: &FnTable,
        n_colors: usize,
        exts: &ExtBindings,
    ) -> (Vec<Arc<Partition>>, EvalStats) {
        let mut ev = Evaluator::with_arena(store, fns, n_colors, exts, self.system.arena.clone());
        let parts = self.partition_ids.iter().map(|&id| ev.eval_id(id)).collect();
        let stats =
            EvalStats { cache_hits: ev.cache_hits(), partitions_built: ev.partitions_built() };
        (parts, stats)
    }

    /// A plan the solver did not produce (a hand-written strategy): plan
    /// partition `k` is the external `Ext(k)` bound by `exts`, loop `l`
    /// iterates `iters[l]`, and `bind(l, access)` names each access's
    /// partition and, for an uncentered reduction, its strategy (`None` is
    /// `Direct`). Kinds, regions and fields come from the program's
    /// analysis, as inference takes them; the executors' `plan_loops` and
    /// `prove_plan_legality` check the rest exactly as for a solved plan.
    pub fn from_bindings(
        program: &[Loop],
        fns: &FnTable,
        exts: &ExtBindings,
        iters: &[PartId],
        mut bind: impl FnMut(usize, &AccessInfo) -> (PartId, Option<PlannedReduce>),
    ) -> Result<ParallelPlan, NotParallelizable> {
        let mut system = System::new();
        let partition_ids = (0..exts.len() as u32)
            .map(|k| {
                let ext = system.add_external(format!("X{k}"), exts.get(ExtId(k)).region);
                system.intern(PExpr::ext(ext))
            })
            .collect();
        let mut loops = Vec::with_capacity(program.len());
        for (loop_index, (lp, &iter)) in program.iter().zip(iters).enumerate() {
            let summary = analyze_with_table(lp, fns)?;
            let mut accesses = Vec::with_capacity(summary.accesses.len());
            for a in &summary.accesses {
                let (part, reduce) = bind(loop_index, a);
                let reduce = (a.kind.is_reduce() && !a.is_centered())
                    .then(|| reduce.unwrap_or(PlannedReduce::Direct));
                let (kind, region, field) = (a.kind, a.region, a.field);
                accesses.push(AccessPlan { part, kind, region, field, reduce });
            }
            let iter_must_be_disjoint =
                summary.accesses.iter().any(|a| a.kind.is_reduce() && a.is_centered());
            let relaxed = accesses.iter().any(|a| a.reduce == Some(PlannedReduce::Guarded));
            loops.push(LoopPlan { loop_index, iter, iter_must_be_disjoint, relaxed, accesses });
        }
        Ok(ParallelPlan { partition_ids, loops, system, ..Default::default() })
    }

    /// Renders the synthesized DPL program.
    pub fn render_dpl(&self, fns: &FnTable) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, &id) in self.partition_ids.iter().enumerate() {
            let _ = writeln!(out, "P{i} = {}", self.system.display_expr(id, fns));
        }
        out
    }

    /// Renders the explanation trace that pairs with [`Self::render_dpl`]: the
    /// unification merges that rewrote the system, then the solver's
    /// per-symbol provenance (which candidate rule, resting on which
    /// lemmas, produced each equality).
    pub fn render_explanation(&self, fns: &FnTable) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for m in &self.unified.merge_log {
            let _ = writeln!(out, "unify[{}]: {}", m.stage, m.detail);
        }
        out.push_str(&self.solution.render_explanation(&self.system, fns));
        out
    }
}

/// Pipeline errors.
#[derive(Debug)]
pub enum AutoError {
    NotParallelizable(NotParallelizable),
    Unsatisfiable,
}

impl std::fmt::Display for AutoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutoError::NotParallelizable(e) => write!(f, "not parallelizable: {e}"),
            AutoError::Unsatisfiable => write!(f, "partitioning constraints unsatisfiable"),
        }
    }
}

impl std::error::Error for AutoError {}

impl From<NotParallelizable> for AutoError {
    fn from(e: NotParallelizable) -> Self {
        AutoError::NotParallelizable(e)
    }
}

/// Runs the whole pipeline.
pub fn auto_parallelize(
    loops: &[Loop],
    fns: &FnTable,
    schema: &Schema,
    hints: &Hints,
    opts: Options,
) -> Result<ParallelPlan, AutoError> {
    partir_obs::init_from_env();

    // ---- Phase 1: inference (Algorithm 1). ----
    let t0 = Instant::now();
    let sp = partir_obs::span("pipeline.infer");
    let mut inference: Inference = infer(loops, fns, schema)?;
    install_hints(&mut inference.system, hints);
    let hinted_regions: std::collections::BTreeSet<_> =
        hints.externals.iter().map(|(_, r)| *r).collect();
    sp.close_with(vec![
        ("loops", loops.len().into()),
        ("symbols", inference.system.num_syms().into()),
        ("subset_constraints", inference.system.subset_obligations.len().into()),
        ("pred_constraints", inference.system.pred_obligations.len().into()),
    ]);
    let sp = partir_obs::span("pipeline.relax");
    let relax = apply_relaxation(
        &mut inference,
        if matches!(opts.relax, RelaxPolicy::Off) { RelaxPolicy::Off } else { RelaxPolicy::Auto },
        &hinted_regions,
    );
    sp.close_with(vec![("relaxed_loops", relax.iter().filter(|r| r.relaxed).count().into())]);
    let inference_time = t0.elapsed();

    // ---- Phase 2: unification + solving (Algorithms 2 & 3). ----
    let t1 = Instant::now();
    let sp = partir_obs::span("pipeline.unify");
    let unified = if opts.unify {
        unify(&inference, fns)
    } else {
        // Identity unification: keep the system as-is.
        Unified {
            system: inference.system.clone(),
            rep: vec![Rep::SelfSym; inference.system.num_syms()],
            merged: 0,
            check_stats: Default::default(),
            stats: Default::default(),
            merge_log: Vec::new(),
        }
    };
    sp.close_with(vec![
        ("merged", unified.merged.into()),
        ("candidates", unified.stats.candidates_considered.into()),
        ("accepted", unified.stats.merges_accepted.into()),
    ]);

    // Disjointness preferences, mapped through unification and tried
    // greedily (each kept only while the system stays solvable).
    let sp = partir_obs::span("pipeline.solve");
    let mut system = unified.system.clone();
    let forced = forced_ext_bindings(&unified);
    let base_solution = match solve_with(&system, fns, &forced, &opts.solve_budget) {
        Ok(s) => s,
        Err(SolveError::Unsatisfiable) => return Err(AutoError::Unsatisfiable),
    };
    let mut solution = base_solution;
    if opts.disj_preference && !solution.degraded {
        for pref in disj_preferences(&inference, &relax) {
            let mapped = match pref {
                Pred::Disj(e) => match system.arena.node(e) {
                    Expr::Sym(s) => match resolve_rep(&unified, s) {
                        PExpr::Sym(t) => Pred::Disj(system.arena.sym(t)),
                        _ => continue, // bound to an external: fixed
                    },
                    _ => pref,
                },
                other => other,
            };
            if system.pred_obligations.contains(&mapped) {
                continue;
            }
            let mut trial = system.clone();
            trial.pred_obligations.push(mapped);
            // A degraded trial solution would accept the stronger system
            // without the solver having actually satisfied it — only take
            // the preference when the search completed within budget.
            if let Ok(sol) = solve_with(&trial, fns, &forced, &opts.solve_budget) {
                if !sol.degraded {
                    system = trial;
                    solution = sol;
                }
            }
        }
    }
    sp.close_with(vec![
        ("nodes", solution.stats.nodes_explored.into()),
        ("candidates", solution.stats.candidates_tried.into()),
        ("backtracks", solution.stats.backtracks.into()),
        ("lemma_applications", solution.stats.lemma_applications.into()),
        ("degraded", solution.degraded.into()),
    ]);
    let solver_time = t1.elapsed();

    // ---- Phase 3: plan construction (the rewrite). ----
    let t2 = Instant::now();
    let sp = partir_obs::span("pipeline.plan");
    let mut plan_ids: Vec<ExprId> = Vec::new();
    let mut part_of: HashMap<ExprId, PartId> = HashMap::new();
    let mut intern = |e: ExprId| -> PartId {
        if let Some(&id) = part_of.get(&e) {
            return id;
        }
        let id = PartId(plan_ids.len() as u32);
        plan_ids.push(e);
        part_of.insert(e, id);
        id
    };

    let resolve_id = |s: PSym| -> ExprId {
        match resolve_rep(&unified, s) {
            PExpr::Sym(t) => solution.id_for(t),
            ext => system.intern(&ext),
        }
    };

    let ctx_system = system.clone();
    let ctx = FactCtx::new(&ctx_system, fns);
    let mut plan_loops = Vec::with_capacity(inference.loops.len());
    for (li, il) in inference.loops.iter().enumerate() {
        let iter = intern(resolve_id(il.iter_sym));
        let iter_must_be_disjoint =
            il.summary.accesses.iter().any(|a| a.kind.is_reduce() && a.is_centered());
        let mut accesses = Vec::with_capacity(il.access_syms.len());
        for a in &il.summary.accesses {
            let expr = resolve_id(il.access_syms[a.id.0 as usize]);
            let part = intern(expr);
            let reduce = if a.kind.is_reduce() && !a.is_centered() {
                let guarded = relax[li].guarded.contains(&a.id);
                let user_private = hints
                    .private_subs
                    .iter()
                    .find(|(r, _)| *r == a.region)
                    .map(|(_, e)| system.intern(e));
                let mode = choose_reduce_mode(expr, guarded, &ctx, user_private, opts.private_subs);
                Some(match mode {
                    ReduceMode::Direct => PlannedReduce::Direct,
                    ReduceMode::Guarded => PlannedReduce::Guarded,
                    ReduceMode::Buffered => PlannedReduce::Buffered,
                    ReduceMode::BufferedPrivate { private } => {
                        PlannedReduce::BufferedPrivate { private: intern(private) }
                    }
                })
            } else {
                None
            };
            accesses.push(AccessPlan {
                part,
                kind: a.kind,
                region: a.region,
                field: a.field,
                reduce,
            });
        }
        plan_loops.push(LoopPlan {
            loop_index: li,
            iter,
            iter_must_be_disjoint,
            relaxed: relax[li].relaxed,
            accesses,
        });
    }
    sp.close_with(vec![("partitions", plan_ids.len().into()), ("loops", plan_loops.len().into())]);
    let rewrite_time = t2.elapsed();

    Ok(ParallelPlan {
        partition_ids: plan_ids,
        loops: plan_loops,
        system,
        solution,
        unified,
        timings: Timings { inference: inference_time, solver: solver_time, rewrite: rewrite_time },
    })
}

fn install_hints(system: &mut System, hints: &Hints) {
    debug_assert!(system.externals.is_empty(), "hints installed twice");
    for (name, region) in &hints.externals {
        system.add_external(name.clone(), *region);
    }
    for (lhs, rhs) in &hints.subset_facts {
        system.assume_fact_subset(lhs, rhs);
    }
    for p in &hints.pred_facts {
        let interned = match p {
            PredFact::Disj(e) => Pred::Disj(system.intern(e)),
            PredFact::Comp(e, r) => Pred::Comp(system.intern(e), *r),
        };
        system.assume_fact_pred(interned);
    }
}

fn resolve_rep(unified: &Unified, s: PSym) -> PExpr {
    unified.resolve(s)
}

fn forced_ext_bindings(unified: &Unified) -> HashMap<PSym, PExpr> {
    let mut forced = HashMap::new();
    for (i, r) in unified.rep.iter().enumerate() {
        if let Rep::Ext(x) = r {
            forced.insert(PSym(i as u32), PExpr::ext(*x));
        }
    }
    forced
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_dpl::region::FieldKind;
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};

    fn figure1_program() -> (Vec<Loop>, FnTable, Schema) {
        let mut schema = Schema::new();
        let cells = schema.add_region("Cells", 100);
        let particles = schema.add_region("Particles", 1000);
        let cell_f = schema.add_field(particles, "cell", FieldKind::Ptr(cells));
        let pos = schema.add_field(particles, "pos", FieldKind::F64);
        let vel = schema.add_field(cells, "vel", FieldKind::F64);
        let acc = schema.add_field(cells, "acc", FieldKind::F64);
        let mut fns = FnTable::new();
        let fcell = fns.add_ptr_field("cell", particles, cells, cell_f);
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

        let mut b = LoopBuilder::new("particles", particles);
        let p = b.loop_var();
        let c = b.idx_read(particles, cell_f, p, fcell);
        let v1 = b.val_read(cells, vel, c);
        let hc = b.idx_apply(h, c);
        let v2 = b.val_read(cells, vel, hc);
        b.val_reduce(particles, pos, p, ReduceOp::Add, VExpr::add(VExpr::var(v1), VExpr::var(v2)));
        let l1 = b.finish();

        let mut b = LoopBuilder::new("cells", cells);
        let cv = b.loop_var();
        let a1 = b.val_read(cells, acc, cv);
        let hc = b.idx_apply(h, cv);
        let a2 = b.val_read(cells, acc, hc);
        b.val_reduce(cells, vel, cv, ReduceOp::Add, VExpr::add(VExpr::var(a1), VExpr::var(a2)));
        let l2 = b.finish();
        (vec![l1, l2], fns, schema)
    }

    #[test]
    fn figure1_end_to_end_three_partitions() {
        let (loops, fns, schema) = figure1_program();
        let plan =
            auto_parallelize(&loops, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        // Program B: preimage(Particles), equal(Cells), image(Cells) — 3
        // distinct partitions.
        assert_eq!(plan.num_partitions(), 3, "{}", plan.render_dpl(&fns));
        // Evaluate against a real store and check legality.
        let mut store = Store::new(schema);
        let cell_f = partir_dpl::region::FieldId(0);
        for (i, p) in store.ptrs_mut(cell_f).iter_mut().enumerate() {
            *p = (i as u64 * 7) % 100;
        }
        let parts = plan.evaluate(&store, &fns, 4, &ExtBindings::new());
        // Iteration partitions are complete; loop 1's iteration partition
        // covers all particles.
        let iter1 = &parts[plan.loops[0].iter.0 as usize];
        assert!(iter1.is_complete(1000));
        let iter2 = &parts[plan.loops[1].iter.0 as usize];
        assert!(iter2.is_complete(100) && iter2.is_disjoint());
    }

    #[test]
    fn no_unify_ablation_builds_more_partitions() {
        let (loops, fns, schema) = figure1_program();
        let with = auto_parallelize(&loops, &fns, &schema, &Hints::new(), Options::default())
            .unwrap()
            .num_partitions();
        let without = auto_parallelize(
            &loops,
            &fns,
            &schema,
            &Hints::new(),
            Options { unify: false, ..Options::default() },
        )
        .unwrap()
        .num_partitions();
        assert!(without > with, "unification reduces partitions: {with} vs {without}");
    }

    #[test]
    fn timings_are_recorded() {
        let (loops, fns, schema) = figure1_program();
        let plan =
            auto_parallelize(&loops, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        // All phases ran (durations are non-negative by type; at least the
        // solver should be measurable on a debug build).
        assert!(plan.timings.inference.as_nanos() > 0);
        assert!(plan.timings.solver.as_nanos() > 0);
    }

    #[test]
    fn centered_reduce_flags_disjoint_iteration() {
        let (loops, fns, schema) = figure1_program();
        let plan =
            auto_parallelize(&loops, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        assert!(plan.loops[0].iter_must_be_disjoint);
        assert!(plan.loops[1].iter_must_be_disjoint);
    }
}
