//! The `partir::Partir` builder — the front door of the solve.
//!
//! Instead of threading `Hints`/`Options`/`ExtBindings` through the
//! pipeline by hand, callers describe a solve once and get a shareable
//! [`Plan`]; everything about executing it lives in [`Run`]:
//!
//! ```text
//! let plan = Partir::new(program, fns, schema)
//!     .hints(h)
//!     .budget(b)
//!     .colors(8)
//!     .cache(&cache)           // optional: fingerprint-keyed reuse
//!     .solve()?;               // solve once (or hit the cache)
//! Run::new().backend(Backend::Ranks(4)).run(&plan, &mut store)?;
//! ```
//!
//! [`Run`]: crate::Run

use crate::error::Error;
use crate::plan::Plan;
use partir_core::cache::{PlanCache, SolvedPlan};
use partir_core::eval::ExtBindings;
use partir_core::fingerprint::{solve_fingerprint, Fingerprint};
use partir_core::pipeline::{Hints, Options};
use partir_core::solve::SolveBudget;
use partir_dpl::func::{FnDef, FnId, FnTable, IndexFn, MultiFn};
use partir_dpl::region::Schema;
use partir_ir::ast::Loop;
use std::sync::Arc;

/// Builder for a partir solve. Construct with [`Partir::new`], configure
/// with the chained setters, then [`solve`](Partir::solve) for a shareable
/// [`Plan`].
#[derive(Debug)]
pub struct Partir {
    program: Vec<Loop>,
    fns: FnTable,
    schema: Schema,
    hints: Hints,
    options: Options,
    colors: usize,
    externals: ExtBindings,
    cache: Option<PlanCache>,
}

impl Partir {
    /// Starts a builder over a program, its partitioning functions, and
    /// its data schema.
    pub fn new(program: Vec<Loop>, fns: FnTable, schema: Schema) -> Self {
        Partir {
            program,
            fns,
            schema,
            hints: Hints::new(),
            options: Options::default(),
            colors: 4,
            externals: ExtBindings::new(),
            cache: None,
        }
    }

    /// User hints: external partitions, invariants, private sub-partition
    /// candidates (Section 3.3 / 6.5).
    pub fn hints(mut self, hints: Hints) -> Self {
        self.hints = hints;
        self
    }

    /// Full pipeline options (ablation knobs, relaxation policy).
    /// [`budget`](Self::budget) is a shortcut into this.
    pub fn options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// Resource budget for the constraint solver.
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.options.solve_budget = budget;
        self
    }

    /// Number of partition colors (tasks); 4 unless set. A run on the
    /// rank backend needs `colors >= ranks`, so every rank can own a
    /// color.
    pub fn colors(mut self, colors: usize) -> Self {
        self.colors = colors;
        self
    }

    /// Consult (and populate) a fingerprint-keyed [`PlanCache`] in
    /// [`solve`](Self::solve). On a hit the entire pipeline — inference,
    /// unification, solving, plan construction — is skipped and the
    /// returned [`Plan`] shares the cached artifact, including its memoized
    /// exchange plans, placements, and legality proofs. The handle is
    /// cloned; all users of one cache share its capacity and statistics.
    pub fn cache(mut self, cache: &PlanCache) -> Self {
        self.cache = Some(cache.clone());
        self
    }

    /// Bindings for the external partitions declared in the hints, in
    /// declaration order.
    pub fn externals(mut self, externals: ExtBindings) -> Self {
        self.externals = externals;
        self
    }

    /// Solves the partitioning constraints (inference → unification →
    /// solving → plan construction) into a shareable [`Plan`], consulting
    /// the configured [`PlanCache`] first. A request no plan could serve —
    /// zero colors, a miscounted externals list, an `AffineMod` modulus
    /// outside `1..=i64::MAX` anywhere in the function table — is
    /// `session.invalid` before either.
    pub fn solve(mut self) -> Result<Plan, Error> {
        self.admit()?;
        let Some(cache) = self.cache.take() else {
            return Ok(Plan::from_solved(self.solve_cold()?, false));
        };
        if let Some(solved) = cache.get(self.key())? {
            return Ok(Plan::from_solved(solved, true));
        }
        let solved = self.solve_cold()?;
        // Degraded (budget-exhausted) plans are refused by the cache
        // itself, so a warm cache never pins a fallback solution.
        cache.insert(solved.clone())?;
        Ok(Plan::from_solved(solved, false))
    }

    /// Admission: every `session.invalid` check of [`solve`](Self::solve),
    /// made before any cache is consulted.
    pub(crate) fn admit(&self) -> Result<(), Error> {
        if self.colors == 0 {
            return Err(Error::Session("color count must be at least 1".into()));
        }
        if self.externals.len() != self.hints.num_externals() {
            return Err(Error::Session(format!(
                "{} external bindings for {} declared externals",
                self.externals.len(),
                self.hints.num_externals()
            )));
        }
        for id in 0..self.fns.len() {
            let named = self.fns.get(FnId(id as u32));
            let modulus = match &named.def {
                FnDef::Index(f) | FnDef::Multi(MultiFn::Lift(f)) => unusable_modulus(f),
                FnDef::Multi(MultiFn::RangeField { .. }) => None,
            };
            if let Some(m) = modulus {
                return Err(Error::Session(format!(
                    "function `{}` reduces modulo {m}, outside 1..=i64::MAX",
                    named.name
                )));
            }
        }
        Ok(())
    }

    /// The cache key of an admitted request: its solve fingerprint.
    pub(crate) fn key(&self) -> Fingerprint {
        solve_fingerprint(
            &self.program,
            &self.fns,
            &self.schema,
            &self.hints,
            &self.options,
            &self.externals,
            self.colors,
        )
    }

    /// The cold path of an admitted request: the whole pipeline, no cache.
    pub(crate) fn solve_cold(self) -> Result<Arc<SolvedPlan>, Error> {
        Ok(Arc::new(SolvedPlan::solve(
            self.program,
            self.fns,
            self.schema,
            &self.hints,
            self.options,
            self.externals,
            self.colors,
        )?))
    }
}

/// The first modulus in `f` (through `Compose`) that `IndexFn::eval`, which
/// reduces in `i64`, cannot divide by.
fn unusable_modulus(f: &IndexFn) -> Option<u64> {
    match f {
        IndexFn::AffineMod { modulus, .. } if !(1..=i64::MAX as u64).contains(modulus) => {
            Some(*modulus)
        }
        IndexFn::Compose(first, second) => {
            unusable_modulus(first).or_else(|| unusable_modulus(second))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Run, RunOutcome};
    use partir_core::placement::PlacementPolicy;
    use partir_dpl::func::{FnDef, IndexFn};
    use partir_dpl::region::{FieldId, FieldKind, Store};
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};
    use partir_ir::interp::run_program_seq;
    use partir_obs::profile::DistProfile;
    use partir_obs::ObsConfig;
    use partir_runtime::dist::LegalityMode;
    use partir_runtime::fault::{CheckpointPolicy, FaultPlan, RankCrash};
    use std::time::Duration;

    /// Figure 7's scatter: `for i in R: S[g(i)] += R[i]`.
    fn scatter() -> (Vec<Loop>, FnTable, Schema, Store) {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 96);
        let s = schema.add_region("S", 96);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g =
            fns.add("g", r, s, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 3, modulus: 96 }));
        let mut b = LoopBuilder::new("scatter", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let gi = b.idx_apply(g, i);
        b.val_reduce(s, sx, gi, ReduceOp::Add, VExpr::var(v));
        let mut store = Store::new(schema.clone());
        for i in 0..96 {
            store.f64s_mut(rx)[i] = (i as f64).cos() * 2.5;
            store.f64s_mut(sx)[i] = i as f64 * 0.125;
        }
        (vec![b.finish()], fns, schema, store)
    }

    /// The scatter solved at `colors`, its seed store, and the sequential
    /// result every run must reproduce.
    fn solved_scatter(colors: usize) -> (Plan, Store, Store) {
        let (program, fns, schema, seed) = scatter();
        let mut seq = seed.clone();
        run_program_seq(&program, &mut seq, &fns);
        let plan = Partir::new(program, fns, schema)
            .colors(colors)
            .solve()
            .expect("scatter is parallelizable");
        (plan, seed, seq)
    }

    /// Runs `run` on a copy of `seed` and checks the result against `seq`.
    fn run_identical(run: &Run, plan: &Plan, seed: &Store, seq: &Store) -> RunOutcome {
        let mut store = seed.clone();
        let outcome = run.run(plan, &mut store).expect("run succeeds");
        for fi in 0..plan.schema().num_fields() {
            let f = FieldId(fi as u32);
            assert_eq!(seq.field_data(f), store.field_data(f), "field {fi} differs under {run:?}");
        }
        outcome
    }

    fn invalid(run: Run, plan: &Plan, seed: &Store) {
        let err = run.run(plan, &mut seed.clone()).unwrap_err();
        assert_eq!(err.error_code(), "session.invalid", "{run:?}");
    }

    fn crash(rank: usize, seed: u64) -> FaultPlan {
        FaultPlan {
            crash: Some(RankCrash { rank, epoch: 0, silent: false }),
            ..FaultPlan::quiescent(seed)
        }
    }

    #[test]
    fn one_plan_runs_on_both_backends() {
        let (plan, seed, seq) = solved_scatter(6);
        for backend in [Backend::Threads(3), Backend::Ranks(3)] {
            let outcome = run_identical(&Run::new().backend(backend), &plan, &seed, &seq);
            assert!(outcome.report.tasks_run() > 0);
        }
    }

    /// A run spawns at most one worker per color, so any width completes.
    #[test]
    fn a_run_wider_than_its_colors_spawns_one_worker_per_color() {
        let (plan, seed, seq) = solved_scatter(4);
        let outcome =
            run_identical(&Run::new().backend(Backend::Threads(usize::MAX)), &plan, &seed, &seq);
        assert_eq!(outcome.report.tasks_run(), 4 * plan.program().len() as u64);
    }

    #[test]
    fn plan_exposes_the_solution() {
        let (program, fns, schema, _) = scatter();
        let plan = Partir::new(program, fns, schema).solve().unwrap();
        assert_eq!(plan.colors(), 4, "the default color count");
        assert!(!plan.render_dpl().is_empty());
        assert!(plan.parallel_plan().num_partitions() > 0);
    }

    #[test]
    fn solve_yields_a_shareable_plan_that_runs_on_both_backends() {
        let (plan, seed, seq) = solved_scatter(6);
        assert!(!plan.cache_hit());
        assert!(!plan.degraded());

        // One solve, two backends, concurrent runs over clones.
        let handles: Vec<_> =
            [Run::new().backend(Backend::Threads(3)), Run::new().backend(Backend::Ranks(3))]
                .into_iter()
                .map(|run| {
                    let (plan, seed, seq) = (plan.clone(), seed.clone(), seq.clone());
                    std::thread::spawn(move || {
                        let outcome = run_identical(&run, &plan, &seed, &seq);
                        assert!(outcome.report.tasks_run() > 0);
                    })
                })
                .collect();
        for h in handles {
            h.join().expect("no panic");
        }
    }

    #[test]
    fn plan_cache_hits_share_the_solved_artifact() {
        let (program, fns, schema, _) = scatter();
        let cache = PlanCache::default();
        let cold = Partir::new(program.clone(), fns.clone(), schema.clone())
            .colors(6)
            .cache(&cache)
            .solve()
            .unwrap();
        assert!(!cold.cache_hit());
        let warm = Partir::new(program, fns, schema).colors(6).cache(&cache).solve().unwrap();
        assert!(warm.cache_hit());
        assert!(Arc::ptr_eq(cold.solved(), warm.solved()), "hit shares the artifact");
        assert_eq!(cold.fingerprint(), warm.fingerprint());
        let stats = cache.stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// Exactly 2^64 ns, about 585 years: a key holding a deadline in 64 bits
    /// of nanoseconds would take it for zero.
    const FAR: Duration = Duration::new(18_446_744_073, 709_551_616);

    fn deadline(d: Duration) -> SolveBudget {
        SolveBudget { deadline: Some(d), ..SolveBudget::unlimited() }
    }

    #[test]
    fn deadlines_2_pow_64_ns_apart_key_apart() {
        let (program, fns, schema, _) = scatter();
        let key = |d| {
            let opts = Options { solve_budget: deadline(d), ..Options::default() };
            solve_fingerprint(&program, &fns, &schema, &Hints::new(), &opts, &ExtBindings::new(), 4)
        };
        assert_ne!(key(FAR), key(Duration::ZERO));
    }

    /// A zero deadline degrades a solve at its first node, and a degraded
    /// plan is never cached: such a request is not served the plan a far
    /// deadline solved.
    #[test]
    fn a_zero_deadline_is_not_served_a_far_deadlines_plan() {
        let (program, fns, schema, _) = scatter();
        let cache = PlanCache::default();
        let solve = |d| {
            Partir::new(program.clone(), fns.clone(), schema.clone())
                .budget(deadline(d))
                .cache(&cache)
                .solve()
                .unwrap()
        };
        let far = solve(FAR);
        assert!(!far.cache_hit() && !far.degraded());
        let zero = solve(Duration::ZERO);
        assert!(!zero.cache_hit(), "a zero deadline is another key");
        assert!(zero.degraded(), "a cold solve under a zero deadline degrades");
    }

    #[test]
    fn run_side_settings_do_not_perturb_the_cache_key() {
        let (program, fns, schema, seed) = scatter();
        let mut seq = seed.clone();
        run_program_seq(&program, &mut seq, &fns);
        let cache = PlanCache::default();
        // Different backend, legality, chaos — one solve serves them all.
        let chaos = FaultPlan { chaos: true, ..FaultPlan::quiescent(7) };
        let runs = [
            Run::new().backend(Backend::Threads(3)),
            Run::new().backend(Backend::Ranks(2)).check_legality(false).fault(chaos),
            Run::new().backend(Backend::Ranks(3)).legality_mode(LegalityMode::Element),
        ];
        for run in &runs {
            let plan = Partir::new(program.clone(), fns.clone(), schema.clone())
                .colors(6)
                .cache(&cache)
                .solve()
                .unwrap();
            run_identical(run, &plan, &seed, &seq);
        }
        let stats = cache.stats().unwrap();
        assert_eq!(
            (stats.hits, stats.misses),
            (2, 1),
            "run-side knobs must not fragment the cache"
        );
    }

    #[test]
    fn invalid_configurations_are_session_errors() {
        let (program, fns, schema, seed) = scatter();
        let no_colors = Partir::new(program.clone(), fns.clone(), schema.clone()).colors(0).solve();
        assert_eq!(no_colors.unwrap_err().error_code(), "session.invalid");

        let plan = Partir::new(program, fns, schema).colors(2).solve().unwrap();
        invalid(Run::new().backend(Backend::Threads(0)), &plan, &seed);
        // Fewer colors than ranks.
        invalid(Run::new().backend(Backend::Ranks(4)), &plan, &seed);
    }

    /// A plan is invalid exactly where it *requests* a fault the backend
    /// cannot inject; the other backend-specific settings likewise.
    #[test]
    fn settings_a_backend_cannot_honour_are_session_errors() {
        let (plan, seed, seq) = solved_scatter(4);
        let quiet = FaultPlan::quiescent(7);
        let threads = || Run::new().backend(Backend::Threads(2));
        let ranks = || Run::new().backend(Backend::Ranks(2));
        invalid(threads().fault(FaultPlan { drop_rate: 0.1, ..quiet }), &plan, &seed);
        invalid(threads().fault(FaultPlan { dup_rate: 0.1, ..quiet }), &plan, &seed);
        invalid(threads().fault(crash(0, 1)), &plan, &seed);
        invalid(threads().checkpoint(CheckpointPolicy::every(1)), &plan, &seed);
        invalid(threads().fault(FaultPlan { chaos: true, ..quiet }), &plan, &seed);
        // A crash of a rank the backend does not have.
        invalid(ranks().fault(crash(5, 1)), &plan, &seed);
        // A plan that requests nothing is valid on both, and injects nothing.
        let on_threads = run_identical(&threads().fault(quiet), &plan, &seed, &seq);
        assert_eq!(on_threads.report.as_threads().unwrap().faults_injected, 0);
        let on_ranks = run_identical(&ranks().fault(quiet), &plan, &seed, &seq);
        let dist = on_ranks.report.as_ranks().unwrap();
        assert_eq!((dist.retransmits, dist.duplicates, dist.recoveries), (0, 0, 0));
    }

    /// A crash at or past the program's last loop would never fire, and the
    /// run would report no recovery: refused. One in the last loop fires
    /// and recovers.
    #[test]
    fn a_crash_past_the_last_loop_is_a_session_error() {
        let (plan, seed, seq) = solved_scatter(4);
        let loops = plan.program().len() as u64;
        let at = |epoch| FaultPlan {
            crash: Some(RankCrash { rank: 1, epoch, silent: false }),
            ..FaultPlan::quiescent(3)
        };
        let ranks = || Run::new().backend(Backend::Ranks(2));
        invalid(ranks().fault(at(loops)), &plan, &seed);
        let last = run_identical(&ranks().fault(at(loops - 1)), &plan, &seed, &seq);
        assert_eq!(last.report.as_ranks().unwrap().recoveries, 1);
    }

    /// A checkpoint interval of 0 epochs (a struct literal, which skips the
    /// clamp in `CheckpointPolicy::every`) would never be due: refused,
    /// where `every(0)` clamps to every epoch and checkpoints.
    #[test]
    fn a_zero_checkpoint_interval_is_a_session_error() {
        let (plan, seed, seq) = solved_scatter(4);
        let ranks = || Run::new().backend(Backend::Ranks(2));
        invalid(ranks().checkpoint(CheckpointPolicy { interval_epochs: 0 }), &plan, &seed);
        let clamped = ranks().checkpoint(CheckpointPolicy::every(0));
        let dist = *run_identical(&clamped, &plan, &seed, &seq).report.stats();
        assert!(dist.checkpoints > 0, "every(0) checkpoints every epoch: {dist:?}");
    }

    /// A rate outside `[0, 1]` is refused on both backends, NaN included
    /// (every comparison with it is false, so unchecked it would kill
    /// every attempt while `attacks_tasks` said it attacked nothing).
    #[test]
    fn fault_rates_outside_the_unit_interval_are_session_errors() {
        let (plan, seed, _) = solved_scatter(4);
        let quiet = FaultPlan::quiescent(7);
        for rate in [f64::NAN, -0.1, 1.5] {
            let plans = [
                FaultPlan { task_failure_rate: rate, ..quiet },
                FaultPlan { drop_rate: rate, ..quiet },
                FaultPlan { dup_rate: rate, ..quiet },
            ];
            for fault in plans {
                for backend in [Backend::Threads(2), Backend::Ranks(2)] {
                    invalid(Run::new().backend(backend).fault(fault), &plan, &seed);
                }
            }
        }
    }

    /// Task faults are injected on every rank: a sharded run recovers every
    /// killed attempt bit-identically.
    #[test]
    fn task_faults_flow_through_the_ranks_backend() {
        let (plan, seed, seq) = solved_scatter(4);
        let run = Run::new()
            .backend(Backend::Ranks(2))
            .fault(FaultPlan { task_failure_rate: 0.5, ..FaultPlan::quiescent(11) });
        let dist = *run_identical(&run, &plan, &seed, &seq).report.stats();
        assert!(dist.faults_injected > 0 && dist.task_retries > 0, "{dist:?}");
    }

    #[test]
    fn rank_crash_recovers_bit_identically_through_the_builder() {
        let (plan, seed, seq) = solved_scatter(6);
        let run = Run::new()
            .backend(Backend::Ranks(3))
            .fault(crash(1, 9))
            .checkpoint(CheckpointPolicy::every(1));
        let outcome = run_identical(&run, &plan, &seed, &seq);
        let dist = outcome.report.as_ranks().expect("ranks report");
        assert_eq!(dist.recoveries, 1);
        assert!(dist.bytes_migrated > 0, "the lost rank's shard migrated");
    }

    #[test]
    fn timeline_and_volume_flow_through_the_ranks_backend() {
        let (plan, seed, seq) = solved_scatter(4);
        let run = Run::new().backend(Backend::Ranks(4)).obs(ObsConfig {
            timeline: true,
            strict_volume: true,
            ..ObsConfig::disabled()
        });
        // The run succeeding means strict volume accounting held.
        let outcome = run_identical(&run, &plan, &seed, &seq);

        let trace = outcome.trace.expect("timeline was collected");
        trace.validate().expect("well-formed timeline");
        assert!(outcome.volume.expect("volume accounting present").is_clean());
        let profile = DistProfile::from_trace(&trace);
        assert!((profile.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_placement_runs_bit_identically_and_reports() {
        let (plan, seed, seq) = solved_scatter(6);
        // A deliberately scrambled (but valid) owner mapping: results must
        // not depend on which rank owns which color.
        let run = Run::new()
            .backend(Backend::Ranks(3))
            .placement(PlacementPolicy::Explicit(vec![2, 0, 1, 1, 0, 2]));
        let outcome = run_identical(&run, &plan, &seed, &seq);
        assert_eq!(outcome.placement.expect("placement report present").policy, "explicit");
    }

    #[test]
    fn placement_misconfigurations_are_session_errors() {
        let (plan, seed, _) = solved_scatter(4);
        let on_threads =
            Run::new().backend(Backend::Threads(2)).placement(PlacementPolicy::CostDriven);
        invalid(on_threads, &plan, &seed);
    }

    #[test]
    fn bad_explicit_assignments_surface_as_exchange_errors() {
        let (plan, seed, _) = solved_scatter(6);
        // Too short (4 entries for 6 colors), then rank 7 on a 3-rank
        // backend: shape defects carry the exchange layer's own code.
        for assignment in [vec![0, 1, 2, 0], vec![0, 1, 2, 7, 1, 0]] {
            let run = Run::new()
                .backend(Backend::Ranks(3))
                .placement(PlacementPolicy::Explicit(assignment));
            let err = run.run(&plan, &mut seed.clone()).unwrap_err();
            assert_eq!(err.error_code(), "exchange.bad_assignment");
        }
    }

    #[test]
    fn cost_driven_placement_stays_bit_identical_through_recovery() {
        let (plan, seed, seq) = solved_scatter(6);
        let run = Run::new()
            .backend(Backend::Ranks(3))
            .placement(PlacementPolicy::CostDriven)
            .fault(crash(2, 13))
            .checkpoint(CheckpointPolicy::every(1));
        let outcome = run_identical(&run, &plan, &seed, &seq);
        assert_eq!(outcome.report.as_ranks().unwrap().recoveries, 1);
        let rep = outcome.placement.expect("placement report present");
        assert_eq!(rep.policy, "cost");
        assert!(rep.predicted_bytes <= rep.predicted_block_bytes, "never worse than block");
    }

    #[test]
    fn fault_plan_flows_through_the_threads_backend() {
        let (plan, seed, seq) = solved_scatter(4);
        let run = Run::new()
            .backend(Backend::Threads(2))
            .fault(FaultPlan { task_failure_rate: 1.0, ..FaultPlan::quiescent(11) });
        let outcome = run_identical(&run, &plan, &seed, &seq);
        let exec = outcome.report.as_threads().expect("threads report");
        assert!(exec.faults_injected > 0);
    }
}
