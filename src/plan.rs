//! The execution API: a shareable [`Plan`] plus a per-run [`Run`]
//! configuration.
//!
//! [`Partir::solve`](crate::Partir::solve) produces a [`Plan`] — a cheap,
//! `Send + Sync`, clone-shareable handle over an immutable
//! [`SolvedPlan`] (the cached solve artifact). Everything mutable about
//! execution — backend, legality, faults, observability — lives in
//! [`Run`], so one solved plan can serve many concurrent runs with
//! different configurations:
//!
//! ```text
//! let plan = Partir::new(program, fns, schema).colors(8).solve()?;
//! plan.run(&mut store)?;                                  // defaults
//! Run::new().backend(Backend::Ranks(4)).run(&plan, &mut store)?;
//! ```
//!
//! [`Run::run`] is the only way to execute; everything a run produced
//! (report, timeline, volume accounting, placement report) comes back in
//! its [`RunOutcome`].

use crate::error::Error;
use partir_core::cache::SolvedPlan;
use partir_core::fingerprint::Fingerprint;
use partir_core::pipeline::ParallelPlan;
use partir_core::placement::{PlacementConfig, PlacementPolicy, PlacementReport};
use partir_dpl::func::FnTable;
use partir_dpl::partition::Partition;
use partir_dpl::region::{Schema, Store};
use partir_ir::ast::Loop;
use partir_obs::json::Json;
use partir_obs::trace::Trace;
use partir_obs::ObsConfig;
use partir_runtime::dist::{
    execute_ranks, DistOptions, DistReport, Layout, LegalityMode, VolumeAccounting,
};
use partir_runtime::fault::{CheckpointPolicy, FaultPlan};
use std::sync::Arc;

/// Where a run executes. Both backends are the one SPMD driver
/// (`partir_runtime::dist::execute_ranks`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One rank in place on the caller's store, its colors run by the
    /// given number of worker threads (at most one per color).
    Threads(usize),
    /// The given number of ranks, each holding only its shard plus
    /// constraint-derived ghosts, with one worker each.
    Ranks(usize),
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Threads(4)
    }
}

/// A solved partitioning, shareable across threads and runs.
///
/// `Plan` is a handle over an `Arc<SolvedPlan>`: cloning is pointer-sized,
/// and every clone shares the interior memos (evaluated partitions,
/// exchange plans, placements, legality proofs), so concurrent runs against
/// the same store structure do the expensive derivations once.
#[derive(Clone, Debug)]
pub struct Plan {
    solved: Arc<SolvedPlan>,
    cache_hit: bool,
}

impl Plan {
    pub(crate) fn from_solved(solved: Arc<SolvedPlan>, cache_hit: bool) -> Plan {
        Plan { solved, cache_hit }
    }

    /// The underlying immutable solve artifact.
    pub fn solved(&self) -> &Arc<SolvedPlan> {
        &self.solved
    }

    /// The structural fingerprint this plan was solved (and cached) under.
    pub fn fingerprint(&self) -> Fingerprint {
        self.solved.fingerprint()
    }

    /// Whether [`Partir::solve`](crate::Partir::solve) satisfied this plan
    /// from the configured [`PlanCache`](partir_core::cache::PlanCache)
    /// instead of running the pipeline.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// The solved plan (partitions, per-loop strategies, timings).
    pub fn parallel_plan(&self) -> &ParallelPlan {
        self.solved.plan()
    }

    pub fn program(&self) -> &[Loop] {
        self.solved.program()
    }

    pub fn fns(&self) -> &FnTable {
        self.solved.fns()
    }

    pub fn schema(&self) -> &Schema {
        self.solved.schema()
    }

    /// The color (task) count partitions are evaluated at.
    pub fn colors(&self) -> usize {
        self.solved.n_colors()
    }

    /// True when the solver's budget ran out and the pipeline degraded to
    /// the trivial solution.
    pub fn degraded(&self) -> bool {
        self.solved.degraded()
    }

    /// Renders the synthesized DPL program.
    pub fn render_dpl(&self) -> String {
        self.solved.plan().render_dpl(self.solved.fns())
    }

    /// Renders the solver/unification explanation trace.
    pub fn render_explanation(&self) -> String {
        self.solved.plan().render_explanation(self.solved.fns())
    }

    /// Evaluated partitions for `store`, memoized per index structure
    /// (pointer/range fields): stores differing only in f64 payloads share
    /// one evaluation.
    pub fn evaluate(&self, store: &Store) -> Arc<Vec<Arc<Partition>>> {
        self.solved.parts_for(store)
    }

    /// Executes with the default [`Run`] configuration (four host
    /// threads). Configure a run explicitly via [`Run::run`].
    pub fn run(&self, store: &mut Store) -> Result<RunOutcome, Error> {
        Run::new().run(self, store)
    }
}

/// Per-run execution configuration: backend, legality, faults,
/// observability. Everything here can differ between runs of one shared
/// [`Plan`], and it is *all* of a run's configuration: [`Run::run`] is a
/// function of `(Run, Plan, Store)` and reads no environment variable. A
/// setting left unset is the constant default its setter documents.
#[derive(Clone, Debug, Default)]
pub struct Run {
    backend: Backend,
    legality: LegalityMode,
    obs: ObsConfig,
    fault: Option<FaultPlan>,
    checkpoint: Option<CheckpointPolicy>,
    placement: PlacementConfig,
}

impl Run {
    pub fn new() -> Run {
        Run::default()
    }

    /// Execution backend (default: four host threads).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Validate accesses against their partition subregions. `true`
    /// restores the mode default; `false` disables legality work entirely.
    pub fn check_legality(mut self, on: bool) -> Self {
        self.legality = if on { LegalityMode::default() } else { LegalityMode::Off };
        self
    }

    /// Explicit legality mode (see [`LegalityMode`]; default: `Element`
    /// in debug builds, `Plan` in release builds).
    pub fn legality_mode(mut self, mode: LegalityMode) -> Self {
        self.legality = mode;
        self
    }

    /// Observability for this run (default: [`ObsConfig::disabled`]).
    /// `trace` installs the process-wide stderr sink unless one is
    /// installed already; `timeline` and `strict_volume` apply to this
    /// run, on either backend.
    pub fn obs(mut self, config: ObsConfig) -> Self {
        self.obs = config;
        self
    }

    /// Deterministic fault injection (default: none). The plan's
    /// task-attempt faults are injected on both backends, its fabric
    /// faults (drops, duplication, delivery-order chaos) and rank crash by
    /// the rank backend only; a plan that requests a fault the chosen
    /// backend cannot inject, a rate outside `[0, 1]`, or a crash on a
    /// rank or at an epoch the run does not have, is `session.invalid`,
    /// and one that requests nothing ([`FaultPlan::quiescent`]) is valid
    /// on both. A killed task attempt is retried at once, at most
    /// [`MAX_TASK_RETRIES`](partir_runtime::fault::MAX_TASK_RETRIES)
    /// times, and then re-run sequentially.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Epoch-interval checkpointing of each rank's owned shard (rank
    /// backend only; default: none).
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Owner-mapping policy for the rank backend (default: `Block`).
    pub fn placement(mut self, policy: PlacementPolicy) -> Self {
        self.placement.policy = policy;
        self
    }

    /// The same policy, as the [`PlacementConfig`] the core API takes
    /// (default: [`PlacementConfig::default`]).
    pub fn placement_config(mut self, config: PlacementConfig) -> Self {
        self.placement = config;
        self
    }

    /// Checks the configuration against the backend it names and the plan
    /// it is to run (its color and loop counts): every setting the run
    /// cannot honour is an error, never silently ignored.
    fn validate(&self, plan: &Plan) -> Result<(), Error> {
        let (n_colors, n_loops) = (plan.colors(), plan.program().len() as u64);
        let invalid = |m: String| Err(Error::Session(m));
        let fault = self.fault.unwrap_or(FaultPlan::quiescent(0));
        let rates = [
            ("task_failure_rate", fault.task_failure_rate),
            ("drop_rate", fault.drop_rate),
            ("dup_rate", fault.dup_rate),
        ];
        if let Some((name, rate)) = rates.into_iter().find(|(_, r)| !(0.0..=1.0).contains(r)) {
            return invalid(format!("fault plan {name} is {rate}, outside [0, 1]"));
        }
        // `CheckpointPolicy::every` clamps; a struct literal does not, and
        // an interval of 0 epochs would never be due.
        if self.checkpoint.is_some_and(|c| c.interval_epochs == 0) {
            return invalid("checkpoint interval is 0 epochs; it must be at least 1".into());
        }
        match self.backend {
            Backend::Threads(0) | Backend::Ranks(0) => {
                return invalid(format!("backend {:?} has zero width", self.backend));
            }
            Backend::Ranks(r) => {
                if n_colors < r {
                    return invalid(format!(
                        "rank backend needs colors >= ranks (got {n_colors} colors for {r} ranks)"
                    ));
                }
                // A crash the run never reaches would never fire.
                if let Some(c) = fault.crash.filter(|c| c.rank >= r || c.epoch >= n_loops) {
                    return invalid(format!(
                        "fault plan crashes rank {} at epoch {}, but the run has ranks 0..{r} \
                         and epochs 0..{n_loops}",
                        c.rank, c.epoch
                    ));
                }
            }
            Backend::Threads(_) => {
                if fault.attacks_ranks() {
                    return invalid(
                        "message drops, duplication, delivery chaos and rank crashes are \
                         injected by the Ranks backend only"
                            .into(),
                    );
                }
                if self.checkpoint.is_some() {
                    return invalid("checkpointing is only supported on the Ranks backend".into());
                }
                // The threads backend has no owner mapping.
                if self.placement.policy != PlacementPolicy::Block {
                    return invalid("placement policies apply to the Ranks backend only".into());
                }
            }
        }
        // An explicit assignment's shape (length == colors, ranks in
        // range) is deliberately NOT validated here: it flows into
        // `derive_exchange_with`, whose `ExchangeError::BadAssignment`
        // carries the precise defect — the builder path surfaces the same
        // typed error as the core API.
        Ok(())
    }

    /// Validates this configuration against `plan` and executes, mutating
    /// `store` in place. Results are bit-identical to the sequential
    /// interpreter on both backends, for any backend width, placement, or
    /// fault plan. The outcome is a function of this value, `plan` and
    /// `store` alone: no environment variable is read, and a setting the
    /// chosen backend cannot honour is `session.invalid`, never silently
    /// ignored.
    pub fn run(&self, plan: &Plan, store: &mut Store) -> Result<RunOutcome, Error> {
        self.validate(plan)?;
        self.obs.apply();
        // The plan's partitions, footprints and lowered loops are sized and
        // typed by the schema it was solved over.
        if !plan.schema().same_shape(store.schema()) {
            return Err(Error::Session(
                "store schema does not match the plan's schema (region sizes, or a field's \
                 region or kind)"
                    .into(),
            ));
        }
        let (artifacts, workers) = match self.backend {
            Backend::Threads(workers) => (None, workers),
            // The memoized distributed artifacts: the placement and its
            // exchange plan, which carries its legality proof. A memo hit
            // skips exchange derivation, placement and re-proving; the
            // partitions are memoized beside them.
            Backend::Ranks(n_ranks) => {
                (Some(plan.solved().dist_artifacts(store, n_ranks, &self.placement)?), 1)
            }
        };
        let parts = plan.solved().parts_for(store);
        let layout = artifacts
            .as_ref()
            .map_or(Layout::InPlace { workers }, |a| Layout::Sharded(&a.placement.xplan));
        let opts = DistOptions {
            legality: self.legality,
            collect_timeline: self.obs.timeline,
            strict_volume: self.obs.strict_volume,
            fault: self.fault,
            checkpoint: self.checkpoint,
        };
        let outcome = execute_ranks(
            plan.program(),
            plan.parallel_plan(),
            &parts,
            layout,
            store,
            plan.fns(),
            &opts,
        )?;
        let report = match self.backend {
            Backend::Threads(_) => RunReport::Threads(outcome.report),
            Backend::Ranks(_) => RunReport::Ranks(outcome.report),
        };
        Ok(RunOutcome {
            report,
            trace: outcome.trace,
            volume: Some(outcome.volume),
            placement: artifacts.map(|a| a.placement.report.clone()),
        })
    }
}

/// Everything one run produced: the report, the volume accounting, and
/// the optional timeline and placement report.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub report: RunReport,
    /// Per-rank timelines (one rank on the threads backend), present when
    /// [`ObsConfig::timeline`] is on.
    pub trace: Option<Trace>,
    /// Predicted-vs-measured communication accounting, present on both
    /// backends (with no pairs on the threads one: one rank sends nothing).
    pub volume: Option<VolumeAccounting>,
    /// How colors mapped onto ranks (rank backend).
    pub placement: Option<PlacementReport>,
}

/// Execution statistics from one run, tagged with the backend that ran it.
#[derive(Clone, Copy, Debug)]
pub enum RunReport {
    Threads(DistReport),
    Ranks(DistReport),
}

impl RunReport {
    /// The statistics, whichever backend ran.
    pub fn stats(&self) -> &DistReport {
        match self {
            RunReport::Threads(r) | RunReport::Ranks(r) => r,
        }
    }

    /// Tasks (colors) executed, on either backend.
    pub fn tasks_run(&self) -> u64 {
        self.stats().tasks_run
    }

    pub fn as_threads(&self) -> Option<&DistReport> {
        match self {
            RunReport::Threads(r) => Some(r),
            RunReport::Ranks(_) => None,
        }
    }

    pub fn as_ranks(&self) -> Option<&DistReport> {
        match self {
            RunReport::Ranks(r) => Some(r),
            RunReport::Threads(_) => None,
        }
    }

    /// Machine-readable form for `partir-report-v1` envelopes, tagged with
    /// the backend it came from.
    pub fn to_json(&self) -> Json {
        let backend = if self.as_threads().is_some() { "threads" } else { "ranks" };
        self.stats().to_json().with("backend", backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Plan>();
        assert_send_sync::<Run>();
        assert!(std::mem::size_of::<Plan>() <= 2 * std::mem::size_of::<usize>());
    }
}
