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
    execute_ranks, CheckpointPolicy, DistFaultPlan, DistOptions, DistReport, LegalityMode,
    VolumeAccounting,
};
use partir_runtime::exec::{execute_program, ExecOptions, ExecReport};
use partir_runtime::fault::{FaultPlan, RetryPolicy};
use std::sync::Arc;

/// Which executor a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The shared-memory threaded executor with the given worker count.
    Threads(usize),
    /// The SPMD rank-sharded executor with the given rank count: each rank
    /// holds only its shard plus constraint-derived ghosts.
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
/// [`Plan`].
#[derive(Clone, Debug, Default)]
pub struct Run {
    backend: Backend,
    legality: LegalityMode,
    chaos_seed: Option<u64>,
    obs: Option<ObsConfig>,
    fault: Option<FaultPlan>,
    dist_fault: Option<DistFaultPlan>,
    checkpoint: Option<CheckpointPolicy>,
    placement: Option<PlacementConfig>,
    retry: RetryPolicy,
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

    /// Explicit legality mode (see [`LegalityMode`]).
    pub fn legality_mode(mut self, mode: LegalityMode) -> Self {
        self.legality = mode;
        self
    }

    /// Deterministic delivery-order chaos for the rank backend's
    /// mailboxes.
    pub fn chaos_seed(mut self, seed: u64) -> Self {
        self.chaos_seed = Some(seed);
        self
    }

    /// Explicit observability configuration. When unset, the
    /// `PARTIR_TRACE` / `PARTIR_METRICS` environment defaults apply.
    pub fn obs(mut self, config: ObsConfig) -> Self {
        self.obs = Some(config);
        self
    }

    /// Deterministic fault injection (threads backend only).
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Deterministic fabric/rank fault injection (rank backend only).
    pub fn dist_fault(mut self, plan: DistFaultPlan) -> Self {
        self.dist_fault = Some(plan);
        self
    }

    /// Epoch-interval checkpointing of each rank's owned shard (rank
    /// backend only).
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Owner-mapping policy for the rank backend, keeping the current
    /// config's tuning knobs.
    pub fn placement(mut self, policy: PlacementPolicy) -> Self {
        let mut c = self.placement.take().unwrap_or_default();
        c.policy = policy;
        self.placement = Some(c);
        self
    }

    /// Full placement configuration.
    pub fn placement_config(mut self, config: PlacementConfig) -> Self {
        self.placement = Some(config);
        self
    }

    /// Recovery policy for failed task attempts (threads backend).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Checks the configuration against the backend it names and the color
    /// count of the plan it is to run.
    fn validate(&self, n_colors: usize) -> Result<(), Error> {
        let invalid = |m: String| Err(Error::Session(m));
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
                if self.fault.is_some() {
                    return invalid(
                        "task fault injection is only supported on the Threads backend; \
                         use dist_fault for the Ranks backend"
                            .into(),
                    );
                }
            }
            Backend::Threads(_) => {
                if self.dist_fault.is_some() {
                    return invalid(
                        "dist_fault injection is only supported on the Ranks backend; \
                         use fault for the Threads backend"
                            .into(),
                    );
                }
                if self.checkpoint.is_some() {
                    return invalid("checkpointing is only supported on the Ranks backend".into());
                }
                // The threads backend has no owner mapping; an explicitly
                // configured non-default placement would be silently dead.
                if self.placement.as_ref().is_some_and(|p| p.policy != PlacementPolicy::Block) {
                    return invalid("placement policies apply to the Ranks backend only".into());
                }
            }
        }
        // An explicit assignment's shape (length == colors, ranks in
        // range) is deliberately NOT validated here: it flows into
        // `derive_exchange_with`, whose `ExchangeError::BadAssignment`
        // carries the precise defect — the builder path surfaces the same
        // typed error as the core API.
        match &self.placement {
            Some(p) if !p.imbalance.is_finite() || p.imbalance < 1.0 => {
                invalid(format!("placement imbalance factor must be >= 1.0, got {}", p.imbalance))
            }
            _ => Ok(()),
        }
    }

    /// Validates this configuration against `plan` and executes, mutating
    /// `store` in place. Results are bit-identical to the sequential
    /// interpreter on both backends, for any backend width, placement, or
    /// chaos seed. Settings left unset take their `PARTIR_*` environment
    /// defaults, resolved per backend, so a threads `FaultPlan` never
    /// silently attaches to (and gets ignored by) a `Ranks` run, and vice
    /// versa.
    pub fn run(&self, plan: &Plan, store: &mut Store) -> Result<RunOutcome, Error> {
        self.validate(plan.colors())?;
        let obs = self.obs.unwrap_or_else(ObsConfig::from_env);
        obs.apply();
        let schema = plan.schema();
        if store.schema().num_fields() != schema.num_fields()
            || store.schema().num_regions() != schema.num_regions()
        {
            return Err(Error::Session("store schema does not match the plan's schema".into()));
        }
        match self.backend {
            Backend::Threads(n_threads) => {
                let parts = plan.solved().parts_for(store);
                let opts = ExecOptions {
                    n_threads,
                    check_legality: self.legality != LegalityMode::Off,
                    fault: self.fault.or_else(FaultPlan::from_env),
                    retry: self.retry,
                };
                let report = execute_program(
                    plan.program(),
                    plan.parallel_plan(),
                    &parts,
                    store,
                    plan.fns(),
                    &opts,
                )?;
                Ok(RunOutcome {
                    report: RunReport::Threads(report),
                    trace: None,
                    volume: None,
                    placement: None,
                })
            }
            Backend::Ranks(n_ranks) => {
                let fault = self.dist_fault.or_else(DistFaultPlan::from_env);
                if let Some(crash) = fault.and_then(|f| f.crash).filter(|c| c.rank >= n_ranks) {
                    return Err(Error::Session(format!(
                        "dist_fault crashes rank {} but the backend has only {n_ranks} ranks",
                        crash.rank
                    )));
                }
                let placement =
                    self.placement.clone().or_else(PlacementConfig::from_env).unwrap_or_default();
                // The memoized distributed artifacts: evaluated partitions,
                // owner assignment, exchange plan, and the legality proof.
                // A memo hit skips evaluation, exchange derivation,
                // placement, and (via `preproved`) re-proving.
                let artifacts = plan.solved().dist_artifacts(store, n_ranks, &placement)?;
                let opts = DistOptions {
                    legality: self.legality,
                    chaos_seed: self.chaos_seed,
                    collect_timeline: obs.timeline,
                    strict_volume: obs.strict_volume,
                    fault,
                    checkpoint: self.checkpoint.or_else(CheckpointPolicy::from_env),
                    placement,
                    preproved: artifacts.proof_facts,
                };
                let outcome = execute_ranks(
                    plan.program(),
                    plan.parallel_plan(),
                    &artifacts.parts,
                    &artifacts.placement.xplan,
                    store,
                    plan.fns(),
                    &opts,
                )?;
                Ok(RunOutcome {
                    report: RunReport::Ranks(outcome.report),
                    trace: outcome.trace,
                    volume: Some(outcome.volume),
                    placement: Some(artifacts.placement.report.clone()),
                })
            }
        }
    }
}

/// Everything one run produced: the backend report plus the optional
/// rank-backend artifacts (timeline, volume accounting, placement report).
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub report: RunReport,
    /// Per-rank timelines, present on the rank backend when
    /// [`ObsConfig::timeline`] is on.
    pub trace: Option<Trace>,
    /// Predicted-vs-measured communication accounting (rank backend).
    pub volume: Option<VolumeAccounting>,
    /// How colors mapped onto ranks (rank backend).
    pub placement: Option<PlacementReport>,
}

/// Backend-tagged execution statistics from one run.
#[derive(Clone, Copy, Debug)]
pub enum RunReport {
    Threads(ExecReport),
    Ranks(DistReport),
}

impl RunReport {
    /// Tasks (colors) executed, on either backend.
    pub fn tasks_run(&self) -> u64 {
        match self {
            RunReport::Threads(r) => r.tasks_run,
            RunReport::Ranks(r) => r.tasks_run,
        }
    }

    pub fn as_threads(&self) -> Option<&ExecReport> {
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
        match self {
            RunReport::Threads(r) => r.to_json().with("backend", "threads"),
            RunReport::Ranks(r) => r.to_json().with("backend", "ranks"),
        }
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
