//! The driver: SPMD execution over ranks, the only way a plan runs.
//!
//! Each rank owns the subregions assigned to it by the solved disjoint
//! partitions (an owner mapping of colors → ranks), holds only its shard
//! of every f64 region plus ghost cells, and exchanges data over
//! in-process channels — one mailbox pair per rank. Every send/recv set is
//! derived from the constraint solution by
//! [`partir_core::exchange::derive_exchange`] once per plan; execution
//! just moves the payloads. The threads backend is this driver at one
//! rank in place on the caller's store ([`Layout::InPlace`]), its colors
//! run by several workers.
//!
//! Results are bit-identical to the sequential interpreter: ghost copies
//! carry owner-fresh loop-start values so in-place floating-point effects
//! happen in the exact local order, owners install written-back values
//! verbatim (each element has exactly one in-place writer, by
//! disjointness), and partial reduction buffers merge in ascending global
//! color order.

mod colors;
mod mailbox;
mod rank;
mod store;

pub use store::RankStore;

use crate::dist::colors::{Effects, RankData, TaskFaults};
use crate::dist::mailbox::build_fabric;
use crate::dist::rank::{OwnedShards, RunCx};
use crate::fault::{CheckpointPolicy, FaultPlan};
use crate::shared::SharedStore;
use crate::task::{panic_message, plan_loops, LegalityViolation, LoopSetup, PlanError};
use parking_lot::Mutex;
use partir_core::exchange::{
    access_sets, prove_plan_legality, ExchangeError, ExchangePlan, Footprint, PlanLegalityError,
};
use partir_core::pipeline::ParallelPlan;
use partir_core::placement::{evacuate_placement, CommGraph};
use partir_dpl::func::FnTable;
use partir_dpl::partition::Partition;
use partir_dpl::region::{Schema, Store};
use partir_ir::ast::Loop;
use partir_obs::json::Json;
use partir_obs::trace::{RankTracer, SpanKind, Trace};
use std::borrow::Cow;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Epoch deadline armed on every mailbox when the fault plan can crash a
/// rank: a receive that makes no progress for this long declares the first
/// still-awaited source lost. Only silent crashes need it (loud crashes
/// broadcast notices), but it is a harmless backstop either way — epochs
/// complete in microseconds-to-milliseconds, so a healthy peer never
/// comes close.
const EPOCH_DEADLINE: Duration = Duration::from_secs(2);

/// How access legality (`accessed ⊆ owned ∪ ghosts`) is established. A
/// run in place has no footprint to prove against: every mode but `Off`
/// checks every access there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LegalityMode {
    /// Prove containment once per plan by interval set-containment over
    /// the exchange plan's footprints ([`prove_plan_legality`]) — zero
    /// per-element work on the hot path. The release-mode default.
    Plan,
    /// Check every access against its partition subregion at runtime, on
    /// top of the plan proof — the debug-mode default, and the negative
    /// test's way of catching a corrupted plan element-by-element.
    Element,
    /// No legality work at all (residency faults still surface as
    /// [`DistError::Legality`] via the store's `owned ∪ ghosts` lookup).
    Off,
}

impl Default for LegalityMode {
    fn default() -> Self {
        if cfg!(debug_assertions) {
            LegalityMode::Element
        } else {
            LegalityMode::Plan
        }
    }
}

/// Run configuration. The rank and worker counts are not part of it: they
/// are the [`Layout`]'s.
#[derive(Clone, Debug, Default)]
pub struct DistOptions {
    /// How access legality is established (see [`LegalityMode`]).
    pub legality: LegalityMode,
    /// Record a per-rank timeline span for every epoch phase (pack, send,
    /// recv-wait, unpack, interior/halo compute, merge), returned as
    /// [`DistOutcome::trace`] for Chrome-trace export and critical-path
    /// analysis. Off by default; when off the per-peer span clocks are
    /// never read.
    pub collect_timeline: bool,
    /// Fail the run with [`DistError::VolumeMismatch`] when the bytes any
    /// rank pair actually moved disagree with what the exchange plan
    /// predicts. A mismatch means the runtime and the constraint solution
    /// disagree about the communication footprint — a correctness smell,
    /// not a perf one.
    pub strict_volume: bool,
    /// Deterministic fault injection: task attempts on every rank; message
    /// drops, duplication, delivery-order chaos and a whole-rank crash on
    /// sharded ranks. On a sharded layout a plan also enables
    /// survivor-side recovery: a lost rank's colors are evacuated to the
    /// survivors, state restores from the last consistent checkpoint (or
    /// the pristine input), and the run resumes bit-identical to the
    /// sequential interpreter.
    pub fault: Option<FaultPlan>,
    /// Epoch-interval checkpointing of each rank's owned shard, the
    /// restore points recovery rolls back to. Without a policy, recovery
    /// restarts from epoch 0.
    pub checkpoint: Option<CheckpointPolicy>,
}

/// In-memory per-rank checkpoint store: snapshots of each rank's owned
/// shard, keyed by the epoch after which they were taken. Held by the
/// driver; ranks push into it at checkpoint boundaries, recovery restores
/// the newest epoch *every* spawned rank holds (the only globally
/// consistent cut — a laggard may not have reached the latest boundary
/// when its peer died).
pub(crate) struct CheckpointStore {
    slots: Mutex<Vec<Vec<(u64, OwnedShards)>>>,
}

impl CheckpointStore {
    fn new(n_ranks: usize) -> Self {
        CheckpointStore { slots: Mutex::new(vec![Vec::new(); n_ranks]) }
    }

    pub(crate) fn put(&self, rank: usize, epoch: u64, shards: OwnedShards) {
        self.slots.lock()[rank].push((epoch, shards));
    }

    /// The newest epoch for which every `spawned` rank holds a snapshot.
    fn consistent_epoch(&self, spawned: &[bool]) -> Option<u64> {
        let slots = self.slots.lock();
        let first = spawned.iter().position(|&a| a)?;
        let mut epochs: Vec<u64> = slots[first].iter().map(|&(e, _)| e).collect();
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        epochs.into_iter().find(|&e| {
            spawned.iter().enumerate().all(|(r, &a)| !a || slots[r].iter().any(|(ee, _)| *ee == e))
        })
    }

    /// Installs every rank's `epoch` snapshot into `store` under the
    /// exchange plan the snapshots were taken with.
    fn restore_into(&self, store: &mut Store, xplan: &ExchangePlan, epoch: u64) {
        let slots = self.slots.lock();
        for (r, list) in slots.iter().enumerate() {
            if let Some((_, shards)) = list.iter().find(|(e, _)| *e == epoch) {
                RankStore::install_owned(store, xplan, r, shards.clone());
            }
        }
    }

    /// Drops all snapshots — they were taken under an owner assignment
    /// that no longer exists once recovery re-shards.
    fn clear(&self) {
        for l in self.slots.lock().iter_mut() {
            l.clear();
        }
    }
}

/// Declares the run report: `u64` counters, each summed over tasks and
/// ranks by `add` and named in `to_json` as it is declared.
macro_rules! counters {
    ($(#[$doc:meta])* pub struct $name:ident { $($(#[$fdoc:meta])* pub $field:ident,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default)]
        pub struct $name { $($(#[$fdoc])* pub $field: u64,)* }

        impl $name {
            /// Adds every counter of `o` (a task's, a rank's) to this one.
            pub(crate) fn add(&mut self, o: &$name) {
                $(self.$field += o.$field;)*
            }

            /// Machine-readable form, for the JSON report envelopes.
            pub fn to_json(&self) -> Json {
                Json::object()$(.with(stringify!($field), self.$field))*
                    .with("degraded", self.degraded())
            }
        }
    };
}

counters! {
    /// Execution statistics: compute, communication volume, and per-phase
    /// timings summed over ranks — of a whole run, and of each rank and
    /// task on the way there.
    pub struct DistReport {
        pub ranks,
        pub tasks_run,
        /// Coalesced messages actually sent (ghost + post).
        pub messages,
        /// Payload bytes actually sent between ranks.
        pub bytes_sent,
        /// Ghost elements resident across ranks (from the exchange plan).
        pub ghost_elements,
        pub ghost_fetch_bytes,
        pub write_back_bytes,
        pub partial_bytes,
        /// Bytes full replication would have moved — the baseline sharding
        /// beats (from the exchange plan).
        pub replication_bytes,
        /// Per-access legality checks performed (0 when checking is off).
        pub legality_checks,
        /// Containment facts established by the plan-level legality proof
        /// (one per `(loop, access, color)`), 0 when the proof did not run.
        pub plan_proved,
        /// Bytes of every planned reduction buffer set, summed over loops.
        pub buffer_bytes,
        /// Buffer bytes avoided by private sub-partitions (Section 5.2): the
        /// difference between full-subregion buffers and the shared remainder
        /// actually planned.
        pub private_buffer_bytes_saved,
        /// Guarded-reduction applications / skips (relaxed loops).
        pub guard_hits,
        pub guard_skips,
        /// Centered writes skipped because another color owns the iteration.
        pub write_skips,
        /// Task attempts killed by the fault plan (clean kills and poisons).
        pub faults_injected,
        /// Re-attempts after a failed attempt (at most
        /// [`crate::fault::MAX_TASK_RETRIES`] per color).
        pub task_retries,
        /// Colors that ran out of retries and were re-run sequentially on
        /// their rank's thread.
        pub tasks_recovered,
        /// Task panics contained by the per-attempt `catch_unwind` barrier.
        pub panics_isolated,
        /// Summed per-rank phase timings (nanoseconds).
        pub pack_ns,
        pub exchange_wait_ns,
        pub unpack_ns,
        pub compute_ns,
        pub merge_ns,
        /// Rank losses recovered from (each one re-sharded and resumed).
        pub recoveries,
        /// Bytes of owned state the survivors adopted from lost ranks —
        /// recovery's minimality claim is `bytes_migrated ≤` the lost ranks'
        /// owned-shard size (nothing already owned by a survivor ever moves).
        pub bytes_migrated,
        /// Driver time spent re-sharding + restoring checkpoints.
        pub recovery_ns,
        /// Owned-shard checkpoints taken (final attempt), and their cost.
        pub checkpoints,
        pub checkpoint_bytes,
        pub checkpoint_ns,
        /// Send attempts the fault plan dropped in flight (sender retried).
        pub retransmits,
        /// Duplicate copies the fault plan injected (receivers deduped them).
        pub duplicates,
    }
}

impl DistReport {
    /// True when the sequential-recovery slow path ran for any color:
    /// results are still bit-identical to the sequential interpreter, but
    /// part of the run was not parallel.
    pub fn degraded(&self) -> bool {
        self.tasks_recovered > 0
    }
}

/// Predicted vs measured traffic of one `(src, dst)` rank pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairDelta {
    pub src: usize,
    pub dst: usize,
    pub predicted_bytes: u64,
    pub measured_bytes: u64,
    pub predicted_messages: u64,
    pub measured_messages: u64,
}

impl PairDelta {
    /// Did the runtime move exactly what the plan predicted?
    pub fn is_clean(&self) -> bool {
        self.predicted_bytes == self.measured_bytes
            && self.predicted_messages == self.measured_messages
    }

    pub fn to_json(&self) -> Json {
        Json::object()
            .with("src", self.src)
            .with("dst", self.dst)
            .with("predicted_bytes", self.predicted_bytes)
            .with("measured_bytes", self.measured_bytes)
            .with("delta_bytes", self.measured_bytes as i64 - self.predicted_bytes as i64)
            .with("predicted_messages", self.predicted_messages)
            .with("measured_messages", self.measured_messages)
    }
}

/// Per-pair predicted-vs-measured communication accounting of one run:
/// predictions are the fold of the exchange plan's message tables
/// ([`ExchangePlan::predicted_pair_volume_from`]), measurements are taken
/// at the mailbox layer as messages arrive.
#[derive(Clone, Debug, Default)]
pub struct VolumeAccounting {
    /// Every pair with any predicted or measured traffic, ascending
    /// `(src, dst)`.
    pub pairs: Vec<PairDelta>,
}

impl VolumeAccounting {
    /// No pair deviated from its prediction.
    pub fn is_clean(&self) -> bool {
        self.pairs.iter().all(PairDelta::is_clean)
    }

    /// The first deviating pair, if any.
    pub fn first_mismatch(&self) -> Option<&PairDelta> {
        self.pairs.iter().find(|p| !p.is_clean())
    }

    /// The `pairs` report section: one object per traffic-bearing pair.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.pairs.iter().map(PairDelta::to_json).collect())
    }
}

/// Full result of a distributed run: the aggregate report plus the
/// cross-rank timeline (when collected) and the predicted-vs-measured
/// volume accounting.
#[derive(Debug)]
pub struct DistOutcome {
    pub report: DistReport,
    /// Per-rank timelines, present when [`DistOptions::collect_timeline`]
    /// was on.
    pub trace: Option<Trace>,
    pub volume: VolumeAccounting,
    /// Ranks declared lost and recovered from, in loss order.
    pub lost_ranks: Vec<usize>,
}

/// Distributed execution failure.
#[derive(Debug)]
pub enum DistError {
    /// Communication-set derivation failed.
    Exchange(ExchangeError),
    /// The plan or its partitions cannot drive this program.
    Plan(PlanError),
    /// An access escaped its subregion or its rank's footprint.
    Legality(LegalityViolation),
    /// The plan-level legality proof failed: some `(loop, access, color)`
    /// can reach an element outside its rank's `owned ∪ ghosts` footprint.
    PlanIllegal(PlanLegalityError),
    /// A task or a rank thread panicked (a genuine bug, not an injected
    /// fault or a legality report).
    RankPanic { rank: usize, message: String },
    /// A peer's mailbox hung up mid-run.
    Disconnected { rank: usize },
    /// A rank was declared lost at `epoch` — it crashed (detected by a
    /// crash notice or an epoch-deadline expiry) or stopped acknowledging
    /// sends past the retransmit bound. With recovery enabled the driver
    /// handles this internally; it surfaces only when recovery is off or
    /// no survivors remain.
    RankLost { rank: usize, epoch: u64 },
    /// This rank stopped because another rank failed first (the first
    /// failure carries the real error).
    Aborted,
    /// Strict volume accounting found a rank pair whose measured traffic
    /// disagrees with the exchange plan's prediction.
    VolumeMismatch { src: usize, dst: usize, predicted_bytes: u64, measured_bytes: u64 },
    /// Executor bookkeeping failure.
    Internal(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Exchange(e) => write!(f, "exchange derivation failed: {e}"),
            DistError::Plan(e) => write!(f, "{e}"),
            DistError::Legality(v) => write!(f, "distributed legality violation: {v}"),
            DistError::PlanIllegal(e) => write!(f, "plan-level legality proof failed: {e}"),
            DistError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            DistError::Disconnected { rank } => {
                write!(f, "rank {rank} hung up mid-run")
            }
            DistError::RankLost { rank, epoch } => {
                write!(f, "rank {rank} lost at epoch {epoch}")
            }
            DistError::Aborted => write!(f, "aborted after another rank's failure"),
            DistError::VolumeMismatch { src, dst, predicted_bytes, measured_bytes } => {
                write!(
                    f,
                    "rank pair ({src} -> {dst}): plan predicts {predicted_bytes} bytes but the runtime moved {measured_bytes}"
                )
            }
            DistError::Internal(m) => write!(f, "internal distributed-executor error: {m}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<ExchangeError> for DistError {
    fn from(e: ExchangeError) -> Self {
        DistError::Exchange(e)
    }
}

impl From<PlanError> for DistError {
    fn from(e: PlanError) -> Self {
        DistError::Plan(e)
    }
}

/// Where a run's data lives and who runs its colors.
#[derive(Clone, Copy, Debug)]
pub enum Layout<'a> {
    /// One rank, in place on the caller's store, its colors claimed by
    /// `workers` threads (at most one per color). Nothing is sharded,
    /// sent or gathered, and no exchange plan is derived.
    InPlace { workers: usize },
    /// The ranks of an exchange plan, each on its own shard of the store
    /// plus ghosts, with one worker.
    Sharded(&'a ExchangePlan),
}

/// Executes every loop of `program` in SPMD fashion over the ranks of
/// `layout` — sharded ranks gather their owned shards back into `store`,
/// the in-place rank works on it directly. Results are bit-identical to
/// the sequential interpreter.
///
/// `parts` must be `plan.evaluate(...)` output (indexed by `PartId`, all
/// of one launch width), and a sharded layout's exchange plan the one
/// derived from them (`partir_core::placement::place`); it depends only
/// on the partitions and the owner mapping, so repeated executions reuse
/// it. The plan and partitions are validated up front, before any loop
/// runs, and defects are reported as typed errors.
pub fn execute_ranks(
    program: &[Loop],
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    layout: Layout<'_>,
    store: &mut Store,
    fns: &FnTable,
    opts: &DistOptions,
) -> Result<DistOutcome, DistError> {
    let (xplan, workers) = match layout {
        Layout::InPlace { workers } => (None, workers),
        Layout::Sharded(xplan) => (Some(xplan), 1),
    };
    let legality = opts.legality != LegalityMode::Off;
    let check = match xplan {
        Some(_) => opts.legality == LegalityMode::Element,
        None => legality,
    };
    let setups = {
        let _span = partir_obs::span("dist.validate");
        plan_loops(program, plan, parts, store.schema(), fns, legality, check, xplan)?
    };
    let schema = store.schema().clone();
    // Plan-level legality: prove `accessed ⊆ owned ∪ ghosts` once, by
    // interval set-containment, instead of re-deriving it per element on
    // the hot path. A plan the plan cache memoized carries its proof; any
    // other (a bare fold, a `derive_exchange_with` result) is proved here.
    // Element mode proves too — the per-element checks then double as the
    // negative test's corruption detector. In place there is no footprint
    // to prove against, so every access is checked instead.
    let plan_proved = match xplan.map(|x| (x, x.proved_facts())) {
        Some(_) if !legality => 0,
        Some((_, Some(facts))) => facts,
        Some((x, None)) => {
            prove_plan_legality(x, plan, parts, &schema).map_err(DistError::PlanIllegal)?.facts
        }
        None => 0,
    };
    let faults = TaskFaults {
        plan: opts.fault,
        effects: match opts.fault.is_some_and(|f| f.attacks_tasks()) {
            true => setups.iter().map(|s| effect_sets(s, parts, &schema)).collect(),
            false => Vec::new(),
        },
    };
    let n_ranks = xplan.map_or(1, |x| x.n_ranks);
    let span = partir_obs::span_with(
        "dist.execute",
        vec![("ranks", n_ranks.into()), ("loops", program.len().into())],
    );
    let in_place = RunCx {
        setups: &setups,
        xplan: None,
        schema: &schema,
        check,
        faults: &faults,
        ckpt: None,
        first_epoch: 0,
    };

    let mut report = DistReport {
        ranks: n_ranks as u64,
        plan_proved,
        buffer_bytes: setups.iter().map(|s| s.planned_buffer_bytes).sum(),
        private_buffer_bytes_saved: setups.iter().map(|s| s.private_bytes_saved).sum(),
        ..DistReport::default()
    };
    let mut lost_ranks: Vec<usize> = Vec::new();
    let (tracers, volume, first_epoch) = match xplan {
        None => {
            let shared = SharedStore::new(store);
            let sync = AttemptSync::default();
            let attempt = run_attempt(&in_place, &sync, opts, &[true], |_| &shared, workers, None)?;
            if let Some(e) = attempt.error {
                return Err(e);
            }
            report.add(&attempt.stats);
            (attempt.tracers, VolumeAccounting::default(), 0)
        }
        Some(x) => {
            run_sharded(&in_place, plan, parts, x, store, opts, &mut report, &mut lost_ranks)?
        }
    };
    if opts.strict_volume {
        if let Some(d) = volume.first_mismatch() {
            return Err(DistError::VolumeMismatch {
                src: d.src,
                dst: d.dst,
                predicted_bytes: d.predicted_bytes,
                measured_bytes: d.measured_bytes,
            });
        }
    }
    let trace = opts.collect_timeline.then(|| {
        let mut t = Trace::from_rank_tracers(n_ranks, tracers);
        t.first_epoch = first_epoch;
        t.lost_ranks = lost_ranks.clone();
        t
    });

    span.close_with(vec![
        ("messages", report.messages.into()),
        ("bytes_sent", report.bytes_sent.into()),
    ]);
    Ok(DistOutcome { report, trace, volume, lost_ranks })
}

/// Runs the sharded ranks of `xplan` to completion and gathers their
/// owned shards into `store`, recovering from rank losses (into `report`
/// and `lost_ranks`) when a fault plan or checkpoint policy is set. Adds
/// the ranks' shares to `report`; returns their timelines, the volume
/// accounting, and the epoch the last attempt started at.
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    cx: &RunCx<'_, '_>,
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    xplan: &ExchangePlan,
    store: &mut Store,
    opts: &DistOptions,
    report: &mut DistReport,
    lost_ranks: &mut Vec<usize>,
) -> Result<(Vec<RankTracer>, VolumeAccounting, usize), DistError> {
    let (n_ranks, schema) = (xplan.n_ranks, cx.schema);
    // Fault plane. A configured fault plan (or checkpoint policy) enables
    // survivor-side recovery. Its epoch-0 restore point is `store` itself:
    // ranks shard from it read-only and nothing writes it before the
    // final gather, so a recovery copies it then, and a run without one
    // never does.
    let policy = opts.checkpoint;
    let recovery_enabled = opts.fault.is_some() || policy.is_some();
    let ckpts = CheckpointStore::new(n_ranks);

    let mut alive = vec![true; n_ranks];
    let mut cur_xplan: Cow<'_, ExchangePlan> = Cow::Borrowed(xplan);
    let mut first_epoch = 0usize;
    let mut restored: Option<Store> = None;
    // `(ns, bytes)` of the recovery that launched the current attempt, so
    // its survivors' timelines carry a Recovery span.
    let mut last_recovery: Option<(u64, u64)> = None;

    let attempt = loop {
        let base_store: &Store = restored.as_ref().unwrap_or(store);
        let xp: &ExchangePlan = &cur_xplan;
        let sync = AttemptSync::default();
        let ckpt = policy.as_ref().map(|p| (p, &ckpts));
        let cx = RunCx { xplan: Some(xp), ckpt, first_epoch, ..*cx };
        // Each rank builds its shard on its own thread: ranks copy in
        // parallel and the run's largest buffers never sit on the driver's
        // heap.
        let shard = |r| RankStore::shard(base_store, xp, r);
        let mut attempt = run_attempt(&cx, &sync, opts, &alive, shard, 1, last_recovery)?;
        // The crash slot is ground truth; a peer's RankLost (from a notice,
        // a deadline expiry, or retransmit exhaustion) is the fallback.
        let lost = sync.lost.into_inner();
        let dead = lost.map(|(r, _)| r).or(match &attempt.error {
            Some(DistError::RankLost { rank, .. }) => Some(*rank),
            _ => None,
        });
        match (dead, attempt.error.take()) {
            (Some(dead), err) if recovery_enabled && alive[dead] => {
                // Survivor-side recovery: evacuate the dead rank's colors
                // onto the live ranks, re-fold + re-prove the exchange plan,
                // restore the last consistent checkpoint, resume on the
                // survivors.
                let t = Instant::now();
                report.recoveries += 1;
                lost_ranks.push(dead);
                let spawned = alive.clone();
                alive[dead] = false;
                if !alive.iter().any(|&a| a) {
                    return Err(err.unwrap_or(DistError::RankLost { rank: dead, epoch: 0 }));
                }
                // One footprint: its identity fold is the graph the
                // evacuation places by, and the new plan is one more fold.
                let fp = Footprint::build(plan, parts, schema)?;
                let graph = CommGraph::of(&fp, schema)?;
                let assignment = evacuate_placement(&graph, xp.owner_assignment(), &alive);
                let nx = fp.fold(n_ranks, &assignment)?;
                if opts.legality != LegalityMode::Off {
                    report.plan_proved = prove_plan_legality(&nx, plan, parts, schema)
                        .map_err(DistError::PlanIllegal)?
                        .facts;
                }
                // Minimal migration: survivors keep every color they had,
                // so the only owned bytes that move are the dead rank's.
                let migrated: u64 = (0..n_ranks)
                    .filter(|&r| alive[r])
                    .map(|r| {
                        nx.owned_field_bytes(schema, r)
                            .saturating_sub(xp.owned_field_bytes(schema, r))
                    })
                    .sum();
                report.bytes_migrated += migrated;
                let mut base = store.clone();
                first_epoch = match ckpts.consistent_epoch(&spawned) {
                    Some(ce) => {
                        ckpts.restore_into(&mut base, xp, ce);
                        (ce + 1) as usize
                    }
                    None => 0,
                };
                ckpts.clear();
                restored = Some(base);
                cur_xplan = Cow::Owned(nx);
                let d = t.elapsed().as_nanos() as u64;
                report.recovery_ns += d;
                last_recovery = Some((d, migrated));
                continue;
            }
            (_, Some(e)) => return Err(e),
            (Some(dead), None) => {
                // A crash was observed but recovery is impossible (e.g.
                // every peer finished before needing the dead rank and
                // recovery is disabled) — never silently return results
                // missing the dead rank's epochs.
                let epoch = lost.map(|(_, e)| e).unwrap_or(0);
                return Err(DistError::RankLost { rank: dead, epoch });
            }
            (None, None) => break attempt,
        }
    };

    // Gather: install every surviving rank's owned shards into the
    // caller's store. Under the final (possibly evacuated) owner
    // assignment the survivors' shards cover every region completely.
    // measured[src][dst]: what dst's mailbox metered against src.
    // A field no loop writes still holds the caller's values, recovery
    // included (a restore point is a copy, never the caller's store).
    let written = store::written_fields(plan, schema);
    let mut measured = vec![vec![(0u64, 0u64); n_ranks]; n_ranks];
    for (r, out) in attempt.outcomes.into_iter().enumerate() {
        if let Some((rstore, received)) = out {
            rstore.gather_into(store, &cur_xplan, r, &written);
            for (src, &cell) in received.iter().enumerate() {
                measured[src][r] = cell;
            }
        } else if alive[r] {
            return Err(DistError::Internal(format!("rank {r} produced no result")));
        }
    }
    report.add(&attempt.stats);
    let planned = cur_xplan.stats();
    report.ghost_elements = planned.ghost_elements;
    report.ghost_fetch_bytes = planned.ghost_fetch_bytes;
    report.write_back_bytes = planned.write_back_bytes;
    report.partial_bytes = planned.partial_bytes;
    report.replication_bytes = planned.replication_bytes;

    // Predicted-vs-measured accounting per (src, dst) pair. A recovered
    // run predicts only the epochs it actually re-executed; the mailboxes
    // drop duplicate deliveries and crash notices unmetered, so they never
    // pollute these pairs.
    let predicted = cur_xplan.predicted_pair_volume_from(first_epoch);
    let mut pairs = Vec::new();
    for src in 0..n_ranks {
        for dst in 0..n_ranks {
            let p = predicted[src][dst];
            let (m_bytes, m_msgs) = measured[src][dst];
            if p.bytes() == 0 && p.messages == 0 && m_bytes == 0 && m_msgs == 0 {
                continue;
            }
            pairs.push(PairDelta {
                src,
                dst,
                predicted_bytes: p.bytes(),
                measured_bytes: m_bytes,
                predicted_messages: p.messages,
                measured_messages: m_msgs,
            });
        }
    }
    Ok((attempt.tracers, VolumeAccounting { pairs }, first_epoch))
}

/// The in-place writes of every color of a loop, per mutating access:
/// what a task attempt's snapshot saves.
fn effect_sets<'s>(
    setup: &'s LoopSetup<'s>,
    parts: &'s [Arc<Partition>],
    schema: &Schema,
) -> Effects<'s> {
    let accesses = setup.lplan.accesses.iter();
    accesses
        .filter_map(|ap| {
            let sets = access_sets(ap, setup.iter, parts, schema)?;
            Some((sets.field, sets.in_place?))
        })
        .collect()
}

/// What the ranks of one attempt share to stop together and report.
#[derive(Default)]
pub(crate) struct AttemptSync {
    pub abort: Arc<AtomicBool>,
    /// The first legality violation.
    pub violation: Mutex<Option<LegalityViolation>>,
    /// Injected-crash ground truth: `(rank, epoch)` of the victim.
    pub lost: Mutex<Option<(usize, u64)>>,
}

/// One rank's result: its storage (owned elements final) and the
/// `(bytes, messages)` its mailbox received from each source.
type RankOutcome<D> = (D, Vec<(u64, u64)>);

/// Everything one SPMD attempt produced, success or not.
struct AttemptResult<D> {
    /// Per-rank outcomes; `None` for ranks that were not spawned (already
    /// dead) or did not finish.
    outcomes: Vec<Option<RankOutcome<D>>>,
    /// The finished ranks' shares of the report, and their timelines.
    stats: DistReport,
    tracers: Vec<RankTracer>,
    /// The first hard error any rank hit (secondary aborts excluded).
    error: Option<DistError>,
}

/// Runs one SPMD attempt over the currently-alive ranks, each on the
/// storage `data` builds for it on the rank's own thread. Returns `Err`
/// for a legality violation and driver-level failures (a scope panic);
/// rank-level failures come back inside [`AttemptResult`] and `sync` so
/// the caller can decide between recovery and propagation.
fn run_attempt<D: RankData + Send>(
    cx: &RunCx<'_, '_>,
    sync: &AttemptSync,
    opts: &DistOptions,
    alive: &[bool],
    data: impl Fn(usize) -> D + Sync,
    workers: usize,
    recovery: Option<(u64, u64)>,
) -> Result<AttemptResult<D>, DistError> {
    let n_ranks = alive.len();
    let (senders, mut mailboxes) = build_fabric(n_ranks, &sync.abort);
    if let Some(plan) = cx.faults.plan {
        for (r, mb) in mailboxes.iter_mut().enumerate() {
            if let Some(seed) = plan.chaos_stream(r) {
                mb.set_chaos(seed);
            }
            if plan.crash.is_some() {
                mb.set_deadline(EPOCH_DEADLINE);
            }
        }
    }
    // One shared time base, taken before any rank spawns, so spans of
    // different ranks land on the same clock. Survivors of a recovery
    // open their timeline with a Recovery span covering the re-shard +
    // restore the driver just performed on their behalf.
    let base = Instant::now();
    let tracers: Vec<Option<RankTracer>> = (0..n_ranks)
        .map(|r| {
            (opts.collect_timeline && alive[r]).then(|| {
                let mut tr = RankTracer::new(r, base);
                if let Some((ns, bytes)) = recovery {
                    tr.record(SpanKind::Recovery, cx.first_epoch, base, ns, bytes, None);
                }
                tr
            })
        })
        .collect();

    let out = Mutex::new(AttemptResult {
        outcomes: (0..n_ranks).map(|_| None).collect(),
        stats: DistReport::default(),
        tracers: Vec::new(),
        error: None,
    });
    let scope_result = crossbeam::scope(|s| {
        for (r, (mut mailbox, tracer)) in mailboxes.into_iter().zip(tracers).enumerate() {
            if !alive[r] {
                continue;
            }
            let senders = senders.clone();
            let (data, out) = (&data, &out);
            s.spawn(move |_| {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    rank::rank_main(r, cx, sync, data(r), workers, &senders, &mut mailbox, tracer)
                }));
                match result {
                    Ok(Ok((data, stats, tracer))) => {
                        let mut out = out.lock();
                        out.outcomes[r] = Some((data, mailbox.measured().to_vec()));
                        out.stats.add(&stats);
                        out.tracers.extend(tracer);
                    }
                    // A secondary failure; the first failure has the cause.
                    Ok(Err(DistError::Aborted)) => {}
                    Ok(Err(e)) => {
                        out.lock().error.get_or_insert(e);
                        sync.abort.store(true, Ordering::Relaxed);
                    }
                    Err(p) => {
                        // Tasks catch their own panics; this is the
                        // protocol's own bookkeeping.
                        let message = panic_message(p);
                        let e = DistError::RankPanic { rank: r, message };
                        out.lock().error.get_or_insert(e);
                        sync.abort.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    if let Err(p) = scope_result {
        return Err(DistError::Internal(panic_message(p)));
    }
    if let Some(v) = sync.violation.lock().take() {
        return Err(DistError::Legality(v));
    }
    Ok(out.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_core::eval::ExtBindings;
    use partir_core::pipeline::{auto_parallelize, Hints, Options};
    use partir_core::placement::{place, PlacementConfig};
    use partir_dpl::func::{FnDef, FnTable, IndexFn};
    use partir_dpl::region::{FieldId, FieldKind, Schema};
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};
    use partir_ir::interp::run_program_seq;

    /// 1-D periodic stencil with a second reduction loop gathering row sums
    /// through a pointer field — exercises ghosts, write-backs, and
    /// two-step reductions at once.
    fn stencil_program(n: u64) -> (Vec<Loop>, FnTable, Schema, Store) {
        let mut schema = Schema::new();
        let r = schema.add_region("R", n);
        let fin = schema.add_field(r, "in", FieldKind::F64);
        let fout = schema.add_field(r, "out", FieldKind::F64);
        let mut fns = FnTable::new();
        let left =
            fns.add("left", r, r, FnDef::Index(IndexFn::AffineMod { mul: 1, add: -1, modulus: n }));
        let right =
            fns.add("right", r, r, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: n }));
        let mut b = LoopBuilder::new("stencil", r);
        let i = b.loop_var();
        let li = b.idx_apply(left, i);
        let ri = b.idx_apply(right, i);
        let lv = b.val_read(r, fin, li);
        let rv = b.val_read(r, fin, ri);
        b.val_write(r, fout, i, VExpr::add(VExpr::var(lv), VExpr::var(rv)));
        let stencil = b.finish();

        let mut b2 = LoopBuilder::new("scatter", r);
        let i2 = b2.loop_var();
        let l2 = b2.idx_apply(left, i2);
        let v = b2.val_read(r, fout, i2);
        b2.val_reduce(r, fin, l2, ReduceOp::Add, VExpr::var(v));
        let scatter = b2.finish();

        let mut store = Store::new(schema.clone());
        for i in 0..n as usize {
            store.f64s_mut(fin)[i] = (i as f64).sin() * 3.25 + 0.125;
        }
        (vec![stencil, scatter], fns, schema, store)
    }

    /// Solves, evaluates at `colors`, places on `ranks` and runs.
    fn run_on(
        ranks: usize,
        colors: usize,
        (program, fns, schema, mut store): (Vec<Loop>, FnTable, Schema, Store),
        opts: &DistOptions,
    ) -> (DistOutcome, Store) {
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let parts = plan.evaluate(&store, &fns, colors, &ExtBindings::new());
        let placed = place(&plan, &parts, &schema, ranks, &PlacementConfig::default()).unwrap();
        let outcome = execute_ranks(
            &program,
            &plan,
            &parts,
            Layout::Sharded(&placed.xplan),
            &mut store,
            &fns,
            opts,
        )
        .unwrap();
        (outcome, store)
    }

    #[test]
    fn dist_matches_sequential_bit_for_bit() {
        for ranks in [1usize, 2, 3, 4, 8] {
            let n = 48u64;
            let (program, fns, schema, seed) = stencil_program(n);
            let mut seq = seed.clone();
            run_program_seq(&program, &mut seq, &fns);

            let (outcome, dist) = run_on(
                ranks,
                ranks.max(2),
                (program, fns, schema.clone(), seed),
                &DistOptions::default(),
            );
            assert_eq!(outcome.report.ranks, ranks as u64);
            for fi in 0..schema.num_fields() {
                let f = FieldId(fi as u32);
                assert_eq!(
                    seq.field_data(f),
                    dist.field_data(f),
                    "field {f:?} differs at {ranks} ranks"
                );
            }
        }
    }

    #[test]
    fn ghost_bytes_beat_replication() {
        let report = run_on(4, 4, stencil_program(64), &DistOptions::default()).0.report;
        assert!(report.bytes_sent > 0);
        assert!(
            report.bytes_sent < report.replication_bytes,
            "ghost exchange ({}) must move less than replication ({})",
            report.bytes_sent,
            report.replication_bytes
        );
    }

    #[test]
    fn full_outcome_has_clean_volume_and_valid_timeline() {
        let stencil = stencil_program(64);
        let n_loops = stencil.0.len();
        let opts =
            DistOptions { collect_timeline: true, strict_volume: true, ..DistOptions::default() };
        let (outcome, _) = run_on(4, 4, stencil, &opts);
        // Strict mode passed, so every pair is clean — and there is real
        // traffic to account for.
        assert!(!outcome.volume.pairs.is_empty());
        assert!(outcome.volume.is_clean());
        let measured: u64 = outcome.volume.pairs.iter().map(|p| p.measured_bytes).sum();
        assert_eq!(measured, outcome.report.bytes_sent, "mailbox meter matches sender stats");

        let trace = outcome.trace.expect("timeline was requested");
        trace.validate().expect("well-formed cross-rank timeline");
        assert_eq!(trace.n_epochs(), n_loops, "one epoch per loop");
        // Every rank recorded communication spans with byte payloads.
        for rank in 0..4 {
            assert!(trace.rank_spans(rank).any(|s| s.bytes > 0 && s.peer.is_some()));
        }
        // The profile attributes the whole wall-clock by construction.
        let prof = partir_obs::profile::DistProfile::from_trace(&trace);
        assert_eq!(prof.epochs.len(), n_loops);
        assert!((prof.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_off_run_has_no_trace_but_still_accounts_volume() {
        let (outcome, _) = run_on(2, 2, stencil_program(48), &DistOptions::default());
        assert!(outcome.trace.is_none());
        assert!(outcome.volume.is_clean());
        assert!(!outcome.volume.pairs.is_empty());
    }
}
