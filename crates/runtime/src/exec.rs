//! Parallel execution of auto-parallelized loops on host threads.
//!
//! One task per subregion ("color") of the iteration partition, scheduled
//! over a fixed worker pool, all running against one [`SharedStore`]
//! through the shared compute core ([`crate::task`]: legality checking,
//! guards, two-step reductions, private sub-partitions). What this module
//! adds is the thread pool, the deterministic buffer merge (color order,
//! ascending element order) and **fault tolerance** (see [`crate::fault`]):
//! with a [`FaultPlan`] installed, task attempts die deterministically
//! mid-loop (cleanly or by poisoning the worker with a panic); every
//! attempt runs against a pre-attempt snapshot of the task's exclusive
//! effect sets so failed attempts roll back, bounded retries with backoff
//! re-run the task, and tasks that exhaust their retries are re-executed
//! sequentially on the main thread — so results stay bit-identical to the
//! sequential interpreter under any fault schedule.

use crate::fault::{FaultPlan, InjectedPanic, RetryPolicy};
use crate::shared::SharedStore;
use crate::task::{panic_message, plan_loops, LoopSetup, Regs, Storage, Task};
use crate::task::{LegalityViolation, PlanError, TaskCounts, TaskEnv};
use parking_lot::Mutex;
use partir_core::exchange::access_sets;
use partir_core::pipeline::ParallelPlan;
use partir_dpl::func::FnTable;
use partir_dpl::index_set::IndexSet;
use partir_dpl::partition::Partition;
use partir_dpl::region::{FieldId, Schema, Store};
use partir_ir::ast::Loop;
use partir_obs::json::Json;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    pub n_threads: usize,
    /// Validate every access against its partition subregion (dynamic proof
    /// that the solver's output is legal). On for tests, off for benches.
    pub check_legality: bool,
    /// Deterministic task-attempt fault injection (the plan's fabric and
    /// rank-crash fields are the rank backend's and are not read here);
    /// `None` runs on a perfect machine.
    pub fault: Option<FaultPlan>,
    /// Recovery policy for failed task attempts (only consulted when
    /// attempts actually fail).
    pub retry: RetryPolicy,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            n_threads: 4,
            check_legality: true,
            fault: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecReport {
    pub tasks_run: u64,
    /// Total bytes of reduction buffers allocated across tasks and loops.
    pub buffer_bytes: u64,
    /// Buffer bytes avoided by private sub-partitions (Section 5.2): the
    /// difference between full-subregion buffers and the shared remainder
    /// actually allocated.
    pub private_buffer_bytes_saved: u64,
    /// Per-access legality checks performed (0 when checking is off).
    pub legality_checks: u64,
    /// Guarded-reduction applications / skips (relaxed loops).
    pub guard_hits: u64,
    pub guard_skips: u64,
    /// Centered writes skipped because another task owns the iteration.
    pub write_skips: u64,
    /// Task attempts killed by the fault plan (clean kills and poisons).
    pub faults_injected: u64,
    /// Re-attempts after a failed attempt (bounded by the retry policy).
    pub task_retries: u64,
    /// Tasks that exhausted their retries and were re-executed
    /// sequentially on the main thread.
    pub tasks_recovered: u64,
    /// Worker panics contained by the `catch_unwind` isolation barrier.
    pub panics_isolated: u64,
    /// True when the sequential-recovery slow path ran for any task:
    /// results are still bit-identical to the sequential interpreter, but
    /// part of the run was not parallel.
    pub degraded: bool,
}

impl ExecReport {
    /// Adds one task attempt's counters. `buffer_bytes` is not among them:
    /// this backend reports the planned buffer sets, not what tasks
    /// happened to allocate.
    fn count(&mut self, c: &TaskCounts) {
        self.legality_checks += c.legality_checks;
        self.guard_hits += c.guard_hits;
        self.guard_skips += c.guard_skips;
        self.write_skips += c.write_skips;
    }

    /// Machine-readable form, for the JSON report envelopes.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("tasks_run", self.tasks_run)
            .with("buffer_bytes", self.buffer_bytes)
            .with("private_buffer_bytes_saved", self.private_buffer_bytes_saved)
            .with("legality_checks", self.legality_checks)
            .with("guard_hits", self.guard_hits)
            .with("guard_skips", self.guard_skips)
            .with("write_skips", self.write_skips)
            .with("faults_injected", self.faults_injected)
            .with("task_retries", self.task_retries)
            .with("tasks_recovered", self.tasks_recovered)
            .with("panics_isolated", self.panics_isolated)
            .with("degraded", self.degraded)
    }
}

/// Execution failure.
#[derive(Debug)]
pub enum ExecError {
    /// The plan or its partitions cannot drive this program.
    Plan(PlanError),
    /// A task accessed an element outside its subregion (legality check).
    Legality(LegalityViolation),
    /// A worker panicked (a genuine bug, not an injected fault).
    TaskPanic(String),
    /// A task exhausted its retries and sequential recovery was disabled.
    TaskFailed { loop_index: usize, color: usize, attempts: u32 },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Plan(e) => write!(f, "{e}"),
            ExecError::Legality(v) => write!(f, "legality violation: {v}"),
            ExecError::TaskPanic(m) => write!(f, "task panicked: {m}"),
            ExecError::TaskFailed { loop_index, color, attempts } => {
                write!(
                    f,
                    "loop {loop_index}: task {color} failed all {attempts} attempts and sequential recovery is disabled"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e)
    }
}

/// Executes every loop of `program` in order under `plan`.
///
/// `parts` must be `plan.evaluate(...)` output (indexed by `PartId`); every
/// partition must have the same number of subregions (the launch width).
/// The plan and partitions are validated up front, before any loop runs,
/// and defects are reported as typed errors.
pub fn execute_program(
    program: &[Loop],
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    store: &mut Store,
    fns: &FnTable,
    opts: &ExecOptions,
) -> Result<ExecReport, ExecError> {
    let setups = {
        let _span = partir_obs::span("exec.validate");
        plan_loops(program, plan, parts, store.schema(), fns, opts.check_legality, None)?
    };
    let (abort, violation) = (AtomicBool::new(false), Mutex::new(None));
    let env =
        TaskEnv { check: opts.check_legality, rank: None, abort: &abort, violation: &violation };
    let mut report = ExecReport::default();
    // Cumulative task ordinal (loop-major, color-minor): the deterministic
    // coordinate `FaultPlan::poison_after` thresholds on.
    let mut ordinal_base = 0u64;
    for (li, (lp, setup)) in program.iter().zip(&setups).enumerate() {
        execute_loop(li, lp, setup, parts, store, &env, opts, &mut report, ordinal_base)?;
        ordinal_base += setup.iter.num_subregions() as u64;
    }
    partir_obs::counter("exec.tasks_run", report.tasks_run);
    partir_obs::counter("exec.legality_checks", report.legality_checks);
    partir_obs::counter("exec.buffer_bytes", report.buffer_bytes);
    partir_obs::counter("exec.private_buffer_bytes_saved", report.private_buffer_bytes_saved);
    partir_obs::counter("exec.faults_injected", report.faults_injected);
    partir_obs::counter("exec.task_retries", report.task_retries);
    partir_obs::counter("exec.tasks_recovered", report.tasks_recovered);
    partir_obs::counter("exec.panics_isolated", report.panics_isolated);
    partir_obs::flush_counters();
    Ok(report)
}

/// Saved pre-attempt values of one task's exclusive effect sets. Restoring
/// is race-free: every saved element is owned by exactly this task (the
/// same ownership argument that makes the direct effects race-free).
type TaskSnapshot<'a> = Vec<(FieldId, &'a IndexSet, Vec<f64>)>;

/// The store elements each color of a loop may mutate in place, per
/// mutating access: what a pre-attempt snapshot must save. Buffered
/// contributions are not among them — they live in task-local buffers
/// until the post-scope merge, and a failed attempt just drops them.
fn effect_sets<'a>(
    setup: &'a LoopSetup<'a>,
    parts: &'a [Arc<Partition>],
    schema: &Schema,
) -> Vec<(FieldId, &'a [IndexSet])> {
    let accesses = setup.lplan.accesses.iter();
    accesses
        .filter_map(|ap| {
            let sets = access_sets(ap, setup.iter, parts, schema)?;
            Some((sets.field, sets.in_place(setup.write_own.as_deref())?))
        })
        .collect()
}

/// Saves the pre-attempt values of every element the task may mutate.
/// Reads race with nothing: each saved element is exclusively owned by
/// this task during the parallel phase (see `effect_sets` and shared.rs).
fn take_snapshot<'a>(
    shared: &SharedStore,
    effects: &[(FieldId, &'a [IndexSet])],
    color: usize,
) -> TaskSnapshot<'a> {
    let mut saved: TaskSnapshot<'a> = Vec::new();
    for &(field, sets) in effects {
        let set = &sets[color];
        if saved.iter().any(|(f, s, _)| *f == field && std::ptr::eq(*s, set)) {
            continue; // site already covered (same field, same element set)
        }
        let held = |i| shared.read_f64(field, i).expect("effect sets lie inside their field");
        saved.push((field, set, set.iter().map(held).collect()));
    }
    saved
}

/// Rolls a failed attempt back to the snapshot (same exclusivity argument
/// as `take_snapshot`).
fn restore_snapshot(mut shared: &SharedStore, snap: &TaskSnapshot<'_>) {
    for (field, set, vals) in snap {
        for (i, &v) in set.iter().zip(vals) {
            shared.write_f64(*field, i, v);
        }
    }
}

/// How one task (color) ended after its attempt loop.
enum TaskOutcome {
    /// Completed; carries the task-local reduction buffers to publish.
    Done(Vec<Option<Vec<f64>>>),
    /// All attempts failed; queued for sequential recovery.
    Exhausted,
    /// Fatal condition (legality violation or genuine panic); stop the run.
    Abort,
}

#[allow(clippy::too_many_arguments)]
fn execute_loop(
    li: usize,
    lp: &Loop,
    setup: &LoopSetup<'_>,
    parts: &[Arc<Partition>],
    store: &mut Store,
    env: &TaskEnv<'_>,
    opts: &ExecOptions,
    report: &mut ExecReport,
    ordinal_base: u64,
) -> Result<(), ExecError> {
    let iter = setup.iter;
    let n_colors = iter.num_subregions();
    let tracing = partir_obs::trace_enabled();
    let loop_span = partir_obs::span_with(
        "exec.loop",
        vec![
            ("loop", li.into()),
            ("loop_name", lp.name.as_str().into()),
            ("colors", n_colors.into()),
        ],
    );
    report.buffer_bytes += setup.planned_buffer_bytes;
    report.private_buffer_bytes_saved += setup.private_bytes_saved;

    // Effect sets for rollback snapshots; only needed under faults.
    let effects = match opts.fault {
        Some(_) => effect_sets(setup, parts, store.schema()),
        None => Vec::new(),
    };

    // Buffers published by completed tasks: buffers[buf][color].
    let buffers: Vec<Vec<Mutex<Option<Vec<f64>>>>> =
        setup.buffers.iter().map(|b| b.sets.iter().map(|_| Mutex::new(None)).collect()).collect();
    let publish = |color: usize, bufs: Vec<Option<Vec<f64>>>| {
        for (slots, buf) in buffers.iter().zip(bufs).filter(|(_, buf)| buf.is_some()) {
            *slots[color].lock() = buf;
        }
    };
    let genuine_panic: Mutex<Option<String>> = Mutex::new(None);
    // Colors that exhausted their retries, for sequential recovery.
    let failed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    // Workers add into the run's report once per task attempt.
    let before = *report;
    let tally = Mutex::new(report);
    let next_color = AtomicUsize::new(0);
    let shared = SharedStore::new(store);
    // One attempt of `color`, over its whole subregion or only the first
    // `survive` iterations, in the caller's register file.
    let run_task = |color: usize, survive: Option<u64>, regs: &mut Regs| {
        let mut task = Task::new(&shared, env, setup, color);
        task.run(regs, survive);
        (task.counts, task.bufs)
    };

    let scope_result = crossbeam::scope(|s| {
        for _ in 0..opts.n_threads.max(1) {
            s.spawn(|_| {
                // One register file per worker and loop, not per task.
                let mut regs = Regs::new(setup);
                loop {
                    if env.abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let color = next_color.fetch_add(1, Ordering::Relaxed);
                    if color >= n_colors {
                        break;
                    }
                    // Pre-attempt snapshot of the task's exclusive effect
                    // sets, so any failed attempt can roll back.
                    let snapshot = opts.fault.map(|_| take_snapshot(&shared, &effects, color));
                    let coords = |attempt: u32| -> Vec<(&'static str, partir_obs::Value)> {
                        vec![
                            ("loop", li.into()),
                            ("color", color.into()),
                            ("attempt", attempt.into()),
                        ]
                    };
                    let mut attempt: u32 = 0;
                    let outcome = loop {
                        let injection = opts.fault.and_then(|fp| {
                            fp.decide(
                                li as u64,
                                color as u64,
                                attempt,
                                ordinal_base + color as u64,
                                iter.subregion(color).len(),
                            )
                        });
                        // AssertUnwindSafe: shared state touched by a dying
                        // attempt is exactly the snapshot's effect sets
                        // (rolled back below) and task-local buffers (moved
                        // out only on success, dropped by the unwind).
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let t_task = tracing.then(Instant::now);
                            let done =
                                run_task(color, injection.map(|f| f.survive_iters), &mut regs);
                            if injection.is_some_and(|f| f.poison) {
                                std::panic::panic_any(InjectedPanic);
                            }
                            if let (None, Some(t)) = (injection, t_task) {
                                let mut fields = coords(attempt);
                                fields.push(("elapsed_ns", (t.elapsed().as_nanos() as u64).into()));
                                partir_obs::instant("exec.task", fields);
                            }
                            done
                        }));
                        match result {
                            Ok((counts, bufs)) => {
                                tally.lock().count(&counts);
                                if injection.is_none() {
                                    break TaskOutcome::Done(bufs);
                                }
                                // Clean injected kill.
                            }
                            Err(payload) => {
                                // A legality panic means the *plan* is wrong:
                                // never retried, never recovered — masking it
                                // would hide the solver bug faults are
                                // supposed to be orthogonal to.
                                if env.violation.lock().is_some() {
                                    break TaskOutcome::Abort;
                                }
                                tally.lock().panics_isolated += 1;
                                if payload.downcast_ref::<InjectedPanic>().is_none() {
                                    // Genuine bug: isolate and stop the run.
                                    genuine_panic
                                        .lock()
                                        .get_or_insert_with(|| panic_message(payload));
                                    env.abort.store(true, Ordering::Relaxed);
                                    break TaskOutcome::Abort;
                                }
                                // Injected poison.
                            }
                        }
                        tally.lock().faults_injected += 1;
                        if tracing {
                            partir_obs::instant("fault.injected", coords(attempt));
                        }
                        if let Some(snap) = &snapshot {
                            restore_snapshot(&shared, snap);
                        }
                        if attempt >= opts.retry.max_retries {
                            break TaskOutcome::Exhausted;
                        }
                        attempt += 1;
                        tally.lock().task_retries += 1;
                        if tracing {
                            partir_obs::instant("task.retry", coords(attempt));
                        }
                        if !opts.retry.backoff.is_zero() {
                            std::thread::sleep(opts.retry.backoff * attempt);
                        }
                    };
                    match outcome {
                        TaskOutcome::Done(bufs) => publish(color, bufs),
                        TaskOutcome::Exhausted => failed.lock().push(color),
                        TaskOutcome::Abort => break,
                    }
                }
            });
        }
    });
    if let Some(v) = env.violation.lock().take() {
        return Err(ExecError::Legality(v));
    }
    if let Some(m) = genuine_panic.lock().take() {
        return Err(ExecError::TaskPanic(m));
    }
    if let Err(p) = scope_result {
        // A panic escaped the per-attempt isolation barrier (bookkeeping
        // code, not a task body).
        return Err(ExecError::TaskPanic(panic_message(p)));
    }

    // Graceful degradation: re-execute exhausted tasks sequentially on the
    // main thread through the same task context (guards, ownership sets and
    // buffers included), which is the reference-interpreter semantics
    // restricted to the failed subregion — bit-identical, just not parallel.
    let mut failed_colors = failed.into_inner();
    failed_colors.sort_unstable();
    if !failed_colors.is_empty() && !opts.retry.sequential_recovery {
        return Err(ExecError::TaskFailed {
            loop_index: li,
            color: failed_colors[0],
            attempts: opts.retry.max_retries + 1,
        });
    }
    // Allocated for the first recovery only: a run without exhausted tasks
    // pays nothing here.
    let mut regs = None;
    for color in failed_colors {
        let regs = regs.get_or_insert_with(|| Regs::new(setup));
        match catch_unwind(AssertUnwindSafe(|| run_task(color, None, regs))) {
            Ok((counts, bufs)) => {
                publish(color, bufs);
                let mut report = tally.lock();
                report.count(&counts);
                report.tasks_recovered += 1;
                report.degraded = true;
                if tracing {
                    partir_obs::instant(
                        "task.recovered",
                        vec![("loop", li.into()), ("color", color.into())],
                    );
                }
            }
            Err(p) => {
                return Err(match env.violation.lock().take() {
                    Some(v) => ExecError::Legality(v),
                    None => ExecError::TaskPanic(panic_message(p)),
                });
            }
        }
    }
    drop(shared);
    let report = tally.into_inner();

    // Deterministic merge: color order, ascending element order.
    let merge_span = partir_obs::span_with("exec.merge", vec![("loop", (li as u64).into())]);
    for (spec, slots) in setup.buffers.iter().zip(buffers) {
        let bufs: Vec<Option<Vec<f64>>> = slots.into_iter().map(Mutex::into_inner).collect();
        if bufs.iter().all(Option::is_none) {
            continue; // no contributions at all
        }
        let fs = store.f64s_mut(spec.field);
        for (set, buf) in spec.sets.iter().zip(bufs) {
            for (t, v) in set.iter().zip(buf.into_iter().flatten()) {
                fs[t as usize] = spec.op.apply(fs[t as usize], v);
            }
        }
    }
    drop(merge_span);

    report.tasks_run += n_colors as u64;
    loop_span.close_with(vec![
        ("tasks", n_colors.into()),
        ("legality_checks", (report.legality_checks - before.legality_checks).into()),
        ("guard_hits", (report.guard_hits - before.guard_hits).into()),
        ("guard_skips", (report.guard_skips - before.guard_skips).into()),
        ("write_skips", (report.write_skips - before.write_skips).into()),
        ("faults_injected", (report.faults_injected - before.faults_injected).into()),
        ("task_retries", (report.task_retries - before.task_retries).into()),
    ]);
    Ok(())
}
