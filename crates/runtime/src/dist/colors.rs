//! Running one rank's colors of one epoch: the worker pool and the
//! task-attempt loop every color goes through.
//!
//! A rank runs its colors on as many workers as its storage lets write at
//! once: one over a shard (only a `&mut` borrow can write it), `n` over
//! the caller's whole store in place ([`SharedStore`], the threads
//! backend). Workers claim colors in list order from an atomic counter.
//!
//! Every color runs through the same attempt loop. With a [`FaultPlan`]
//! that attacks tasks, attempts die deterministically mid-loop (cleanly or
//! by poisoning the worker with a panic); each attempt runs against a
//! snapshot of the color's in-place effect sets, so a failed attempt rolls
//! back and is retried at once, at most [`MAX_TASK_RETRIES`] times. A
//! color that runs out of retries re-runs sequentially on the rank's
//! thread after the pool — results stay bit-identical to the sequential
//! interpreter under any fault schedule. Every attempt runs inside
//! `catch_unwind`: a legality panic stops the run (the violation is
//! already recorded), a genuine panic is [`DistError::RankPanic`].

use super::store::{pack_set, unpack_set, RankStore};
use super::{DistError, DistReport};
use crate::fault::{FaultPlan, InjectedFault, InjectedPanic, MAX_TASK_RETRIES};
use crate::shared::SharedStore;
use crate::task::{panic_message, LoopSetup, Regs, Storage, Task, TaskEnv};
use parking_lot::Mutex;
use partir_dpl::index_set::IndexSet;
use partir_dpl::region::FieldId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The storage one rank's colors run against.
pub(crate) trait RankData: Storage {
    /// A handle one worker runs tasks through.
    type Worker<'s>: Storage + Send
    where
        Self: 's;
    /// Handles for at most `n` workers running at once (`n ≥ 1`).
    fn workers(&mut self, n: usize) -> Vec<Self::Worker<'_>>;
}

/// A shard: one worker, the rank's own thread.
impl RankData for RankStore {
    type Worker<'s> = &'s mut RankStore;
    fn workers(&mut self, _: usize) -> Vec<&mut RankStore> {
        vec![self]
    }
}

/// The caller's store in place: any number of workers (see shared.rs for
/// why their writes never meet).
impl<'a> RankData for &'a SharedStore {
    type Worker<'s>
        = &'a SharedStore
    where
        Self: 's;
    fn workers(&mut self, n: usize) -> Vec<&'a SharedStore> {
        vec![*self; n]
    }
}

/// Partial reduction buffers, one slot per color or per buffered access,
/// present once something was reduced into it.
pub(crate) type Buffers = Vec<Option<Vec<f64>>>;

/// The store elements each color of a loop may mutate in place, per
/// mutating access: what a pre-attempt snapshot must save. Buffered
/// contributions are not among them — they live in task-local buffers
/// until the merge, and a failed attempt just drops them.
pub(crate) type Effects<'a> = Vec<(FieldId, &'a [IndexSet])>;

/// Saved pre-attempt values of one color's effect sets: each site (field,
/// element set) once, its values packed in site order. Restoring is
/// race-free: every saved element is written in place by this color alone
/// (the same ownership argument that makes the direct effects race-free).
struct Snapshot<'a> {
    sites: Vec<(FieldId, &'a IndexSet)>,
    values: Vec<f64>,
}

impl<'a> Snapshot<'a> {
    fn take(store: &impl Storage, effects: &Effects<'a>, color: usize) -> Self {
        let mut sites: Vec<(FieldId, &'a IndexSet)> = Vec::new();
        for &(field, sets) in effects {
            if !sites.iter().any(|&(f, s)| f == field && std::ptr::eq(s, &sets[color])) {
                sites.push((field, &sets[color]));
            }
        }
        let mut values = Vec::new();
        sites.iter().for_each(|&(f, set)| pack_set(store, f, set, &mut values));
        Snapshot { sites, values }
    }

    fn restore(&self, store: &mut impl Storage) {
        let values = &self.values[..];
        self.sites.iter().fold(values, |rest, &(f, set)| unpack_set(store, f, set, rest));
    }
}

/// The fault plane of a run's colors: the plan and, under a plan that
/// attacks tasks, every loop's effect sets.
pub(crate) struct TaskFaults<'a> {
    pub plan: Option<FaultPlan>,
    /// Per loop; empty unless the plan attacks tasks.
    pub effects: Vec<Effects<'a>>,
}

/// One epoch's colors on one rank: how each runs, and where the finished
/// colors' buffers and counters go.
pub(crate) struct Colors<'e, 'a> {
    li: usize,
    pub setup: &'e LoopSetup<'a>,
    pub env: &'e TaskEnv<'e>,
    faults: &'e TaskFaults<'a>,
    tracing: bool,
    /// `bufs[buf][color]`: the partial buffers of finished colors.
    bufs: Mutex<Vec<Buffers>>,
    counts: Mutex<DistReport>,
    /// Colors that ran out of retries, for sequential recovery.
    failed: Mutex<Vec<usize>>,
    panic: Mutex<Option<String>>,
}

impl<'e, 'a> Colors<'e, 'a> {
    pub fn new(
        li: usize,
        setup: &'e LoopSetup<'a>,
        env: &'e TaskEnv<'e>,
        faults: &'e TaskFaults<'a>,
    ) -> Self {
        let n_colors = setup.iter.num_subregions();
        Colors {
            li,
            setup,
            env,
            faults,
            tracing: partir_obs::trace_enabled(),
            bufs: Mutex::new(setup.buffers.iter().map(|_| vec![None; n_colors]).collect()),
            counts: Mutex::default(),
            failed: Mutex::default(),
            panic: Mutex::default(),
        }
    }

    /// Runs `colors` on up to `workers` workers, the calling thread among
    /// them; `regs` is the calling thread's register file.
    pub fn run<D: RankData>(
        &self,
        store: &mut D,
        colors: &[usize],
        workers: usize,
        regs: &mut Regs,
    ) {
        let mut handles = store.workers(workers.min(colors.len()).max(1));
        let mut first = handles.pop().expect("at least one worker");
        let next = AtomicUsize::new(0);
        let work = |store: &mut D::Worker<'_>, regs: &mut Regs| {
            while !self.env.abort.load(Ordering::Relaxed) {
                let Some(&color) = colors.get(next.fetch_add(1, Ordering::Relaxed)) else { break };
                if !self.attempts(store, color, regs) {
                    break;
                }
            }
        };
        if handles.is_empty() {
            return work(&mut first, regs);
        }
        crossbeam::scope(|s| {
            for mut h in handles {
                // One register file per worker and epoch, not per task.
                s.spawn(move |_| work(&mut h, &mut Regs::new(self.setup)));
            }
            work(&mut first, regs);
        })
        .expect("panics are caught per attempt");
    }

    /// One attempt of `color`, killed by `fault` if there is one.
    fn attempt(
        &self,
        store: &mut impl Storage,
        color: usize,
        regs: &mut Regs,
        fault: Option<InjectedFault>,
    ) -> std::thread::Result<(DistReport, Buffers)> {
        // AssertUnwindSafe: shared state touched by a dying attempt is
        // exactly the snapshot's effect sets (rolled back by the caller)
        // and task-local buffers (moved out only on success).
        catch_unwind(AssertUnwindSafe(|| {
            let mut task = Task::new(&mut *store, self.env, self.setup, color);
            task.run(regs, fault.map(|f| f.survive_iters));
            if fault.is_some_and(|f| f.poison) {
                std::panic::panic_any(InjectedPanic);
            }
            (task.counts, task.bufs)
        }))
    }

    /// Every attempt of `color`; false when the run must stop.
    fn attempts(&self, store: &mut impl Storage, color: usize, regs: &mut Regs) -> bool {
        let (li, faults) = (self.li, self.faults);
        let snapshot = faults.effects.get(li).map(|e| Snapshot::take(store, e, color));
        let n_colors = self.setup.iter.num_subregions();
        let n_iters = self.setup.iter.subregion(color).len();
        let coords = |attempt: u32| -> Vec<(&'static str, partir_obs::Value)> {
            vec![("loop", li.into()), ("color", color.into()), ("attempt", attempt.into())]
        };
        let mut attempt: u32 = 0;
        loop {
            // The cumulative task ordinal (loop-major, color-minor) is what
            // `FaultPlan::poison_after` thresholds on.
            let ordinal = (li * n_colors + color) as u64;
            let injection = faults
                .plan
                .and_then(|p| p.decide(li as u64, color as u64, attempt, ordinal, n_iters));
            match self.attempt(store, color, regs, injection) {
                Ok((c, bufs)) => {
                    let mut counts = self.counts.lock();
                    counts.add(&c);
                    if injection.is_none() {
                        counts.tasks_run += 1;
                        drop(counts);
                        self.publish(color, bufs);
                        return true;
                    }
                    // A clean injected kill.
                }
                Err(payload) => {
                    // A legality panic means the *plan* is wrong: never
                    // retried, never recovered — masking it would hide the
                    // solver bug faults are supposed to be orthogonal to.
                    if self.env.violation.lock().is_some() {
                        return false;
                    }
                    self.counts.lock().panics_isolated += 1;
                    if payload.downcast_ref::<InjectedPanic>().is_none() {
                        self.panic.lock().get_or_insert_with(|| panic_message(payload));
                        self.env.abort.store(true, Ordering::Relaxed);
                        return false;
                    }
                    // Injected poison.
                }
            }
            self.counts.lock().faults_injected += 1;
            if self.tracing {
                partir_obs::instant("fault.injected", coords(attempt));
            }
            if let Some(snap) = &snapshot {
                snap.restore(store);
            }
            if attempt >= MAX_TASK_RETRIES {
                self.failed.lock().push(color);
                return true;
            }
            attempt += 1;
            self.counts.lock().task_retries += 1;
            if self.tracing {
                partir_obs::instant("task.retry", coords(attempt));
            }
        }
    }

    fn publish(&self, color: usize, bufs: Buffers) {
        let mut slots = self.bufs.lock();
        for (per_color, buf) in slots.iter_mut().zip(bufs) {
            per_color[color] = buf;
        }
    }

    /// Re-runs the colors that ran out of retries, sequentially in
    /// color order on the rank's thread — the interpreter's semantics
    /// restricted to the failed subregions: bit-identical, just not
    /// parallel — and hands over the finished colors' buffers and
    /// counters. A legality violation ends in [`DistError::Aborted`]: the
    /// driver reports the recorded violation.
    pub fn finish<D: RankData>(
        self,
        store: &mut D,
        regs: &mut Regs,
    ) -> Result<(Vec<Buffers>, DistReport), DistError> {
        let rank = self.env.rank.unwrap_or(0);
        let stopped = |colors: &Self| match colors.panic.lock().take() {
            Some(message) => DistError::RankPanic { rank, message },
            None => DistError::Aborted,
        };
        if self.env.abort.load(Ordering::Relaxed) {
            return Err(stopped(&self));
        }
        let mut failed = std::mem::take(&mut *self.failed.lock());
        failed.sort_unstable();
        let mut store = store.workers(1).pop().expect("one worker");
        for color in failed {
            let (c, bufs) = match self.attempt(&mut store, color, regs, None) {
                Ok(done) => done,
                Err(p) => {
                    if self.env.violation.lock().is_none() {
                        self.panic.lock().get_or_insert_with(|| panic_message(p));
                    }
                    return Err(stopped(&self));
                }
            };
            self.publish(color, bufs);
            let mut counts = self.counts.lock();
            counts.add(&c);
            counts.tasks_run += 1;
            counts.tasks_recovered += 1;
            if self.tracing {
                partir_obs::instant(
                    "task.recovered",
                    vec![("loop", self.li.into()), ("color", color.into())],
                );
            }
        }
        Ok((self.bufs.into_inner(), self.counts.into_inner()))
    }
}
