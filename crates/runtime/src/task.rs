//! The compute core both executors share.
//!
//! The paper's Section 5 runtime mechanisms live here once: plan/partition
//! validation ([`PlanError`]), per-loop access resolution (`LoopSetup`:
//! access modes, reduction buffer sets, write ownership — resolved once
//! per run by the driver and shared by reference with every worker and
//! rank), and the partitioned data context (`PartCtx`) that loop bodies run
//! against:
//!
//! * **legality checking** — every region access is validated against the
//!   task's subregion of the corresponding access partition, and an
//!   element the storage does not hold is a violation too;
//! * **two-step uncentered reductions** (Section 2) — `Buffered`
//!   reductions accumulate into task-local buffers the backend merges in
//!   ascending color order after the parallel phase;
//! * **guards** (Section 5.1) — in relaxed loops a reduction applies only
//!   when its target lies in the task's subregion of the (disjoint)
//!   reduction partition, and centered writes apply only for the task that
//!   first owns the iteration, so aliased iteration partitions preserve
//!   sequential semantics;
//! * **private sub-partitions** (Section 5.2) — `BufferedPrivate`
//!   reductions write directly inside the private sub-partition and buffer
//!   only the shared remainder.
//!
//! The backends differ only in the `Storage` a task runs against (the
//! threads' shared store, a rank's shard) and in what they do between
//! tasks (merge buffers, exchange halos).

use crate::fault::InjectedPanic;
use parking_lot::Mutex;
use partir_core::exchange::ExchangePlan;
use partir_core::pipeline::{LoopPlan, ParallelPlan, PartId, PlannedReduce};
use partir_dpl::func::{FnDef, FnId, FnTable, IndexFn, MultiFn};
use partir_dpl::index_set::{Idx, IndexSet};
use partir_dpl::partition::Partition;
use partir_dpl::region::{FieldId, RegionId, Schema};
use partir_ir::ast::{AccessId, Loop, ReduceOp};
use partir_ir::interp::DataCtx;
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A plan or partition set that cannot drive the program it was handed
/// with. Found before any task runs, on either backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The plan does not describe this program (loop counts differ).
    PlanMismatch { plan_loops: usize, program_loops: usize },
    /// A plan references a partition index outside the evaluated set.
    PartitionIndexOutOfBounds { loop_index: usize, part: usize, len: usize },
    /// Partitions disagree on the launch width (subregion counts differ).
    PartitionWidthMismatch { part: usize, expected: usize, got: usize },
    /// A partition contains element indices outside its region.
    PartitionExceedsRegion { loop_index: usize, part: usize, index: Idx, size: u64 },
    /// The iteration partition misses elements of the iteration space.
    IncompleteIteration { loop_index: usize },
    /// A loop with centered reductions got an aliased iteration partition.
    IterationNotDisjoint { loop_index: usize },
    /// A direct/guarded/private reduction partition is not disjoint.
    ReductionNotDisjoint { loop_index: usize, access: AccessId },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::PlanMismatch { plan_loops, program_loops } => {
                write!(f, "plan describes {plan_loops} loops but the program has {program_loops}")
            }
            PlanError::PartitionIndexOutOfBounds { loop_index, part, len } => write!(
                f,
                "loop {loop_index}: partition index {part} out of bounds ({len} evaluated)"
            ),
            PlanError::PartitionWidthMismatch { part, expected, got } => {
                write!(f, "partition {part} has {got} subregions, launch width is {expected}")
            }
            PlanError::PartitionExceedsRegion { loop_index, part, index, size } => write!(
                f,
                "loop {loop_index}: partition {part} contains element {index} outside its region (size {size})"
            ),
            PlanError::IncompleteIteration { loop_index } => {
                write!(f, "loop {loop_index}: iteration partition incomplete")
            }
            PlanError::IterationNotDisjoint { loop_index } => write!(
                f,
                "loop {loop_index}: centered reductions need a disjoint iteration partition"
            ),
            PlanError::ReductionNotDisjoint { loop_index, access } => {
                write!(f, "loop {loop_index}: reduction partition for {access:?} not disjoint")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Structured description of a legality-check failure: which access of
/// which loop, run by which task, touched which element outside its
/// subregion or outside what the task's storage holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LegalityViolation {
    /// The rank that ran the task; `None` on the threads backend.
    pub rank: Option<usize>,
    /// Loop index in execution order.
    pub loop_id: usize,
    /// The task (color) whose access escaped.
    pub task: usize,
    /// Region the violating access targets.
    pub region: RegionId,
    /// The element touched outside the subregion.
    pub index: Idx,
    /// The access site within the loop.
    pub access: AccessId,
}

impl fmt::Display for LegalityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(rank) = self.rank {
            write!(f, "rank {rank} ")?;
        }
        write!(
            f,
            "loop {} task {}: access {:?} touched element {} of region r{} outside its subregion",
            self.loop_id, self.task, self.access, self.index, self.region.0
        )?;
        if self.rank.is_some() {
            write!(f, " or rank footprint")?;
        }
        Ok(())
    }
}

/// Element storage a task runs against: a handle (`&SharedStore`,
/// `&mut RankStore`) the task's data context holds by value. A
/// `None`/`false` answer means the element is not held here — an access
/// that escaped what the plan said the task may touch, which the data
/// context reports as a violation.
pub(crate) trait Storage {
    fn read_f64(&self, f: FieldId, i: Idx) -> Option<f64>;
    fn write_f64(&mut self, f: FieldId, i: Idx, v: f64) -> bool;
    /// Pointer and range fields are topology: whole, and read-only while
    /// tasks run.
    fn read_ptr(&self, f: FieldId, i: Idx) -> Idx;
    fn read_range(&self, f: FieldId, i: Idx) -> (Idx, Idx);
}

impl<S: Storage> Storage for &mut S {
    #[inline]
    fn read_f64(&self, f: FieldId, i: Idx) -> Option<f64> {
        (**self).read_f64(f, i)
    }
    #[inline]
    fn write_f64(&mut self, f: FieldId, i: Idx, v: f64) -> bool {
        (**self).write_f64(f, i, v)
    }
    #[inline]
    fn read_ptr(&self, f: FieldId, i: Idx) -> Idx {
        (**self).read_ptr(f, i)
    }
    #[inline]
    fn read_range(&self, f: FieldId, i: Idx) -> (Idx, Idx) {
        (**self).read_range(f, i)
    }
}

/// How one access site executes, with its partition data resolved.
#[derive(Clone, Copy)]
pub(crate) enum Mode<'a> {
    /// Read/write/centered or provably-disjoint reduction: checked against
    /// the subregion, applied in place.
    Plain,
    /// Relaxed guarded reduction: applied iff the target is in the
    /// subregion.
    Guarded,
    /// Buffered reduction into `LoopSetup::buffers[_]`.
    Buffered(usize),
    /// In place within `private`, buffered into `buffers[buf]` otherwise.
    BufferedPrivate { private: &'a Partition, buf: usize },
}

/// The per-color element sets of one two-step reduction access.
pub(crate) struct BufferSpec<'a> {
    /// Access index within the loop plan.
    pub access: usize,
    /// `sets[color]`: the elements the color's buffer covers, in buffer
    /// order.
    pub sets: Cow<'a, [IndexSet]>,
}

/// Everything about one loop that is the same for all of its tasks.
pub(crate) struct LoopSetup<'a> {
    pub lplan: &'a LoopPlan,
    pub iter: &'a Partition,
    /// The access partition of every access site.
    pub parts: Vec<&'a Partition>,
    pub modes: Vec<Mode<'a>>,
    pub buffers: Vec<BufferSpec<'a>>,
    /// With an aliased iteration partition, a centered write applies only
    /// in the first task owning the iteration; `None` when it is disjoint.
    pub write_own: Option<Cow<'a, [IndexSet]>>,
    /// Bytes of all buffer sets, and what the private sub-partitions saved
    /// against buffering the full subregions (Section 5.2).
    pub planned_buffer_bytes: u64,
    pub private_bytes_saved: u64,
}

fn set_bytes(sets: &[IndexSet]) -> u64 {
    sets.iter().map(|s| s.len() * 8).sum()
}

/// Validates `plan` and `parts` against `program` and resolves every
/// loop's [`LoopSetup`]. `parts` must be `plan.evaluate(...)` output
/// (indexed by `PartId`), all of one launch width. The element-bounds walk
/// touches every subregion, so it rides on `check_bounds`. With an
/// exchange plan at hand its first-owner sets are borrowed instead of
/// derived again.
pub(crate) fn plan_loops<'a>(
    program: &[Loop],
    plan: &'a ParallelPlan,
    parts: &'a [Arc<Partition>],
    schema: &Schema,
    check_bounds: bool,
    xplan: Option<&'a ExchangePlan>,
) -> Result<Vec<LoopSetup<'a>>, PlanError> {
    if plan.loops.len() != program.len() {
        return Err(PlanError::PlanMismatch {
            plan_loops: plan.loops.len(),
            program_loops: program.len(),
        });
    }
    let width = parts.first().map_or(0, |p| p.num_subregions());
    if let Some((part, p)) = parts.iter().enumerate().find(|(_, p)| p.num_subregions() != width) {
        let got = p.num_subregions();
        return Err(PlanError::PartitionWidthMismatch { part, expected: width, got });
    }
    let resolve = |loop_index: usize, id: PartId, region: RegionId| {
        let part = id.0 as usize;
        let p: &'a Partition = parts.get(part).ok_or(PlanError::PartitionIndexOutOfBounds {
            loop_index,
            part,
            len: parts.len(),
        })?;
        let size = schema.region_size(region);
        let beyond = |&m: &Idx| check_bounds && m >= size;
        match p.iter().filter_map(IndexSet::max).find(beyond) {
            Some(index) => Err(PlanError::PartitionExceedsRegion { loop_index, part, index, size }),
            None => Ok(p),
        }
    };
    let mut setups = Vec::with_capacity(program.len());
    for (li, (lp, lplan)) in program.iter().zip(&plan.loops).enumerate() {
        let iter = resolve(li, lplan.iter, lp.region)?;
        if !iter.is_complete(schema.region_size(lp.region)) {
            return Err(PlanError::IncompleteIteration { loop_index: li });
        }
        if lplan.iter_must_be_disjoint && !iter.is_disjoint() {
            return Err(PlanError::IterationNotDisjoint { loop_index: li });
        }
        let write_own = match xplan {
            Some(x) => x.loops[li].write_own.as_deref().map(Cow::Borrowed),
            None => iter.first_owner().map(Cow::Owned),
        };
        let mut s = LoopSetup {
            lplan,
            iter,
            parts: Vec::with_capacity(lplan.accesses.len()),
            modes: Vec::with_capacity(lplan.accesses.len()),
            buffers: Vec::new(),
            write_own,
            planned_buffer_bytes: 0,
            private_bytes_saved: 0,
        };
        for (access, ap) in lplan.accesses.iter().enumerate() {
            let part = resolve(li, ap.part, ap.region)?;
            let disjoint = |p: &Partition| {
                if p.is_disjoint() {
                    return Ok(());
                }
                Err(PlanError::ReductionNotDisjoint {
                    loop_index: li,
                    access: AccessId(access as u32),
                })
            };
            let buf = s.buffers.len();
            let mode = match &ap.reduce {
                None => Mode::Plain,
                Some(PlannedReduce::Direct) => {
                    disjoint(part)?;
                    Mode::Plain
                }
                Some(PlannedReduce::Guarded) => {
                    disjoint(part)?;
                    Mode::Guarded
                }
                Some(PlannedReduce::Buffered) => {
                    s.planned_buffer_bytes += set_bytes(part.subregions());
                    s.buffers.push(BufferSpec { access, sets: Cow::Borrowed(part.subregions()) });
                    Mode::Buffered(buf)
                }
                Some(PlannedReduce::BufferedPrivate { private }) => {
                    let private = resolve(li, *private, ap.region)?;
                    disjoint(private)?;
                    let sets: Vec<IndexSet> =
                        part.iter().zip(private.iter()).map(|(a, p)| a.difference(p)).collect();
                    let shared_bytes = set_bytes(&sets);
                    s.planned_buffer_bytes += shared_bytes;
                    s.private_bytes_saved += set_bytes(part.subregions()) - shared_bytes;
                    s.buffers.push(BufferSpec { access, sets: Cow::Owned(sets) });
                    Mode::BufferedPrivate { private, buf }
                }
            };
            s.parts.push(part);
            s.modes.push(mode);
        }
        setups.push(s);
    }
    Ok(setups)
}

/// What is the same for every task a worker or rank runs. Each task's data
/// context carries a copy: `check`, `fns` and `schema` are read on every
/// access.
#[derive(Clone, Copy)]
pub(crate) struct TaskEnv<'a> {
    pub fns: &'a FnTable,
    pub schema: &'a Schema,
    /// Check every access against its partition subregion.
    pub check: bool,
    /// The rank running the tasks; `None` on the threads backend.
    pub rank: Option<usize>,
    /// Raised with the first violation so the other workers stop.
    pub abort: &'a AtomicBool,
    /// First legality violation observed (recorded before the panic that
    /// aborts the task, so the driver can report a structured error).
    pub violation: &'a Mutex<Option<LegalityViolation>>,
}

/// Per-task counters, plain integers merged by the backend once per task.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TaskCounts {
    pub legality_checks: u64,
    pub guard_hits: u64,
    pub guard_skips: u64,
    pub write_skips: u64,
    /// Bytes of the partial buffers this task allocated.
    pub buffer_bytes: u64,
}

impl TaskCounts {
    pub fn add(&mut self, o: &TaskCounts) {
        self.legality_checks += o.legality_checks;
        self.guard_hits += o.guard_hits;
        self.guard_skips += o.guard_skips;
        self.write_skips += o.write_skips;
        self.buffer_bytes += o.buffer_bytes;
    }
}

/// The partitioned data context: all region traffic of one task (one color
/// of one loop) against storage `S`.
pub(crate) struct PartCtx<'a, S> {
    store: S,
    env: TaskEnv<'a>,
    setup: &'a LoopSetup<'a>,
    color: usize,
    write_own: Option<&'a IndexSet>,
    /// The task's partial reduction buffers, one slot per
    /// [`LoopSetup::buffers`] entry, identity-filled on first use.
    pub bufs: Vec<Option<Vec<f64>>>,
    pub counts: TaskCounts,
}

impl<'a, S: Storage> PartCtx<'a, S> {
    pub fn new(store: S, env: &TaskEnv<'a>, setup: &'a LoopSetup<'a>, color: usize) -> Self {
        PartCtx {
            store,
            env: *env,
            setup,
            color,
            write_own: setup.write_own.as_deref().map(|own| &own[color]),
            bufs: vec![None; setup.buffers.len()],
            counts: TaskCounts::default(),
        }
    }

    /// Records the violation (subregion escape or element not held by the
    /// storage), stops the run and unwinds out of the task.
    #[cold]
    fn fail(&self, a: AccessId, i: Idx) -> ! {
        let v = LegalityViolation {
            rank: self.env.rank,
            loop_id: self.setup.lplan.loop_index,
            task: self.color,
            region: self.setup.lplan.accesses[a.0 as usize].region,
            index: i,
            access: a,
        };
        self.env.violation.lock().get_or_insert(v);
        self.env.abort.store(true, Ordering::Relaxed);
        panic!("legality violation: {v}");
    }

    #[inline]
    fn subregion(&self, a: AccessId) -> &'a IndexSet {
        self.setup.parts[a.0 as usize].subregion(self.color)
    }

    #[inline]
    fn check_access(&mut self, a: AccessId, i: Idx) {
        if self.env.check {
            self.counts.legality_checks += 1;
            if !self.subregion(a).contains(i) {
                self.fail(a, i);
            }
        }
    }

    /// In-place reduction on an element exactly one task owns.
    #[inline]
    fn in_place(&mut self, a: AccessId, field: FieldId, i: Idx, op: ReduceOp, v: f64) {
        match self.store.read_f64(field, i) {
            Some(cur) => {
                self.store.write_f64(field, i, op.apply(cur, v));
            }
            None => self.fail(a, i),
        }
    }

    fn buffer_reduce(&mut self, a: AccessId, buf: usize, i: Idx, op: ReduceOp, v: f64) {
        let set = &self.setup.buffers[buf].sets[self.color];
        let Some(slot) = set.rank(i) else { self.fail(a, i) };
        let values = self.bufs[buf].get_or_insert_with(|| {
            self.counts.buffer_bytes += set.len() * 8;
            vec![op.identity(); set.len() as usize]
        });
        values[slot as usize] = op.apply(values[slot as usize], v);
    }

    fn eval_index_fn(&self, f: &IndexFn, i: Idx, target_size: u64) -> Idx {
        match f {
            IndexFn::Identity => i,
            IndexFn::Affine { mul, add } => {
                let v = (i as i64) * mul + add;
                assert!(v >= 0 && (v as u64) < target_size, "affine out of range");
                v as Idx
            }
            IndexFn::AffineMod { mul, add, modulus } => {
                ((i as i64) * mul + add).rem_euclid(*modulus as i64) as Idx
            }
            IndexFn::Ptr { field } => self.store.read_ptr(*field, i),
            IndexFn::Compose(a, b) => {
                let mid = self.eval_index_fn(a, i, u64::MAX);
                self.eval_index_fn(b, mid, target_size)
            }
        }
    }
}

impl<S: Storage> DataCtx for PartCtx<'_, S> {
    #[inline]
    fn read_f64(&mut self, a: AccessId, field: FieldId, i: Idx) -> f64 {
        self.check_access(a, i);
        match self.store.read_f64(field, i) {
            Some(v) => v,
            None => self.fail(a, i),
        }
    }

    #[inline]
    fn write_f64(&mut self, a: AccessId, field: FieldId, i: Idx, v: f64) {
        self.check_access(a, i);
        if self.write_own.is_some_and(|own| !own.contains(i)) {
            self.counts.write_skips += 1;
        } else if !self.store.write_f64(field, i, v) {
            self.fail(a, i);
        }
    }

    #[inline]
    fn reduce_f64(&mut self, a: AccessId, field: FieldId, i: Idx, op: ReduceOp, v: f64) {
        match self.setup.modes[a.0 as usize] {
            Mode::Plain => {
                self.check_access(a, i);
                self.in_place(a, field, i, op, v);
            }
            Mode::Guarded => {
                if self.subregion(a).contains(i) {
                    self.counts.guard_hits += 1;
                    self.in_place(a, field, i, op, v);
                } else {
                    self.counts.guard_skips += 1;
                }
            }
            Mode::Buffered(buf) => {
                self.check_access(a, i);
                self.buffer_reduce(a, buf, i, op, v);
            }
            Mode::BufferedPrivate { private, buf } => {
                self.check_access(a, i);
                if private.subregion(self.color).contains(i) {
                    self.in_place(a, field, i, op, v);
                } else {
                    self.buffer_reduce(a, buf, i, op, v);
                }
            }
        }
    }

    #[inline]
    fn read_ptr(&mut self, a: AccessId, field: FieldId, i: Idx) -> Idx {
        self.check_access(a, i);
        self.store.read_ptr(field, i)
    }

    #[inline]
    fn eval_fn(&mut self, f: FnId, i: Idx) -> Idx {
        let nf = self.env.fns.get(f);
        let size = self.env.schema.region_size(nf.range);
        match &nf.def {
            FnDef::Index(func) => self.eval_index_fn(func, i, size),
            FnDef::Multi(_) => panic!("eval_fn on multi-valued function"),
        }
    }

    #[inline]
    fn eval_multi(&mut self, a: AccessId, f: FnId, i: Idx, out: &mut Vec<Idx>) {
        self.check_access(a, i);
        let nf = self.env.fns.get(f);
        let size = self.env.schema.region_size(nf.range);
        match &nf.def {
            FnDef::Multi(MultiFn::RangeField { field }) => {
                let (s, e) = self.store.read_range(*field, i);
                out.extend(s..e.min(size));
            }
            FnDef::Multi(MultiFn::Lift(func)) => out.push(self.eval_index_fn(func, i, size)),
            FnDef::Index(func) => out.push(self.eval_index_fn(func, i, size)),
        }
    }
}

/// The message of a caught panic payload.
pub(crate) fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if p.downcast_ref::<InjectedPanic>().is_some() {
        "injected fault".to_string()
    } else {
        "unknown panic".to_string()
    }
}
