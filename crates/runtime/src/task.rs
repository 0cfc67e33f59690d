//! The compute core every rank runs.
//!
//! The paper's Section 5 runtime mechanisms live here once: plan/partition
//! validation ([`PlanError`]), per-loop resolution (`LoopSetup`: the loop
//! body lowered to a flat register program by the `lower` module, access
//! modes, reduction buffer sets, write ownership — resolved once per run
//! by the driver and shared by reference with every rank and worker), and
//! the executor (`Task`) that runs one color of one loop over that program
//! chunk-at-a-time:
//!
//! * **legality checking** — every region access is validated against the
//!   task's subregion of the corresponding access partition, and an
//!   element the storage does not hold is a violation too;
//! * **two-step uncentered reductions** (Section 2) — `Buffered`
//!   reductions accumulate into task-local buffers the driver merges in
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
//! Ranks differ only in the `Storage` a task runs against (the caller's
//! store in place, a shard) and in what they exchange between tasks.
//!
//! The executor shares no code with the sequential interpreter in
//! `partir-ir`, which stays a plain tree walk: that makes the interpreter
//! an independent oracle, and bit-identity to it is established by the
//! differential suites (`tests/prop_lowered.rs`, `tests/prop_backends.rs`,
//! the app equivalence tests), not by construction.

use crate::dist::DistReport;
use crate::fault::InjectedPanic;
use crate::lower::{lower_loop, Expand, ForEach, IdxStep, Lowered, Op, OutOfScope, ReduceSite};
use crate::lower::{IReg, VReg, LOOP_VAR};
use parking_lot::Mutex;
use partir_core::exchange::{access_sets, ExchangePlan};
use partir_core::pipeline::{LoopPlan, ParallelPlan, PartId, PlannedReduce};
use partir_dpl::func::FnTable;
use partir_dpl::index_set::{Idx, IndexSet, Positions};
use partir_dpl::partition::Partition;
use partir_dpl::region::{FieldId, FieldKind, RegionId, Schema};
use partir_ir::ast::{AccessId, BinOp, Loop, ReduceOp, UnOp};
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Lanes (iterations, or `ForEach` elements) a chunk holds at most. Large
/// enough to amortize per-op dispatch over a tight lane loop, small enough
/// that a loop's whole register file stays in the L1 cache.
pub const CHUNK: usize = 256;

/// A plan or partition set that cannot drive the program it was handed
/// with, or a loop body no partitioned run can execute faithfully. Found
/// before any task runs.
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
    /// A loop body reads a variable outside the block that assigns it
    /// (after the `ForEach` whose body set it, say): sequentially that
    /// reads what an earlier element or iteration left behind, which no
    /// partitioned run reproduces.
    VariableOutOfScope { loop_index: usize },
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
            PlanError::VariableOutOfScope { loop_index } => write!(
                f,
                "loop {loop_index}: the body reads a variable outside the block that assigns it"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Structured description of a legality-check failure: which access of
/// which loop, run by which task, touched which element outside its
/// subregion or outside what the task's storage holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LegalityViolation {
    /// The rank that ran the task; `None` in place (the threads backend).
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
    /// Copies elements `[start, start + dst.len())` of `f` into `dst`;
    /// `false`, with `dst` unspecified, unless all of them are held (the
    /// empty run always is).
    fn load_run(&self, f: FieldId, start: Idx, dst: &mut [f64]) -> bool;
    /// Writes `src` over elements `[start, start + src.len())` of `f`;
    /// `false`, with nothing written, unless all of them are held.
    fn store_run(&mut self, f: FieldId, start: Idx, src: &[f64]) -> bool;
    /// Pointer and range fields are topology: whole, and read-only while
    /// tasks run.
    fn read_ptr(&self, f: FieldId, i: Idx) -> Idx;
    /// [`Storage::read_ptr`] over the run `[start, start + dst.len())`.
    fn ptr_run(&self, f: FieldId, start: Idx, dst: &mut [Idx]);
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
    fn load_run(&self, f: FieldId, start: Idx, dst: &mut [f64]) -> bool {
        (**self).load_run(f, start, dst)
    }
    #[inline]
    fn store_run(&mut self, f: FieldId, start: Idx, src: &[f64]) -> bool {
        (**self).store_run(f, start, src)
    }
    #[inline]
    fn read_ptr(&self, f: FieldId, i: Idx) -> Idx {
        (**self).read_ptr(f, i)
    }
    #[inline]
    fn ptr_run(&self, f: FieldId, start: Idx, dst: &mut [Idx]) {
        (**self).ptr_run(f, start, dst)
    }
    #[inline]
    fn read_range(&self, f: FieldId, i: Idx) -> (Idx, Idx) {
        (**self).read_range(f, i)
    }
}

/// How one access site executes, with its partition data resolved.
#[derive(Clone, Copy)]
pub(crate) enum Mode {
    /// Read/write/centered or provably-disjoint reduction: checked against
    /// the subregion, applied in place.
    Plain,
    /// Relaxed guarded reduction: applied iff the target is in the
    /// subregion.
    Guarded,
    /// Buffered reduction into `LoopSetup::buffers[_]`.
    Buffered(usize),
    /// In place within the private sub-partition `LoopSetup::parts[private]`,
    /// buffered into `buffers[buf]` otherwise.
    BufferedPrivate { private: usize, buf: usize },
}

/// The per-color element sets of one two-step reduction access.
pub(crate) struct BufferSpec<'a> {
    pub field: FieldId,
    pub op: ReduceOp,
    /// `sets[color]`: the elements the color's buffer covers, in buffer
    /// order.
    pub sets: Cow<'a, [IndexSet]>,
}

impl BufferSpec<'_> {
    /// The slot of element `i` in `color`'s buffer, `None` outside its set.
    #[inline]
    pub fn slot(&self, color: usize, i: Idx) -> Option<usize> {
        self.sets[color].index().pos(i).map(|p| p as usize)
    }
}

/// Everything about one loop that is the same for all of its tasks.
pub(crate) struct LoopSetup<'a> {
    pub lplan: &'a LoopPlan,
    /// The loop body as the executor runs it.
    pub code: Lowered,
    /// Lanes per register: [`CHUNK`], less when no chunk of this loop can
    /// fill it (tiny stores do not pay for a full-size register file), one
    /// for a loop that has to run iteration by iteration.
    pub lanes: usize,
    pub iter: &'a Partition,
    /// `members[k][color]`: the index of `color`'s subregion of what the
    /// lanes test membership in — the access partition of every access
    /// site, in access order, then the private sub-partition of every
    /// `BufferedPrivate` site. Resolved on the calling thread for every
    /// partition a task tests (guarded sites, private sub-partitions, and
    /// every access partition when accesses are checked); empty otherwise.
    pub members: Vec<Vec<&'a Positions>>,
    pub modes: Vec<Mode>,
    /// One per two-step reduction access, in access order.
    pub buffers: Vec<BufferSpec<'a>>,
    /// When the iteration partition is aliased, the index of each color's
    /// first-owner set ([`Partition::first_owner_sets`]): a centered write then
    /// applies only in the first task owning the iteration.
    pub write_own: Option<Vec<&'a Positions>>,
    /// Bytes of all buffer sets, and what the private sub-partitions saved
    /// against buffering the full subregions (Section 5.2).
    pub planned_buffer_bytes: u64,
    pub private_bytes_saved: u64,
}

fn set_bytes(sets: &[IndexSet]) -> u64 {
    sets.iter().map(|s| s.len() * 8).sum()
}

/// Validates `plan` and `parts` against `program`, lowers every loop body
/// and resolves every loop's [`LoopSetup`]. `parts` must be `plan.evaluate(...)` output
/// (indexed by `PartId`), all of one launch width. The element-bounds walk
/// touches every subregion, so it rides on `check_bounds`; `check` says
/// whether the tasks will check every access. With an exchange plan at
/// hand its buffer sets are borrowed instead of derived again; the
/// first-owner sets are always the iteration partition's own. Every set
/// index a run uses is built here, on the calling thread: the membership
/// indexes the tasks test, the buffer sets' slot indexes and each rank's
/// footprints' residency indexes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_loops<'a>(
    program: &[Loop],
    plan: &'a ParallelPlan,
    parts: &'a [Arc<Partition>],
    schema: &Schema,
    fns: &FnTable,
    check_bounds: bool,
    check: bool,
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
    let indexes = |p: &'a Partition| p.iter().map(|sub| &**sub.index()).collect();
    let mut setups = Vec::with_capacity(program.len());
    for (li, (lp, lplan)) in program.iter().zip(&plan.loops).enumerate() {
        let iter = resolve(li, lplan.iter, lp.region)?;
        if !iter.is_complete(schema.region_size(lp.region)) {
            return Err(PlanError::IncompleteIteration { loop_index: li });
        }
        if lplan.iter_must_be_disjoint && !iter.is_disjoint() {
            return Err(PlanError::IterationNotDisjoint { loop_index: li });
        }
        let code = lower_loop(lp, fns, schema)
            .map_err(|OutOfScope| PlanError::VariableOutOfScope { loop_index: li })?;
        let longest = iter.iter().map(IndexSet::len).max().unwrap_or(0);
        let lanes = match code.serial {
            true => 1,
            false => longest.max(code.inner_hint).clamp(1, CHUNK as u64) as usize,
        };
        let mut s = LoopSetup {
            lplan,
            code,
            lanes,
            iter,
            members: Vec::with_capacity(lplan.accesses.len()),
            modes: Vec::with_capacity(lplan.accesses.len()),
            buffers: Vec::new(),
            write_own: (!iter.is_disjoint())
                .then(|| iter.first_owner_sets().iter().map(|own| &**own.index()).collect()),
            planned_buffer_bytes: 0,
            private_bytes_saved: 0,
        };
        let mut privates = Vec::new();
        for (access, ap) in lplan.accesses.iter().enumerate() {
            let part = resolve(li, ap.part, ap.region)?;
            if let Some(PlannedReduce::BufferedPrivate { private }) = &ap.reduce {
                resolve(li, *private, ap.region)?;
            }
            let sets = access_sets(ap, iter, parts, schema);
            // An uncentered reduction applied in place needs every element
            // to have one writer.
            let reduced = sets.as_ref().and_then(|a| a.resident).filter(|_| ap.reduce.is_some());
            if reduced.is_some_and(|p| !p.is_disjoint()) {
                return Err(PlanError::ReductionNotDisjoint {
                    loop_index: li,
                    access: AccessId(access as u32),
                });
            }
            let mode = match sets.and_then(|a| Some((a.field, a.buffered?))) {
                Some((field, b)) => {
                    let buf = s.buffers.len();
                    let sets = match xplan.map(|x| &x.loops[li].routes[buf]) {
                        Some(route) => {
                            debug_assert_eq!(route.access, access, "routes follow access order");
                            Cow::Borrowed(&route.sets[..])
                        }
                        None => b.sets(),
                    };
                    let bytes = set_bytes(&sets);
                    s.planned_buffer_bytes += bytes;
                    s.private_bytes_saved += set_bytes(b.part.subregions()) - bytes;
                    // Built here: a borrowed set keeps its index after the
                    // run, and one built on a worker would hold that
                    // thread's heap from shrinking.
                    sets.iter().for_each(|set| _ = set.index());
                    s.buffers.push(BufferSpec { field, op: b.op, sets });
                    match b.private {
                        Some(private) => {
                            privates.push(private);
                            let private = lplan.accesses.len() + privates.len() - 1;
                            Mode::BufferedPrivate { private, buf }
                        }
                        None => Mode::Buffered(buf),
                    }
                }
                None if matches!(ap.reduce, Some(PlannedReduce::Guarded)) => Mode::Guarded,
                None => Mode::Plain,
            };
            let tested = check || matches!(mode, Mode::Guarded);
            s.members.push(if tested { indexes(part) } else { Vec::new() });
            s.modes.push(mode);
        }
        s.members.extend(privates.into_iter().map(indexes));
        setups.push(s);
    }
    // Each rank's footprint of every region it shards: the exchange plan
    // keeps these too.
    if let Some(x) = xplan {
        let fields = (0..schema.num_fields()).map(|f| schema.field(FieldId(f as u32)));
        for field in fields.filter(|field| matches!(field.kind, FieldKind::F64)) {
            (0..x.n_ranks).for_each(|rank| _ = x.local(field.region, rank).index());
        }
    }
    Ok(setups)
}

/// What is the same for every task a rank runs.
#[derive(Clone, Copy)]
pub(crate) struct TaskEnv<'a> {
    /// Check every access against its partition subregion.
    pub check: bool,
    /// The rank running the tasks; `None` in place.
    pub rank: Option<usize>,
    /// Raised with the first violation so the other workers stop.
    pub abort: &'a AtomicBool,
    /// First legality violation observed (recorded before the panic that
    /// aborts the task, so the driver can report a structured error).
    pub violation: &'a Mutex<Option<LegalityViolation>>,
}

/// What an index register holds in the current chunk.
#[derive(Clone, Copy)]
enum IdxForm {
    /// Lane `l` is `start + l`, wrapping to 0 on reaching `period`: one
    /// unit-stride run, or two when it wraps. Never more — a sequence has
    /// at most `period` lanes — and never materialized unless an op needs
    /// the lanes one by one.
    Seq { start: Idx, period: u64 },
    /// The register's lane buffer.
    Lanes,
}

/// The register file a loop's tasks run in: one buffer of `lanes` entries
/// per register of the loop's [`Lowered`] program. A worker allocates it
/// once per loop and reuses it for every task and chunk.
pub(crate) struct Regs {
    lanes: usize,
    vals: Vec<Vec<f64>>,
    idxs: Vec<Vec<Idx>>,
    forms: Vec<IdxForm>,
    /// Per `ForEach` depth: the parent lane of every inner lane.
    parents: Vec<Vec<u32>>,
}

impl Regs {
    pub fn new(setup: &LoopSetup<'_>) -> Regs {
        let (code, lanes) = (&setup.code, setup.lanes);
        let mut vals = vec![vec![0.0; lanes]; code.n_vregs];
        for &(r, c) in &code.consts {
            vals[r as usize].fill(c);
        }
        Regs {
            lanes,
            vals,
            idxs: vec![vec![0; lanes]; code.n_iregs],
            forms: vec![IdxForm::Lanes; code.n_iregs],
            parents: vec![vec![0; lanes]; code.depth],
        }
    }

    /// Writes out the first `n` lanes of a sequence register.
    fn materialize(&mut self, r: IReg, n: usize) {
        if let IdxForm::Seq { start, period } = self.forms[r as usize] {
            for (l, x) in self.idxs[r as usize][..n].iter_mut().enumerate() {
                *x = seq_lane(start, period, l as u64);
            }
            self.forms[r as usize] = IdxForm::Lanes;
        }
    }

    /// The first `n` lanes of `r`, one by one.
    fn lanes_of(&mut self, r: IReg, n: usize) -> &[Idx] {
        self.materialize(r, n);
        &self.idxs[r as usize][..n]
    }

    /// When the first `n` lanes of `r` are a sequence: its start and how
    /// many lanes precede the wrap to element 0.
    fn run_of(&self, r: IReg, n: usize) -> Option<(Idx, usize)> {
        match self.forms[r as usize] {
            IdxForm::Seq { start, period } => {
                Some((start, (period.saturating_sub(start)).min(n as u64) as usize))
            }
            IdxForm::Lanes => None,
        }
    }

    fn un(&mut self, op: UnOp, dst: VReg, a: VReg, n: usize) {
        let mut out = std::mem::take(&mut self.vals[dst as usize]);
        let lanes = out[..n].iter_mut().zip(&self.vals[a as usize][..n]);
        match op {
            UnOp::Neg => lanes.for_each(|(o, x)| *o = -x),
            UnOp::Abs => lanes.for_each(|(o, x)| *o = x.abs()),
            UnOp::Sqrt => lanes.for_each(|(o, x)| *o = x.sqrt()),
        }
        self.vals[dst as usize] = out;
    }

    fn bin(&mut self, op: BinOp, dst: VReg, a: VReg, b: VReg, n: usize) {
        let mut out = std::mem::take(&mut self.vals[dst as usize]);
        let (a, b) = (&self.vals[a as usize][..n], &self.vals[b as usize][..n]);
        let lanes = out[..n].iter_mut().zip(a.iter().zip(b));
        // One loop per operator, so each compiles to straight vector code.
        match op {
            BinOp::Add => lanes.for_each(|(o, (x, y))| *o = x + y),
            BinOp::Sub => lanes.for_each(|(o, (x, y))| *o = x - y),
            BinOp::Mul => lanes.for_each(|(o, (x, y))| *o = x * y),
            BinOp::Div => lanes.for_each(|(o, (x, y))| *o = x / y),
            BinOp::Min => lanes.for_each(|(o, (x, y))| *o = x.min(*y)),
            BinOp::Max => lanes.for_each(|(o, (x, y))| *o = x.max(*y)),
        }
        self.vals[dst as usize] = out;
    }

    /// Gives `inner` the value `outer` has at each lane's parent lane.
    fn import_idx(&mut self, outer: IReg, inner: IReg, parents: &[u32]) {
        let mut out = std::mem::take(&mut self.idxs[inner as usize]);
        let lanes = out.iter_mut().zip(parents);
        match self.forms[outer as usize] {
            IdxForm::Seq { start, period } => {
                lanes.for_each(|(o, &p)| *o = seq_lane(start, period, p as u64))
            }
            IdxForm::Lanes => {
                let src = &self.idxs[outer as usize];
                lanes.for_each(|(o, &p)| *o = src[p as usize]);
            }
        }
        self.forms[inner as usize] = IdxForm::Lanes;
        self.idxs[inner as usize] = out;
    }

    fn import_val(&mut self, outer: VReg, inner: VReg, parents: &[u32]) {
        let mut out = std::mem::take(&mut self.vals[inner as usize]);
        let src = &self.vals[outer as usize];
        out.iter_mut().zip(parents).for_each(|(o, &p)| *o = src[p as usize]);
        self.vals[inner as usize] = out;
    }
}

#[inline]
fn seq_lane(start: Idx, period: u64, l: u64) -> Idx {
    let v = start.wrapping_add(l);
    if v >= period {
        v - period
    } else {
        v
    }
}

/// Fills one index register chunk by chunk from pieces `[s, s + take)`,
/// keeping it a sequence for as long as the pieces join into one run.
#[derive(Default)]
struct Pack {
    fill: usize,
    start: Idx,
    one_run: bool,
}

impl Pack {
    fn push(&mut self, lanes: &mut [Idx], s: Idx, take: usize) {
        if self.fill == 0 {
            (self.start, self.one_run) = (s, true);
        } else if self.one_run && s != self.start + self.fill as u64 {
            for (l, x) in lanes[..self.fill].iter_mut().enumerate() {
                *x = self.start + l as u64;
            }
            self.one_run = false;
        }
        if !self.one_run {
            for (k, x) in lanes[self.fill..self.fill + take].iter_mut().enumerate() {
                *x = s + k as u64;
            }
        }
        self.fill += take;
    }

    /// Hands the chunk over: its lane count and the register's form.
    fn take(&mut self) -> (usize, IdxForm) {
        let form = match self.one_run {
            true => IdxForm::Seq { start: self.start, period: u64::MAX },
            false => IdxForm::Lanes,
        };
        (std::mem::take(&mut self.fill), form)
    }
}

/// One task: one color of one loop, run chunk-at-a-time against storage
/// `S`. Every op of the loop's [`Lowered`] program executes over all lanes
/// of a chunk before the next op does; guards, write ownership, reduction
/// buffers, legality checks and counters apply per lane.
pub(crate) struct Task<'a, S> {
    store: S,
    env: TaskEnv<'a>,
    setup: &'a LoopSetup<'a>,
    color: usize,
    /// `members[k]`: the index of the task's subregion of the `k`th
    /// partition of [`LoopSetup::members`], where a task tests it.
    members: Vec<Option<&'a Positions>>,
    /// The task's partial reduction buffers, one slot per
    /// [`LoopSetup::buffers`] entry, identity-filled on first use.
    pub bufs: Vec<Option<Vec<f64>>>,
    /// What the task counted: legality checks, guards, write skips.
    pub counts: DistReport,
}

impl<'a, S: Storage> Task<'a, S> {
    pub fn new(store: S, env: &TaskEnv<'a>, setup: &'a LoopSetup<'a>, color: usize) -> Self {
        Task {
            store,
            env: *env,
            setup,
            color,
            members: setup.members.iter().map(|m| m.get(color).copied()).collect(),
            bufs: vec![None; setup.buffers.len()],
            counts: DistReport::default(),
        }
    }

    /// Runs the color's iterations in ascending order — all of them, or
    /// only the first `survive` (an injected fault kills the attempt
    /// there). Chunks are cut from the runs of the iteration set; short
    /// runs share a chunk.
    pub fn run(&mut self, regs: &mut Regs, survive: Option<u64>) {
        let ops = &self.setup.code.ops;
        let cap = regs.lanes;
        let mut left = survive.unwrap_or(u64::MAX);
        let mut pack = Pack::default();
        for &(mut s, e) in self.setup.iter.subregion(self.color).runs() {
            let e = e.min(s.saturating_add(left));
            left -= e - s;
            while s < e {
                let take = (e - s).min((cap - pack.fill) as u64) as usize;
                pack.push(&mut regs.idxs[LOOP_VAR as usize], s, take);
                s += take as u64;
                if pack.fill == cap {
                    let n;
                    (n, regs.forms[LOOP_VAR as usize]) = pack.take();
                    self.block(ops, regs, n, 0);
                }
            }
        }
        if pack.fill > 0 {
            let n;
            (n, regs.forms[LOOP_VAR as usize]) = pack.take();
            self.block(ops, regs, n, 0);
        }
    }

    /// Executes `ops` over the first `n` lanes, op by op.
    fn block(&mut self, ops: &[Op], regs: &mut Regs, n: usize, depth: usize) {
        for op in ops {
            match op {
                Op::Un { op, dst, a } => regs.un(*op, *dst, *a, n),
                Op::Bin { op, dst, a, b } => regs.bin(*op, *dst, *a, *b, n),
                Op::Apply { step, src, dst } => self.apply(step, *src, *dst, regs, n),
                Op::LoadPtr { access, field, idx, dst } => {
                    self.load_ptr(*access, *field, *idx, *dst, regs, n)
                }
                Op::Load { access, field, idx, dst } => {
                    self.load(*access, *field, *idx, *dst, regs, n)
                }
                Op::Store { access, field, idx, src } => {
                    self.write(*access, *field, *idx, *src, regs, n)
                }
                Op::Reduce { sites, tmp } => self.reduce(sites, *tmp, regs, n),
                Op::ForEach(fe) => self.for_each(fe, regs, n, depth),
            }
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

    /// Whether `i` lies in the task's subregion of the `k`th partition of
    /// [`LoopSetup::members`]: the membership test of guards, private
    /// checks and legality checks, one lookup in a resolved index.
    #[inline]
    fn member(&self, k: usize, i: Idx) -> bool {
        self.members[k].expect("plan_loops resolves what a task tests").contains(i)
    }

    #[inline]
    fn check_access(&mut self, a: AccessId, i: Idx) {
        if self.env.check {
            self.counts.legality_checks += 1;
            if !self.member(a.0 as usize, i) {
                self.fail(a, i);
            }
        }
    }

    fn apply(&mut self, step: &IdxStep, src: IReg, dst: IReg, regs: &mut Regs, n: usize) {
        let mut out = std::mem::take(&mut regs.idxs[dst as usize]);
        regs.forms[dst as usize] = IdxForm::Lanes;
        match (step, regs.run_of(src, n)) {
            // A run that does not wrap inside the chunk maps to a run.
            (IdxStep::Affine(a), Some((start, head))) if head == n => {
                match a.image_of_run(start, n) {
                    Some((start, period)) => {
                        regs.forms[dst as usize] = IdxForm::Seq { start, period }
                    }
                    None => self.apply_lanes(step, regs.lanes_of(src, n), &mut out),
                }
            }
            (IdxStep::Ptr(field), Some((start, head))) => {
                let (a, b) = out[..n].split_at_mut(head);
                self.store.ptr_run(*field, start, a);
                self.store.ptr_run(*field, 0, b);
            }
            _ => self.apply_lanes(step, regs.lanes_of(src, n), &mut out),
        }
        regs.idxs[dst as usize] = out;
    }

    fn apply_lanes(&self, step: &IdxStep, src: &[Idx], out: &mut [Idx]) {
        let lanes = out.iter_mut().zip(src);
        match step {
            IdxStep::Affine(a) => lanes.for_each(|(o, &i)| *o = a.eval(i)),
            IdxStep::Ptr(field) => lanes.for_each(|(o, &i)| *o = self.store.read_ptr(*field, i)),
            IdxStep::MultiValued => panic!("eval_fn on multi-valued function"),
        }
    }

    /// A function's image of one index.
    fn apply_one(&self, steps: &[IdxStep], i: Idx) -> Idx {
        steps.iter().fold(i, |i, step| {
            let mut out = [0];
            self.apply_lanes(step, &[i], &mut out);
            out[0]
        })
    }

    fn load_ptr(
        &mut self,
        access: AccessId,
        field: FieldId,
        idx: IReg,
        dst: IReg,
        regs: &mut Regs,
        n: usize,
    ) {
        let mut out = std::mem::take(&mut regs.idxs[dst as usize]);
        match regs.run_of(idx, n).filter(|_| !self.env.check) {
            Some((start, head)) => {
                let (a, b) = out[..n].split_at_mut(head);
                self.store.ptr_run(field, start, a);
                self.store.ptr_run(field, 0, b);
            }
            None => {
                for (o, &i) in out.iter_mut().zip(regs.lanes_of(idx, n)) {
                    self.check_access(access, i);
                    *o = self.store.read_ptr(field, i);
                }
            }
        }
        regs.forms[dst as usize] = IdxForm::Lanes;
        regs.idxs[dst as usize] = out;
    }

    fn load(
        &mut self,
        access: AccessId,
        field: FieldId,
        idx: IReg,
        dst: VReg,
        regs: &mut Regs,
        n: usize,
    ) {
        let mut out = std::mem::take(&mut regs.vals[dst as usize]);
        // Unchecked, a sequence is at most two contiguous copies; should
        // one not be held, the lanes are walked to name the element.
        let copied =
            regs.run_of(idx, n).filter(|_| !self.env.check).is_some_and(|(start, head)| {
                let (a, b) = out[..n].split_at_mut(head);
                self.store.load_run(field, start, a) && self.store.load_run(field, 0, b)
            });
        if !copied {
            for (o, &i) in out.iter_mut().zip(regs.lanes_of(idx, n)) {
                self.check_access(access, i);
                match self.store.read_f64(field, i) {
                    Some(v) => *o = v,
                    None => self.fail(access, i),
                }
            }
        }
        regs.vals[dst as usize] = out;
    }

    fn write(
        &mut self,
        access: AccessId,
        field: FieldId,
        idx: IReg,
        src: VReg,
        regs: &mut Regs,
        n: usize,
    ) {
        let own = self.setup.write_own.as_ref().map(|own| own[self.color]);
        let whole_run = !self.env.check && own.is_none();
        let copied = regs.run_of(idx, n).filter(|_| whole_run).is_some_and(|(start, head)| {
            let (a, b) = regs.vals[src as usize][..n].split_at(head);
            self.store.store_run(field, start, a) && self.store.store_run(field, 0, b)
        });
        if copied {
            return;
        }
        regs.materialize(idx, n);
        for (&i, &v) in regs.idxs[idx as usize][..n].iter().zip(&regs.vals[src as usize][..n]) {
            self.check_access(access, i);
            if own.is_some_and(|own| !own.contains(i)) {
                self.counts.write_skips += 1;
            } else if !self.store.write_f64(field, i, v) {
                self.fail(access, i);
            }
        }
    }

    fn reduce(&mut self, sites: &[ReduceSite], tmp: VReg, regs: &mut Regs, n: usize) {
        if let [site] = sites {
            if self.reduce_run(site, tmp, regs, n) {
                return;
            }
        }
        for site in sites {
            regs.materialize(site.idx, n);
        }
        for l in 0..n {
            for site in sites {
                let (i, v) = (regs.idxs[site.idx as usize][l], regs.vals[site.src as usize][l]);
                self.reduce_lane(site, i, v);
            }
        }
    }

    /// An unchecked in-place reduction through a sequence: the lanes are
    /// distinct elements, so the run is read, combined and written back
    /// whole. False when the site needs the per-lane form.
    fn reduce_run(&mut self, site: &ReduceSite, tmp: VReg, regs: &mut Regs, n: usize) -> bool {
        let in_place = matches!(self.setup.modes[site.access.0 as usize], Mode::Plain);
        let Some((start, head)) = regs.run_of(site.idx, n).filter(|_| in_place && !self.env.check)
        else {
            return false;
        };
        let mut acc = std::mem::take(&mut regs.vals[tmp as usize]);
        let (a, b) = acc[..n].split_at_mut(head);
        let held =
            self.store.load_run(site.field, start, a) && self.store.load_run(site.field, 0, b);
        if held {
            let lanes = acc[..n].iter_mut().zip(&regs.vals[site.src as usize][..n]);
            match site.op {
                ReduceOp::Add => lanes.for_each(|(o, v)| *o += v),
                ReduceOp::Mul => lanes.for_each(|(o, v)| *o *= v),
                ReduceOp::Min => lanes.for_each(|(o, v)| *o = o.min(*v)),
                ReduceOp::Max => lanes.for_each(|(o, v)| *o = o.max(*v)),
            }
            let (a, b) = acc[..n].split_at(head);
            let stored = self.store.store_run(site.field, start, a)
                && self.store.store_run(site.field, 0, b);
            assert!(stored, "a run that was read whole is written whole");
        }
        regs.vals[tmp as usize] = acc;
        held
    }

    #[inline]
    fn reduce_lane(&mut self, site: &ReduceSite, i: Idx, v: f64) {
        let a = site.access;
        match self.setup.modes[a.0 as usize] {
            Mode::Plain => {
                self.check_access(a, i);
                self.in_place(site, i, v);
            }
            Mode::Guarded => {
                if self.member(a.0 as usize, i) {
                    self.counts.guard_hits += 1;
                    self.in_place(site, i, v);
                } else {
                    self.counts.guard_skips += 1;
                }
            }
            Mode::Buffered(buf) => {
                self.check_access(a, i);
                self.buffer_reduce(site, buf, i, v);
            }
            Mode::BufferedPrivate { private, buf } => {
                self.check_access(a, i);
                if self.member(private, i) {
                    self.in_place(site, i, v);
                } else {
                    self.buffer_reduce(site, buf, i, v);
                }
            }
        }
    }

    /// In-place reduction on an element exactly one task owns.
    #[inline]
    fn in_place(&mut self, site: &ReduceSite, i: Idx, v: f64) {
        match self.store.read_f64(site.field, i) {
            Some(cur) => {
                self.store.write_f64(site.field, i, site.op.apply(cur, v));
            }
            None => self.fail(site.access, i),
        }
    }

    fn buffer_reduce(&mut self, site: &ReduceSite, buf: usize, i: Idx, v: f64) {
        let spec = &self.setup.buffers[buf];
        let Some(slot) = spec.slot(self.color, i) else { self.fail(site.access, i) };
        let set = &spec.sets[self.color];
        let values =
            self.bufs[buf].get_or_insert_with(|| vec![site.op.identity(); set.len() as usize]);
        values[slot] = site.op.apply(values[slot], v);
    }

    /// Expands `F(src)` for every lane, parent lane by parent lane, into
    /// inner chunks of (parent lane, element) pairs and runs the body over
    /// each: the interpreter's nested order, flattened.
    fn for_each(&mut self, fe: &ForEach, regs: &mut Regs, n: usize, depth: usize) {
        regs.materialize(fe.src, n);
        let cap = regs.lanes;
        let mut parents = std::mem::take(&mut regs.parents[depth]);
        let mut pack = Pack::default();
        for p in 0..n {
            let i = regs.idxs[fe.src as usize][p];
            self.check_access(fe.access, i);
            let (mut s, e) = match &fe.expand {
                Expand::Range { field, size } => {
                    let (s, e) = self.store.read_range(*field, i);
                    (s, e.min(*size))
                }
                Expand::Single(steps) => {
                    let k = self.apply_one(steps, i);
                    (k, k.saturating_add(1))
                }
            };
            while s < e {
                let take = (e - s).min((cap - pack.fill) as u64) as usize;
                parents[pack.fill..pack.fill + take].fill(p as u32);
                pack.push(&mut regs.idxs[fe.var as usize], s, take);
                s += take as u64;
                if pack.fill == cap {
                    self.inner_chunk(fe, regs, &parents, &mut pack, depth);
                }
            }
        }
        if pack.fill > 0 {
            self.inner_chunk(fe, regs, &parents, &mut pack, depth);
        }
        regs.parents[depth] = parents;
    }

    fn inner_chunk(
        &mut self,
        fe: &ForEach,
        regs: &mut Regs,
        parents: &[u32],
        pack: &mut Pack,
        depth: usize,
    ) {
        let n;
        (n, regs.forms[fe.var as usize]) = pack.take();
        for &(outer, inner) in &fe.imports_i {
            regs.import_idx(outer, inner, &parents[..n]);
        }
        for &(outer, inner) in &fe.imports_v {
            regs.import_val(outer, inner, &parents[..n]);
        }
        self.block(&fe.body, regs, n, depth + 1);
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
