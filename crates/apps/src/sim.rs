//! Distributed-memory execution simulator.
//!
//! The paper's evaluation (Figure 14) measures weak scaling on up to 256
//! GPU nodes of Piz Daint. We reproduce the *shape* of those curves with an
//! explicit machine model driven by a plan's evaluated partitions — the
//! solver's, or a hand-written strategy's built with
//! `ParallelPlan::from_bindings`; the simulator takes nothing else:
//!
//! * one task per node (`color == node`, as in the paper's one-rank-per-GPU
//!   configuration);
//! * per-node compute time proportional to the task's iteration-subregion
//!   size;
//! * a *home* (owner) distribution per region, `equal` blocks at first and
//!   updated to the writing partition after each loop — reads of elements
//!   outside the home subregion cost ingress on the reader and egress on
//!   the owner;
//! * reduction-buffer merges ship the buffered extent back to the owners;
//! * one message per access per peer pair (accesses of a loop through one
//!   partition share one instance, so a halo read through one shared
//!   partition pays one message per neighbour), found by one owner split
//!   of each node's set over the region's home
//!   ([`partir_dpl::partition::OwnerMap`]), and a per-run overhead
//!   modeling the runtime's handling of fragmented index sets (the
//!   sparsity-pattern issue of Section 6.5).
//!
//! Node time = compute + (ingress+egress)/bandwidth + messages×latency +
//! runs×run_overhead; the iteration time is the maximum over nodes, which
//! is what makes a single hot owner (Circuit's shared nodes on node 0) a
//! scaling bottleneck exactly as in Figure 14d.

use partir_core::exchange::access_sets;
use partir_core::pipeline::ParallelPlan;
use partir_dpl::index_set::IndexSet;
use partir_dpl::ops;
use partir_dpl::partition::{OwnerMap, Partition};
use partir_dpl::region::Store;
use partir_ir::ast::Loop;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Bytes moved per element (every simulated field is one `f64`).
const BYTES_PER_ELEM: f64 = 8.0;

/// The machine model.
#[derive(Clone, Copy, Debug)]
pub struct MachineModel {
    pub nodes: usize,
    /// Seconds per unit of loop work (one iteration × the loop's
    /// `work_per_iter` weight).
    pub compute_per_unit: f64,
    /// NIC bandwidth per node, bytes/second.
    pub bandwidth: f64,
    /// Seconds per point-to-point message.
    pub latency: f64,
    /// Seconds per transferred index-set run (fragmentation overhead).
    pub run_overhead: f64,
    /// Seconds of per-node, per-launch runtime-metadata work per unit of
    /// partition complexity (expression weight × total run count across all
    /// subregions). This models the dependence-analysis cost of fragmented,
    /// deeply-derived partitions in the underlying runtime — the effect that
    /// makes the paper's PENNANT Auto+Hint1 stop scaling beyond 64 nodes
    /// (Section 6.5) even though its communication volume matches the
    /// hand-optimized version.
    pub meta_overhead: f64,
    /// Node-failure model; `None` simulates a perfect machine.
    pub failure: Option<FailureModel>,
}

impl MachineModel {
    /// A GPU-cluster-flavored default (loosely shaped on one P100 +
    /// Aries-class NIC per node; absolute values are not calibrated — only
    /// curve shapes matter).
    pub fn gpu_cluster(nodes: usize) -> Self {
        MachineModel {
            nodes,
            compute_per_unit: 2.0e-9,
            bandwidth: 10.0e9,
            latency: 2.0e-6,
            run_overhead: 0.1e-6,
            meta_overhead: 10.0e-9,
            failure: None,
        }
    }

    /// The same machine with a failure model installed.
    pub fn with_failure(mut self, failure: FailureModel) -> Self {
        self.failure = Some(failure);
        self
    }
}

/// Node-failure model: exponential failures per node plus a coordinated
/// checkpoint/restart protocol, in the style of the classic Young/Daly
/// analysis. The expected (failure-aware) iteration time is
///
/// ```text
/// E[T] = T·(1 + C/τ) + (n/MTBF)·T·(R + recompute)
/// ```
///
/// where `T` is the failure-free iteration time, `C/τ` the checkpoint
/// overhead fraction, `n/MTBF` the system failure rate, `R` the restart
/// cost, and `recompute` the expected cost of re-running the lost node's
/// work — priced from the solved partitions (see [`FailureSummary`]).
#[derive(Clone, Copy, Debug)]
pub struct FailureModel {
    /// Mean time between failures of one node, seconds.
    pub node_mtbf_s: f64,
    /// Interval between coordinated checkpoints, seconds.
    pub checkpoint_interval_s: f64,
    /// Cost of taking one checkpoint, seconds.
    pub checkpoint_cost_s: f64,
    /// Cost of restarting a failed node (boot + rejoin), seconds.
    pub restart_cost_s: f64,
}

impl FailureModel {
    /// A commodity-cluster default: one node failure per ~30 days, hourly
    /// checkpoints costing 30 s, two-minute restarts.
    pub fn commodity() -> Self {
        FailureModel {
            node_mtbf_s: 30.0 * 24.0 * 3600.0,
            checkpoint_interval_s: 3600.0,
            checkpoint_cost_s: 30.0,
            restart_cost_s: 120.0,
        }
    }
}

/// Simulation failure: the plan does not fit the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A loop's iteration partition width differs from the node count.
    IterWidthMismatch { loop_name: String, expected: usize, got: usize },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SimError::IterWidthMismatch { loop_name, expected, got } = self;
        write!(f, "loop '{loop_name}': iteration width {got} does not match node count {expected}")
    }
}

impl std::error::Error for SimError {}

/// One region access of a simulated loop.
struct SimAccess<'a> {
    part: &'a Partition,
    /// What each node moves against the homes: the partition's subregions
    /// (read, write-back, in-place reduction), or a buffered reduction's
    /// buffer extents.
    sets: Cow<'a, [IndexSet]>,
    /// A write moves the region's home to `part`.
    writes: bool,
    /// Operator-node count of the partition's expression (runtime metadata
    /// weight, see [`partir_core::lang::ExprArena::weight`]).
    expr_weight: f64,
}

/// One parallel loop.
struct SimLoop<'a> {
    iter: &'a Partition,
    /// Work units per iteration element.
    work_per_iter: f64,
    accesses: Vec<SimAccess<'a>>,
}

/// A plan's loops as the simulator prices them: the partitions are exactly
/// the plan's, so the simulated communication reflects what the plan
/// would move. Accesses of a loop sharing one partition share one physical
/// instance (and thus one data movement): they are deduplicated by
/// (partition, access class, private sub-partition), like the runtime
/// would.
fn sim_loops<'a>(
    program: &[Loop],
    plan: &ParallelPlan,
    parts: &'a [Arc<Partition>],
    store: &Store,
    weights: &[f64],
    nodes: usize,
) -> Result<Vec<SimLoop<'a>>, SimError> {
    let schema = store.schema();
    let mut loops = Vec::with_capacity(program.len());
    for ((lp, loop_plan), &work_per_iter) in program.iter().zip(&plan.loops).zip(weights) {
        let iter: &Partition = &parts[loop_plan.iter.0 as usize];
        if iter.num_subregions() != nodes {
            let (loop_name, got) = (lp.name.clone(), iter.num_subregions());
            return Err(SimError::IterWidthMismatch { loop_name, expected: nodes, got });
        }
        let mut accesses = Vec::new();
        let mut seen = Vec::new();
        for ap in &loop_plan.accesses {
            let buffered = access_sets(ap, iter, parts, schema).and_then(|sets| sets.buffered);
            let private = buffered.as_ref().and_then(|b| b.private).map(std::ptr::from_ref);
            let key = (ap.part, std::mem::discriminant(&ap.kind), private);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let part: &Partition = &parts[ap.part.0 as usize];
            let sets = buffered.map_or(Cow::Borrowed(part.subregions()), |b| b.sets());
            let writes = ap.kind.is_write();
            let expr_weight = plan.system.arena.weight(plan.partition_ids[ap.part.0 as usize]);
            accesses.push(SimAccess { part, sets, writes, expr_weight });
        }
        loops.push(SimLoop { iter, work_per_iter, accesses });
    }
    Ok(loops)
}

/// Per-node cost breakdown (seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeBreakdown {
    pub compute: f64,
    pub comm_bytes: f64,
    pub messages: u64,
    pub runs: u64,
    /// Partition-complexity units charged for runtime metadata.
    pub meta_units: f64,
}

impl NodeBreakdown {
    pub fn time(&self, m: &MachineModel) -> f64 {
        self.compute
            + self.comm_bytes / m.bandwidth
            + self.messages as f64 * m.latency
            + self.runs as f64 * m.run_overhead
            + self.meta_units * m.meta_overhead
    }
}

/// Failure-aware cost summary, derived from the solved partitions'
/// disjoint/complete verdicts (see [`FailureModel`] for the formula).
///
/// Recomputation of a lost node's work is priced per loop: a disjoint,
/// complete iteration partition means the lost subregion's work is exactly
/// that node's share; an aliased iteration partition (relaxed loops)
/// inflates recomputation by the aliasing factor `Σ|subᵢ| / |∪subᵢ|`,
/// because re-running the lost color repeats work that live nodes also
/// perform. On top of compute, the lost node's owned data (the steady-state
/// home distribution) must be re-staged from the last checkpoint over the
/// network.
#[derive(Clone, Copy, Debug, Default)]
pub struct FailureSummary {
    /// Failure-free iteration time (same as `SimResult::iteration_time`).
    pub failure_free_time_s: f64,
    /// Expected iteration time including checkpoint overhead and expected
    /// failure recovery.
    pub expected_iteration_time_s: f64,
    /// `checkpoint_cost / checkpoint_interval`.
    pub checkpoint_overhead_frac: f64,
    /// `(nodes / node_mtbf) × iteration_time`.
    pub expected_failures_per_iteration: f64,
    /// Mean / max over nodes of the cost to recompute one lost node.
    pub mean_recompute_s: f64,
    pub max_recompute_s: f64,
    /// Loops whose iteration partition is aliased (not disjoint) — these
    /// pay the aliasing factor on recomputation.
    pub aliased_loops: usize,
    /// Loops whose iteration partition does not cover its region — lost
    /// work cannot be reconstructed from the partition alone, so recovery
    /// falls back to a full checkpoint restore for those loops.
    pub incomplete_loops: usize,
}

/// Simulation output.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Steady-state time of one main-loop iteration (max over nodes).
    pub iteration_time: f64,
    pub per_node: Vec<NodeBreakdown>,
    /// Total bytes moved per iteration.
    pub total_bytes: f64,
    /// Total work units per iteration.
    pub total_work: f64,
    /// Failure-aware costs, when the machine has a failure model.
    pub failure: Option<FailureSummary>,
}

impl SimResult {
    /// Throughput per node in work units per second (the Figure 14 y-axes
    /// are all "items per second per node" for app-specific items).
    pub fn throughput_per_node(&self, items: f64, nodes: usize) -> f64 {
        items / (self.effective_time() * nodes as f64)
    }

    /// The time one iteration effectively takes: the failure-aware expected
    /// time when a failure model is installed, the plain iteration time
    /// otherwise.
    pub fn effective_time(&self) -> f64 {
        self.failure.map_or(self.iteration_time, |f| f.expected_iteration_time_s)
    }
}

/// Prices one main-loop iteration of `plan` over its evaluated partitions
/// `parts` (`weights[l]`: work units per iteration element of loop `l`).
/// Runs two iterations — the first settles region homes, the second is
/// measured — matching the paper's "measured once programs reached a
/// steady state".
pub fn simulate(
    program: &[Loop],
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    store: &Store,
    weights: &[f64],
    machine: &MachineModel,
) -> Result<SimResult, SimError> {
    let n = machine.nodes;
    let loops = sim_loops(program, plan, parts, store, weights, n)?;
    let schema = store.schema();
    let blocks: Vec<Partition> =
        schema.regions().map(|(r, decl)| ops::equal(r, decl.size, n)).collect();
    let mut home: Vec<&[IndexSet]> = blocks.iter().map(Partition::subregions).collect();

    let mut result = None;
    for _round in 0..2 {
        let mut per_node = vec![NodeBreakdown::default(); n];
        let mut total_bytes = 0.0;
        let mut total_work = 0.0;
        for lp in &loops {
            for (p, b) in per_node.iter_mut().enumerate() {
                let w = lp.iter.subregion(p).len() as f64 * lp.work_per_iter;
                b.compute += w * machine.compute_per_unit;
                total_work += w;
            }
            // Runtime metadata: every node's dependence analysis walks the
            // full partition metadata of each launch, so fragmented or
            // deeply-derived partitions cost all nodes, linearly in total
            // run count.
            let meta: f64 = lp
                .accesses
                .iter()
                .map(|a| a.expr_weight * a.part.iter().map(|s| s.run_count() as f64).sum::<f64>())
                .sum();
            for b in per_node.iter_mut() {
                b.meta_units += meta;
            }
            for acc in &lp.accesses {
                let h = home[acc.part.region.0 as usize];
                transfer(&acc.sets, h, &mut per_node, &mut total_bytes);
            }
            // Home updates: *writes* move ownership to the accessing
            // partition (the "most recent writer" rule). Reductions merge
            // into the owners' existing instances, so they do not move
            // ownership.
            for acc in lp.accesses.iter().filter(|a| a.writes) {
                home[acc.part.region.0 as usize] = acc.part.first_owner_sets();
            }
        }
        result = Some(SimResult {
            iteration_time: per_node.iter().map(|b| b.time(machine)).fold(0.0f64, f64::max),
            per_node,
            total_bytes,
            total_work,
            failure: None,
        });
    }
    let mut result = result.expect("two rounds ran");
    if let Some(fm) = &machine.failure {
        result.failure = Some(failure_summary(&loops, store, machine, fm, &result, &home));
    }
    if partir_obs::trace_enabled() {
        partir_obs::instant(
            "sim.done",
            vec![
                ("nodes", n.into()),
                ("iteration_time_s", result.iteration_time.into()),
                ("effective_time_s", result.effective_time().into()),
                ("total_bytes", result.total_bytes.into()),
                ("total_work", result.total_work.into()),
            ],
        );
    }
    Ok(result)
}

/// Prices failure recovery from the solved partitions' verdicts and the
/// steady-state home distribution (see [`FailureSummary`]).
fn failure_summary(
    loops: &[SimLoop<'_>],
    store: &Store,
    machine: &MachineModel,
    fm: &FailureModel,
    result: &SimResult,
    home: &[&[IndexSet]],
) -> FailureSummary {
    let n = machine.nodes;
    let mut recompute = vec![0.0f64; n];
    let mut aliased_loops = 0usize;
    let mut incomplete_loops = 0usize;
    for lp in loops {
        // The disjoint/complete verdicts of the iteration partition decide
        // how a lost color's work is priced.
        let disjoint = lp.iter.is_disjoint();
        let complete = lp.iter.is_complete(store.schema().region_size(lp.iter.region));
        if !disjoint {
            aliased_loops += 1;
        }
        if !complete {
            incomplete_loops += 1;
        }
        // Aliasing factor: re-running an aliased color repeats work that
        // live nodes also perform (guards re-filter every element).
        let alias_factor = if disjoint {
            1.0
        } else {
            let total: u64 = lp.iter.total_elements();
            let support = lp.iter.support_len();
            if support == 0 {
                1.0
            } else {
                total as f64 / support as f64
            }
        };
        // Incomplete coverage: the partition alone cannot reconstruct the
        // loop's effects, so recovery replays the whole loop from the
        // checkpoint rather than one color.
        for (p, r) in recompute.iter_mut().enumerate() {
            let elems = if complete {
                lp.iter.subregion(p).len() as f64
            } else {
                lp.iter.total_elements() as f64
            };
            *r += elems * lp.work_per_iter * alias_factor * machine.compute_per_unit;
        }
    }
    // Re-staging the lost node's owned data from the checkpoint.
    for sets in home {
        for (p, s) in sets.iter().enumerate() {
            recompute[p] += s.len() as f64 * BYTES_PER_ELEM / machine.bandwidth;
        }
    }
    let mean_recompute = recompute.iter().sum::<f64>() / n.max(1) as f64;
    let max_recompute = recompute.iter().cloned().fold(0.0f64, f64::max);
    let t = result.iteration_time;
    let checkpoint_frac = fm.checkpoint_cost_s / fm.checkpoint_interval_s;
    let failures_per_iter = n as f64 / fm.node_mtbf_s * t;
    let expected =
        t * (1.0 + checkpoint_frac) + failures_per_iter * (fm.restart_cost_s + mean_recompute);
    FailureSummary {
        failure_free_time_s: t,
        expected_iteration_time_s: expected,
        checkpoint_overhead_frac: checkpoint_frac,
        expected_failures_per_iteration: failures_per_iter,
        mean_recompute_s: mean_recompute,
        max_recompute_s: max_recompute,
        aliased_loops,
        incomplete_loops,
    }
}

/// The traffic of one access: node `p` pulls (a read) or ships (a
/// write-back or buffer merge) `sets[p] − home[p]` from or to the owners,
/// one message per peer it exchanges elements with. Both directions cost
/// the two ends alike. The home is disjoint, so what `p` moves with `q` is
/// `sets[p] ∩ home[q]`: one owner split of `sets[p]`, skipping `p`.
fn transfer(
    sets: &[IndexSet],
    home: &[IndexSet],
    per_node: &mut [NodeBreakdown],
    total_bytes: &mut f64,
) {
    let (owners, mut scratch) = (OwnerMap::new(home), Vec::new());
    for (p, set) in sets.iter().enumerate() {
        owners.split(set, Some(p), &mut scratch, |q, moved| {
            let b = moved.len() as f64 * BYTES_PER_ELEM;
            *total_bytes += b;
            for node in [p, q] {
                per_node[node].comm_bytes += b;
                per_node[node].runs += moved.run_count() as u64;
                per_node[node].messages += 1;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_core::eval::ExtBindings;
    use partir_core::pipeline::{PartId, PlannedReduce};
    use partir_dpl::func::{FnDef, FnTable, IndexFn};
    use partir_dpl::ops::equal;
    use partir_dpl::region::{FieldKind, RegionId, Schema};
    use partir_ir::analysis::AccessInfo;
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};

    fn r0() -> RegionId {
        RegionId(0)
    }

    /// How one access of [`price`]'s loop touches the region.
    enum Acc {
        Read,
        Write,
        Reduce(PlannedReduce),
    }

    /// Prices one loop over `r0` (`size` elements, work 1 per element)
    /// iterating `iter`, with one access per entry of `accesses` through
    /// the given partition: reads and reductions index through a shift of
    /// the loop variable (uncentered), writes are centered. Equal
    /// partitions are one plan partition, as the solver's canonical
    /// deduplication would make them.
    fn price(
        size: u64,
        iter: Partition,
        accesses: Vec<(Acc, Partition)>,
        machine: MachineModel,
    ) -> Result<SimResult, SimError> {
        let mut schema = Schema::new();
        let r = schema.add_region("r", size);
        let (a, b) =
            (schema.add_field(r, "a", FieldKind::F64), schema.add_field(r, "b", FieldKind::F64));
        let mut fns = FnTable::new();
        let shift = IndexFn::AffineMod { mul: 1, add: 1, modulus: size };
        let shift = fns.add("shift", r, r, FnDef::Index(shift));
        let mut builder = LoopBuilder::new("l", r);
        let i = builder.loop_var();
        let j = builder.idx_apply(shift, i);
        let mut exts = ExtBindings::new();
        let mut parts = vec![iter];
        let mut bound = Vec::new();
        for (acc, part) in accesses {
            let id = parts.iter().position(|p| *p == part).unwrap_or_else(|| {
                parts.push(part);
                parts.len() - 1
            });
            let reduce = match acc {
                Acc::Read => {
                    builder.val_read(r, a, j);
                    None
                }
                Acc::Write => {
                    builder.val_write(r, b, i, VExpr::Const(1.0));
                    None
                }
                Acc::Reduce(mode) => {
                    builder.val_reduce(r, a, j, ReduceOp::Add, VExpr::Const(1.0));
                    Some(mode)
                }
            };
            bound.push((PartId(id as u32), reduce));
        }
        for p in parts {
            exts.push(p);
        }
        let program = vec![builder.finish()];
        let bind = |_, x: &AccessInfo| bound[x.id.0 as usize].clone();
        let plan = ParallelPlan::from_bindings(&program, &fns, &exts, &[PartId(0)], bind)
            .expect("a parallelizable loop");
        let store = Store::new(schema);
        let parts = plan.evaluate(&store, &fns, machine.nodes, &exts);
        simulate(&program, &plan, &parts, &store, &[1.0], &machine)
    }

    /// A perfectly local loop scales flat: doubling nodes with workload
    /// keeps per-node time constant.
    #[test]
    fn embarrassingly_parallel_weak_scales_flat() {
        let times: Vec<f64> = [1usize, 4, 16]
            .iter()
            .map(|&n| {
                let size = 20_000 * n as u64;
                let iter = equal(r0(), size, n);
                let accesses = vec![(Acc::Write, iter.clone())];
                price(size, iter, accesses, MachineModel::gpu_cluster(n)).unwrap().iteration_time
            })
            .collect();
        let ratio = times[2] / times[0];
        assert!((0.99..1.01).contains(&ratio), "flat scaling, got {times:?}");
    }

    /// A loop whose every task reads a block owned by node 0 bottlenecks on
    /// node 0's egress, and per-node throughput decays with node count.
    #[test]
    fn hot_owner_becomes_bottleneck() {
        let eff_at = |n: usize| -> f64 {
            let per_node = 10_000u64;
            let size = per_node * n as u64;
            let iter = equal(r0(), size, n);
            // Every task also reads the first 1000 elements (owned by node
            // 0 for n > 1).
            let shared = IndexSet::from_range(0, 1000);
            let read =
                Partition::new(r0(), iter.subregions().iter().map(|s| s.union(&shared)).collect());
            let res = price(size, iter, vec![(Acc::Read, read)], MachineModel::gpu_cluster(n));
            // Weak-scaling efficiency vs the 1-node case is proportional to
            // 1/iteration_time here (constant per-node work).
            1.0 / res.unwrap().iteration_time
        };
        let e1 = eff_at(1);
        let e16 = eff_at(16);
        let e64 = eff_at(64);
        assert!(e16 < e1 * 0.95, "16-node efficiency should drop: {e16} vs {e1}");
        assert!(e64 < e16, "decay continues with node count");
    }

    /// Reads through one shared halo partition (the Stencil manual
    /// strategy) pay one message per neighbour: same bytes as the same
    /// reads through two partitions, fewer messages, lower time.
    #[test]
    fn consolidated_messages_cost_less() {
        let n = 16usize;
        let size = 1000 * n as u64;
        let iter = equal(r0(), size, n);
        // Each task's block plus the elements `offs` before it.
        let halo = |offs: &[u64]| -> Partition {
            let grow = |s: &IndexSet| {
                let lo = s.min().unwrap();
                let before = offs.iter().filter(|&&o| o <= lo).map(|&o| lo - o);
                s.union(&IndexSet::from_indices(before))
            };
            Partition::new(r0(), iter.subregions().iter().map(grow).collect())
        };
        let m = MachineModel::gpu_cluster(n);
        let separate = vec![(Acc::Read, halo(&[1])), (Acc::Read, halo(&[2]))];
        let separate = price(size, iter.clone(), separate, m).unwrap();
        let shared = vec![(Acc::Read, halo(&[1, 2])), (Acc::Read, halo(&[1, 2]))];
        let shared = price(size, iter, shared, m).unwrap();
        let messages = |r: &SimResult| r.per_node.iter().map(|b| b.messages).sum::<u64>();
        assert!(messages(&shared) < messages(&separate));
        assert!(shared.iteration_time < separate.iteration_time);
        assert_eq!(shared.total_bytes, separate.total_bytes);
    }

    /// Buffered reductions ship buffer extents; a disjoint (direct)
    /// reduction aligned with the home ships nothing.
    #[test]
    fn buffered_reduction_traffic() {
        let n = 8usize;
        let size = 800u64;
        let iter = equal(r0(), size, n);
        let m = MachineModel::gpu_cluster(n);
        // Buffered: every task's buffer covers its block plus 10 remote
        // elements.
        let foreign = IndexSet::from_range(0, 10);
        let bufs = Partition::new(r0(), iter.iter().map(|s| s.union(&foreign)).collect());
        let buffered = vec![(Acc::Reduce(PlannedReduce::Buffered), bufs)];
        assert!(price(size, iter.clone(), buffered, m).unwrap().total_bytes > 0.0);
        // Direct aligned reduction: no traffic.
        let direct = vec![(Acc::Reduce(PlannedReduce::Direct), iter.clone())];
        assert_eq!(price(size, iter, direct, m).unwrap().total_bytes, 0.0);
    }

    /// Fragmented remote sets cost more than contiguous ones of equal size.
    #[test]
    fn run_fragmentation_overhead() {
        let n = 4usize;
        let size = 4000u64;
        let iter = equal(r0(), size, n);
        let contiguous: IndexSet = IndexSet::from_range(0, 100);
        let fragmented: IndexSet = IndexSet::from_indices((0..200).step_by(2));
        assert_eq!(contiguous.len(), fragmented.len());
        let t = |extra: &IndexSet| {
            let read = Partition::new(r0(), iter.iter().map(|s| s.union(extra)).collect());
            let res =
                price(size, iter.clone(), vec![(Acc::Read, read)], MachineModel::gpu_cluster(n));
            res.unwrap().iteration_time
        };
        let (t_cont, t_frag) = (t(&contiguous), t(&fragmented));
        assert!(t_frag > t_cont, "{t_frag} vs {t_cont}");
    }

    /// A loop reducing in place through its own iteration partition.
    fn local(size: u64, iter: Partition, machine: MachineModel) -> Result<SimResult, SimError> {
        price(size, iter.clone(), vec![(Acc::Reduce(PlannedReduce::Direct), iter)], machine)
    }

    /// The failure model inflates expected time, and more failure-prone
    /// machines inflate it more.
    #[test]
    fn failure_model_prices_recovery() {
        let n = 16usize;
        let size = 16_000u64;
        let iter = equal(r0(), size, n);
        let perfect = local(size, iter.clone(), MachineModel::gpu_cluster(n)).unwrap();
        assert!(perfect.failure.is_none());
        let m = MachineModel::gpu_cluster(n).with_failure(FailureModel::commodity());
        let res = local(size, iter.clone(), m).unwrap();
        let f = res.failure.expect("failure summary present");
        assert!(f.expected_iteration_time_s > res.iteration_time);
        assert_eq!(f.failure_free_time_s, res.iteration_time);
        assert_eq!(res.effective_time(), f.expected_iteration_time_s);
        assert_eq!(f.aliased_loops, 0);
        assert_eq!(f.incomplete_loops, 0);
        // A 10× less reliable machine pays more.
        let flaky = FailureModel {
            node_mtbf_s: FailureModel::commodity().node_mtbf_s / 10.0,
            ..FailureModel::commodity()
        };
        let res2 = local(size, iter, MachineModel::gpu_cluster(n).with_failure(flaky)).unwrap();
        assert!(res2.failure.unwrap().expected_iteration_time_s > f.expected_iteration_time_s);
    }

    /// Aliased iteration partitions pay the aliasing factor on
    /// recomputation (the disjointness verdict feeds the failure model).
    #[test]
    fn aliased_partitions_cost_more_to_recompute() {
        let n = 8usize;
        let size = 8_000u64;
        let disjoint = equal(r0(), size, n);
        // Every color additionally repeats the first 1000 elements.
        let overlap = IndexSet::from_range(0, 1000);
        let aliased =
            Partition::new(r0(), disjoint.subregions().iter().map(|s| s.union(&overlap)).collect());
        let m = MachineModel::gpu_cluster(n).with_failure(FailureModel::commodity());
        let f_dis = local(size, disjoint, m).unwrap().failure.unwrap();
        let f_ali = local(size, aliased, m).unwrap().failure.unwrap();
        assert_eq!(f_dis.aliased_loops, 0);
        assert_eq!(f_ali.aliased_loops, 1);
        assert!(f_ali.mean_recompute_s > f_dis.mean_recompute_s);
    }

    /// A plan that does not fit the machine surfaces as a typed error, not
    /// a panic.
    #[test]
    fn typed_errors_for_bad_specs() {
        let n = 4usize;
        let size = 400u64;
        // Iteration width that disagrees with the node count.
        match local(size, equal(r0(), size, n + 1), MachineModel::gpu_cluster(n)) {
            Err(SimError::IterWidthMismatch { expected, got, .. }) => {
                assert_eq!((expected, got), (n, n + 1));
            }
            other => panic!("expected IterWidthMismatch, got {other:?}"),
        }
    }
}
