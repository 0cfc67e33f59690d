//! Distributed-memory execution simulator.
//!
//! The paper's evaluation (Figure 14) measures weak scaling on up to 256
//! GPU nodes of Piz Daint. We reproduce the *shape* of those curves with an
//! explicit machine model driven by the actual partitions the solver (or a
//! manual strategy) produces:
//!
//! * one task per node (`color == node`, as in the paper's one-rank-per-GPU
//!   configuration);
//! * per-node compute time proportional to the task's iteration-subregion
//!   size;
//! * a *home* (owner) distribution per region, updated to the writing
//!   partition after each loop — reads of elements outside the home
//!   subregion cost ingress on the reader and egress on the owner;
//! * reduction-buffer merges ship the buffered extent back to the owners;
//! * per-message latency (with optional consolidation groups, modeling the
//!   hand-optimized halo exchange of Section 6.2) and a per-run overhead
//!   modeling the runtime's handling of fragmented index sets (the
//!   sparsity-pattern issue of Section 6.5).
//!
//! Node time = compute + (ingress+egress)/bandwidth + messages×latency +
//! runs×run_overhead; the iteration time is the maximum over nodes, which
//! is what makes a single hot owner (Circuit's shared nodes on node 0) a
//! scaling bottleneck exactly as in Figure 14d.

use partir_dpl::index_set::IndexSet;
use partir_dpl::ops;
use partir_dpl::partition::Partition;
use partir_dpl::region::RegionId;
use std::collections::HashMap;
use std::fmt;

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

/// Simulation failure: the spec is inconsistent (these were panics before
/// the executor/simulator error audit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An access targets a region absent from `SimSpec::region_sizes`.
    MissingRegionSize { region: RegionId },
    /// A home partition's width differs from the node count.
    HomeWidthMismatch { region: RegionId, expected: usize, got: usize },
    /// A loop's iteration partition width differs from the node count.
    IterWidthMismatch { loop_name: String, expected: usize, got: usize },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingRegionSize { region } => {
                write!(f, "region r{} missing from region_sizes", region.0)
            }
            SimError::HomeWidthMismatch { region, expected, got } => {
                write!(
                    f,
                    "home partition for region r{} has {got} subregions, node count is {expected}",
                    region.0
                )
            }
            SimError::IterWidthMismatch { loop_name, expected, got } => {
                write!(
                    f,
                    "loop '{loop_name}': iteration width {got} does not match node count {expected}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// How an access participates in communication.
#[derive(Clone, Debug, PartialEq)]
pub enum SimKind {
    Read,
    /// Centered write: updates the region's home to the access partition.
    Write,
    /// Reduction applied in place (disjoint / guarded): write-back traffic
    /// for remote elements, then home update.
    ReduceDirect,
    /// Buffered reduction: each task ships its buffered extent to owners.
    ReduceBuffered {
        buffer_sets: Vec<IndexSet>,
    },
}

/// One region access of a simulated loop.
#[derive(Clone, Debug)]
pub struct SimAccess {
    pub region: RegionId,
    pub part: Partition,
    pub kind: SimKind,
    pub bytes_per_elem: f64,
    /// Accesses sharing a consolidation group pay at most one message per
    /// peer per loop (the hand-optimized halo exchange).
    pub group: Option<u32>,
    /// Complexity of the DPL expression that constructed this partition
    /// (operator-node count; 1.0 for externally provided partitions).
    pub expr_weight: f64,
}

/// One parallel loop.
#[derive(Clone, Debug)]
pub struct SimLoop {
    pub name: String,
    pub iter: Partition,
    /// Work units per iteration element.
    pub work_per_iter: f64,
    pub accesses: Vec<SimAccess>,
}

/// A whole main-loop iteration.
#[derive(Clone, Debug, Default)]
pub struct SimSpec {
    pub loops: Vec<SimLoop>,
    /// Region sizes (for default block homes).
    pub region_sizes: HashMap<RegionId, u64>,
    /// Optional initial home distribution per region (default: equal
    /// blocks).
    pub initial_home: HashMap<RegionId, Partition>,
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

/// Runs the simulation to steady state (two iterations: the first settles
/// region homes, the second is measured — matching the paper's
/// "measured once programs reached a steady state").
pub fn simulate(spec: &SimSpec, machine: &MachineModel) -> Result<SimResult, SimError> {
    let n = machine.nodes;
    // Initial homes.
    let mut home: HashMap<RegionId, Vec<IndexSet>> = HashMap::new();
    for (&r, &size) in &spec.region_sizes {
        let h = spec.initial_home.get(&r).cloned().unwrap_or_else(|| ops::equal(r, size, n));
        if h.num_subregions() != n {
            return Err(SimError::HomeWidthMismatch {
                region: r,
                expected: n,
                got: h.num_subregions(),
            });
        }
        home.insert(r, h.subregions().to_vec());
    }

    let mut result = None;
    for _round in 0..2 {
        let mut per_node = vec![NodeBreakdown::default(); n];
        let mut total_bytes = 0.0;
        let mut total_work = 0.0;
        // Message dedup per (loop, group, src, dst).
        for lp in &spec.loops {
            if lp.iter.num_subregions() != n {
                return Err(SimError::IterWidthMismatch {
                    loop_name: lp.name.clone(),
                    expected: n,
                    got: lp.iter.num_subregions(),
                });
            }
            let mut peer_msgs: HashMap<(u32, usize, usize), ()> = HashMap::new();
            let mut next_group = 1_000_000u32;
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
                let h = home
                    .get(&acc.region)
                    .ok_or(SimError::MissingRegionSize { region: acc.region })?;
                let group = acc.group.unwrap_or_else(|| {
                    next_group += 1;
                    next_group
                });
                match &acc.kind {
                    SimKind::Read => {
                        gather(
                            &acc.part,
                            h,
                            acc.bytes_per_elem,
                            group,
                            &mut per_node,
                            &mut peer_msgs,
                            &mut total_bytes,
                        );
                    }
                    SimKind::Write | SimKind::ReduceDirect => {
                        // Write-back of remote elements to their owners.
                        scatter(
                            acc.part.subregions(),
                            h,
                            acc.bytes_per_elem,
                            group,
                            &mut per_node,
                            &mut peer_msgs,
                            &mut total_bytes,
                        );
                    }
                    SimKind::ReduceBuffered { buffer_sets } => {
                        scatter(
                            buffer_sets,
                            h,
                            acc.bytes_per_elem,
                            group,
                            &mut per_node,
                            &mut peer_msgs,
                            &mut total_bytes,
                        );
                    }
                }
            }
            // Home updates: *writes* move ownership to the accessing
            // partition (the "most recent writer" rule). Reductions merge
            // into the owners' existing instances, so they do not move
            // ownership.
            for acc in &lp.accesses {
                if matches!(acc.kind, SimKind::Write) {
                    home.insert(acc.region, disjointify(&acc.part));
                }
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
        result.failure = Some(failure_summary(spec, machine, fm, &result, &home));
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
    spec: &SimSpec,
    machine: &MachineModel,
    fm: &FailureModel,
    result: &SimResult,
    home: &HashMap<RegionId, Vec<IndexSet>>,
) -> FailureSummary {
    let n = machine.nodes;
    let mut recompute = vec![0.0f64; n];
    let mut aliased_loops = 0usize;
    let mut incomplete_loops = 0usize;
    for lp in &spec.loops {
        // The disjoint/complete verdicts of the iteration partition decide
        // how a lost color's work is priced.
        let disjoint = lp.iter.is_disjoint();
        let complete =
            spec.region_sizes.get(&lp.iter.region).is_none_or(|&size| lp.iter.is_complete(size));
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
            let support = lp.iter.support().len();
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
    for sets in home.values() {
        for (p, s) in sets.iter().enumerate() {
            recompute[p] += s.len() as f64 * 8.0 / machine.bandwidth;
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

/// Read traffic: node `p` pulls `part[p] − home[p]` from the owners.
fn gather(
    part: &Partition,
    home: &[IndexSet],
    bytes: f64,
    group: u32,
    per_node: &mut [NodeBreakdown],
    peer_msgs: &mut HashMap<(u32, usize, usize), ()>,
    total_bytes: &mut f64,
) {
    let n = per_node.len();
    for p in 0..n {
        let needed = part.subregion(p).difference(&home[p]);
        if needed.is_empty() {
            continue;
        }
        for (q, hq) in home.iter().enumerate() {
            if q == p {
                continue;
            }
            let from_q = needed.intersect(hq);
            if from_q.is_empty() {
                continue;
            }
            let b = from_q.len() as f64 * bytes;
            per_node[p].comm_bytes += b;
            per_node[q].comm_bytes += b;
            *total_bytes += b;
            per_node[p].runs += from_q.run_count() as u64;
            per_node[q].runs += from_q.run_count() as u64;
            if peer_msgs.insert((group, q, p), ()).is_none() {
                per_node[p].messages += 1;
                per_node[q].messages += 1;
            }
        }
    }
}

/// Write-back / merge traffic: node `p` ships `sets[p] − home[p]` to the
/// owners.
fn scatter(
    sets: &[IndexSet],
    home: &[IndexSet],
    bytes: f64,
    group: u32,
    per_node: &mut [NodeBreakdown],
    peer_msgs: &mut HashMap<(u32, usize, usize), ()>,
    total_bytes: &mut f64,
) {
    let _n = per_node.len();
    for (p, set) in sets.iter().enumerate() {
        let remote = set.difference(&home[p]);
        if remote.is_empty() {
            continue;
        }
        for (q, hq) in home.iter().enumerate() {
            if q == p {
                continue;
            }
            let to_q = remote.intersect(hq);
            if to_q.is_empty() {
                continue;
            }
            let b = to_q.len() as f64 * bytes;
            per_node[p].comm_bytes += b;
            per_node[q].comm_bytes += b;
            *total_bytes += b;
            per_node[p].runs += to_q.run_count() as u64;
            per_node[q].runs += to_q.run_count() as u64;
            if peer_msgs.insert((group, p, q), ()).is_none() {
                per_node[p].messages += 1;
                per_node[q].messages += 1;
            }
        }
    }
}

/// Makes a (possibly aliased) partition disjoint by first-owner claim, so
/// it can serve as a home distribution.
fn disjointify(p: &Partition) -> Vec<IndexSet> {
    let mut seen = IndexSet::new();
    p.iter()
        .map(|s| {
            let mine = s.difference(&seen);
            seen = seen.union(s);
            mine
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_dpl::ops::equal;

    fn r0() -> RegionId {
        RegionId(0)
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
                let spec = SimSpec {
                    loops: vec![SimLoop {
                        name: "local".into(),
                        iter: iter.clone(),
                        work_per_iter: 1.0,
                        accesses: vec![SimAccess {
                            region: r0(),
                            part: iter.clone(),
                            kind: SimKind::Write,
                            bytes_per_elem: 8.0,
                            group: None,
                            expr_weight: 1.0,
                        }],
                    }],
                    region_sizes: [(r0(), size)].into_iter().collect(),
                    initial_home: Default::default(),
                };
                simulate(&spec, &MachineModel::gpu_cluster(n)).unwrap().iteration_time
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
            let spec = SimSpec {
                loops: vec![SimLoop {
                    name: "hot".into(),
                    iter: iter.clone(),
                    work_per_iter: 1.0,
                    accesses: vec![SimAccess {
                        region: r0(),
                        part: read,
                        kind: SimKind::Read,
                        bytes_per_elem: 8.0,
                        group: None,
                        expr_weight: 1.0,
                    }],
                }],
                region_sizes: [(r0(), size)].into_iter().collect(),
                initial_home: Default::default(),
            };
            let res = simulate(&spec, &MachineModel::gpu_cluster(n)).unwrap();
            // Weak-scaling efficiency vs the 1-node case is proportional to
            // 1/iteration_time here (constant per-node work).
            1.0 / res.iteration_time
        };
        let e1 = eff_at(1);
        let e16 = eff_at(16);
        let e64 = eff_at(64);
        assert!(e16 < e1 * 0.95, "16-node efficiency should drop: {e16} vs {e1}");
        assert!(e64 < e16, "decay continues with node count");
    }

    /// Consolidation groups reduce message counts (the Stencil manual
    /// optimization): same bytes, fewer messages, lower time.
    #[test]
    fn consolidated_messages_cost_less() {
        let n = 16usize;
        let size = 1000 * n as u64;
        let iter = equal(r0(), size, n);
        // Two halo accesses reading one element from each neighbor.
        let halo = |off: i64| -> Partition {
            Partition::new(
                r0(),
                iter.subregions()
                    .iter()
                    .map(|s| {
                        let lo = s.min().unwrap() as i64;
                        let hi = s.max().unwrap() as i64;
                        let probe = if off < 0 { lo + off } else { hi + off };
                        if probe >= 0 && (probe as u64) < size {
                            s.union(&IndexSet::from_range(probe as u64, probe as u64 + 1))
                        } else {
                            s.clone()
                        }
                    })
                    .collect(),
            )
        };
        let mk_spec = |group: [Option<u32>; 2]| SimSpec {
            loops: vec![SimLoop {
                name: "halo".into(),
                iter: iter.clone(),
                work_per_iter: 1.0,
                accesses: vec![
                    SimAccess {
                        region: r0(),
                        part: halo(-1),
                        kind: SimKind::Read,
                        bytes_per_elem: 8.0,
                        group: group[0],
                        expr_weight: 1.0,
                    },
                    SimAccess {
                        region: r0(),
                        part: halo(-2),
                        kind: SimKind::Read,
                        bytes_per_elem: 8.0,
                        group: group[1],
                        expr_weight: 1.0,
                    },
                ],
            }],
            region_sizes: [(r0(), size)].into_iter().collect(),
            initial_home: Default::default(),
        };
        let m = MachineModel::gpu_cluster(n);
        let separate = simulate(&mk_spec([None, None]), &m).unwrap();
        let consolidated = simulate(&mk_spec([Some(1), Some(1)]), &m).unwrap();
        assert!(consolidated.iteration_time < separate.iteration_time);
        assert_eq!(consolidated.total_bytes, separate.total_bytes);
    }

    /// Buffered reductions ship buffer extents; a disjoint (direct)
    /// reduction aligned with the home ships nothing.
    #[test]
    fn buffered_reduction_traffic() {
        let n = 8usize;
        let size = 800u64;
        let iter = equal(r0(), size, n);
        // Buffered: every task's buffer covers its block plus 10 remote
        // elements.
        let foreign = IndexSet::from_range(0, 10);
        let bufs: Vec<IndexSet> = iter.subregions().iter().map(|s| s.union(&foreign)).collect();
        let spec = SimSpec {
            loops: vec![SimLoop {
                name: "reduce".into(),
                iter: iter.clone(),
                work_per_iter: 1.0,
                accesses: vec![SimAccess {
                    region: r0(),
                    part: Partition::new(r0(), bufs.clone()),
                    kind: SimKind::ReduceBuffered { buffer_sets: bufs },
                    bytes_per_elem: 8.0,
                    group: None,
                    expr_weight: 1.0,
                }],
            }],
            region_sizes: [(r0(), size)].into_iter().collect(),
            initial_home: Default::default(),
        };
        let res = simulate(&spec, &MachineModel::gpu_cluster(n)).unwrap();
        assert!(res.total_bytes > 0.0);
        // Direct aligned reduction: no traffic.
        let spec2 = SimSpec {
            loops: vec![SimLoop {
                name: "reduce".into(),
                iter: iter.clone(),
                work_per_iter: 1.0,
                accesses: vec![SimAccess {
                    region: r0(),
                    part: iter.clone(),
                    kind: SimKind::ReduceDirect,
                    bytes_per_elem: 8.0,
                    group: None,
                    expr_weight: 1.0,
                }],
            }],
            region_sizes: [(r0(), size)].into_iter().collect(),
            initial_home: Default::default(),
        };
        let res2 = simulate(&spec2, &MachineModel::gpu_cluster(n)).unwrap();
        assert_eq!(res2.total_bytes, 0.0);
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
        let mk = |extra: &IndexSet| SimSpec {
            loops: vec![SimLoop {
                name: "frag".into(),
                iter: iter.clone(),
                work_per_iter: 1.0,
                accesses: vec![SimAccess {
                    region: r0(),
                    part: Partition::new(
                        r0(),
                        iter.subregions().iter().map(|s| s.union(extra)).collect(),
                    ),
                    kind: SimKind::Read,
                    bytes_per_elem: 8.0,
                    group: None,
                    expr_weight: 1.0,
                }],
            }],
            region_sizes: [(r0(), size)].into_iter().collect(),
            initial_home: Default::default(),
        };
        let m = MachineModel::gpu_cluster(n);
        let t_cont = simulate(&mk(&contiguous), &m).unwrap().iteration_time;
        let t_frag = simulate(&mk(&fragmented), &m).unwrap().iteration_time;
        assert!(t_frag > t_cont, "{t_frag} vs {t_cont}");
    }

    fn local_spec(_n: usize, iter: Partition, size: u64) -> SimSpec {
        SimSpec {
            loops: vec![SimLoop {
                name: "local".into(),
                iter: iter.clone(),
                work_per_iter: 1.0,
                accesses: vec![SimAccess {
                    region: r0(),
                    part: iter,
                    kind: SimKind::ReduceDirect,
                    bytes_per_elem: 8.0,
                    group: None,
                    expr_weight: 1.0,
                }],
            }],
            region_sizes: [(r0(), size)].into_iter().collect(),
            initial_home: Default::default(),
        }
    }

    /// The failure model inflates expected time, and more failure-prone
    /// machines inflate it more.
    #[test]
    fn failure_model_prices_recovery() {
        let n = 16usize;
        let size = 16_000u64;
        let spec = local_spec(n, equal(r0(), size, n), size);
        let perfect = simulate(&spec, &MachineModel::gpu_cluster(n)).unwrap();
        assert!(perfect.failure.is_none());
        let m = MachineModel::gpu_cluster(n).with_failure(FailureModel::commodity());
        let res = simulate(&spec, &m).unwrap();
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
        let res2 = simulate(&spec, &MachineModel::gpu_cluster(n).with_failure(flaky)).unwrap();
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
        let f_dis = simulate(&local_spec(n, disjoint, size), &m).unwrap().failure.unwrap();
        let f_ali = simulate(&local_spec(n, aliased, size), &m).unwrap().failure.unwrap();
        assert_eq!(f_dis.aliased_loops, 0);
        assert_eq!(f_ali.aliased_loops, 1);
        assert!(f_ali.mean_recompute_s > f_dis.mean_recompute_s);
    }

    /// Spec inconsistencies surface as typed errors, not panics.
    #[test]
    fn typed_errors_for_bad_specs() {
        let n = 4usize;
        let size = 400u64;
        let iter = equal(r0(), size, n);
        // Access to a region that has no size entry.
        let spec = SimSpec {
            loops: vec![SimLoop {
                name: "bad".into(),
                iter: iter.clone(),
                work_per_iter: 1.0,
                accesses: vec![SimAccess {
                    region: RegionId(9),
                    part: iter.clone(),
                    kind: SimKind::Read,
                    bytes_per_elem: 8.0,
                    group: None,
                    expr_weight: 1.0,
                }],
            }],
            region_sizes: [(r0(), size)].into_iter().collect(),
            initial_home: Default::default(),
        };
        match simulate(&spec, &MachineModel::gpu_cluster(n)) {
            Err(SimError::MissingRegionSize { region }) => assert_eq!(region, RegionId(9)),
            other => panic!("expected MissingRegionSize, got {other:?}"),
        }
        // Iteration width that disagrees with the node count.
        let spec2 = local_spec(n, equal(r0(), size, n + 1), size);
        match simulate(&spec2, &MachineModel::gpu_cluster(n)) {
            Err(SimError::IterWidthMismatch { expected, got, .. }) => {
                assert_eq!((expected, got), (n, n + 1));
            }
            other => panic!("expected IterWidthMismatch, got {other:?}"),
        }
    }
}
