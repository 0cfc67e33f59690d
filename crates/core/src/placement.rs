//! Cost-driven placement of partition colors onto ranks.
//!
//! The solver decides *which elements share a color*; this module decides
//! *which rank owns each color*. The default block mapping
//! ([`crate::exchange::block_assignment`]) assigns colors to ranks in
//! contiguous index order — optimal when the index order tracks the
//! communication structure (banded SpMV, row-major stencils) and arbitrarily
//! bad when it does not (renumbered meshes, scattered sparsity, clustered
//! graphs laid out in netlist order).
//!
//! The placement pipeline:
//!
//! 1. **Communication graph.** [`CommGraph::of`] folds the plan's color
//!    footprint ([`crate::exchange::Footprint`]) under the identity
//!    assignment (every color its own rank), so the edge weight `w(c, d)`
//!    is the exact `needed − owned` byte volume between colors `c` and `d`
//!    (ghost fetches, write-backs, and routed partial buffers, via
//!    [`crate::exchange::ExchangePlan::predicted_pair_volume`]), and the
//!    node weight `load(c)` is the color's owned f64 bytes. Exact by
//!    construction: no traffic model is guessed from the loop text.
//! 2. **Greedy k-way seeding.** Colors in descending (load + affinity)
//!    order; the heaviest `k` seed distinct ranks, the rest join the rank
//!    with the strongest affinity to their already placed neighbors,
//!    subject to the load-balance cap.
//! 3. **KL/FM refinement.** Bounded gain passes: a color moves to another
//!    rank when the move strictly reduces the cut and the destination
//!    stays under its capacity (FM), and two colors on different ranks
//!    exchange places when the swap does (KL) — the swap half matters
//!    because under a tight balance cap with uniform color loads every
//!    rank sits at capacity and single moves are all blocked.
//!    Deterministic (index-order sweeps, lowest-rank tie-breaks), so a
//!    placement replays bit-identically.
//!
//! **Load balance**: the ranks are identical (as the paper's Piz Daint
//! nodes are), so each may own at most [`IMBALANCE`]` · total_load / ranks`
//! bytes.
//!
//! The graph objective is a surrogate — two co-ranked colors fetching the
//! same remote element are charged twice in the graph but once by the real
//! rank-level exchange — so [`place`] also folds the candidate and the
//! block baseline at rank granularity and keeps whichever moves fewer
//! *exact* bytes. Cost-driven placement therefore never regresses below
//! block, by construction. All three folds are of one footprint: `place`
//! builds it once per call, whatever the policy.
//!
//! **Recovery** reuses the same machinery: [`evacuate_placement`] re-places
//! only the lost ranks' colors onto the live ranks by gain, preserving the
//! migration-minimality invariant that survivor-owned shards never move.

use crate::exchange::{block_assignment, ExchangeError, ExchangePlan, Footprint, PairVolume};
use crate::pipeline::ParallelPlan;
use partir_dpl::partition::Partition;
use partir_dpl::region::Schema;
use std::sync::Arc;
use std::time::Instant;

/// Load-balance cap: a rank's owned bytes may exceed the fair share
/// `total_load / ranks` by at most this factor.
pub const IMBALANCE: f64 = 1.10;

/// Upper bound on KL/FM refinement sweeps.
pub const MAX_PASSES: usize = 8;

/// How colors map to ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Contiguous blocks in color-index order (the historical default).
    Block,
    /// Greedy seeding + KL/FM refinement on the communication graph.
    CostDriven,
    /// A caller-supplied `assignment[color] = rank` (validated like
    /// [`crate::exchange::derive_exchange_with`]'s assignment: full
    /// coverage, in-range ranks).
    Explicit(Vec<usize>),
}

impl PlacementPolicy {
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::Block => "block",
            PlacementPolicy::CostDriven => "cost",
            PlacementPolicy::Explicit(_) => "explicit",
        }
    }
}

/// Placement inputs: the policy. The balance cap and the refinement
/// bound are the constants [`IMBALANCE`] and [`MAX_PASSES`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementConfig {
    pub policy: PlacementPolicy,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig { policy: PlacementPolicy::Block }
    }
}

impl PlacementConfig {
    pub fn cost_driven() -> PlacementConfig {
        PlacementConfig { policy: PlacementPolicy::CostDriven }
    }
}

/// The (color × color) communication-volume graph plus per-color loads.
#[derive(Clone, Debug)]
pub struct CommGraph {
    pub n_colors: usize,
    /// Directed bytes `w[src · n + dst]` shipped from color `src` to color
    /// `dst` over one program pass, were every color its own rank.
    w: Vec<u64>,
    /// Owned f64 bytes per color (the balance weight; sums to the store's
    /// sharded footprint because the owner partitions are disjoint+complete).
    pub load: Vec<u64>,
}

impl CommGraph {
    /// The plan's graph: [`CommGraph::of`] its footprint.
    pub fn build(
        plan: &ParallelPlan,
        parts: &[Arc<Partition>],
        schema: &Schema,
    ) -> Result<CommGraph, ExchangeError> {
        if parts.is_empty() {
            return Ok(CommGraph { n_colors: 0, w: Vec::new(), load: Vec::new() });
        }
        CommGraph::of(&Footprint::build(plan, parts, schema)?, schema)
    }

    /// The graph is the footprint's fold under the identity assignment:
    /// with every color its own rank, `predicted_pair_volume` *is* the
    /// per-color traffic matrix, so edges are exact `needed − owned`
    /// set-algebra bytes (the same sets the runtime moves), not a model.
    pub fn of(fp: &Footprint, schema: &Schema) -> Result<CommGraph, ExchangeError> {
        let n = fp.n_colors;
        let x = fp.fold(n.max(1), &(0..n).collect::<Vec<_>>())?;
        let vol = x.predicted_pair_volume();
        let w = vol.iter().flatten().map(PairVolume::bytes).take(n * n).collect();
        let load = (0..n).map(|c| x.owned_field_bytes(schema, c)).collect();
        Ok(CommGraph { n_colors: n, w, load })
    }

    /// A graph from raw parts — tests and synthetic benchmarks only.
    #[doc(hidden)]
    pub fn from_raw(n_colors: usize, edges: &[(usize, usize, u64)], load: Vec<u64>) -> CommGraph {
        let mut w = vec![0u64; n_colors * n_colors];
        for &(a, b, bytes) in edges {
            w[a * n_colors + b] += bytes;
        }
        CommGraph { n_colors, w, load }
    }

    /// Undirected affinity between two colors: bytes either would save by
    /// sharing a rank.
    pub fn affinity(&self, a: usize, b: usize) -> u64 {
        self.w[a * self.n_colors + b] + self.w[b * self.n_colors + a]
    }

    pub fn total_load(&self) -> u64 {
        self.load.iter().sum()
    }

    /// Bytes crossing rank boundaries under `assignment` (unpriced).
    pub fn cut_bytes(&self, assignment: &[usize]) -> u64 {
        let mut cut = 0u64;
        for a in 0..self.n_colors {
            for b in (a + 1)..self.n_colors {
                if assignment[a] != assignment[b] {
                    cut += self.affinity(a, b);
                }
            }
        }
        cut
    }
}

/// Sparse view of the nonzero affinities, built once per solve so the
/// µs-scale refinement loops walk edges instead of rescanning the dense
/// matrix. Symmetric by construction because affinity is.
struct Adjacency {
    offsets: Vec<u32>,
    edges: Vec<(u32, f64)>,
}

impl Adjacency {
    fn build(g: &CommGraph) -> Adjacency {
        let n = g.n_colors;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        offsets.push(0u32);
        for c in 0..n {
            for d in 0..n {
                if d != c {
                    let aff = g.affinity(c, d);
                    if aff > 0 {
                        edges.push((d as u32, aff as f64));
                    }
                }
            }
            offsets.push(edges.len() as u32);
        }
        Adjacency { offsets, edges }
    }

    /// `(neighbor, affinity)` pairs of color `c`.
    fn neighbors(&self, c: usize) -> &[(u32, f64)] {
        &self.edges[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Cut color `c` pays at rank `r` under `cur`: `Σ_d affinity(c,d)`
    /// over its placed neighbors on other ranks.
    fn cost_at(&self, c: usize, r: usize, cur: &[usize]) -> f64 {
        let mut cost = 0.0;
        for &(d, aff) in self.neighbors(c) {
            let s = cur[d as usize];
            if s != usize::MAX && s != r {
                cost += aff;
            }
        }
        cost
    }
}

/// What the placement solver did — the `placement` report section.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlacementReport {
    /// `"block"`, `"cost"`, or `"explicit"`.
    pub policy: String,
    pub n_colors: usize,
    pub n_ranks: usize,
    /// Graph-cut bytes under the block baseline / the chosen assignment
    /// (zero for non-cost policies, which never build the graph).
    pub cut_block_bytes: u64,
    pub cut_bytes: u64,
    /// Exact predicted bytes per program pass — `ExchangeStats::total_bytes`
    /// of the rank-granular derivation — under block and under the chosen
    /// assignment. Strict volume accounting pins the measured bytes to
    /// these, so a predicted reduction *is* a measured reduction.
    pub predicted_block_bytes: u64,
    pub predicted_bytes: u64,
    /// The configured cap and the achieved `max_r load_r / (total · share_r)`.
    pub imbalance_limit: f64,
    pub imbalance: f64,
    /// Refinement sweeps run and moves applied.
    pub passes: u64,
    pub moves: u64,
    /// `predicted_block_bytes − predicted_bytes` (saturating).
    pub gain_bytes: u64,
    /// Time to build the color footprint and fold it under the identity
    /// assignment into the graph (zero for non-cost policies).
    pub graph_ns: u64,
    /// Seeding + KL/FM refinement time (the "refinement solve time" the
    /// bench gates below 5% of end-to-end plan time).
    pub solve_ns: u64,
    /// Wall-clock of the whole placement stage: footprint, graph, solve,
    /// and the rank-granular folds of every candidate. Part of the
    /// end-to-end plan time the solve gate divides by.
    pub place_ns: u64,
    /// The refined candidate moved no fewer exact bytes than block, so the
    /// block assignment was kept.
    pub fell_back_to_block: bool,
}

impl PlacementReport {
    pub fn to_json(&self) -> partir_obs::json::Json {
        partir_obs::json::Json::object()
            .with("policy", self.policy.as_str())
            .with("n_colors", self.n_colors)
            .with("n_ranks", self.n_ranks)
            .with("cut_block_bytes", self.cut_block_bytes)
            .with("cut_bytes", self.cut_bytes)
            .with("predicted_block_bytes", self.predicted_block_bytes)
            .with("predicted_bytes", self.predicted_bytes)
            .with("imbalance_limit", self.imbalance_limit)
            .with("imbalance", self.imbalance)
            .with("passes", self.passes)
            .with("moves", self.moves)
            .with("gain_bytes", self.gain_bytes)
            .with("graph_ns", self.graph_ns)
            .with("solve_ns", self.solve_ns)
            .with("place_ns", self.place_ns)
            .with("fell_back_to_block", self.fell_back_to_block)
    }
}

/// A solved placement: the assignment, the rank-granular exchange derived
/// under it (callers reuse it instead of re-deriving), and the report.
#[derive(Clone, Debug)]
pub struct Placement {
    pub assignment: Vec<usize>,
    pub xplan: ExchangePlan,
    pub report: PlacementReport,
}

/// Achieved imbalance of an assignment's rank loads: `max_r load_r` over
/// the fair share.
fn achieved_imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = loads.iter().copied().max().unwrap_or(0);
    max as f64 / fair_share(total, loads.len())
}

/// Each of `n_ranks` identical ranks' share of `total` bytes.
fn fair_share(total: u64, n_ranks: usize) -> f64 {
    total as f64 / n_ranks as f64
}

fn rank_loads(g: &CommGraph, assignment: &[usize], n_ranks: usize) -> Vec<u64> {
    let mut loads = vec![0u64; n_ranks];
    for (c, &r) in assignment.iter().enumerate() {
        loads[r] += g.load[c];
    }
    loads
}

/// Greedy k-way seeding: heaviest colors seed distinct ranks, the rest
/// join their strongest-affinity rank under the capacity cap, falling back
/// to the least loaded rank.
fn seed_assignment(g: &CommGraph, adj: &Adjacency, n_ranks: usize) -> Vec<usize> {
    let n = g.n_colors;
    let strength: Vec<u64> = (0..n)
        .map(|c| g.load[c] + adj.neighbors(c).iter().map(|&(_, a)| a).sum::<f64>() as u64)
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(strength[c]), c));
    let cap = IMBALANCE * fair_share(g.total_load(), n_ranks);
    let mut cur = vec![usize::MAX; n];
    let mut loads = vec![0u64; n_ranks];
    for (i, &c) in order.iter().enumerate() {
        let r = if i < n_ranks.min(n) {
            i
        } else {
            // Strongest affinity among ranks with room; ties go to the
            // least loaded, then the lowest index. One pass over the
            // neighbors buckets affinity per rank, rather than rescanning
            // every color once per rank.
            let mut aff_by_rank = vec![0.0f64; n_ranks];
            for &(d, a) in adj.neighbors(c) {
                if cur[d as usize] != usize::MAX {
                    aff_by_rank[cur[d as usize]] += a;
                }
            }
            let mut best: Option<(f64, usize)> = None;
            for s in 0..n_ranks {
                if (loads[s] + g.load[c]) as f64 > cap {
                    continue;
                }
                let aff = aff_by_rank[s];
                if best.is_none_or(|(ba, bs)| aff > ba || (aff == ba && loads[s] < loads[bs])) {
                    best = Some((aff, s));
                }
            }
            match best {
                Some((_, s)) => s,
                None => (0..n_ranks).min_by_key(|&s| loads[s]).unwrap_or(0),
            }
        };
        cur[c] = r;
        loads[r] += g.load[c];
    }
    cur
}

/// KL/FM gain passes over `movable` colors, which may move to any of
/// `ranks` (every rank they sit on is one of them). Each sweep first
/// applies every strictly positive gain *move* whose destination stays
/// under the cap, then every strictly positive pairwise *swap* of two
/// movable colors on different ranks — the KL half: under a tight balance
/// cap with uniform color loads every rank sits at capacity, single moves
/// are all blocked, and only an exchange can improve the cut. Stops at a
/// fixpoint or after [`MAX_PASSES`] sweeps. Returns (passes, moves); a swap
/// counts as two moves.
fn refine(
    g: &CommGraph,
    adj: &Adjacency,
    n_ranks: usize,
    ranks: &[usize],
    cur: &mut [usize],
    movable: &[usize],
) -> (u64, u64) {
    let cap = IMBALANCE * fair_share(g.total_load(), ranks.len());
    let mut loads = rank_loads(g, cur, n_ranks);
    let mut in_movable = vec![false; g.n_colors];
    for &c in movable {
        in_movable[c] = true;
    }
    let (mut passes, mut moves) = (0u64, 0u64);
    // Priced lazily: a refinement that never moves (seed already locally
    // optimal — the common case) never pays for a full cut evaluation.
    let mut cut_before: Option<f64> = None;
    // Reused across passes; tabulation refills rows in place.
    let mut snapshot = vec![0usize; cur.len()];
    let mut cost = vec![0.0f64; g.n_colors * n_ranks];
    let mut bucket = vec![0.0f64; n_ranks];
    for _ in 0..MAX_PASSES {
        snapshot.copy_from_slice(cur);
        let moves_at_pass_start = moves;
        let mut moved = false;
        for &c in movable {
            let r = cur[c];
            // The row only matters once some target rank has room; under
            // saturated uniform loads no rank does, and the sweep
            // degenerates to capacity checks.
            let mut priced = false;
            let mut best: Option<(f64, usize)> = None;
            for &s in ranks {
                if s == r || (loads[s] + g.load[c]) as f64 > cap {
                    continue;
                }
                if !priced {
                    tabulate_rank_costs(adj, n_ranks, cur, c, &mut cost, &mut bucket);
                    priced = true;
                }
                let gain = cost[c * n_ranks + r] - cost[c * n_ranks + s];
                if gain > 0.0 && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, s));
                }
            }
            if let Some((_, s)) = best {
                cur[c] = s;
                loads[r] -= g.load[c];
                loads[s] += g.load[c];
                moves += 1;
                moved = true;
            }
        }
        // Swaps are the escape hatch for capacity paralysis; while single
        // moves still make progress they are cheaper, so the pair sweep
        // only runs once moves stall. Per sweep, every movable color's
        // cost at every rank is tabulated once (`cost[c·R + t]`), making
        // each pair O(1); rows of a swapped pair are refreshed immediately,
        // other rows go slightly stale mid-sweep (classic KL practice —
        // the epsilon keeps float-noise "gains" from cycling, and the
        // exact-bytes fallback in `place` bounds any net damage). A swap's
        // gain is the two move gains corrected for the c–d edge both rows
        // misprice during a simultaneous exchange: the pair stays split
        // across the same link before and after, yet each row sees the
        // partner as already local, so the edge is charged back twice.
        const SWAP_EPS: f64 = 1e-6;
        if !moved {
            for &c in movable {
                tabulate_rank_costs(adj, n_ranks, cur, c, &mut cost, &mut bucket);
            }
            for &c in movable {
                let r = cur[c];
                let mut best: Option<(f64, usize)> = None;
                for d in (c + 1)..g.n_colors {
                    if !in_movable[d] {
                        continue;
                    }
                    let s = cur[d];
                    if s == r {
                        continue;
                    }
                    let lr = loads[r] - g.load[c] + g.load[d];
                    let ls = loads[s] - g.load[d] + g.load[c];
                    if lr as f64 > cap || ls as f64 > cap {
                        continue;
                    }
                    let gain = cost[c * n_ranks + r] - cost[c * n_ranks + s]
                        + cost[d * n_ranks + s]
                        - cost[d * n_ranks + r]
                        - 2.0 * g.affinity(c, d) as f64;
                    if gain > SWAP_EPS && best.is_none_or(|(bg, _)| gain > bg) {
                        best = Some((gain, d));
                    }
                }
                if let Some((_, d)) = best {
                    let s = cur[d];
                    // Rows tabulated at sweep start go stale as earlier
                    // swaps land, and a stale "gain" can undo real
                    // progress; re-price the winning pair against the live
                    // assignment and only commit a still-positive swap.
                    let fresh = adj.cost_at(c, r, cur) - adj.cost_at(c, s, cur)
                        + adj.cost_at(d, s, cur)
                        - adj.cost_at(d, r, cur)
                        - 2.0 * g.affinity(c, d) as f64;
                    if fresh > SWAP_EPS {
                        cur[c] = s;
                        cur[d] = r;
                        loads[r] = loads[r] - g.load[c] + g.load[d];
                        loads[s] = loads[s] - g.load[d] + g.load[c];
                        tabulate_rank_costs(adj, n_ranks, cur, c, &mut cost, &mut bucket);
                        tabulate_rank_costs(adj, n_ranks, cur, d, &mut cost, &mut bucket);
                        moves += 2;
                        moved = true;
                    }
                }
            }
        }
        passes += 1;
        if !moved {
            break;
        }
        // Per-pass gains are priced against mid-sweep state (stale rows,
        // already-applied moves), so a pass can "move" without net gain —
        // oscillating swaps whose table gains cancel once rows refresh.
        // Re-pricing the whole cut once per pass is the ground truth: a
        // pass that fails to strictly lower it is undone and ends refinement.
        let before = cut_before.unwrap_or_else(|| priced_cut(adj, &snapshot));
        let cut_after = priced_cut(adj, cur);
        if cut_after + SWAP_EPS >= before {
            cur.copy_from_slice(&snapshot);
            moves = moves_at_pass_start;
            break;
        }
        cut_before = Some(cut_after);
    }
    (passes, moves)
}

/// Fills `cost[c·n_ranks + t]` with [`Adjacency::cost_at`]`(c, t)` for
/// every rank `t`: one pass over `c`'s neighbors buckets affinity by
/// owner rank, and row `t` is `total − bucket[t]` — O(deg + ranks)
/// instead of O(deg · ranks).
fn tabulate_rank_costs(
    adj: &Adjacency,
    n_ranks: usize,
    cur: &[usize],
    c: usize,
    cost: &mut [f64],
    bucket: &mut [f64],
) {
    let row = &mut cost[c * n_ranks..(c + 1) * n_ranks];
    bucket[..n_ranks].fill(0.0);
    let mut total = 0.0;
    for &(d, aff) in adj.neighbors(c) {
        let s = cur[d as usize];
        if s != usize::MAX {
            bucket[s] += aff;
            total += aff;
        }
    }
    for (t, slot) in row.iter_mut().enumerate() {
        *slot = total - bucket[t];
    }
}

/// Cut of an assignment: `Σ affinity(a,b)` over cross-rank pairs (the
/// objective [`refine`] descends).
fn priced_cut(adj: &Adjacency, assignment: &[usize]) -> f64 {
    let mut cut = 0.0;
    for a in 0..assignment.len() {
        for &(b, aff) in adj.neighbors(a) {
            let b = b as usize;
            if b > a && assignment[a] != assignment[b] {
                cut += aff;
            }
        }
    }
    cut
}

/// Runs the cost-driven solver on a prebuilt graph. Exposed for tests and
/// benchmarks; [`place`] is the full pipeline.
///
/// Seeding is best-of-two: the greedy affinity seed competes against the
/// plain block assignment (when block respects the capacity cap) and the
/// lower priced cut wins. Block is already optimal for chain-structured
/// graphs (stencils), where refining a scrambled greedy seed back to an
/// equal-cut assignment would waste sweeps; greedy wins when the affinity
/// structure is non-contiguous (pairwise bands, strided interconnects).
pub fn cost_driven_assignment(g: &CommGraph, n_ranks: usize) -> (Vec<usize>, u64, u64) {
    let adj = Adjacency::build(g);
    let mut cur = seed_assignment(g, &adj, n_ranks);
    let block = block_assignment(g.n_colors, n_ranks);
    let cap = IMBALANCE * fair_share(g.total_load(), n_ranks);
    let block_fits = rank_loads(g, &block, n_ranks).iter().all(|&l| l as f64 <= cap);
    if block_fits && priced_cut(&adj, &block) < priced_cut(&adj, &cur) {
        cur = block;
    }
    let ranks: Vec<usize> = (0..n_ranks).collect();
    let movable: Vec<usize> = (0..g.n_colors).collect();
    let (passes, moves) = refine(g, &adj, n_ranks, &ranks, &mut cur, &movable);
    (cur, passes, moves)
}

/// Solves the owner mapping for `n_ranks` ranks under `config` and folds
/// the plan's one [`Footprint`] into the rank-granular exchange for it.
///
/// For `CostDriven`, the footprint is folded three times: under the
/// identity assignment for the graph, then under the refined candidate and
/// the block baseline, and the cheaper of those two (by
/// `ExchangeStats::total_bytes`) wins — the graph guides the search, the
/// set algebra decides.
pub fn place(
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    schema: &Schema,
    n_ranks: usize,
    config: &PlacementConfig,
) -> Result<Placement, ExchangeError> {
    if n_ranks == 0 {
        return Err(ExchangeError::NoRanks);
    }
    let n_colors = parts.first().map(|p| p.num_subregions()).unwrap_or(0);
    let sp = partir_obs::span_with(
        "placement.solve",
        vec![
            ("policy", config.policy.name().into()),
            ("ranks", n_ranks.into()),
            ("colors", n_colors.into()),
        ],
    );

    let t_place = Instant::now();
    let mut report = PlacementReport {
        policy: config.policy.name().into(),
        n_colors,
        n_ranks,
        imbalance_limit: IMBALANCE,
        ..PlacementReport::default()
    };

    let finish = |assignment: Vec<usize>, xplan: ExchangePlan, mut report: PlacementReport| {
        let loads: Vec<u64> = (0..n_ranks).map(|r| xplan.owned_field_bytes(schema, r)).collect();
        report.imbalance = achieved_imbalance(&loads);
        report.place_ns = t_place.elapsed().as_nanos() as u64;
        report.predicted_bytes = xplan.stats().total_bytes();
        report.gain_bytes = report.predicted_block_bytes.saturating_sub(report.predicted_bytes);
        Ok(Placement { assignment, xplan, report })
    };

    let fp = Footprint::build(plan, parts, schema)?;
    let out = match &config.policy {
        PlacementPolicy::Block => {
            let a = block_assignment(n_colors, n_ranks);
            let x = fp.fold(n_ranks, &a)?;
            report.predicted_block_bytes = x.stats().total_bytes();
            finish(a, x, report)
        }
        PlacementPolicy::Explicit(a) => finish(a.clone(), fp.fold(n_ranks, a)?, report),
        PlacementPolicy::CostDriven => {
            let graph = CommGraph::of(&fp, schema)?;
            report.graph_ns = t_place.elapsed().as_nanos() as u64;
            let t_solve = Instant::now();
            let (cand, passes, moves) = cost_driven_assignment(&graph, n_ranks);
            report.solve_ns = t_solve.elapsed().as_nanos() as u64;
            report.passes = passes;
            report.moves = moves;
            let block = block_assignment(n_colors, n_ranks);
            report.cut_block_bytes = graph.cut_bytes(&block);
            report.cut_bytes = graph.cut_bytes(&cand);
            let xb = fp.fold(n_ranks, &block)?;
            let xc = fp.fold(n_ranks, &cand)?;
            let (block_bytes, cand_bytes) = (xb.stats().total_bytes(), xc.stats().total_bytes());
            report.predicted_block_bytes = block_bytes;
            if cand_bytes < block_bytes {
                finish(cand, xc, report)
            } else {
                report.fell_back_to_block = true;
                report.cut_bytes = report.cut_block_bytes;
                finish(block, xb, report)
            }
        }
    };
    if let Ok(p) = &out {
        sp.close_with(vec![
            ("predicted_bytes", p.report.predicted_bytes.into()),
            ("gain_bytes", p.report.gain_bytes.into()),
            ("solve_ns", p.report.solve_ns.into()),
        ]);
    }
    out
}

/// Gain-based evacuation onto the live ranks (`alive[rank]`): survivors
/// keep every color they had (the migration-minimality invariant — nothing
/// a survivor owns ever moves), and only the colors `owner` puts on a lost
/// rank are re-placed, greedily by affinity then refined by restricted
/// KL/FM passes over the live ranks under the live ranks' capacity. A rank
/// lost in an earlier recovery owns nothing and receives nothing.
pub fn evacuate_placement(g: &CommGraph, owner: &[usize], alive: &[bool]) -> Vec<usize> {
    let survivors: Vec<usize> = (0..alive.len()).filter(|&r| alive[r]).collect();
    assert!(!survivors.is_empty(), "cannot evacuate the last rank");
    // Capacity over survivors only: the lost ranks' share is theirs now.
    let cap = IMBALANCE * fair_share(g.total_load(), survivors.len());

    let adj = Adjacency::build(g);
    let mut cur = owner.to_vec();
    let mut loads = rank_loads(g, &cur, alive.len());
    let mut dead_colors: Vec<usize> =
        (0..g.n_colors.min(owner.len())).filter(|&c| !alive[owner[c]]).collect();
    dead_colors.sort_by_key(|&c| (std::cmp::Reverse(g.load[c]), c));
    // Greedy: each dead color joins the survivor where it costs least,
    // under the survivor cap; fallback is the least loaded.
    for &c in &dead_colors {
        loads[owner[c]] -= g.load[c];
        cur[c] = usize::MAX;
        let mut best: Option<(f64, usize)> = None;
        for &s in &survivors {
            if (loads[s] + g.load[c]) as f64 > cap {
                continue;
            }
            let cost = adj.cost_at(c, s, &cur);
            if best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, s));
            }
        }
        let s = match best {
            Some((_, s)) => s,
            None => *survivors.iter().min_by_key(|&&s| loads[s]).expect("a survivor exists"),
        };
        cur[c] = s;
        loads[s] += g.load[c];
    }
    // Restricted refinement: only the evacuated colors may move, and only
    // between survivors — survivor-owned shards stay put by construction.
    refine(g, &adj, alive.len(), &survivors, &mut cur, &dead_colors);
    debug_assert!(cur.iter().all(|&r| alive[r]));
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ExtBindings;
    use crate::pipeline::{auto_parallelize, Hints, Options};
    use partir_dpl::func::{FnDef, FnTable, IndexFn};
    use partir_dpl::region::{FieldKind, Schema, Store};
    use partir_ir::ast::{LoopBuilder, VExpr};

    /// 1-D periodic stencil with the read neighborhood *shifted* by `shift`:
    /// out[i] = in[(i+shift-1) mod n] + in[(i+shift+1) mod n]. With
    /// `shift = n/2`, color `c`'s reads land in color `c + n_colors/2`'s
    /// block — block placement cuts every edge, pairing `{c, c+k/2}` cuts
    /// none. The minimal placement-adversarial program.
    fn shifted_stencil(n: u64, shift: i64) -> (Vec<partir_ir::ast::Loop>, FnTable, Schema) {
        let mut schema = Schema::new();
        let r = schema.add_region("R", n);
        let fin = schema.add_field(r, "in", FieldKind::F64);
        let fout = schema.add_field(r, "out", FieldKind::F64);
        let mut fns = FnTable::new();
        let left = fns.add(
            "left",
            r,
            r,
            FnDef::Index(IndexFn::AffineMod { mul: 1, add: shift - 1, modulus: n }),
        );
        let right = fns.add(
            "right",
            r,
            r,
            FnDef::Index(IndexFn::AffineMod { mul: 1, add: shift + 1, modulus: n }),
        );
        let mut b = LoopBuilder::new("stencil", r);
        let i = b.loop_var();
        let li = b.idx_apply(left, i);
        let ri = b.idx_apply(right, i);
        let lv = b.val_read(r, fin, li);
        let rv = b.val_read(r, fin, ri);
        b.val_write(r, fout, i, VExpr::add(VExpr::var(lv), VExpr::var(rv)));
        (vec![b.finish()], fns, schema)
    }

    fn planned(
        n: u64,
        shift: i64,
        colors: usize,
    ) -> (crate::pipeline::ParallelPlan, Vec<Arc<Partition>>, Schema) {
        let (program, fns, schema) = shifted_stencil(n, shift);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let store = Store::new(schema.clone());
        let parts = plan.evaluate(&store, &fns, colors, &ExtBindings::new());
        (plan, parts, schema)
    }

    #[test]
    fn comm_graph_is_exact_on_the_plain_stencil() {
        let (plan, parts, schema) = planned(64, 0, 8);
        let g = CommGraph::build(&plan, &parts, &schema).unwrap();
        assert_eq!(g.n_colors, 8);
        // Periodic ±1 stencil: each color exchanges exactly one 8-byte
        // element with each ring neighbor, nothing else.
        for a in 0..8usize {
            for b in 0..8usize {
                let want = if a != b && (a + 1) % 8 == b || (b + 1) % 8 == a { 16 } else { 0 };
                assert_eq!(g.affinity(a, b), want, "affinity({a},{b})");
            }
        }
        // Loads are the owned f64 bytes: 8 elements × 2 fields × 8 bytes.
        assert!(g.load.iter().all(|&l| l == 8 * 2 * 8));
    }

    #[test]
    fn cost_driven_pairs_the_shifted_ring_and_beats_block() {
        // Shift n/2: color c talks only to color (c+4) mod 8. Optimal
        // placement pairs antipodal colors; block cuts everything.
        let (plan, parts, schema) = planned(64, 32, 8);
        let cfg = PlacementConfig::cost_driven();
        let p = place(&plan, &parts, &schema, 4, &cfg).unwrap();
        assert!(!p.report.fell_back_to_block);
        assert!(
            p.report.predicted_bytes < p.report.predicted_block_bytes,
            "refined {} !< block {}",
            p.report.predicted_bytes,
            p.report.predicted_block_bytes
        );
        for c in 0..8usize {
            assert_eq!(
                p.assignment[c],
                p.assignment[(c + 4) % 8],
                "antipodal colors must share a rank: {:?}",
                p.assignment
            );
        }
        assert!(p.report.imbalance <= p.report.imbalance_limit + 1e-9);
        // The shifted window grazes colors c±(4±1) by one element, so a
        // small residual cut remains — but far below the block cut.
        assert!(
            p.report.cut_bytes < p.report.cut_block_bytes,
            "cut {} !< block cut {}",
            p.report.cut_bytes,
            p.report.cut_block_bytes
        );
    }

    #[test]
    fn cost_driven_never_regresses_below_block() {
        // The plain stencil is block-optimal; the solver must fall back (or
        // tie) rather than ship more bytes than block.
        let (plan, parts, schema) = planned(64, 0, 8);
        let p = place(&plan, &parts, &schema, 4, &PlacementConfig::cost_driven()).unwrap();
        assert!(p.report.predicted_bytes <= p.report.predicted_block_bytes);
        let b = place(&plan, &parts, &schema, 4, &PlacementConfig::default()).unwrap();
        assert_eq!(b.report.policy, "block");
        assert_eq!(b.report.predicted_bytes, b.report.predicted_block_bytes);
        assert!(p.report.predicted_bytes <= b.report.predicted_bytes);
    }

    #[test]
    fn explicit_policy_validates_like_the_core_api() {
        let (plan, parts, schema) = planned(32, 0, 4);
        let short = PlacementConfig { policy: PlacementPolicy::Explicit(vec![0, 1]) };
        assert!(matches!(
            place(&plan, &parts, &schema, 2, &short),
            Err(ExchangeError::BadAssignment { bad_rank: None, .. })
        ));
        let oob = PlacementConfig { policy: PlacementPolicy::Explicit(vec![0, 1, 9, 0]) };
        assert!(matches!(
            place(&plan, &parts, &schema, 2, &oob),
            Err(ExchangeError::BadAssignment { bad_rank: Some(9), .. })
        ));
        let ok = PlacementConfig { policy: PlacementPolicy::Explicit(vec![1, 0, 1, 0]) };
        let p = place(&plan, &parts, &schema, 2, &ok).unwrap();
        assert_eq!(p.assignment, vec![1, 0, 1, 0]);
        assert_eq!(p.report.policy, "explicit");
        assert_eq!(p.report.predicted_bytes, p.xplan.stats().total_bytes());
    }

    /// Live ranks after losing `dead` out of `n_ranks`.
    fn alive_without(n_ranks: usize, dead: &[usize]) -> Vec<bool> {
        (0..n_ranks).map(|r| !dead.contains(&r)).collect()
    }

    /// The round-robin deal gain-based evacuation replaced, kept as its
    /// comparator: survivors keep their colors, and the dead rank's colors
    /// are dealt across the survivors in ascending rank order.
    fn evacuate_assignment(owner: &[usize], dead: usize, n_ranks: usize) -> Vec<usize> {
        let survivors: Vec<usize> = (0..n_ranks).filter(|&r| r != dead).collect();
        let mut dealt = survivors.iter().cycle();
        owner.iter().map(|&r| if r == dead { *dealt.next().unwrap() } else { r }).collect()
    }

    #[test]
    fn evacuated_assignment_moves_only_the_dead_ranks_colors() {
        let owner = block_assignment(8, 4);
        assert_eq!(owner, &[0, 0, 1, 1, 2, 2, 3, 3]);
        let after = evacuate_assignment(&owner, 1, 4);
        // Survivors keep their colors; rank 1's two colors deal out
        // round-robin over the survivors [0, 2, 3].
        assert_eq!(after, &[0, 0, 0, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn evacuation_moves_only_the_dead_ranks_colors() {
        let (plan, parts, schema) = planned(64, 32, 8);
        let p = place(&plan, &parts, &schema, 4, &PlacementConfig::cost_driven()).unwrap();
        let g = CommGraph::build(&plan, &parts, &schema).unwrap();
        let after = evacuate_placement(&g, &p.assignment, &alive_without(4, &[2]));
        assert!(!after.contains(&2), "the dead rank owns nothing");
        for (c, (&b, &a)) in p.assignment.iter().zip(&after).enumerate() {
            if b != 2 {
                assert_eq!(b, a, "survivor color {c} moved");
            }
        }
    }

    #[test]
    fn refined_evacuation_balances_no_worse_than_round_robin() {
        // Uneven loads: round-robin deals counts, the refiner deals bytes.
        let loads = vec![100, 10, 10, 10, 100, 10, 10, 10];
        let g = CommGraph::from_raw(8, &[], loads);
        let owner = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let rr = evacuate_assignment(&owner, 2, 4);
        let refined = evacuate_placement(&g, &owner, &alive_without(4, &[2]));
        let max_load = |a: &[usize]| -> u64 {
            let mut l = vec![0u64; 4];
            for (c, &r) in a.iter().enumerate() {
                l[r] += g.load[c];
            }
            l.into_iter().max().unwrap()
        };
        assert!(!refined.contains(&2));
        assert!(
            max_load(&refined) <= max_load(&rr),
            "refined {:?} vs round-robin {:?}",
            refined,
            rr
        );
        // Survivors frozen under both schemes.
        for (c, &o) in owner.iter().enumerate() {
            if o != 2 {
                assert_eq!(refined[c], o);
                assert_eq!(rr[c], o);
            }
        }
    }

    #[test]
    fn evacuation_prefers_the_affinity_neighbor() {
        // Color 2 (dying rank 1) talks almost only to color 5 on rank 2:
        // gain-based evacuation sends it there, round-robin would not.
        let edges = vec![(2usize, 5usize, 1000u64), (3, 0, 1000)];
        let g = CommGraph::from_raw(6, &edges, vec![8; 6]);
        let owner = vec![0, 0, 1, 1, 2, 2];
        let refined = evacuate_placement(&g, &owner, &alive_without(3, &[1]));
        assert_eq!(refined[2], 2, "color 2 joins its neighbor color 5: {refined:?}");
        assert_eq!(refined[3], 0, "color 3 joins its neighbor color 0: {refined:?}");
    }

    #[test]
    fn evacuation_places_on_survivors_only_under_the_survivors_cap() {
        // 12 equal colors, 3 per rank. Every color talks to color 3 only,
        // so by gain alone all of a dead rank's colors would join rank 1.
        // The cap over the three survivors (1.1 · 120/3 = 44) admits one
        // more color per rank; a cap over all four ranks (33) would admit
        // none, and the fallback would stack them by load alone.
        let edges: Vec<_> = (0..12).filter(|&c| c != 3).map(|c| (c, 3usize, 1000u64)).collect();
        let g = CommGraph::from_raw(12, &edges, vec![10; 12]);
        let owner = block_assignment(12, 4);
        for dead in 0..4 {
            let after = evacuate_placement(&g, &owner, &alive_without(4, &[dead]));
            assert!(!after.contains(&dead), "dead rank {dead} still owns a color: {after:?}");
            for (c, (&b, &a)) in owner.iter().zip(&after).enumerate() {
                assert!(b == dead || a == b, "dead {dead}: survivor color {c} moved {b} -> {a}");
            }
            let loads = rank_loads(&g, &after, 4);
            for (r, &l) in loads.iter().enumerate() {
                assert_eq!(l, if r == dead { 0 } else { 40 }, "dead {dead}: loads {loads:?}");
            }
        }
    }

    #[test]
    fn a_second_loss_evacuates_onto_live_ranks_only() {
        // Rank 1 was lost before and is already empty; now rank 2 dies.
        // With rank 1 counted as a survivor it would have zero load, the
        // cap would be 1.1 · 80/3 over one rank too many, and color 3
        // would land on it — a rank the next attempt never spawns.
        let g = CommGraph::from_raw(8, &[], vec![10; 8]);
        let owner = vec![0, 0, 0, 2, 2, 2, 3, 3];
        let after = evacuate_placement(&g, &owner, &alive_without(4, &[1, 2]));
        assert!(after.iter().all(|&r| r == 0 || r == 3), "placed on a lost rank: {after:?}");
        assert_eq!(&after[..3], &[0, 0, 0], "survivor colors stay");
        assert_eq!(&after[6..], &[3, 3], "survivor colors stay");
        // The cap over the two live ranks (1.1 · 80/2 = 44) holds.
        let loads = rank_loads(&g, &after, 4);
        assert!(loads.iter().all(|&l| l <= 44), "loads {loads:?}");
    }

    #[test]
    fn zero_ranks_and_empty_parts_are_handled() {
        let (plan, parts, schema) = planned(32, 0, 4);
        assert!(matches!(
            place(&plan, &parts, &schema, 0, &PlacementConfig::default()),
            Err(ExchangeError::NoRanks)
        ));
        let g = CommGraph::build(&plan, &[], &schema).unwrap();
        assert_eq!(g.n_colors, 0);
        assert_eq!(g.total_load(), 0);
    }
}
