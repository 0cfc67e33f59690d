//! Constraint-derived communication plans for rank-sharded execution.
//!
//! The SPMD backend (`partir-runtime::dist`) shards every region across
//! ranks by an *owner mapping* of partition colors to ranks. What each
//! rank must communicate is not guessed from the loop text — it is derived
//! from the same solved partitions every run executes, and stated
//! once, as two tables every consumer reads:
//!
//! * **What an access touches** — [`access_sets`], the one place the
//!   `(AccessKind, PlannedReduce)` pair is interpreted. Per `(loop,
//!   access)` it names the partition whose subregions must be *resident*
//!   on the executing rank, the per-color sets mutated *in place*, and the
//!   per-color sets of a two-step reduction's task-local *buffer*. The
//!   derivation below, the legality proof ([`prove_plan_legality`]), the
//!   runtime (`partir-runtime::task`, and the task attempts' rollback
//!   snapshots) and the simulator specs (`partir-apps`) read it.
//! * **What an epoch sends** — [`LoopExchange::pairs`], per ordered rank
//!   pair `[src][dst]` the loop's two messages in wire order: the
//!   pre-loop `ghost` values and the post-loop write-backs plus routed
//!   partial-buffer slices. The rank protocol packs, awaits, unpacks and
//!   merges by walking this table; the volume prediction
//!   ([`ExchangePlan::predicted_pair_volume_from`]), the totals
//!   ([`ExchangePlan::stats`]) and placement's edge weights are one fold
//!   over it.
//!
//! The derivation that fills the second table from the first runs in two
//! steps, because which rank a color lands on changes none of the set
//! algebra:
//!
//! 1. **The color footprint** ([`Footprint::build`], once per call site)
//!    works at color granularity. Per region it picks the *owner
//!    partition*: any solved partition of the region that is disjoint
//!    *and* complete (iteration partitions are preferred), or, when the
//!    plan produced none, a block `equal` partition — exactly the fallback
//!    the paper's solver uses for unconstrained symbols. Per loop it
//!    splits three per-color families by the owner of each element, one
//!    merge walk over the region's owner runs per set: *ghost pieces*
//!    `resident(c) ∩ owner(d)` and *write-back pieces* `in_place(c) ∩
//!    owner(d)` per f64 field and `d ≠ c`, and *slice pieces*
//!    `buffer(c) ∩ owner(d)` per two-step reduction, the self pair
//!    included. The resident sets are the `COMP`-verdict data: the access
//!    partitions *are* the solver's description of which elements each
//!    color touches.
//! 2. **The fold** ([`Footprint::fold`], once per owner assignment) maps
//!    colors to ranks and unions pieces. `owned(rank)` is the union of its
//!    colors' owner subregions. A ghost piece `(c, d)` whose colors sit on
//!    different ranks is part of what `rank(d)` sends `rank(c)` before the
//!    loop; all fields of one pair batch into a single message per loop
//!    ("epoch"). A write-back piece is what `rank(c)` sends `rank(d)`
//!    after the loop, installed verbatim (each element has exactly one
//!    in-place writer, by disjointness). Slice pieces travel with the
//!    write-back message (the owner's own on the self pair), and the owner
//!    merges them in ascending color order, the order a run in place
//!    merges whole buffers in. A color is interior when none of its ghost
//!    pieces lies on another rank.
//!
//! So a rank-granular plan is never derived twice from the partitions:
//! [`derive_exchange_with`] is one footprint and one fold, and placement
//! and crash recovery fold one footprint as often as they need. The
//! footprint is not memoized: the plan cache already memoizes the folded
//! [`ExchangePlan`] per `(store, ranks, placement)`, and reuses it across
//! executions (the sets depend only on the plan, the evaluated partitions
//! and the owner mapping — not on field values).

use crate::pipeline::{AccessPlan, ParallelPlan, PlannedReduce};
use partir_dpl::index_set::{Idx, IndexSet};
use partir_dpl::ops::equal;
use partir_dpl::partition::Partition;
use partir_dpl::region::{FieldId, FieldKind, RegionId, Schema};
use partir_ir::analysis::AccessKind;
use partir_ir::ast::ReduceOp;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// What one access to an f64 field touches, per color.
pub struct AccessSets<'a> {
    pub field: FieldId,
    /// `resident.subregion(c)`: the store elements color `c` reads or
    /// mutates in place — they need a slot on the executing rank (and, for
    /// in-place reductions, the owner's pre-loop value). `None` for a
    /// `Buffered` reduction, which touches no store element until the
    /// owner's merge.
    pub resident: Option<&'a Partition>,
    /// The task-local buffer of a two-step reduction.
    pub buffered: Option<BufferedSets<'a>>,
    /// `in_place?[c]`: the store elements color `c` may mutate. Each
    /// element has one in-place writer: the sets are disjoint across
    /// colors. A centered write over an aliased iteration partition
    /// applies only in the first color owning the iteration, so its sets
    /// are the iteration partition's [`Partition::first_owner_sets`].
    pub in_place: Option<&'a [IndexSet]>,
}

/// The element sets a two-step (`Buffered` / `BufferedPrivate`) reduction
/// accumulates in task-local buffers.
pub struct BufferedSets<'a> {
    pub op: ReduceOp,
    /// The access partition: everything the reduction may target.
    pub part: &'a Partition,
    /// The private sub-partition reduced in place instead (Section 5.2).
    pub private: Option<&'a Partition>,
}

impl<'a> BufferedSets<'a> {
    /// `sets()[c]`: the elements color `c`'s buffer covers, in buffer order.
    pub fn sets(&self) -> Cow<'a, [IndexSet]> {
        match self.private {
            None => Cow::Borrowed(self.part.subregions()),
            Some(p) => self.part.iter().zip(p.iter()).map(|(a, p)| a.difference(p)).collect(),
        }
    }
}

/// The element sets of one access, or `None` when it has no f64 footprint:
/// `Ptr`/`Range` topology fields are replicated on every rank, and a
/// `ForEach` header over a single-valued function reads no field at all.
/// `parts[ap.part]` and a private sub-partition must exist.
pub fn access_sets<'a>(
    ap: &AccessPlan,
    iter: &'a Partition,
    parts: &'a [Arc<Partition>],
    schema: &Schema,
) -> Option<AccessSets<'a>> {
    let field = ap.field.filter(|&f| matches!(schema.field(f).kind, FieldKind::F64))?;
    let part: &Partition = &parts[ap.part.0 as usize];
    let (resident, in_place, buffered) = match (ap.kind, &ap.reduce) {
        (AccessKind::Read, _) => (Some(part), None, None),
        (AccessKind::Write, _) => (Some(part), Some(iter.first_owner_sets()), None),
        // A centered reduction: the iteration partition is disjoint.
        (AccessKind::Reduce(_), None) => (Some(part), Some(iter.subregions()), None),
        (AccessKind::Reduce(_), Some(PlannedReduce::Direct | PlannedReduce::Guarded)) => {
            (Some(part), Some(part.subregions()), None)
        }
        (AccessKind::Reduce(op), Some(PlannedReduce::Buffered)) => {
            (None, None, Some(BufferedSets { op, part, private: None }))
        }
        (AccessKind::Reduce(op), Some(PlannedReduce::BufferedPrivate { private })) => {
            let private: &Partition = &parts[private.0 as usize];
            let buffered = BufferedSets { op, part, private: Some(private) };
            (Some(private), Some(private.subregions()), Some(buffered))
        }
    };
    Some(AccessSets { field, resident, buffered, in_place })
}

/// Per-field transfer sets of one `(src, dst)` pair, ascending by field id;
/// only non-empty sets are stored.
pub type FieldSets = Vec<(FieldId, IndexSet)>;

/// One two-step reduction access of a loop and its per-color buffer sets.
#[derive(Clone, Debug, PartialEq)]
pub struct BufferRoute {
    /// Access index within the loop plan.
    pub access: usize,
    pub field: FieldId,
    pub op: ReduceOp,
    /// `sets[c]`: the elements color `c`'s buffer covers ([`BufferedSets::sets`]).
    pub sets: Vec<IndexSet>,
}

/// The post-loop message of one `(src, dst)` pair.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PostMessage {
    /// Elements `src` mutates in place but `dst` owns; installed verbatim.
    pub write_back: FieldSets,
    /// `(route, color, set)`: the part of `src`'s color's buffer of
    /// `routes[route]` that `dst` owns, in wire order — route-major,
    /// ascending color. A slice whose buffer was never allocated travels
    /// as a cleared presence flag and no values.
    pub slices: Vec<(usize, usize, IndexSet)>,
}

impl PostMessage {
    pub fn is_empty(&self) -> bool {
        self.write_back.is_empty() && self.slices.is_empty()
    }
}

/// What `src` sends `dst` in one epoch. An empty message is not sent. On
/// the self pair only `post.slices` can be non-empty: the partial slices an
/// owner merges from its own colors, which never cross the wire.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PairMessages {
    /// Pre-loop: elements `dst` needs that `src` owns, per f64 field.
    pub ghost: FieldSets,
    pub post: PostMessage,
}

/// Communication structure of one loop (one exchange epoch).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopExchange {
    /// `pairs[src][dst]`: the epoch's message table.
    pub pairs: Vec<Vec<PairMessages>>,
    /// Two-step reduction accesses, in loop-plan access order.
    pub routes: Vec<BufferRoute>,
    /// Per rank: colors whose every in-place f64 access stays inside the
    /// rank's owned sets — safe to run *before* ghosts arrive (overlapping
    /// communication with local-interior compute).
    pub interior: Vec<Vec<usize>>,
    /// Per rank: the rank's remaining colors, run after the ghost exchange.
    pub boundary: Vec<Vec<usize>>,
    /// `boundary_deps[rank][k]`: the source ranks whose ghost message must
    /// be installed before `boundary[rank][k]` may run — the owners of the
    /// color's foreign touches. Parallel to `boundary`; lets the runtime
    /// run each boundary color as soon as *its* halos land instead of
    /// waiting for the whole exchange.
    pub boundary_deps: Vec<Vec<Vec<usize>>>,
}

/// Volume accounting for one full pass over the program.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExchangeStats {
    /// Total ghost elements held across ranks and regions (`locals −
    /// owned`, counted once per rank).
    pub ghost_elements: u64,
    /// Bytes of ghost-fetch payloads per program pass.
    pub ghost_fetch_bytes: u64,
    /// Bytes of in-place write-back payloads per program pass.
    pub write_back_bytes: u64,
    /// Bytes of partial-reduction buffers shipped per program pass.
    pub partial_bytes: u64,
    /// Coalesced messages per program pass (ghost + post-loop).
    pub messages: u64,
    /// Bytes full replication would move to materialize every f64 field on
    /// every non-owner rank once — the baseline sharding beats.
    pub replication_bytes: u64,
}

impl ExchangeStats {
    /// All payload bytes one program pass moves between ranks.
    pub fn total_bytes(&self) -> u64 {
        self.ghost_fetch_bytes + self.write_back_bytes + self.partial_bytes
    }
}

/// The reusable product: owner mapping plus per-loop exchange sets.
#[derive(Clone, Debug)]
pub struct ExchangePlan {
    pub n_ranks: usize,
    pub n_colors: usize,
    /// Owning rank of each color. The default derivation blocks colors
    /// contiguously; placement and recovery folds may assign arbitrarily
    /// (a rank may own no colors at all — e.g. one that crashed and was
    /// evacuated).
    color_owner: Vec<usize>,
    /// Colors of each rank, ascending; inverse of `color_owner`.
    rank_colors: Vec<Vec<usize>>,
    /// `owned[region][rank]`: disjoint + complete per region.
    owned: Vec<Vec<IndexSet>>,
    /// `ghosts[region][rank]`: elements replicated from other owners.
    ghosts: Vec<Vec<IndexSet>>,
    /// `locals[region][rank] = owned ∪ ghosts` (rank-store footprint).
    locals: Vec<Vec<IndexSet>>,
    /// See [`ExchangeStats::replication_bytes`].
    replication_bytes: u64,
    pub loops: Vec<LoopExchange>,
}

/// Statically predicted traffic of one `(src, dst)` rank pair: what the
/// runtime moves when it walks the message table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairVolume {
    pub ghost_bytes: u64,
    pub write_back_bytes: u64,
    pub partial_bytes: u64,
    pub messages: u64,
}

impl PairVolume {
    pub fn bytes(&self) -> u64 {
        self.ghost_bytes + self.write_back_bytes + self.partial_bytes
    }

    /// Adds one epoch's messages. Partial slices are counted as present: a
    /// slice is non-empty only when the source color's access partition
    /// touches elements outside its private slice, and the evaluated access
    /// partitions are exact images of the iteration sets, so the color's
    /// buffer always allocates.
    fn add(&mut self, m: &PairMessages) {
        let bytes = |sets: &FieldSets| sets.iter().map(|(_, s)| s.len() * 8).sum::<u64>();
        self.ghost_bytes += bytes(&m.ghost);
        self.write_back_bytes += bytes(&m.post.write_back);
        self.partial_bytes += m.post.slices.iter().map(|(_, _, s)| s.len() * 8).sum::<u64>();
        self.messages += u64::from(!m.ghost.is_empty()) + u64::from(!m.post.is_empty());
    }
}

impl ExchangePlan {
    /// Bytes and messages per `(src, dst)` pair over a full program pass,
    /// indexed `[src][dst]`: the fold of every loop's message table. The
    /// mailbox layer measures the same quantities at receive time;
    /// `partir-runtime::dist` reports any per-pair delta (and errors on it
    /// in strict mode), because a runtime that moves different bytes than
    /// the constraint solution predicts is unsound, not just slow.
    pub fn predicted_pair_volume(&self) -> Vec<Vec<PairVolume>> {
        self.predicted_pair_volume_from(0)
    }

    /// The fold from loop `first_loop` on — the prediction for a run
    /// resumed from a checkpoint at that epoch (the epochs before it never
    /// execute on the recovered topology, so they must not be charged).
    pub fn predicted_pair_volume_from(&self, first_loop: usize) -> Vec<Vec<PairVolume>> {
        let n = self.n_ranks;
        let mut vol = vec![vec![PairVolume::default(); n]; n];
        for lx in &self.loops[first_loop.min(self.loops.len())..] {
            for (src, row) in lx.pairs.iter().enumerate() {
                for (dst, m) in row.iter().enumerate().filter(|&(dst, _)| dst != src) {
                    vol[src][dst].add(m);
                }
            }
        }
        vol
    }

    /// Volume totals of one program pass: the pair volumes summed, plus
    /// the footprint facts.
    pub fn stats(&self) -> ExchangeStats {
        let mut stats = ExchangeStats {
            ghost_elements: self.ghosts.iter().flatten().map(IndexSet::len).sum(),
            replication_bytes: self.replication_bytes,
            ..ExchangeStats::default()
        };
        for v in self.predicted_pair_volume().iter().flatten() {
            stats.ghost_fetch_bytes += v.ghost_bytes;
            stats.write_back_bytes += v.write_back_bytes;
            stats.partial_bytes += v.partial_bytes;
            stats.messages += v.messages;
        }
        stats
    }

    pub fn owned(&self, region: RegionId, rank: usize) -> &IndexSet {
        &self.owned[region.0 as usize][rank]
    }

    pub fn ghosts(&self, region: RegionId, rank: usize) -> &IndexSet {
        &self.ghosts[region.0 as usize][rank]
    }

    /// The rank's full footprint of a region: `owned ∪ ghosts`.
    pub fn local(&self, region: RegionId, rank: usize) -> &IndexSet {
        &self.locals[region.0 as usize][rank]
    }

    /// The rank executing color `c` under the owner mapping.
    pub fn rank_of_color(&self, c: usize) -> usize {
        self.color_owner[c]
    }

    /// Colors assigned to `rank`, ascending.
    pub fn colors_of(&self, rank: usize) -> &[usize] {
        &self.rank_colors[rank]
    }

    /// The color → rank owner assignment, indexed by color.
    pub fn owner_assignment(&self) -> &[usize] {
        &self.color_owner
    }

    /// Bytes of f64 field data `rank` owns — the size of its checkpointed
    /// shard, and the upper bound on what recovery may migrate when this
    /// rank is lost (the minimal-migration criterion).
    pub fn owned_field_bytes(&self, schema: &Schema, rank: usize) -> u64 {
        f64_field_regions(schema).map(|r| self.owned[r.0 as usize][rank].len() * 8).sum()
    }

    /// Deliberately removes one ghost element from the first non-empty
    /// ghost set, shrinking the owning rank's `owned ∪ ghosts` footprint
    /// below what the program touches — and strips it from every
    /// ghost message headed to that rank, so the plan consistently
    /// *lies* that the element is not needed (it is never shipped, never
    /// resident, yet still read). Exists only so tests can prove the
    /// legality machinery (plan-level proof and the runtime's residency
    /// check) actually catches such a plan. Returns `false` when the plan
    /// has no ghosts to corrupt.
    #[doc(hidden)]
    pub fn corrupt_footprint_for_test(&mut self, schema: &Schema) -> bool {
        for ri in 0..self.ghosts.len() {
            for rank in 0..self.n_ranks {
                let Some(&(g, _)) = self.ghosts[ri][rank].runs().first() else { continue };
                let hole = IndexSet::from_indices([g]);
                self.ghosts[ri][rank] = self.ghosts[ri][rank].difference(&hole);
                self.locals[ri][rank] = self.locals[ri][rank].difference(&hole);
                for row in self.loops.iter_mut().flat_map(|lx| &mut lx.pairs) {
                    let sets = &mut row[rank].ghost;
                    for (field, set) in sets.iter_mut() {
                        if schema.field(*field).region.0 as usize == ri {
                            *set = set.difference(&hole);
                        }
                    }
                    sets.retain(|(_, s)| !s.is_empty());
                }
                return true;
            }
        }
        false
    }
}

/// The region of every f64 field, one entry per field.
fn f64_field_regions(schema: &Schema) -> impl Iterator<Item = RegionId> + '_ {
    (0..schema.num_fields()).filter_map(|fi| {
        let f = schema.field(FieldId(fi as u32));
        matches!(f.kind, FieldKind::F64).then_some(f.region)
    })
}

/// Proof that every access of every loop stays inside its executing rank's
/// `owned ∪ ghosts` footprint — established once per plan by interval
/// set-containment instead of once per element at runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LegalityProof {
    /// Containment facts established: one per `(loop, access, color)`
    /// combination proved. Each fact replaces `|subregion|` per-element
    /// runtime checks.
    pub facts: u64,
}

/// A `(loop, access, color)` whose access partition escapes its rank's
/// footprint — the plan-level analogue of a per-element legality violation,
/// with a concrete witness element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanLegalityError {
    pub loop_index: usize,
    pub access: usize,
    pub color: usize,
    pub rank: usize,
    pub region: RegionId,
    /// An element the access may touch that has no slot on the rank.
    pub witness: Idx,
}

impl fmt::Display for PlanLegalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loop {} access {} color {} (rank {}): partition reaches element {} of region r{} outside the rank's owned ∪ ghosts footprint",
            self.loop_index, self.access, self.color, self.rank, self.witness, self.region.0
        )
    }
}

impl std::error::Error for PlanLegalityError {}

/// Proves `accessed ⊆ owned ∪ ghosts` for the whole plan, once, by
/// interval set-containment over the solved access partitions.
///
/// The per-element runtime checks re-derive exactly this: every
/// `check_access` asks whether one index sits inside its access-partition
/// subregion, and every store translation asks whether it sits inside the
/// rank footprint. The constraint solution already states both as sets —
/// the resident sets of [`access_sets`] *are* the solver's description of
/// what each color touches in the store, and `derive_exchange` built the
/// footprints from them — so the containment can be discharged per `(loop,
/// access, color)` instead of per element. The proof is still an
/// independent check of the derivation (it recomputes containment from the
/// partitions, not from the ghost construction), which is what lets it
/// catch a corrupted or hand-edited plan.
///
/// `Buffered` reduction accesses have no resident set: their values go to
/// rank-local partial buffers whose index translation failure is itself
/// the residency check. The private slice of `BufferedPrivate` *is* proved
/// (it mutates the store in place).
pub fn prove_plan_legality(
    xplan: &ExchangePlan,
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    schema: &Schema,
) -> Result<LegalityProof, PlanLegalityError> {
    let sp = partir_obs::span("exchange.prove_legality");
    let mut proof = LegalityProof::default();
    for (li, lp) in plan.loops.iter().enumerate() {
        let iter = &parts[lp.iter.0 as usize];
        for (ai, ap) in lp.accesses.iter().enumerate() {
            let sets = access_sets(ap, iter, parts, schema);
            let Some(part) = sets.and_then(|s| s.resident) else { continue };
            for c in 0..xplan.n_colors.min(part.num_subregions()) {
                let rank = xplan.rank_of_color(c);
                let touched = part.subregion(c);
                let local = xplan.local(ap.region, rank);
                if !touched.is_subset(local) {
                    let witness = touched
                        .difference(local)
                        .runs()
                        .first()
                        .map(|&(s, _)| s)
                        .unwrap_or_default();
                    return Err(PlanLegalityError {
                        loop_index: li,
                        access: ai,
                        color: c,
                        rank,
                        region: ap.region,
                        witness,
                    });
                }
                proof.facts += 1;
            }
        }
    }
    sp.close_with(vec![("facts", proof.facts.into())]);
    Ok(proof)
}

/// Exchange derivation failure.
#[derive(Debug, PartialEq, Eq)]
pub enum ExchangeError {
    /// Rank count must be at least 1.
    NoRanks,
    /// Partitions disagree on the launch width (subregion counts differ).
    WidthMismatch { part: usize, expected: usize, got: usize },
    /// An explicit owner assignment does not cover the color space, or
    /// names a rank outside `0..n_ranks`.
    BadAssignment { colors: usize, got: usize, n_ranks: usize, bad_rank: Option<usize> },
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExchangeError::NoRanks => write!(f, "rank count must be at least 1"),
            ExchangeError::WidthMismatch { part, expected, got } => {
                write!(f, "partition {part} has {got} subregions, launch width is {expected}")
            }
            ExchangeError::BadAssignment { colors, got, n_ranks, bad_rank } => match bad_rank {
                Some(r) => write!(f, "owner assignment names rank {r}, rank count is {n_ranks}"),
                None => write!(f, "owner assignment covers {got} colors, expected {colors}"),
            },
        }
    }
}

impl std::error::Error for ExchangeError {}

/// The default block owner mapping: colors assigned to ranks in contiguous
/// equal-as-possible blocks, `color_owner[c] = rank`.
pub fn block_assignment(n_colors: usize, n_ranks: usize) -> Vec<usize> {
    let mut owner = vec![0usize; n_colors];
    for r in 0..n_ranks {
        let (s, e) = (r * n_colors / n_ranks, (r + 1) * n_colors / n_ranks);
        for o in &mut owner[s..e] {
            *o = r;
        }
    }
    owner
}

/// Derives the full exchange structure for `n_ranks` ranks from a plan and
/// its evaluated partitions under the default block owner mapping. Pure
/// set algebra over the solver's output; no field values are read.
pub fn derive_exchange(
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    schema: &Schema,
    n_ranks: usize,
) -> Result<ExchangePlan, ExchangeError> {
    let n_colors = parts.first().map(|p| p.num_subregions()).unwrap_or(0);
    if n_ranks == 0 {
        return Err(ExchangeError::NoRanks);
    }
    derive_exchange_with(plan, parts, schema, n_ranks, &block_assignment(n_colors, n_ranks))
}

/// [`derive_exchange`] under an explicit color → rank owner assignment
/// (`assignment[color] = rank`): one [`Footprint`] and one fold of it. A
/// rank may own no colors (one that crashed and was evacuated), in which
/// case it sources and sinks no traffic.
pub fn derive_exchange_with(
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    schema: &Schema,
    n_ranks: usize,
    assignment: &[usize],
) -> Result<ExchangePlan, ExchangeError> {
    if n_ranks == 0 {
        return Err(ExchangeError::NoRanks);
    }
    Footprint::build(plan, parts, schema)?.fold(n_ranks, assignment)
}

/// The color footprint table: everything the exchange derivation computes
/// that does not depend on the owner assignment, at color granularity
/// (the module docs list what). Every rank-granular [`ExchangePlan`] is a
/// [`Footprint::fold`] of it.
#[derive(Debug)]
pub struct Footprint {
    /// The launch width the table was built at.
    pub n_colors: usize,
    schema: Schema,
    /// Per region: the owner partition's runs, `(start, end, color)`,
    /// ascending.
    owners: Vec<Vec<(Idx, Idx, usize)>>,
    loops: Vec<LoopFootprint>,
}

/// The elements the rank of color `src` sends the rank of color `dst`
/// for one per-color set family: `of` is the field (ghost and write-back
/// pieces) or the route (slice pieces).
#[derive(Debug)]
struct Piece {
    of: usize,
    src: usize,
    dst: usize,
    set: IndexSet,
}

/// One loop's footprint; pieces are non-empty and grouped by `of`, then
/// `src` for slices.
#[derive(Debug)]
struct LoopFootprint {
    routes: Vec<BufferRoute>,
    /// `resident(dst) ∩ owner(src)` per f64 field, `src ≠ dst`.
    ghost: Vec<Piece>,
    /// `in_place(src) ∩ owner(dst)` per f64 field, `src ≠ dst`.
    write_back: Vec<Piece>,
    /// `routes[of].sets[src] ∩ owner(dst)`, the self pair included.
    slices: Vec<Piece>,
}

impl Footprint {
    /// Builds the table from a plan and its evaluated partitions. Pure set
    /// algebra over the solver's output; no field values are read.
    pub fn build(
        plan: &ParallelPlan,
        parts: &[Arc<Partition>],
        schema: &Schema,
    ) -> Result<Footprint, ExchangeError> {
        let n_colors = parts.first().map(|p| p.num_subregions()).unwrap_or(0);
        if let Some(part) = parts.iter().position(|p| p.num_subregions() != n_colors) {
            let got = parts[part].num_subregions();
            return Err(ExchangeError::WidthMismatch { part, expected: n_colors, got });
        }
        let _sp = partir_obs::span_with("exchange.footprint", vec![("colors", n_colors.into())]);
        let owners = (0..schema.num_regions() as u32).map(RegionId).map(|region| {
            let size = schema.region_size(region);
            let fallback = equal(region, size, n_colors.max(1));
            // Prefer iteration partitions (the natural compute placement),
            // then any disjoint + complete solved partition (complete, and
            // no larger than the region: disjoint).
            let solved = plan.loops.iter().map(|lp| lp.iter.0 as usize).chain(0..parts.len());
            let owner = solved
                .map(|pi| &*parts[pi])
                .find(|p| p.region == region && p.total_elements() == size && p.is_complete(size));
            let colors = owner.unwrap_or(&fallback).iter().take(n_colors).enumerate();
            let mut runs: Vec<_> =
                colors.flat_map(|(c, s)| s.runs().iter().map(move |&(a, b)| (a, b, c))).collect();
            runs.sort_unstable();
            runs
        });
        let owners: Vec<Vec<(Idx, Idx, usize)>> = owners.collect();

        let mut loops = Vec::with_capacity(plan.loops.len());
        for lp in &plan.loops {
            let iter = &parts[lp.iter.0 as usize];
            // (access index, sets) of every access with an f64 footprint.
            let sets = lp.accesses.iter().enumerate();
            let sets: Vec<_> = sets
                .filter_map(|(ai, ap)| Some((ai, access_sets(ap, iter, parts, schema)?)))
                .collect();
            let (mut ghost, mut write_back, mut slices) = (Vec::new(), Vec::new(), Vec::new());
            for field in (0..schema.num_fields() as u32).map(FieldId) {
                let owner = &owners[schema.field(field).region.0 as usize];
                let of_field = sets.iter().filter(|(_, s)| s.field == field).map(|(_, s)| s);
                let resident = of_field.clone().filter_map(|s| Some(s.resident?.subregions()));
                let in_place = of_field.filter_map(|s| s.in_place);
                // A ghost travels from the owner to the reader.
                let at = ghost.len();
                split_colors(resident.collect(), owner, field.0 as usize, false, &mut ghost);
                ghost[at..].iter_mut().for_each(|p| (p.src, p.dst) = (p.dst, p.src));
                split_colors(in_place.collect(), owner, field.0 as usize, false, &mut write_back);
            }
            let routes: Vec<BufferRoute> = sets
                .iter()
                .filter_map(|(ai, s)| {
                    let b = s.buffered.as_ref()?;
                    let (access, field, op, sets) = (*ai, s.field, b.op, b.sets().into_owned());
                    Some(BufferRoute { access, field, op, sets })
                })
                .collect();
            for (r, route) in routes.iter().enumerate() {
                let owner = &owners[schema.field(route.field).region.0 as usize];
                split_colors(vec![&route.sets], owner, r, true, &mut slices);
            }
            loops.push(LoopFootprint { routes, ghost, write_back, slices });
        }
        Ok(Footprint { n_colors, schema: schema.clone(), owners, loops })
    }

    /// The rank-granular exchange under `rank_of[color] = rank`: owned
    /// sets, the message table, the interior/boundary split and the ghost
    /// footprints, by unions of the table's pieces. Same errors as
    /// [`derive_exchange_with`].
    pub fn fold(&self, n_ranks: usize, rank_of: &[usize]) -> Result<ExchangePlan, ExchangeError> {
        let (n_colors, got) = (self.n_colors, rank_of.len());
        let bad_rank = rank_of.iter().copied().find(|&r| r >= n_ranks);
        if n_ranks == 0 {
            return Err(ExchangeError::NoRanks);
        } else if got != n_colors || bad_rank.is_some() {
            let bad_rank = bad_rank.filter(|_| got == n_colors);
            return Err(ExchangeError::BadAssignment { colors: n_colors, got, n_ranks, bad_rank });
        }
        let sp = partir_obs::span_with(
            "exchange.fold",
            vec![("ranks", n_ranks.into()), ("colors", n_colors.into())],
        );
        let region_of = |field: usize| self.schema.field(FieldId(field as u32)).region.0 as usize;
        let mut rank_colors: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
        for (c, &r) in rank_of.iter().enumerate() {
            rank_colors[r].push(c);
        }
        // owned[region][rank]: the owner runs of the rank's colors.
        let owned: Vec<Vec<IndexSet>> = self
            .owners
            .iter()
            .map(|runs| {
                let mut per_rank = vec![Vec::new(); n_ranks];
                for &(s, e, c) in runs {
                    per_rank[rank_of[c]].push((s, e));
                }
                per_rank.into_iter().map(IndexSet::from_sorted_runs).collect()
            })
            .collect();

        // ghosts[region][rank]: everything the rank is sent before a loop.
        let mut ghosts = vec![vec![IndexSet::new(); n_ranks]; owned.len()];
        let mut lxs = Vec::with_capacity(self.loops.len());
        for lf in &self.loops {
            let mut pairs = vec![vec![PairMessages::default(); n_ranks]; n_ranks];
            for (s, d, p, set) in fold_pieces(&lf.ghost, rank_of, false) {
                let ghost = &mut ghosts[region_of(p.of)][d];
                *ghost = ghost.union(&set);
                pairs[s][d].ghost.push((FieldId(p.of as u32), set));
            }
            for (s, d, p, set) in fold_pieces(&lf.write_back, rank_of, false) {
                pairs[s][d].post.write_back.push((FieldId(p.of as u32), set));
            }
            for (s, d, p, set) in fold_pieces(&lf.slices, rank_of, true) {
                pairs[s][d].post.slices.push((p.of, p.src, set));
            }
            // A boundary color waits for the owners of its foreign pieces.
            let mut deps = vec![Vec::new(); n_colors];
            for p in lf.ghost.iter().filter(|p| rank_of[p.src] != rank_of[p.dst]) {
                deps[p.dst].push(rank_of[p.src]);
            }
            for d in &mut deps {
                d.sort_unstable();
                d.dedup();
            }
            // Interior colors need no ghost; boundary colors wait on theirs.
            let split = |interior: bool| -> Vec<Vec<usize>> {
                let pick = |cs: &Vec<usize>| {
                    cs.iter().copied().filter(|&c| deps[c].is_empty() == interior).collect()
                };
                rank_colors.iter().map(pick).collect()
            };
            let (interior, boundary) = (split(true), split(false));
            let boundary_deps = boundary.iter().map(|cs| cs.iter().map(|&c| deps[c].clone()));
            let boundary_deps = boundary_deps.map(Iterator::collect).collect();
            let routes = lf.routes.clone();
            lxs.push(LoopExchange { pairs, routes, interior, boundary, boundary_deps });
        }

        let locals: Vec<Vec<IndexSet>> = owned
            .iter()
            .zip(&ghosts)
            .map(|(o, g)| o.iter().zip(g).map(|(os, gs)| os.union(gs)).collect())
            .collect();
        let f64_bytes: u64 =
            f64_field_regions(&self.schema).map(|r| self.schema.region_size(r) * 8).sum();
        let xplan = ExchangePlan {
            n_ranks,
            n_colors,
            color_owner: rank_of.to_vec(),
            rank_colors,
            owned,
            ghosts,
            locals,
            replication_bytes: (n_ranks as u64 - 1) * f64_bytes,
            loops: lxs,
        };

        let stats = xplan.stats();
        sp.close_with(vec![
            ("ghost_elements", stats.ghost_elements.into()),
            ("messages", stats.messages.into()),
        ]);
        Ok(xplan)
    }
}

/// Appends the piece `(of, c, d, (∪ lists[..][c]) ∩ owner(d))` for every
/// color pair with one, ascending by `(c, d)`; `d = c` only when `same`.
fn split_colors(
    mut lists: Vec<&[IndexSet]>,
    owner: &[(Idx, Idx, usize)],
    of: usize,
    same: bool,
    out: &mut Vec<Piece>,
) {
    lists.sort_by_key(|l| l.as_ptr());
    lists.dedup_by_key(|l| l.as_ptr());
    let n_colors = lists.first().map_or(0, |l| l.len());
    let mut by_owner: Vec<Vec<(Idx, Idx)>> = vec![Vec::new(); n_colors];
    for c in 0..n_colors {
        let set = union_all(&lists.iter().map(|l| &l[c]).collect::<Vec<_>>());
        // A merge walk that skips by binary search: past set runs before an
        // owner run, owner runs before a set run, and a color's own runs.
        let (runs, mut i, mut j) = (set.runs(), 0, 0);
        while i < runs.len() && j < owner.len() {
            let ((s, e), (os, oe, d)) = (runs[i], owner[j]);
            if e <= os {
                i += runs[i..].partition_point(|&(_, e)| e <= os);
            } else if oe <= s {
                j += owner[j..].partition_point(|&(_, oe, _)| oe <= s);
            } else if d == c && !same {
                i += runs[i..].partition_point(|&(_, e)| e <= oe);
                j += 1;
            } else {
                by_owner[d].push((s.max(os), e.min(oe)));
                (i, j) = if e <= oe { (i + 1, j) } else { (i, j + 1) };
            }
        }
        for (d, runs) in by_owner.iter_mut().enumerate().filter(|(_, r)| !r.is_empty()) {
            out.push(Piece { of, src: c, dst: d, set: IndexSet::from_sorted_runs(runs.drain(..)) });
        }
    }
}

/// `(src rank, dst rank, first piece, union)` of the pieces each rank
/// pair exchanges, per group of pieces with one `of` (and one `src` when
/// `same`). A piece within one rank is dropped unless `same`.
fn fold_pieces<'a>(
    pieces: &'a [Piece],
    rank_of: &[usize],
    same: bool,
) -> Vec<(usize, usize, &'a Piece, IndexSet)> {
    let mut out = Vec::new();
    for group in pieces.chunk_by(|a, b| a.of == b.of && (!same || a.src == b.src)) {
        let cells = group.iter().map(|p| (rank_of[p.src], rank_of[p.dst], &p.set));
        let mut cells: Vec<_> = cells.filter(|&(s, d, _)| same || s != d).collect();
        cells.sort_by_key(|&(s, d, _)| (s, d));
        for cell in cells.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let sets: Vec<&IndexSet> = cell.iter().map(|c| c.2).collect();
            out.push((cell[0].0, cell[0].1, &group[0], union_all(&sets).into_owned()));
        }
    }
    out
}

/// `∪ sets`, by pairwise unions in a balanced tree.
fn union_all<'a>(sets: &[&'a IndexSet]) -> Cow<'a, IndexSet> {
    match sets {
        [] => Cow::Owned(IndexSet::new()),
        [s] => Cow::Borrowed(s),
        _ => {
            let (a, b) = sets.split_at(sets.len() / 2);
            Cow::Owned(union_all(a).union(&union_all(b)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::ExtBindings;
    use crate::pipeline::{auto_parallelize, Hints, Options};
    use partir_dpl::func::{FnDef, FnTable, IndexFn};
    use partir_dpl::region::{FieldKind, Schema, Store};
    use partir_ir::ast::{LoopBuilder, VExpr};

    /// 1-D periodic stencil: out[i] = in[(i-1) mod n] + in[(i+1) mod n].
    fn stencil_1d(n: u64) -> (Vec<partir_ir::ast::Loop>, FnTable, Schema) {
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
        (vec![b.finish()], fns, schema)
    }

    #[test]
    fn stencil_ghosts_are_exactly_the_pm1_halo() {
        let n = 40u64;
        let (program, fns, schema) = stencil_1d(n);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let store = Store::new(schema.clone());
        let ranks = 4usize;
        let parts = plan.evaluate(&store, &fns, ranks, &ExtBindings::new());
        let x = derive_exchange(&plan, &parts, &schema, ranks).unwrap();

        let r = schema.region_by_name("R").unwrap();
        let block = n / ranks as u64;
        for rank in 0..ranks {
            let (lo, hi) = (rank as u64 * block, (rank as u64 + 1) * block);
            assert_eq!(
                x.owned(r, rank),
                &IndexSet::from_range(lo, hi),
                "owner map must be the block partition"
            );
            // Ghosts: exactly the two halo cells (periodic neighbors).
            let want = IndexSet::from_indices([
                (lo + n - 1) % n, // left neighbor of the block start
                hi % n,           // right neighbor of the block end
            ]);
            assert_eq!(x.ghosts(r, rank), &want, "rank {rank} halo");
            assert_eq!(x.local(r, rank), &x.owned(r, rank).union(&want));
        }
        // Each rank fetches one element from each of its two neighbors for
        // the single read field: 2 messages in, 2 out, 8 bytes each.
        let lx = &x.loops[0];
        for rank in 0..ranks {
            let mut total = 0u64;
            for row in &lx.pairs {
                for (_, set) in &row[rank].ghost {
                    total += set.len();
                }
            }
            assert_eq!(total, 2, "rank {rank} fetches exactly its ±1 halo");
        }
        // So the only traffic is one ghost message (one 8-byte element)
        // from each rank to each of its two neighbors.
        for (src, row) in x.predicted_pair_volume().iter().enumerate() {
            for (dst, v) in row.iter().enumerate() {
                let neighbor = dst == (src + 1) % ranks || dst == (src + ranks - 1) % ranks;
                let want = match neighbor {
                    true => PairVolume { ghost_bytes: 8, messages: 1, ..PairVolume::default() },
                    false => PairVolume::default(),
                };
                assert_eq!(*v, want, "pair ({src},{dst})");
            }
        }
        // Centered writes to owned elements: nothing to write back.
        assert_eq!(x.stats().write_back_bytes, 0);
        assert!(x.stats().ghost_fetch_bytes < x.stats().replication_bytes);
    }

    #[test]
    fn single_rank_needs_no_communication() {
        let (program, fns, schema) = stencil_1d(24);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let store = Store::new(schema.clone());
        let parts = plan.evaluate(&store, &fns, 1, &ExtBindings::new());
        let x = derive_exchange(&plan, &parts, &schema, 1).unwrap();
        assert_eq!(x.stats().messages, 0);
        assert_eq!(x.stats().ghost_elements, 0);
        let r = schema.region_by_name("R").unwrap();
        assert_eq!(x.owned(r, 0), &IndexSet::from_range(0, 24));
    }

    #[test]
    fn owner_map_is_disjoint_and_complete_per_region() {
        let (program, fns, schema) = stencil_1d(30);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let store = Store::new(schema.clone());
        let parts = plan.evaluate(&store, &fns, 6, &ExtBindings::new());
        let x = derive_exchange(&plan, &parts, &schema, 3).unwrap();
        for (region, _) in schema.regions() {
            let subs: Vec<IndexSet> = (0..3).map(|r| x.owned(region, r).clone()).collect();
            let p = Partition::new(region, subs);
            assert!(p.is_disjoint());
            assert!(p.is_complete(schema.region_size(region)));
        }
        // Colors 0..6 block onto ranks 0..3 two apiece.
        assert_eq!(x.colors_of(0), &[0, 1]);
        assert_eq!(x.colors_of(2), &[4, 5]);
        for c in 0..6 {
            assert_eq!(x.rank_of_color(c), c / 2);
        }
        assert_eq!(x.owner_assignment(), &[0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn evacuated_exchange_is_still_disjoint_complete_and_legal() {
        let (program, fns, schema) = stencil_1d(40);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let store = Store::new(schema.clone());
        let parts = plan.evaluate(&store, &fns, 4, &ExtBindings::new());
        let x = derive_exchange(&plan, &parts, &schema, 4).unwrap();
        // Rank 2 lost: its one color moves to rank 0, the others stay.
        assert_eq!(x.owner_assignment(), &[0, 1, 2, 3]);
        let y = derive_exchange_with(&plan, &parts, &schema, 4, &[0, 1, 0, 3]).unwrap();
        let r = schema.region_by_name("R").unwrap();
        assert!(y.owned(r, 2).is_empty(), "the evacuated rank owns nothing");
        assert!(y.colors_of(2).is_empty());
        // The owner map stays a disjoint + complete partition of the region
        // and the rebuilt plan still proves legal.
        let subs: Vec<IndexSet> = (0..4).map(|rk| y.owned(r, rk).clone()).collect();
        let p = Partition::new(r, subs);
        assert!(p.is_disjoint());
        assert!(p.is_complete(schema.region_size(r)));
        prove_plan_legality(&y, &plan, &parts, &schema).unwrap();
        // A rank that owns nothing sources and sinks no traffic.
        let vol = y.predicted_pair_volume();
        for (rk, row) in vol.iter().enumerate() {
            assert_eq!(vol[2][rk], PairVolume::default(), "dead rank sends to {rk}");
            assert_eq!(row[2], PairVolume::default(), "dead rank receives from {rk}");
        }
        // Survivors' owned sets are unchanged — migration is bounded by
        // the dead rank's shard, not a full re-shard.
        for rk in [0usize, 1, 3] {
            assert!(
                x.owned(r, rk).is_subset(y.owned(r, rk)),
                "rank {rk} kept its shard and gained only evacuated colors"
            );
        }
        assert!(
            y.owned_field_bytes(&schema, 2) == 0 && x.owned_field_bytes(&schema, 2) > 0,
            "owned-bytes accounting follows the assignment"
        );
    }

    #[test]
    fn bad_assignments_are_rejected() {
        let (program, fns, schema) = stencil_1d(16);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let store = Store::new(schema.clone());
        let parts = plan.evaluate(&store, &fns, 4, &ExtBindings::new());
        let short = vec![0usize; 3];
        assert!(matches!(
            derive_exchange_with(&plan, &parts, &schema, 4, &short),
            Err(ExchangeError::BadAssignment { bad_rank: None, .. })
        ));
        let oob = vec![7usize; 4];
        assert!(matches!(
            derive_exchange_with(&plan, &parts, &schema, 4, &oob),
            Err(ExchangeError::BadAssignment { bad_rank: Some(7), .. })
        ));
    }

    #[test]
    fn pair_volume_from_epoch_drops_completed_loops() {
        let (mut program, fns, schema) = stencil_1d(40);
        // Two identical epochs: predicting from epoch 1 halves the volume.
        program.push(program[0].clone());
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let store = Store::new(schema.clone());
        let parts = plan.evaluate(&store, &fns, 4, &ExtBindings::new());
        let x = derive_exchange(&plan, &parts, &schema, 4).unwrap();
        let full: u64 = x.predicted_pair_volume().iter().flatten().map(|v| v.bytes()).sum();
        let tail: u64 = x.predicted_pair_volume_from(1).iter().flatten().map(|v| v.bytes()).sum();
        assert_eq!(tail * 2, full);
        let none: u64 = x.predicted_pair_volume_from(99).iter().flatten().map(|v| v.bytes()).sum();
        assert_eq!(none, 0);
    }

    #[test]
    fn boundary_deps_name_the_halo_owners() {
        let n = 40u64;
        let (program, fns, schema) = stencil_1d(n);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let store = Store::new(schema.clone());
        let ranks = 4usize;
        let parts = plan.evaluate(&store, &fns, ranks, &ExtBindings::new());
        let x = derive_exchange(&plan, &parts, &schema, ranks).unwrap();
        let lx = &x.loops[0];
        for rank in 0..ranks {
            assert_eq!(
                lx.boundary[rank].len(),
                lx.boundary_deps[rank].len(),
                "deps parallel to boundary colors"
            );
            // One color per rank; the periodic ±1 stencil makes every
            // color a boundary color depending on both neighbors.
            let left = (rank + ranks - 1) % ranks;
            let right = (rank + 1) % ranks;
            let mut want = vec![left, right];
            want.sort_unstable();
            want.dedup();
            assert_eq!(lx.boundary_deps[rank], vec![want], "rank {rank} deps");
            // Every dep has a matching non-empty ghost message to wait on.
            for deps in &lx.boundary_deps[rank] {
                for &src in deps {
                    assert!(
                        !lx.pairs[src][rank].ghost.is_empty(),
                        "rank {rank} dep on {src} without a ghost message"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_legality_proof_holds_and_catches_corruption() {
        let (program, fns, schema) = stencil_1d(40);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let store = Store::new(schema.clone());
        let parts = plan.evaluate(&store, &fns, 4, &ExtBindings::new());
        let mut x = derive_exchange(&plan, &parts, &schema, 4).unwrap();
        let proof = prove_plan_legality(&x, &plan, &parts, &schema).unwrap();
        assert!(proof.facts > 0, "the stencil has f64 accesses to prove");

        assert!(x.corrupt_footprint_for_test(&schema), "the stencil plan has ghosts");
        let err = prove_plan_legality(&x, &plan, &parts, &schema).unwrap_err();
        // The witness is exactly the element the corruption removed: a
        // ghost element some access needs but no longer has a slot for.
        assert!(!x.local(err.region, err.rank).contains(err.witness));
    }

    #[test]
    fn zero_ranks_is_an_error() {
        let (program, fns, schema) = stencil_1d(8);
        let plan =
            auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
        let store = Store::new(schema.clone());
        let parts = plan.evaluate(&store, &fns, 2, &ExtBindings::new());
        assert!(matches!(derive_exchange(&plan, &parts, &schema, 0), Err(ExchangeError::NoRanks)));
    }
}
