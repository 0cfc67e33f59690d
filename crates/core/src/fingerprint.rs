//! Stable structural fingerprints over solve inputs.
//!
//! The plan cache (`crate::cache`) keys on the *structure* of everything
//! that determines a solve: the loop nest, the declared partitioning
//! functions, the region schema, the user hints, the external partition
//! bindings, the pipeline options, and the color count. Two requests with
//! equal fingerprints run the identical inference → solve → unify →
//! plan-construction pipeline (all of it deterministic), so the cached
//! [`crate::pipeline::ParallelPlan`] is bit-identical to what a cold solve
//! would produce — the invariant the property tests in the facade pin.
//!
//! `std::hash` is deliberately not used: `DefaultHasher` is seeded per
//! process (fingerprints must be stable across runs, so they can be logged,
//! compared across ranks, and baked into reports), and several fingerprinted
//! types carry `f64`s ([`VExpr::Const`], the placement imbalance cap) or
//! don't implement `Hash` at all. Instead every structure is traversed
//! explicitly into a pair of independent 64-bit FNV-1a streams, with
//! variant tags and length prefixes so distinct shapes can't alias byte-wise
//! (`["ab","c"]` vs `["a","bc"]`, `Union(a,b)` vs `Intersect(a,b)`).
//!
//! Three fingerprints exist, at three reuse granularities:
//!
//! * [`solve_fingerprint`] — the [`crate::cache::PlanCache`] key; equal
//!   fingerprints share one solved plan.
//! * [`store_index_fingerprint`] — hashes only the *index-structure* fields
//!   of a store (pointer and range data, plus region sizes). Partition
//!   evaluation reads nothing else — f64 payloads never influence where an
//!   element lives — so evaluated partitions and everything derived from
//!   them (exchange plans, placements, legality proofs) are memoizable per
//!   index-structure, surviving arbitrary value updates between runs. The
//!   store keeps the value ([`Store::index_digest`]) until an index column
//!   is written, so a structure is hashed once per process, not per call.
//! * [`placement_fingerprint`] — the placement-config component of the
//!   per-rank-count artifact memo inside [`crate::cache::SolvedPlan`].

use crate::eval::ExtBindings;
use crate::lang::{FnRef, PExpr};
use crate::optimize::RelaxPolicy;
use crate::pipeline::{Hints, Options, PredFact};
use crate::placement::PlacementConfig;
use crate::placement::PlacementPolicy;
use partir_dpl::func::{FnDef, FnTable, IndexFn, MultiFn};
use partir_dpl::partition::Partition;
use partir_dpl::region::{FieldData, FieldKind, Schema, Store};
use partir_ir::ast::{Loop, Stmt, VExpr};
use std::fmt;

/// Bump when the traversal below changes shape: old fingerprints must not
/// accidentally match new ones across a cache that outlives a version.
const FP_VERSION: u8 = 1;

/// A 128-bit structural hash, stable across processes and platforms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u64; 2]);

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Two independent FNV-1a streams over the same byte sequence. 64-bit FNV
/// alone is weak against birthday collisions at service scale; the second
/// stream (distinct offset basis, bytes pre-whitened) pushes the effective
/// width to 128 bits for structurally generated (non-adversarial) inputs.
pub struct FpHasher {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl FpHasher {
    pub fn new() -> FpHasher {
        let mut h = FpHasher { a: 0xcbf2_9ce4_8422_2325, b: 0x6c62_272e_07bb_0142 };
        h.write_u8(FP_VERSION);
        h
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ (byte ^ 0xa5) as u64).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Variant discriminant; kept distinct from `write_u8` in the call
    /// sites for readability, identical on the wire.
    pub fn tag(&mut self, t: u8) {
        self.write_u8(t);
    }

    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Bit-exact: `-0.0` and `0.0` hash differently, every NaN payload is
    /// its own value. Fingerprints must never conflate stores or configs
    /// that could behave differently.
    pub fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Length-prefixed, so adjacent strings can't alias.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    pub fn finish(self) -> Fingerprint {
        Fingerprint([self.a, self.b])
    }
}

impl Default for FpHasher {
    fn default() -> Self {
        FpHasher::new()
    }
}

/// The [`crate::cache::PlanCache`] key: everything
/// [`crate::pipeline::auto_parallelize`] and
/// [`crate::pipeline::ParallelPlan::evaluate`]'s *shape* depend on.
///
/// `n_colors` is included even though the solver ignores it (the paper
/// elides subregion counts from constraint solving) because the cached
/// artifact memoizes *evaluated* partitions, which are per-color-count.
/// The store is deliberately absent: plans are store-independent, and
/// store-dependent artifacts key separately on
/// [`store_index_fingerprint`] inside the cached plan.
pub fn solve_fingerprint(
    program: &[Loop],
    fns: &FnTable,
    schema: &Schema,
    hints: &Hints,
    opts: &Options,
    exts: &ExtBindings,
    n_colors: usize,
) -> Fingerprint {
    let mut h = FpHasher::new();
    fp_program(&mut h, program);
    fp_fns(&mut h, fns);
    fp_schema(&mut h, schema);
    fp_hints(&mut h, hints);
    fp_options(&mut h, opts);
    fp_exts(&mut h, exts);
    h.write_usize(n_colors);
    h.finish()
}

/// The fingerprint of a store's index structure: region sizes plus the
/// contents of every `Ptr` and `Range` field. f64 fields are skipped —
/// partition evaluation never reads them, so two stores that differ only in
/// values share evaluated partitions, exchange plans, placements, and
/// legality proofs.
///
/// It is a content hash — two stores built apart with equal structure agree
/// — that the store remembers: the columns are hashed (and the obs counter
/// `plan.store_hash` emitted) only when no clone of this store has been
/// asked since its index columns were last written.
pub fn store_index_fingerprint(store: &Store) -> Fingerprint {
    Fingerprint(store.index_digest(|| {
        partir_obs::counter("plan.store_hash", 1);
        hash_index_structure(store).0
    }))
}

fn hash_index_structure(store: &Store) -> Fingerprint {
    let mut h = FpHasher::new();
    let schema = store.schema();
    h.write_usize(schema.num_regions());
    for (rid, decl) in schema.regions() {
        h.write_u32(rid.0);
        h.write_u64(decl.size);
    }
    h.write_usize(schema.num_fields());
    for fi in 0..schema.num_fields() {
        let fid = partir_dpl::region::FieldId(fi as u32);
        match store.field_data(fid) {
            FieldData::F64(v) => {
                // Only the length (an index-structure fact), never values.
                h.tag(0);
                h.write_usize(v.len());
            }
            FieldData::Ptr(v) => {
                h.tag(1);
                h.write_usize(v.len());
                for &p in v.iter() {
                    h.write_u64(p);
                }
            }
            FieldData::Range(v) => {
                h.tag(2);
                h.write_usize(v.len());
                for &(s, e) in v.iter() {
                    h.write_u64(s);
                    h.write_u64(e);
                }
            }
        }
    }
    h.finish()
}

/// The placement-config component of the distributed-artifact memo key.
pub fn placement_fingerprint(cfg: &PlacementConfig) -> Fingerprint {
    let mut h = FpHasher::new();
    match &cfg.policy {
        PlacementPolicy::Block => h.tag(0),
        PlacementPolicy::CostDriven => h.tag(1),
        PlacementPolicy::Explicit(assignment) => {
            h.tag(2);
            h.write_usize(assignment.len());
            for &r in assignment {
                h.write_usize(r);
            }
        }
    }
    h.finish()
}

fn fp_program(h: &mut FpHasher, program: &[Loop]) {
    h.write_usize(program.len());
    for l in program {
        h.write_str(&l.name);
        h.write_u32(l.var.0);
        h.write_u32(l.region.0);
        h.write_u32(l.num_ivars);
        h.write_u32(l.num_vvars);
        h.write_u32(l.num_accesses);
        fp_body(h, &l.body);
    }
}

fn fp_body(h: &mut FpHasher, body: &[Stmt]) {
    h.write_usize(body.len());
    for s in body {
        fp_stmt(h, s);
    }
}

fn fp_stmt(h: &mut FpHasher, s: &Stmt) {
    match s {
        Stmt::IdxRead { access, dst, region, field, src, f } => {
            h.tag(0);
            h.write_u32(access.0);
            h.write_u32(dst.0);
            h.write_u32(region.0);
            h.write_u32(field.0);
            h.write_u32(src.0);
            h.write_u32(f.0);
        }
        Stmt::IdxApply { dst, f, src } => {
            h.tag(1);
            h.write_u32(dst.0);
            h.write_u32(f.0);
            h.write_u32(src.0);
        }
        Stmt::IdxCopy { dst, src } => {
            h.tag(2);
            h.write_u32(dst.0);
            h.write_u32(src.0);
        }
        Stmt::ValRead { access, dst, region, field, idx } => {
            h.tag(3);
            h.write_u32(access.0);
            h.write_u32(dst.0);
            h.write_u32(region.0);
            h.write_u32(field.0);
            h.write_u32(idx.0);
        }
        Stmt::ValWrite { access, region, field, idx, value } => {
            h.tag(4);
            h.write_u32(access.0);
            h.write_u32(region.0);
            h.write_u32(field.0);
            h.write_u32(idx.0);
            fp_vexpr(h, value);
        }
        Stmt::ValReduce { access, region, field, idx, op, value } => {
            h.tag(5);
            h.write_u32(access.0);
            h.write_u32(region.0);
            h.write_u32(field.0);
            h.write_u32(idx.0);
            h.write_u8(*op as u8);
            fp_vexpr(h, value);
        }
        Stmt::ForEach { range_access, var, f, src, body } => {
            h.tag(6);
            h.write_u32(range_access.0);
            h.write_u32(var.0);
            h.write_u32(f.0);
            h.write_u32(src.0);
            fp_body(h, body);
        }
    }
}

fn fp_vexpr(h: &mut FpHasher, e: &VExpr) {
    match e {
        VExpr::Const(c) => {
            h.tag(0);
            h.write_f64(*c);
        }
        VExpr::Var(v) => {
            h.tag(1);
            h.write_u32(v.0);
        }
        VExpr::Un(op, a) => {
            h.tag(2);
            h.write_u8(*op as u8);
            fp_vexpr(h, a);
        }
        VExpr::Bin(op, a, b) => {
            h.tag(3);
            h.write_u8(*op as u8);
            fp_vexpr(h, a);
            fp_vexpr(h, b);
        }
    }
}

fn fp_fns(h: &mut FpHasher, fns: &FnTable) {
    h.write_usize(fns.len());
    for i in 0..fns.len() {
        let f = fns.get(partir_dpl::func::FnId(i as u32));
        h.write_str(&f.name);
        h.write_u32(f.domain.0);
        h.write_u32(f.range.0);
        match &f.def {
            FnDef::Index(ix) => {
                h.tag(0);
                fp_index_fn(h, ix);
            }
            FnDef::Multi(m) => {
                h.tag(1);
                fp_multi_fn(h, m);
            }
        }
    }
}

fn fp_index_fn(h: &mut FpHasher, f: &IndexFn) {
    match f {
        IndexFn::Identity => h.tag(0),
        IndexFn::Affine { mul, add } => {
            h.tag(1);
            h.write_i64(*mul);
            h.write_i64(*add);
        }
        IndexFn::AffineMod { mul, add, modulus } => {
            h.tag(2);
            h.write_i64(*mul);
            h.write_i64(*add);
            h.write_u64(*modulus);
        }
        IndexFn::Ptr { field } => {
            h.tag(3);
            h.write_u32(field.0);
        }
        IndexFn::Compose(first, second) => {
            h.tag(4);
            fp_index_fn(h, first);
            fp_index_fn(h, second);
        }
    }
}

fn fp_multi_fn(h: &mut FpHasher, f: &MultiFn) {
    match f {
        MultiFn::RangeField { field } => {
            h.tag(0);
            h.write_u32(field.0);
        }
        MultiFn::Lift(ix) => {
            h.tag(1);
            fp_index_fn(h, ix);
        }
    }
}

fn fp_schema(h: &mut FpHasher, schema: &Schema) {
    h.write_usize(schema.num_regions());
    for (rid, decl) in schema.regions() {
        h.write_u32(rid.0);
        h.write_str(&decl.name);
        h.write_u64(decl.size);
        h.write_usize(decl.fields.len());
        for f in &decl.fields {
            h.write_u32(f.0);
        }
    }
    h.write_usize(schema.num_fields());
    for fi in 0..schema.num_fields() {
        let fd = schema.field(partir_dpl::region::FieldId(fi as u32));
        h.write_str(&fd.name);
        h.write_u32(fd.region.0);
        match fd.kind {
            FieldKind::F64 => h.tag(0),
            FieldKind::Ptr(r) => {
                h.tag(1);
                h.write_u32(r.0);
            }
            FieldKind::Range(r) => {
                h.tag(2);
                h.write_u32(r.0);
            }
        }
    }
}

fn fp_hints(h: &mut FpHasher, hints: &Hints) {
    h.write_usize(hints.externals.len());
    for (name, region) in &hints.externals {
        h.write_str(name);
        h.write_u32(region.0);
    }
    h.write_usize(hints.subset_facts.len());
    for (a, b) in &hints.subset_facts {
        fp_pexpr(h, a);
        fp_pexpr(h, b);
    }
    h.write_usize(hints.pred_facts.len());
    for f in &hints.pred_facts {
        match f {
            PredFact::Disj(e) => {
                h.tag(0);
                fp_pexpr(h, e);
            }
            PredFact::Comp(e, r) => {
                h.tag(1);
                fp_pexpr(h, e);
                h.write_u32(r.0);
            }
        }
    }
    h.write_usize(hints.private_subs.len());
    for (r, e) in &hints.private_subs {
        h.write_u32(r.0);
        fp_pexpr(h, e);
    }
}

fn fp_pexpr(h: &mut FpHasher, e: &PExpr) {
    match e {
        PExpr::Sym(s) => {
            h.tag(0);
            h.write_u32(s.0);
        }
        PExpr::Ext(x) => {
            h.tag(1);
            h.write_u32(x.0);
        }
        PExpr::Equal(r) => {
            h.tag(2);
            h.write_u32(r.0);
        }
        PExpr::Image { src, f, target } => {
            h.tag(3);
            fp_pexpr(h, src);
            fp_fn_ref(h, f);
            h.write_u32(target.0);
        }
        PExpr::Preimage { domain, f, src } => {
            h.tag(4);
            h.write_u32(domain.0);
            fp_fn_ref(h, f);
            fp_pexpr(h, src);
        }
        PExpr::Union(a, b) => {
            h.tag(5);
            fp_pexpr(h, a);
            fp_pexpr(h, b);
        }
        PExpr::Intersect(a, b) => {
            h.tag(6);
            fp_pexpr(h, a);
            fp_pexpr(h, b);
        }
        PExpr::Difference(a, b) => {
            h.tag(7);
            fp_pexpr(h, a);
            fp_pexpr(h, b);
        }
    }
}

fn fp_fn_ref(h: &mut FpHasher, f: &FnRef) {
    match f {
        FnRef::Identity => h.tag(0),
        FnRef::Fn(id) => {
            h.tag(1);
            h.write_u32(id.0);
        }
    }
}

fn fp_options(h: &mut FpHasher, opts: &Options) {
    h.write_bool(opts.unify);
    match opts.relax {
        RelaxPolicy::Off => h.tag(0),
        RelaxPolicy::Auto => h.tag(1),
    }
    h.write_bool(opts.disj_preference);
    h.write_bool(opts.private_subs);
    let b = &opts.solve_budget;
    fp_opt_u64(h, b.max_nodes);
    fp_opt_u64(h, b.max_backtracks);
    fp_opt_u64(h, b.deadline.map(|d| d.as_nanos() as u64));
}

fn fp_opt_u64(h: &mut FpHasher, v: Option<u64>) {
    match v {
        None => h.tag(0),
        Some(x) => {
            h.tag(1);
            h.write_u64(x);
        }
    }
}

fn fp_exts(h: &mut FpHasher, exts: &ExtBindings) {
    h.write_usize(exts.len());
    for i in 0..exts.len() {
        fp_partition(h, exts.get(crate::lang::ExtId(i as u32)));
    }
}

fn fp_partition(h: &mut FpHasher, p: &Partition) {
    h.write_u32(p.region.0);
    let subs = p.subregions();
    h.write_usize(subs.len());
    for s in subs {
        let runs = s.runs();
        h.write_usize(runs.len());
        for &(a, b) in runs {
            h.write_u64(a);
            h.write_u64(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::PSym;
    use partir_dpl::func::FnDef;
    use partir_dpl::index_set::IndexSet;
    use partir_dpl::region::FieldKind;
    use partir_ir::ast::{LoopBuilder, ReduceOp};

    fn scatter() -> (Vec<Loop>, FnTable, Schema) {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 64);
        let s = schema.add_region("S", 64);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g =
            fns.add("g", r, s, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 3, modulus: 64 }));
        let mut b = LoopBuilder::new("scatter", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let gi = b.idx_apply(g, i);
        b.val_reduce(s, sx, gi, ReduceOp::Add, VExpr::var(v));
        (vec![b.finish()], fns, schema)
    }

    fn fp(program: &[Loop], fns: &FnTable, schema: &Schema, hints: &Hints) -> Fingerprint {
        solve_fingerprint(program, fns, schema, hints, &Options::default(), &ExtBindings::new(), 4)
    }

    #[test]
    fn identical_inputs_agree() {
        let (p, f, s) = scatter();
        let (p2, f2, s2) = scatter();
        assert_eq!(fp(&p, &f, &s, &Hints::new()), fp(&p2, &f2, &s2, &Hints::new()));
    }

    #[test]
    fn hints_options_colors_and_schema_all_perturb_the_key() {
        let (p, f, s) = scatter();
        let base = fp(&p, &f, &s, &Hints::new());

        let mut hinted = Hints::new();
        hinted.fact_subset(PExpr::sym(PSym(0)), PExpr::Equal(partir_dpl::region::RegionId(0)));
        assert_ne!(base, fp(&p, &f, &s, &hinted));

        let mut opts = Options::default();
        opts.unify = !opts.unify;
        assert_ne!(
            base,
            solve_fingerprint(&p, &f, &s, &Hints::new(), &opts, &ExtBindings::new(), 4)
        );

        assert_ne!(
            base,
            solve_fingerprint(
                &p,
                &f,
                &s,
                &Hints::new(),
                &Options::default(),
                &ExtBindings::new(),
                8
            )
        );

        let mut s2 = s.clone();
        let extra = s2.add_region("T", 10);
        let _ = s2.add_field(extra, "y", FieldKind::F64);
        assert_ne!(base, fp(&p, &f, &s2, &Hints::new()));
    }

    #[test]
    fn external_bindings_perturb_the_key() {
        let (p, f, s) = scatter();
        let base = fp(&p, &f, &s, &Hints::new());
        let mut exts = ExtBindings::new();
        let r = partir_dpl::region::RegionId(0);
        exts.push(Partition::new(
            r,
            vec![IndexSet::from_range(0, 32), IndexSet::from_range(32, 64)],
        ));
        let keyed = solve_fingerprint(&p, &f, &s, &Hints::new(), &Options::default(), &exts, 4);
        assert_ne!(base, keyed);
    }

    #[test]
    fn store_fingerprint_ignores_values_but_sees_pointers() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 8);
        let vx = schema.add_field(r, "x", FieldKind::F64);
        let px = schema.add_field(r, "p", FieldKind::Ptr(r));
        let mut store = Store::new(schema);
        let base = store_index_fingerprint(&store);

        store.f64s_mut(vx)[3] = 42.0;
        assert_eq!(base, store_index_fingerprint(&store), "f64 payloads are not index structure");

        store.ptrs_mut(px)[3] = 5;
        assert_ne!(base, store_index_fingerprint(&store), "pointer fields are index structure");
    }

    /// The store remembers its fingerprint; what it remembers is the content
    /// hash, at the value it had before stores remembered anything.
    #[test]
    fn store_fingerprint_is_the_content_hash_at_its_pinned_value() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 8);
        let m = schema.add_region("M", 5);
        schema.add_field(r, "x", FieldKind::F64);
        let px = schema.add_field(r, "p", FieldKind::Ptr(m));
        let rx = schema.add_field(m, "rows", FieldKind::Range(r));
        let build = || {
            let mut store = Store::new(schema.clone());
            for i in 0..8 {
                store.ptrs_mut(px)[i] = (i as u64 * 3) % 5;
            }
            for i in 0..5 {
                store.ranges_mut(rx)[i] = (i as u64, i as u64 + 3);
            }
            store
        };
        let (a, b) = (build(), build());
        let fp = store_index_fingerprint(&a);
        assert_eq!(fp.to_string(), "53e7e3b364d623f42f2534a9663f4a2f");
        assert_eq!(fp, hash_index_structure(&a), "the remembered value is the hash");
        assert_eq!(fp, store_index_fingerprint(&a), "and stays it");
        assert_eq!(fp, store_index_fingerprint(&b), "stores built apart agree");
        assert_eq!(fp, store_index_fingerprint(&a.clone()));
    }

    #[test]
    fn placement_fingerprint_sees_every_knob() {
        let base = placement_fingerprint(&PlacementConfig::default());
        let cost = PlacementConfig { policy: PlacementPolicy::CostDriven };
        assert_ne!(base, placement_fingerprint(&cost));
    }
}
