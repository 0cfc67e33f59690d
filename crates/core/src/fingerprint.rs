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
//! The key is `std::hash::Hash`, derived on every input type, fed to
//! `FpHasher` instead of `DefaultHasher`. Two properties of that hasher
//! make the derived byte stream a key that can be logged, compared across
//! ranks and baked into reports:
//!
//! * no per-process seed (`DefaultHasher` has one): a fingerprint is the
//!   same in every process;
//! * fixed-width, little-endian integer writes, with `usize` / `isize` as
//!   64 bits, so derived enum discriminants and `Vec` length prefixes are
//!   the same bytes on every platform.
//!
//! Derived `Hash` writes a discriminant before every enum variant and a
//! length before every sequence and string, so distinct shapes cannot alias
//! byte-wise (`["ab","c"]` vs `["a","bc"]`, `Union(a,b)` vs
//! `Intersect(a,b)`). The one hand-written `Hash` is that of
//! [`VExpr`](partir_ir::ast::VExpr), which hashes `f64` constants by bit
//! pattern.
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
use crate::pipeline::{Hints, Options};
use crate::placement::PlacementConfig;
use crate::placement::PlacementPolicy;
use partir_dpl::func::FnTable;
use partir_dpl::region::{FieldData, Schema, Store};
use partir_ir::ast::Loop;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Bump when the byte stream of any key changes: a field added to a key
/// type, a new variant, a reordered walk. Old fingerprints must not
/// accidentally match new ones across a cache that outlives a version.
const FP_VERSION: u8 = 2;

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
///
/// Every fixed-width `write_*` is little-endian, and `usize` / `isize` are
/// written as 64 bits. One rule keeps that true of derived `Hash`: no key
/// type may hold a `Vec` or slice of a primitive integer, because
/// `hash_slice` on those writes the raw native-endian bytes through
/// [`Hasher::write`] and bypasses the overrides. A newtype (`FieldId`) or a
/// tuple (`IndexSet` runs) is hashed element by element, and is fine.
struct FpHasher {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl FpHasher {
    fn new() -> FpHasher {
        let mut h = FpHasher { a: 0xcbf2_9ce4_8422_2325, b: 0x6c62_272e_07bb_0142 };
        h.write_u8(FP_VERSION);
        h
    }

    /// Both streams, as one 128-bit value.
    fn fingerprint(self) -> Fingerprint {
        Fingerprint([self.a, self.b])
    }
}

macro_rules! little_endian_writes {
    ($($write:ident: $t:ty),*) => {
        $(fn $write(&mut self, v: $t) {
            self.write(&v.to_le_bytes());
        })*
    };
}

impl Hasher for FpHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ (byte ^ 0xa5) as u64).wrapping_mul(FNV_PRIME);
        }
    }

    little_endian_writes!(
        write_u8: u8, write_u16: u16, write_u32: u32, write_u64: u64, write_u128: u128,
        write_i8: i8, write_i16: i16, write_i32: i32, write_i64: i64, write_i128: i128
    );

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_i64(v as i64);
    }

    /// The first stream; [`FpHasher::fingerprint`] has both.
    fn finish(&self) -> u64 {
        self.a
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
    (program, fns, schema, hints, opts, exts, n_colors).hash(&mut h);
    h.fingerprint()
}

/// The fingerprint of a store's index structure: region sizes plus the
/// contents of every `Ptr` and `Range` field. f64 fields are skipped —
/// partition evaluation never reads them, so two stores that differ only in
/// values share evaluated partitions, exchange plans, placements, and
/// legality proofs.
///
/// It is a content hash — two stores built apart with equal structure agree
/// — that the store remembers: the columns are hashed (and the trace
/// instant `plan.store_hash` emitted) only when no clone of this store has
/// been asked since its index columns were last written.
pub fn store_index_fingerprint(store: &Store) -> Fingerprint {
    Fingerprint(store.index_digest(|| {
        partir_obs::instant("plan.store_hash", Vec::new());
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
                h.write_u8(0);
                h.write_usize(v.len());
            }
            FieldData::Ptr(v) => {
                h.write_u8(1);
                h.write_usize(v.len());
                for &p in v.iter() {
                    h.write_u64(p);
                }
            }
            FieldData::Range(v) => {
                h.write_u8(2);
                h.write_usize(v.len());
                for &(s, e) in v.iter() {
                    h.write_u64(s);
                    h.write_u64(e);
                }
            }
        }
    }
    h.fingerprint()
}

/// The placement-config component of the distributed-artifact memo key.
pub fn placement_fingerprint(cfg: &PlacementConfig) -> Fingerprint {
    let mut h = FpHasher::new();
    match &cfg.policy {
        PlacementPolicy::Block => h.write_u8(0),
        PlacementPolicy::CostDriven => h.write_u8(1),
        PlacementPolicy::Explicit(assignment) => {
            h.write_u8(2);
            h.write_usize(assignment.len());
            for &r in assignment {
                h.write_usize(r);
            }
        }
    }
    h.fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::block_assignment;
    use crate::lang::{PExpr, PSym};
    use partir_dpl::func::{FnDef, IndexFn};
    use partir_dpl::index_set::IndexSet;
    use partir_dpl::partition::Partition;
    use partir_dpl::region::FieldKind;
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};

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

    /// `usize` / `isize` go out as 64 bits on both streams, so derived
    /// discriminants (`isize`) and length prefixes (`usize`) are the same
    /// bytes on every platform.
    #[test]
    fn pointer_sized_writes_are_64_bit() {
        for x in [0, 1, 0x0123_4567, usize::MAX] {
            let (mut a, mut b) = (FpHasher::new(), FpHasher::new());
            a.write_usize(x);
            b.write_u64(x as u64);
            assert_eq!(a.fingerprint(), b.fingerprint(), "usize {x}");
        }
        for x in [0, -1, 0x0123_4567, isize::MIN, isize::MAX] {
            let (mut a, mut b) = (FpHasher::new(), FpHasher::new());
            a.write_isize(x);
            b.write_i64(x as i64);
            assert_eq!(a.fingerprint(), b.fingerprint(), "isize {x}");
        }
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
    /// hash, at its pinned value (which moves only with `FP_VERSION`).
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
        assert_eq!(fp.to_string(), "c3bfb4b88db28d6fadfde726928ab5c4");
        assert_eq!(fp, hash_index_structure(&a), "the remembered value is the hash");
        assert_eq!(fp, store_index_fingerprint(&a), "and stays it");
        assert_eq!(fp, store_index_fingerprint(&b), "stores built apart agree");
        assert_eq!(fp, store_index_fingerprint(&a.clone()));
    }

    /// The plan-cache key's byte stream, pinned: a change to it is a
    /// deliberate `FP_VERSION` bump.
    #[test]
    fn solve_fingerprint_is_pinned() {
        let (p, f, s) = scatter();
        assert_eq!(fp(&p, &f, &s, &Hints::new()).to_string(), "c24eb62f219eae9bb5c9d39ec7ab1702");
    }

    #[test]
    fn placement_fingerprint_sees_every_knob() {
        let key = |policy| placement_fingerprint(&PlacementConfig { policy });
        let explicit = |a: &[usize]| key(PlacementPolicy::Explicit(a.to_vec()));
        assert_eq!(key(PlacementPolicy::Block), placement_fingerprint(&PlacementConfig::default()));
        assert_ne!(key(PlacementPolicy::Block), key(PlacementPolicy::CostDriven));
        assert_ne!(explicit(&[0, 1, 0, 1]), explicit(&[0, 1, 1, 1]), "one color moved");
        let block = block_assignment(4, 2);
        assert_ne!(key(PlacementPolicy::Block), explicit(&block), "the policy is keyed");
        assert_ne!(explicit(&[0, 1]), explicit(&[0, 1, 0]), "the length is keyed");
    }
}
