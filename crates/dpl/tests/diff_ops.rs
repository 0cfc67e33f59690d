//! Differential property test of `dpl::ops::{image, preimage}` against the
//! per-element definitions they replaced.
//!
//! The [`oracle`] module is the previous implementation, moved here verbatim:
//! it calls `IndexFn::eval` / `MultiFn::eval_into` once per element and
//! rebuilds every subregion by sort + dedup, so it shares no code with the
//! run-granular arms in `ops.rs` (not `push_run`, not the bitset, not the
//! colour mask). Equality is `Partition` equality, i.e. equality of the
//! canonical run lists, so the run counts the plan reports are pinned too.

use partir_dpl::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod oracle {
    use partir_dpl::prelude::*;

    /// `image(E, f, R)` / `IMAGE(E, F, R)`: derives a partition of the target
    /// region from an existing partition of the function's domain.
    pub fn image(
        store: &Store,
        table: &FnTable,
        src: &Partition,
        f: FnId,
        target: RegionId,
    ) -> Partition {
        let target_size = store.schema().region_size(target);
        let def = &table.get(f).def;
        let mut scratch: Vec<Idx> = Vec::new();
        let subregions = src
            .iter()
            .map(|sub| {
                scratch.clear();
                match def {
                    FnDef::Index(func) => {
                        for k in sub.iter() {
                            if let Some(v) = func.eval(store, k, target_size) {
                                scratch.push(v);
                            }
                        }
                    }
                    FnDef::Multi(func) => {
                        for k in sub.iter() {
                            func.eval_into(store, k, target_size, &mut scratch);
                        }
                    }
                }
                IndexSet::from_indices(scratch.iter().copied())
            })
            .collect();
        Partition::new(target, subregions)
    }

    /// `preimage(R, f, E)` / `PREIMAGE(R, F, E)`: derives a partition of the
    /// function's domain from an existing partition of its range.
    ///
    /// Implemented by materializing all `(f(k), k)` pairs sorted by image value,
    /// then gathering, for each subregion run `[s, e)` of `E[i]`, every domain
    /// element whose image lands in the run — `O(|R| log |R| + Σ runs·log)`
    /// instead of the naive `O(|R| · #subregions)`.
    pub fn preimage(
        store: &Store,
        table: &FnTable,
        domain: RegionId,
        f: FnId,
        src: &Partition,
    ) -> Partition {
        let domain_size = store.schema().region_size(domain);
        let range_size = store.schema().region_size(src.region);
        let def = &table.get(f).def;

        // (image value, domain element), sorted by image value.
        let mut pairs: Vec<(Idx, Idx)> = Vec::with_capacity(domain_size as usize);
        match def {
            FnDef::Index(func) => {
                for k in 0..domain_size {
                    if let Some(v) = func.eval(store, k, range_size) {
                        pairs.push((v, k));
                    }
                }
            }
            FnDef::Multi(func) => {
                let mut tmp = Vec::new();
                for k in 0..domain_size {
                    tmp.clear();
                    func.eval_into(store, k, range_size, &mut tmp);
                    pairs.extend(tmp.iter().map(|&v| (v, k)));
                }
            }
        }
        pairs.sort_unstable();

        let subregions = src
            .iter()
            .map(|sub| {
                let mut members: Vec<Idx> = Vec::new();
                for &(s, e) in sub.runs() {
                    let lo = pairs.partition_point(|&(v, _)| v < s);
                    let hi = pairs.partition_point(|&(v, _)| v < e);
                    members.extend(pairs[lo..hi].iter().map(|&(_, k)| k));
                }
                IndexSet::from_indices(members)
            })
            .collect();
        Partition::new(domain, subregions)
    }
}

/// Seeded cases per profile: the release corpus is what CI's
/// `cargo test --release -p partir-dpl` step runs.
const CASES: u64 = if cfg!(debug_assertions) { 400 } else { 4000 };

/// Largest region; three bitset words, so word and mask-chunk edges are hit.
const MAX_SIZE: u64 = 200;

struct World {
    store: Store,
    dom: RegionId,
    rng: RegionId,
    ptr: FieldId,
    range: FieldId,
    /// `(dom size, rng size)`.
    sizes: (u64, u64),
}

fn size(r: &mut StdRng) -> u64 {
    match r.gen_range(0..10u32) {
        0 => r.gen_range(0..3u64),
        1 => 64 * r.gen_range(1..=3u64),
        _ => r.gen_range(1..=MAX_SIZE),
    }
}

/// Two regions of unrelated sizes, a pointer column with out-of-range
/// targets and a range column with empty, inverted, overlapping, unsorted
/// and past-the-end ranges (or, one case in four, a well-formed CSR one).
fn world(r: &mut StdRng) -> World {
    let sizes = (size(r), size(r));
    let mut schema = Schema::new();
    let rng = schema.add_region("Rng", sizes.1);
    let dom = schema.add_region("Dom", sizes.0);
    let ptr = schema.add_field(dom, "ptr", FieldKind::Ptr(rng));
    let range = schema.add_field(dom, "range", FieldKind::Range(rng));
    let mut store = Store::new(schema);
    let local = r.gen_bool(0.5);
    for (k, p) in store.ptrs_mut(ptr).iter_mut().enumerate() {
        *p = match r.gen_range(0..12u32) {
            0 => sizes.1 + r.gen_range(0..5u64),
            1 => u64::MAX - r.gen_range(0..3u64),
            _ if local => {
                (k as u64 * sizes.1.max(1) / sizes.0.max(1) + r.gen_range(0..4u64)) % sizes.1.max(1)
            }
            _ => r.gen_range(0..sizes.1.max(1)),
        };
    }
    let csr = r.gen_bool(0.25);
    let mut at = 0u64;
    for row in store.ranges_mut(range).iter_mut() {
        *row = if csr {
            let lo = at;
            at = (at + r.gen_range(0..6u64)).min(sizes.1 + 3);
            (lo, at)
        } else {
            let lo = r.gen_range(0..sizes.1 + 4);
            match r.gen_range(0..8u32) {
                0 => (lo, lo),
                1 => (lo + r.gen_range(1..5u64), lo),
                2 => (lo, u64::MAX),
                _ => (lo, lo + r.gen_range(1..12u64)),
            }
        };
    }
    World { store, dom, rng, ptr, range, sizes }
}

/// 1–70 subregions of a region of `size` elements: empty ones, aliased
/// ones, single-element runs, long runs, runs that reach past the region.
fn partition(r: &mut StdRng, region: RegionId, size: u64) -> Partition {
    let n = if r.gen_bool(0.3) { r.gen_range(60..=70usize) } else { r.gen_range(1..=12usize) };
    let reach = size + 8;
    let mut subs: Vec<IndexSet> = Vec::with_capacity(n);
    for c in 0..n {
        let sub = match r.gen_range(0..8u32) {
            0 => IndexSet::new(),
            1 if c > 0 => subs[r.gen_range(0..c)].clone(),
            2 => IndexSet::from_range(0, reach),
            3 => (0..r.gen_range(1..20u32)).map(|_| r.gen_range(0..reach)).collect(),
            4 => {
                let block = reach * c as u64 / n as u64;
                IndexSet::from_range(
                    block,
                    reach * (c as u64 + 1) / n as u64 + r.gen_range(0..3u64),
                )
            }
            _ => {
                let mut set = IndexSet::new();
                for _ in 0..r.gen_range(1..5u32) {
                    let lo = r.gen_range(0..reach);
                    set = set.union(&IndexSet::from_range(lo, lo + r.gen_range(1..40u64)));
                }
                set
            }
        };
        subs.push(sub);
    }
    Partition::new(region, subs)
}

/// An offset within a few regions or moduli of zero, or at the edge of `i64`.
fn offset(r: &mut StdRng, scale: u64) -> i64 {
    let scale = scale.max(1) as i64;
    match r.gen_range(0..12u32) {
        0 => i64::MAX - r.gen_range(0..3i64),
        1 => i64::MIN + r.gen_range(0..3i64),
        2 => 0,
        3 | 4 => r.gen_range(-3..=3i64),
        _ => r.gen_range(-3 * scale..=3 * scale),
    }
}

/// `Affine` or `AffineMod` with slope −1, 0, 1 (half the time) or 2; the
/// modulus is 1, below, equal to, or above the region, or `i64::MAX`.
fn affine(r: &mut StdRng, region: u64) -> IndexFn {
    let mul = if r.gen_bool(0.5) { 1 } else { [-1, 0, 2][r.gen_range(0..3usize)] };
    if r.gen_bool(0.4) {
        return IndexFn::Affine { mul, add: offset(r, region) };
    }
    let modulus = match r.gen_range(0..6u32) {
        0 => 1,
        1 => r.gen_range(1..=region.max(2) - 1),
        2 => region.max(1),
        3 => region + r.gen_range(1..=region + 5),
        4 => i64::MAX as u64,
        _ => r.gen_range(1..=2 * region + 3),
    };
    IndexFn::AffineMod { mul, add: offset(r, region.max(modulus.min(1 << 20))), modulus }
}

/// Every `FnDef` shape over one world, named for the failure message.
fn shapes(r: &mut StdRng, w: &World) -> Vec<(&'static str, FnDef)> {
    let region = w.sizes.0.max(w.sizes.1);
    let ptr = IndexFn::Ptr { field: w.ptr };
    let boxed = |a: IndexFn, b: IndexFn| IndexFn::Compose(Box::new(a), Box::new(b));
    let lifted = match r.gen_range(0..3u32) {
        0 => IndexFn::Identity,
        1 => ptr.clone(),
        _ => affine(r, region),
    };
    vec![
        ("identity", FnDef::Index(IndexFn::Identity)),
        ("affine", FnDef::Index(affine(r, region))),
        ("affine", FnDef::Index(affine(r, region))),
        ("ptr", FnDef::Index(ptr.clone())),
        ("range", FnDef::Multi(MultiFn::RangeField { field: w.range })),
        ("lift", FnDef::Multi(MultiFn::Lift(lifted))),
        ("ptr-then-affine", FnDef::Index(boxed(ptr.clone(), affine(r, region)))),
        ("affine-then-ptr", FnDef::Index(boxed(affine(r, region), ptr))),
    ]
}

#[test]
fn image_and_preimage_match_the_per_element_definition() {
    for case in 0..CASES {
        let r = &mut StdRng::seed_from_u64(0x0D1F_F0B5 ^ case);
        let w = world(r);
        let over_dom = partition(r, w.dom, w.sizes.0);
        let over_rng = partition(r, w.rng, w.sizes.1);
        for (name, def) in shapes(r, &w) {
            let mut fns = FnTable::new();
            let f = fns.add(name, w.dom, w.rng, def);
            let what = |op: &str| {
                format!("case {case}, {op} under {:?}, sizes {:?}", fns.get(f).def, w.sizes)
            };
            assert_eq!(
                image(&w.store, &fns, &over_dom, f, w.rng),
                oracle::image(&w.store, &fns, &over_dom, f, w.rng),
                "{}",
                what("image")
            );
            assert_eq!(
                preimage(&w.store, &fns, w.dom, f, &over_rng),
                oracle::preimage(&w.store, &fns, w.dom, f, &over_rng),
                "{}",
                what("preimage")
            );
            // The operators take whatever regions the caller names, not only
            // the function's own: run both the other way round too.
            assert_eq!(
                image(&w.store, &fns, &over_rng, f, w.dom),
                oracle::image(&w.store, &fns, &over_rng, f, w.dom),
                "{}",
                what("image (regions swapped)")
            );
            assert_eq!(
                preimage(&w.store, &fns, w.rng, f, &over_dom),
                oracle::preimage(&w.store, &fns, w.rng, f, &over_dom),
                "{}",
                what("preimage (regions swapped)")
            );
        }
    }
}
