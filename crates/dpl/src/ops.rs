//! The Dependent Partitioning Language operators.
//!
//! These functions implement the operator semantics of Figure 5 / Section 2
//! verbatim:
//!
//! * [`equal`]`(R, N)` — a complete, disjoint partition of `R` into `N`
//!   (approximately) equal-size blocks;
//! * [`image`]`(E, f, R)[i] = { f(k) ∈ R | k ∈ E[i] }`;
//! * [`preimage`]`(R, f, E)[i] = { k ∈ R | f(k) ∈ E[i] }`;
//! * the generalized `IMAGE`/`PREIMAGE` of Section 4 for set-valued
//!   functions (both entry points below dispatch on the function kind, since
//!   `image(E, f, R) = IMAGE(E, f↑, R)`);
//! * [`union_pointwise`], [`intersect_pointwise`], [`difference_pointwise`] —
//!   subregion-wise set algebra `(E1 ⋄ E2)[i] = E1[i] ⋄ E2[i]`.
//!
//! `image` and `preimage` compute those sets on runs and column slices, not
//! on elements: `Identity` and unit-slope `Affine` / `AffineMod` map a run to
//! at most two runs in closed form, `Ptr` and `RangeField` columns are read
//! as slices into a bitset, a colour mask or a run list. Other slopes and
//! `Compose` keep the definition, one `IndexFn::eval` per element. The
//! per-element versions of both operators are the oracle of
//! `tests/diff_ops.rs`.

use crate::func::{FnDef, FnId, FnTable, IndexFn, MultiFn};
use crate::index_set::{push_bits, push_run, Idx, IndexSet};
use crate::partition::Partition;
use crate::region::{RegionId, Store};
use std::ops::Range;

/// `equal(R, n)`: splits `[0, size)` into `n` contiguous blocks whose sizes
/// differ by at most one. The result is disjoint and complete (lemma L1).
pub fn equal(region: RegionId, size: u64, n: usize) -> Partition {
    assert!(n > 0, "equal() needs at least one subregion");
    let n64 = n as u64;
    let subregions = (0..n64)
        .map(|i| {
            let start = size * i / n64;
            let end = size * (i + 1) / n64;
            IndexSet::from_range(start, end)
        })
        .collect();
    Partition::new(region, subregions)
}

/// One past the largest index `IndexFn::eval` can hold: it computes in `i64`.
const I64_END: i128 = 1 << 63;

/// How [`image`] and [`preimage`] read one function, decided once per call.
enum Arm<'a> {
    /// `k ↦ k + add`, reduced `mod modulus` when there is one: `Identity`
    /// and the unit-slope `Affine` / `AffineMod`. A run maps to runs.
    Shift { add: i128, modulus: Option<i128> },
    /// A pointer column, read as a slice.
    Ptr(&'a [Idx]),
    /// A range column, read as a slice.
    Ranges(&'a [(Idx, Idx)]),
    /// Any other slope and `Compose`: the definition, element by element.
    General(&'a IndexFn),
}

impl<'a> Arm<'a> {
    fn of(store: &'a Store, def: &'a FnDef) -> Self {
        let func = match def {
            FnDef::Multi(MultiFn::RangeField { field }) => {
                return Arm::Ranges(store.ranges(*field));
            }
            FnDef::Index(func) | FnDef::Multi(MultiFn::Lift(func)) => func,
        };
        match *func {
            IndexFn::Identity => Arm::Shift { add: 0, modulus: None },
            IndexFn::Affine { mul: 1, add } => Arm::Shift { add: add.into(), modulus: None },
            IndexFn::AffineMod { mul: 1, add, modulus } => {
                Arm::Shift { add: add.into(), modulus: Some(modulus.into()) }
            }
            IndexFn::Ptr { field } => Arm::Ptr(store.ptrs(field)),
            _ => Arm::General(func),
        }
    }
}

/// Appends what is left of `[lo, hi)` inside `[0, size)`.
fn push_clipped(out: &mut Vec<(Idx, Idx)>, lo: i128, hi: i128, size: u64) {
    let (lo, hi) = (lo.max(0), hi.min(size.into()));
    if lo < hi {
        push_run(out, lo as Idx, hi as Idx);
    }
}

/// Empties `runs` into a set, sorting only when they arrived out of order.
fn take_set(runs: &mut Vec<(Idx, Idx)>) -> IndexSet {
    if !runs.is_sorted_by_key(|r| r.0) {
        runs.sort_unstable();
    }
    IndexSet::from_sorted_runs(runs.drain(..))
}

/// The part of `[s, e)` that indexes a column of `len` entries.
fn within((s, e): (Idx, Idx), len: usize) -> Range<usize> {
    let e = e.min(len as u64) as usize;
    (s as usize).min(e)..e
}

/// The parts of `col` under the runs of `sub`, in order.
fn slices<'a, T>(col: &'a [T], sub: &'a IndexSet) -> impl Iterator<Item = &'a [T]> {
    sub.runs().iter().map(move |&run| &col[within(run, col.len())])
}

/// The image of `[s, e)` under a shift: the run moved by `add`, split where
/// it wraps, clipped to `[0, size)`.
fn shift_image(
    out: &mut Vec<(Idx, Idx)>,
    (s, e): (Idx, Idx),
    add: i128,
    modulus: Option<i128>,
    size: u64,
) {
    // An index whose sum overflows `i64` has no image.
    let (lo, hi) = (s as i128 + add, (e as i128).min(I64_END - add.max(0)) + add);
    if lo >= hi {
        return;
    }
    match modulus {
        None => push_clipped(out, lo, hi, size),
        Some(m) if hi - lo >= m => push_clipped(out, 0, m, size),
        Some(m) => {
            let first = lo.rem_euclid(m);
            let end = first + (hi - lo);
            push_clipped(out, first, end.min(m), size);
            push_clipped(out, 0, end - m, size);
        }
    }
}

/// The preimage of `sub` under a shift within `[0, domain)`: each run moved
/// back by `add`, once per period of the modulus that meets the domain.
fn shift_preimage(
    out: &mut Vec<(Idx, Idx)>,
    sub: &IndexSet,
    add: i128,
    modulus: Option<i128>,
    domain: u64,
    range_size: u64,
) {
    let limit = modulus.unwrap_or(I64_END).min(range_size.into());
    let clip = |&(s, e): &(Idx, Idx)| (i128::from(s), i128::from(e).min(limit));
    let runs: Vec<_> = sub.runs().iter().map(clip).filter(|(s, e)| s < e).collect();
    if runs.is_empty() {
        return;
    }
    let (m, periods) = match modulus {
        // Every residue: the whole domain, however many periods that is.
        Some(m) if runs == [(0, m)] => return push_clipped(out, 0, domain.into(), domain),
        Some(m) => (m, add.div_euclid(m)..=(i128::from(domain) + add - 1).div_euclid(m)),
        None => (0, 0..=0),
    };
    for j in periods {
        for &(s, e) in &runs {
            push_clipped(out, s + j * m - add, e + j * m - add, domain);
        }
    }
}

/// Appends the runs of set bits in `words` (bit 0 of the first is element
/// `base`) and leaves every word zero.
fn drain_bits(words: &mut [u64], base: Idx, out: &mut Vec<(Idx, Idx)>) {
    for (w, word) in words.iter_mut().enumerate() {
        push_bits(out, base + w as u64 * 64, std::mem::take(word));
    }
}

/// `image(E, f, R)` / `IMAGE(E, F, R)`: derives a partition of the target
/// region from an existing partition of the function's domain.
///
/// A shift maps each run in closed form, a range column appends its rows'
/// ranges, and a pointer column marks one bit per target element, then reads
/// the marked span back as runs.
pub fn image(
    store: &Store,
    table: &FnTable,
    src: &Partition,
    f: FnId,
    target: RegionId,
) -> Partition {
    let size = store.schema().region_size(target);
    let arm = Arm::of(store, &table.get(f).def);
    let mut runs = Vec::new();
    // One bit per target element, for the whole call: each drain leaves it
    // zero for the next subregion.
    let mut seen = match arm {
        Arm::Ptr(_) => vec![0u64; size.div_ceil(64) as usize],
        _ => Vec::new(),
    };
    let subregions = src
        .iter()
        .map(|sub| {
            match &arm {
                Arm::Shift { add, modulus } => {
                    for &run in sub.runs() {
                        shift_image(&mut runs, run, *add, *modulus, size);
                    }
                }
                Arm::Ranges(col) => {
                    for &(lo, hi) in slices(col, sub).flatten() {
                        push_clipped(&mut runs, lo.into(), hi.into(), size);
                    }
                }
                Arm::Ptr(col) => {
                    let (mut lo, mut hi) = (Idx::MAX, 0);
                    for &v in slices(col, sub).flatten().filter(|&&v| v < size) {
                        seen[(v / 64) as usize] |= 1 << (v % 64);
                        (lo, hi) = (lo.min(v), hi.max(v));
                    }
                    if lo <= hi {
                        let words = (lo / 64) as usize..=(hi / 64) as usize;
                        drain_bits(&mut seen[words], lo / 64 * 64, &mut runs);
                    }
                }
                Arm::General(func) => {
                    return IndexSet::from_indices(
                        sub.iter().filter_map(|k| func.eval(store, k, size)),
                    );
                }
            }
            take_set(&mut runs)
        })
        .collect();
    Partition::new(target, subregions)
}

/// Colours one pass of the pointer-column [`preimage`] covers: the bits of
/// one mask word.
const LANES: usize = u64::BITS as usize;

/// Applies `f(word, colour bit)` to the mask word of every element of every
/// subregion in `chunk` (at most [`LANES`] of them).
fn for_each_masked(mask: &mut [u64], chunk: &[IndexSet], f: impl Fn(&mut u64, u64)) {
    let len = mask.len();
    for (lane, sub) in chunk.iter().enumerate() {
        for &run in sub.runs() {
            for word in &mut mask[within(run, len)] {
                f(word, 1 << lane);
            }
        }
    }
}

/// `preimage(R, f, E)` / `PREIMAGE(R, F, E)`: derives a partition of the
/// function's domain from an existing partition of its range.
///
/// A shift moves each run back in closed form; a range column is read once
/// per subregion, asking whether each row's range meets it; a pointer column
/// is read once per 64 subregions, against a mask of the colours that hold
/// each target element.
pub fn preimage(
    store: &Store,
    table: &FnTable,
    domain: RegionId,
    f: FnId,
    src: &Partition,
) -> Partition {
    let domain_size = store.schema().region_size(domain);
    let range_size = store.schema().region_size(src.region);
    let mut out = vec![Vec::new(); src.num_subregions()];
    match Arm::of(store, &table.get(f).def) {
        Arm::Shift { add, modulus } => {
            // An index whose sum overflows `i64` has no image.
            let domain = i128::from(domain_size).min(I64_END - add.max(0)) as u64;
            for (runs, sub) in out.iter_mut().zip(src.iter()) {
                shift_preimage(runs, sub, add, modulus, domain, range_size);
            }
        }
        Arm::Ranges(col) => {
            let col = &col[..col.len().min(domain_size as usize)];
            // Rows in CSR order: those that can meet `[first, last]` are one
            // stretch of the column, found by bisection; otherwise all of it.
            let csr = col.is_sorted_by(|a, b| a.0 <= b.0 && a.1 <= b.1);
            for (runs, sub) in out.iter_mut().zip(src.iter()) {
                let (Some(first), Some(last)) = (sub.min(), sub.max()) else { continue };
                let (from, to) = if csr {
                    (col.partition_point(|r| r.1 <= first), col.partition_point(|r| r.0 <= last))
                } else {
                    (0, col.len())
                };
                for (k, &(lo, hi)) in (from as Idx..).zip(&col[from..to.max(from)]) {
                    let hi = hi.min(range_size);
                    if lo < hi && lo <= last && first < hi {
                        // The first run ending past `lo`; `lo <= last` says there is one.
                        let p = sub.runs().partition_point(|&(_, e)| e <= lo);
                        if sub.runs()[p].0 < hi {
                            push_run(runs, k, k + 1);
                        }
                    }
                }
            }
        }
        Arm::Ptr(col) => {
            let col = &col[..col.len().min(domain_size as usize)];
            let span = src.iter().filter_map(IndexSet::max).max().map_or(0, |m| m + 1);
            let mut mask = vec![0u64; span.min(range_size) as usize];
            for (base, chunk) in (0..).step_by(LANES).zip(src.subregions().chunks(LANES)) {
                for_each_masked(&mut mask, chunk, |word, bit| *word |= bit);
                for (k, &v) in (0..).zip(col) {
                    let mut colours = mask.get(v as usize).copied().unwrap_or(0);
                    while colours != 0 {
                        push_run(&mut out[base + colours.trailing_zeros() as usize], k, k + 1);
                        colours &= colours - 1;
                    }
                }
                for_each_masked(&mut mask, chunk, |word, _| *word = 0);
            }
        }
        Arm::General(func) => {
            for k in 0..domain_size {
                let Some(v) = func.eval(store, k, range_size) else { continue };
                for (runs, sub) in out.iter_mut().zip(src.iter()) {
                    if sub.contains(v) {
                        push_run(runs, k, k + 1);
                    }
                }
            }
        }
    }
    Partition::new(domain, out.into_iter().map(IndexSet::from_sorted_runs).collect())
}

/// Pads two partitions to the same number of subregions (missing subregions
/// are empty, matching the index-set-subsumption reading of Section 2).
fn zip_pointwise(
    a: &Partition,
    b: &Partition,
    f: impl Fn(&IndexSet, &IndexSet) -> IndexSet,
) -> Partition {
    assert_eq!(a.region, b.region, "pointwise ops require the same region");
    let n = a.num_subregions().max(b.num_subregions());
    let empty = IndexSet::new();
    let subregions = (0..n)
        .map(|i| {
            let x = if i < a.num_subregions() { a.subregion(i) } else { &empty };
            let y = if i < b.num_subregions() { b.subregion(i) } else { &empty };
            f(x, y)
        })
        .collect();
    Partition::new(a.region, subregions)
}

/// `(E1 ∪ E2)[i] = E1[i] ∪ E2[i]`.
pub fn union_pointwise(a: &Partition, b: &Partition) -> Partition {
    zip_pointwise(a, b, IndexSet::union)
}

/// `(E1 ∩ E2)[i] = E1[i] ∩ E2[i]`.
pub fn intersect_pointwise(a: &Partition, b: &Partition) -> Partition {
    zip_pointwise(a, b, IndexSet::intersect)
}

/// `(E1 − E2)[i] = E1[i] − E2[i]`.
pub fn difference_pointwise(a: &Partition, b: &Partition) -> Partition {
    zip_pointwise(a, b, IndexSet::difference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FnDef, IndexFn};
    use crate::region::{FieldKind, Schema};

    fn grid_store(n: u64) -> (Store, FnTable, RegionId) {
        let mut s = Schema::new();
        let r = s.add_region("R", n);
        let store = Store::new(s);
        (store, FnTable::new(), r)
    }

    #[test]
    fn equal_partition_shape() {
        let p = equal(RegionId(0), 10, 3);
        assert_eq!(p.num_subregions(), 3);
        assert!(p.is_disjoint());
        assert!(p.is_complete(10));
        // Sizes differ by at most one.
        let sizes: Vec<u64> = p.iter().map(IndexSet::len).collect();
        assert_eq!(sizes.iter().sum::<u64>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn equal_with_more_parts_than_elements() {
        let p = equal(RegionId(0), 2, 4);
        assert!(p.is_disjoint());
        assert!(p.is_complete(2));
        assert_eq!(p.iter().filter(|s| s.is_empty()).count(), 2);
    }

    #[test]
    fn image_of_figure_3() {
        // Figure 3a: R = 0..5, f(i) = (i+1)%5, P = <{0,1,2},{3,4}>.
        let (store, mut t, r) = grid_store(5);
        let f = t.add("f", r, r, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: 5 }));
        let p = Partition::new(r, vec![IndexSet::from_range(0, 3), IndexSet::from_range(3, 5)]);
        let img = image(&store, &t, &p, f, r);
        assert_eq!(img.subregion(0), &IndexSet::from_indices([1, 2, 3]));
        assert_eq!(img.subregion(1), &IndexSet::from_indices([4, 0]));
    }

    #[test]
    fn preimage_of_figure_3() {
        // Figure 3b: P' = preimage(-, f, P) with the same f and P.
        let (store, mut t, r) = grid_store(5);
        let f = t.add("f", r, r, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: 5 }));
        let p = Partition::new(r, vec![IndexSet::from_range(0, 3), IndexSet::from_range(3, 5)]);
        let pre = preimage(&store, &t, r, f, &p);
        // f(k) in {0,1,2} <=> k in {4,0,1}; f(k) in {3,4} <=> k in {2,3}.
        assert_eq!(pre.subregion(0), &IndexSet::from_indices([4, 0, 1]));
        assert_eq!(pre.subregion(1), &IndexSet::from_indices([2, 3]));
    }

    /// The regression gate that is not a timer: 2^40 elements finish in
    /// microseconds as run algebra and never finish element by element.
    #[test]
    fn shifts_of_a_region_too_large_to_visit_are_closed_form() {
        const N: u64 = 1 << 40;
        const A: u64 = 1537;
        let (store, mut t, r) = grid_store(N);
        let wrap = |add| FnDef::Index(IndexFn::AffineMod { mul: 1, add, modulus: N });
        let up = t.add("up", r, r, wrap(A as i64));
        let down = t.add("down", r, r, wrap(-(A as i64)));
        let p = equal(r, N, 8);
        let b = N / 8;
        // Every block moves up by A; the last one wraps to the front.
        let raised = (0..7).map(|i| IndexSet::from_range(i * b + A, (i + 1) * b + A));
        let raised = raised.chain([IndexSet::from_sorted_runs([(0, A), (7 * b + A, N)])]);
        let raised = Partition::new(r, raised.collect());
        // Every block moves down by A; the first one wraps to the back.
        let lowered = (1..8).map(|i| IndexSet::from_range(i * b - A, (i + 1) * b - A));
        let lowered =
            [IndexSet::from_sorted_runs([(0, b - A), (N - A, N)])].into_iter().chain(lowered);
        let lowered = Partition::new(r, lowered.collect());
        assert_eq!(image(&store, &t, &p, up, r), raised);
        assert_eq!(preimage(&store, &t, r, up, &p), lowered);
        assert_eq!(image(&store, &t, &p, down, r), lowered);
        assert_eq!(preimage(&store, &t, r, down, &p), raised);
    }

    #[test]
    fn strided_and_composed_functions_keep_the_per_element_definition() {
        let (store, mut t, r) = grid_store(10);
        let twice = t.add_affine("twice", r, r, 2, 1);
        let p = equal(r, 10, 2);
        let img = image(&store, &t, &p, twice, r);
        assert_eq!(img.subregion(0), &IndexSet::from_indices([1, 3, 5, 7, 9]));
        assert!(img.subregion(1).is_empty());
        let pre = preimage(&store, &t, r, twice, &p);
        assert_eq!(pre.subregion(0), &IndexSet::from_range(0, 2));
        assert_eq!(pre.subregion(1), &IndexSet::from_range(2, 5));
        // Two unit steps composed: still the general arm, same answers as a shift by 2.
        let step = || Box::new(IndexFn::Affine { mul: 1, add: 1 });
        let hop = t.add("hop", r, r, FnDef::Index(IndexFn::Compose(step(), step())));
        let by_two = t.add_affine("by_two", r, r, 1, 2);
        assert_eq!(image(&store, &t, &p, hop, r), image(&store, &t, &p, by_two, r));
        assert_eq!(preimage(&store, &t, r, hop, &p), preimage(&store, &t, r, by_two, &p));
    }

    #[test]
    fn image_preimage_adjunction_for_ptr_field() {
        // image(P, f, R) ⊆ E iff P ⊆ preimage(R, f, E) for total single-valued f.
        let mut s = Schema::new();
        let cells = s.add_region("Cells", 8);
        let particles = s.add_region("Particles", 12);
        let cf = s.add_field(particles, "cell", FieldKind::Ptr(cells));
        let mut store = Store::new(s);
        for (i, p) in store.ptrs_mut(cf).iter_mut().enumerate() {
            *p = (i as u64 * 3) % 8;
        }
        let mut t = FnTable::new();
        let f = t.add_ptr_field("cell", particles, cells, cf);
        let pc = equal(cells, 8, 4);
        let pp = preimage(&store, &t, particles, f, &pc);
        let img = image(&store, &t, &pp, f, cells);
        assert!(img.subset_of(&pc));
        // Preimage of a complete partition is complete (lemma L7) for total f.
        assert!(pp.is_complete(12));
        // Preimage of a disjoint partition is disjoint (lemma L12).
        assert!(pp.is_disjoint());
    }

    #[test]
    fn image_drops_out_of_range_targets() {
        let (store, mut t, r) = grid_store(6);
        let f = t.add("shift", r, r, FnDef::Index(IndexFn::Affine { mul: 1, add: 3 }));
        let p = Partition::new(r, vec![IndexSet::from_range(0, 6)]);
        let img = image(&store, &t, &p, f, r);
        assert_eq!(img.subregion(0), &IndexSet::from_range(3, 6));
    }

    #[test]
    fn multi_image_collects_ranges() {
        // SpMV-style: Y (3 rows) has ranges into Mat (10 entries).
        let mut s = Schema::new();
        let mat = s.add_region("Mat", 10);
        let y = s.add_region("Y", 3);
        let rf = s.add_field(y, "range", FieldKind::Range(mat));
        let mut store = Store::new(s);
        store.ranges_mut(rf).copy_from_slice(&[(0, 4), (4, 7), (7, 10)]);
        let mut t = FnTable::new();
        let fr = t.add_range_field("Ranges", y, mat, rf);
        let py = equal(y, 3, 2); // <{0},{1,2}>
        let pm = image(&store, &t, &py, fr, mat);
        assert_eq!(pm.subregion(0), &IndexSet::from_range(0, 4));
        assert_eq!(pm.subregion(1), &IndexSet::from_range(4, 10));
        assert!(pm.is_disjoint() && pm.is_complete(10));
    }

    #[test]
    fn multi_preimage_membership() {
        // PREIMAGE: l lands in subregion i iff F(l) meets E[i].
        let mut s = Schema::new();
        let mat = s.add_region("Mat", 10);
        let y = s.add_region("Y", 3);
        let rf = s.add_field(y, "range", FieldKind::Range(mat));
        let mut store = Store::new(s);
        store.ranges_mut(rf).copy_from_slice(&[(0, 4), (3, 7), (7, 10)]);
        let mut t = FnTable::new();
        let fr = t.add_range_field("Ranges", y, mat, rf);
        let pm = Partition::new(mat, vec![IndexSet::from_range(0, 5), IndexSet::from_range(5, 10)]);
        let py = preimage(&store, &t, y, fr, &pm);
        // Row 0 covers 0..4 -> meets [0,5). Row 1 covers 3..7 -> meets both.
        assert_eq!(py.subregion(0), &IndexSet::from_indices([0, 1]));
        assert_eq!(py.subregion(1), &IndexSet::from_indices([1, 2]));
        assert!(!py.is_disjoint()); // overlap is expected here
    }

    #[test]
    fn pointwise_ops() {
        let r = RegionId(0);
        let a = Partition::new(r, vec![IndexSet::from_range(0, 5), IndexSet::from_range(5, 8)]);
        let b = Partition::new(r, vec![IndexSet::from_range(3, 6)]);
        let u = union_pointwise(&a, &b);
        assert_eq!(u.subregion(0), &IndexSet::from_range(0, 6));
        assert_eq!(u.subregion(1), &IndexSet::from_range(5, 8));
        let i = intersect_pointwise(&a, &b);
        assert_eq!(i.subregion(0), &IndexSet::from_range(3, 5));
        assert!(i.subregion(1).is_empty());
        let d = difference_pointwise(&a, &b);
        assert_eq!(d.subregion(0), &IndexSet::from_range(0, 3));
        assert_eq!(d.subregion(1), &IndexSet::from_range(5, 8));
    }

    #[test]
    #[should_panic(expected = "same region")]
    fn pointwise_ops_require_same_region() {
        let a = Partition::new(RegionId(0), vec![]);
        let b = Partition::new(RegionId(1), vec![]);
        let _ = union_pointwise(&a, &b);
    }
}
