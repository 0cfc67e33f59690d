//! Differential test of a partition's cover — `DISJ`, `COMP`, the support
//! size and the first-owner narrowing, all from one sweep over the runs —
//! against the chains of successive unions it replaced.
//!
//! The [`oracle`] folds the subregions one union at a time and narrows
//! each subregion by the union of the earlier ones, as `Partition` did
//! before it cached a sweep; it shares no code with the sweep (not the
//! bitmap, not the merge). Cases are generated on both sides of the
//! sweep's threshold — a bitmap over the span when the span has at most
//! two 64-bit words per run, a merge of the runs otherwise — with zero
//! colors, more than 64 colors, empty subregions, single-element runs, and
//! overlapping runs in a region of 2^62 elements, which the sweep must
//! handle without visiting its span.

use partir_dpl::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod oracle {
    use partir_dpl::prelude::*;

    /// Union of all subregions.
    pub fn support(p: &Partition) -> IndexSet {
        let mut acc = IndexSet::new();
        for s in p.iter() {
            acc = acc.union(s);
        }
        acc
    }

    /// Each subregion minus every earlier one; `None` when disjoint.
    pub fn first_owner(p: &Partition) -> Option<Vec<IndexSet>> {
        if p.total_elements() == support(p).len() {
            return None;
        }
        let mut seen = IndexSet::new();
        let own = p.iter().map(|s| {
            let mine = s.difference(&seen);
            seen = seen.union(s);
            mine
        });
        Some(own.collect())
    }
}

/// Generated partitions checked: small in debug, fifty times that in
/// release.
const CASES: u64 = if cfg!(debug_assertions) { 40 } else { 2000 };

/// How a case spreads its runs.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// A small region, runs packed: the bitmap side of the threshold.
    Dense,
    /// Runs around a few anchors of a 2^40-element region.
    Sparse,
    /// The same in a region of 2^62 elements, with a whole-region run in
    /// one color now and then.
    Huge,
}

fn color_count(r: &mut StdRng) -> usize {
    match r.gen_range(0..10) {
        0 => 0,
        1 | 2 => r.gen_range(65..100),
        _ => r.gen_range(1..9),
    }
}

/// A partition of a region of the returned size.
fn partition(r: &mut StdRng, shape: Shape) -> (Partition, u64) {
    let size: u64 = match shape {
        Shape::Dense => r.gen_range(1..3000),
        Shape::Sparse => 1 << 40,
        Shape::Huge => 1 << 62,
    };
    let anchors: Vec<u64> = (0..r.gen_range(1..5)).map(|_| r.gen_range(0..size)).collect();
    let colors = color_count(r);
    // Now and then the first colors are blocks covering the region.
    let blocks = r.gen_bool(0.3).then(|| colors.min(r.gen_range(1..4)));
    // At most one whole-region run, so element counts stay within u64.
    let whole =
        (matches!(shape, Shape::Huge) && r.gen_bool(0.3)).then(|| r.gen_range(0..colors.max(1)));
    let subs = (0..colors).map(|c| {
        if let Some(b) = blocks.filter(|&b| c < b) {
            let (b, c) = (b as u64, c as u64);
            return IndexSet::from_range(
                size / b * c,
                if c + 1 == b { size } else { size / b * (c + 1) },
            );
        }
        let mut runs: Vec<(u64, u64)> = (0..r.gen_range(0..6))
            .map(|_| {
                let start = match shape {
                    Shape::Dense => r.gen_range(0..size),
                    _ => anchors[r.gen_range(0..anchors.len())].saturating_add(r.gen_range(0..200)),
                };
                let len = match r.gen_range(0..3) {
                    0 => 1,
                    1 => r.gen_range(1..40),
                    _ => r.gen_range(1..400),
                };
                (start.min(size - 1), start.saturating_add(len).min(size))
            })
            .collect();
        if whole == Some(c) {
            runs.push((0, size));
        }
        runs.sort_unstable();
        IndexSet::from_sorted_runs(runs)
    });
    (Partition::new(RegionId(0), subs.collect()), size)
}

/// True when the sweep takes the bitmap: the span has at most two 64-bit
/// words per run.
fn bitmap_side(p: &Partition) -> bool {
    let runs: u64 = p.iter().map(|s| s.run_count() as u64).sum();
    let lo = p.iter().filter_map(IndexSet::min).min();
    let hi = p.iter().filter_map(IndexSet::max).max();
    lo.zip(hi).is_some_and(|(lo, hi)| (hi - lo + 1) / 64 <= 2 * runs)
}

/// Compares every part of the cover with the oracle.
fn check(p: &Partition, size: u64, label: &str) {
    let support = oracle::support(p);
    let own = oracle::first_owner(p);
    assert_eq!(p.support_len(), support.len(), "{label}: support size");
    assert_eq!(p.is_disjoint(), own.is_none(), "{label}: DISJ");
    let end = support.max().map_or(0, |m| m + 1);
    for n in [size, end, end.saturating_sub(1), end + 1] {
        let full = IndexSet::from_range(0, n);
        assert_eq!(p.is_complete(n), support == full, "{label}: COMP at {n}");
    }
    assert_eq!(p.first_owner().map(|o| o.to_vec()), own, "{label}: first-owner narrowing");
    let sets = own.as_deref().unwrap_or(p.subregions());
    assert_eq!(p.first_owner_sets(), sets, "{label}: first-owner sets");
}

#[test]
fn cover_matches_the_union_chains() {
    let (mut bitmap, mut merge, mut wide, mut aliased) = (0, 0, 0, 0);
    for case in 0..CASES {
        let r = &mut StdRng::seed_from_u64(0xC0E5_5EED ^ case);
        let shape = [Shape::Dense, Shape::Dense, Shape::Sparse, Shape::Huge][case as usize % 4];
        let (p, size) = partition(r, shape);
        let side = bitmap_side(&p);
        (bitmap, merge) = (bitmap + u32::from(side), merge + u32::from(!side));
        wide += u32::from(p.num_subregions() > 64);
        aliased += u32::from(oracle::first_owner(&p).is_some());
        check(&p, size, &format!("case {case} ({shape:?}, {} colors)", p.num_subregions()));
    }
    let n = CASES as u32;
    assert!(
        bitmap >= n / 8 && merge >= n / 8,
        "both sides visited: {bitmap} bitmap, {merge} merge"
    );
    assert!(wide > 0 && aliased >= n / 4, "{wide} wide, {aliased} aliased of {n}");
}

#[test]
fn edge_partitions() {
    let r = RegionId(0);
    let cases = [
        ("no colors", Partition::new(r, vec![])),
        ("empty subregions", Partition::new(r, vec![IndexSet::new(); 3])),
        (
            "single elements",
            Partition::new(
                r,
                vec![IndexSet::from_indices([0, 2, 4]), IndexSet::from_indices([2, 3])],
            ),
        ),
        (
            "same set twice",
            Partition::new(r, vec![IndexSet::from_range(5, 9), IndexSet::from_range(5, 9)]),
        ),
        (
            "later color inside an earlier one",
            Partition::new(r, vec![IndexSet::from_range(0, 100), IndexSet::from_range(10, 20)]),
        ),
    ];
    for (label, p) in &cases {
        check(p, 10, label);
    }
}

/// Overlapping runs near both ends of a 2^62-element region: a bitmap
/// over this span would be 2^56 words, so finishing at all shows the
/// sweep did not visit it.
#[test]
fn aliased_runs_in_a_region_too_large_to_visit() {
    let size: u64 = 1 << 62;
    let p = Partition::new(
        RegionId(0),
        vec![
            IndexSet::from_sorted_runs([(0, 10), (size - 10, size)]),
            IndexSet::from_sorted_runs([(5, 15), (size - 20, size - 5)]),
            IndexSet::from_range(0, size),
        ],
    );
    check(&p, size, "2^62 region");
    assert!(p.is_complete(size));
    let own = p.first_owner().expect("aliased");
    assert_eq!(own[1].runs(), &[(10, 15), (size - 20, size - 10)]);
    assert_eq!(own[2].runs(), &[(15, size - 20)]);
}
