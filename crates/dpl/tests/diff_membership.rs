//! Differential test of the membership index every set owns —
//! `Positions::{contains, pos, pos_run}` through `IndexSet::index`, on
//! plain sets, on a partition's subregions and first-owner sets, and on
//! rank footprints — against a `BTreeSet<u64>` of the members, and
//! against the search over runs the index replaced.
//!
//! The tree oracle shares no code with the index: membership is a tree
//! lookup, a position the count of smaller members, a run whole when the
//! tree holds each of its elements, a first owner the lowest color whose
//! tree holds the element. Sets are generated on both sides of the density
//! rule (a bitmap when the span has at most two 64-bit words per run, the
//! runs otherwise) and exactly at it, with empty and one-run sets, runs
//! that start or end on word edges, spans that end just short of
//! `u64::MAX`, and sparse runs in a region of 2^62 elements, whose index
//! must stay linear in the runs.

use partir_dpl::index_set::Positions;
use partir_dpl::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Generated sets and partitions checked: small in debug, fifty times
/// that in release.
const CASES: u64 = if cfg!(debug_assertions) { 40 } else { 2000 };

/// Words per run the density rule allows.
const WORDS_PER_RUN: u64 = 2;

fn oracle(set: &IndexSet) -> BTreeSet<u64> {
    set.iter().collect()
}

/// True when the rule keeps a bitmap: the span has at most two 64-bit
/// words per run.
fn bitmap_side(set: &IndexSet) -> bool {
    let (lo, hi) = (set.min().unwrap_or(0), set.max().unwrap_or(0));
    set.run_count() > 1 && (hi - lo + 1) / 64 <= WORDS_PER_RUN * set.run_count() as u64
}

/// Elements worth asking about: each run's edges and their neighbours,
/// the word edges (relative to the smallest element) near them, a few
/// points inside, and the ends of the index space.
fn probes(set: &IndexSet, r: &mut StdRng) -> Vec<u64> {
    let lo = set.min().unwrap_or(0);
    let mut at = vec![0, 1, u64::MAX, u64::MAX - 1, lo.wrapping_sub(1)];
    for &(s, e) in set.runs() {
        for x in [s, e - 1, e] {
            at.extend([x.wrapping_sub(1), x, x.wrapping_add(1)]);
            let edge = lo + (x - lo) / 64 * 64;
            at.extend([edge.wrapping_sub(1), edge, edge.wrapping_add(64)]);
        }
        at.extend((0..3).map(|_| r.gen_range(s..e)));
    }
    at
}

/// Run lengths `pos_run` is asked about: empty, short, and around one
/// and two 64-bit words.
const RUN_LENGTHS: [u64; 8] = [0, 1, 2, 3, 63, 64, 65, 130];

/// `contains`, `pos` and `pos_run` of `index` against the members of
/// `set`. `[i, i + n)` is whole exactly when all `n` of its elements are
/// members; the empty run is a member anywhere.
fn check_index(index: &Positions, members: &BTreeSet<u64>, probes: &[u64], label: &str) {
    assert_eq!(index.len(), members.len() as u64, "{label}: len");
    for &i in probes {
        let want = members.contains(&i).then(|| members.range(..i).count() as u64);
        assert_eq!(index.contains(i), want.is_some(), "{label}: contains({i})");
        assert_eq!(index.pos(i), want, "{label}: pos({i})");
        for n in RUN_LENGTHS {
            let whole = match n {
                0 => Some(0),
                _ => i
                    .checked_add(n - 1)
                    .filter(|&l| members.range(i..=l).count() as u64 == n)
                    .and(want),
            };
            assert_eq!(index.pos_run(i, n), whole, "{label}: pos_run({i}, {n})");
        }
    }
}

/// The index of `set` against the oracle, and its memory against the
/// rule's bound: at most two words of 16 bytes per run, and a quarter
/// byte per element of span when it is a bitmap.
fn check_set(set: &IndexSet, r: &mut StdRng, label: &str) {
    let index = set.index();
    check_index(index, &oracle(set), &probes(set, r), label);
    let runs = set.run_count() as u64;
    let bytes = index.heap_bytes() as u64;
    assert!(bytes <= 16 * (WORDS_PER_RUN * runs + 1), "{label}: {bytes} bytes for {runs} runs");
    if let (true, Some(lo), Some(hi)) = (bitmap_side(set), set.min(), set.max()) {
        assert!(bytes <= (hi - lo + 1) / 4 + 16, "{label}: {bytes} bytes over a bitmap's span");
    }
}

/// How a generated set spreads its runs.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Short gaps: the bitmap side.
    Dense,
    /// Gaps of hundreds to thousands of elements: the runs side.
    Sparse,
    /// A span of exactly two words per run, or one word more.
    Threshold { over: bool },
    /// A few short runs anywhere in a region of 2^62 elements.
    Huge,
}

/// A set of `runs` runs in the given shape; runs start or end on a word
/// edge (relative to the first) now and then.
fn arb_set(r: &mut StdRng, shape: Shape) -> IndexSet {
    let runs: u64 = r.gen_range(0..12);
    if let Shape::Threshold { over } = shape {
        return at_threshold(r, runs.max(2), over);
    }
    if let Shape::Huge = shape {
        let size = 1u64 << 62;
        let mut starts: Vec<u64> = (0..runs).map(|_| r.gen_range(0..size - 100)).collect();
        starts.sort_unstable();
        let pieces = starts.into_iter().map(|s| (s, s + r.gen_range(1..80u64)));
        return IndexSet::from_sorted_runs(pieces);
    }
    let lo: u64 = match r.gen_range(0..4) {
        0 => r.gen_range(0..100),
        1 => 64 * r.gen_range(0..1000u64),
        2 => (1 << 40) + r.gen_range(0..64u64),
        // Near the top: the runs stop at or short of `u64::MAX`.
        _ => u64::MAX - r.gen_range(100..600u64),
    };
    let mut out = Vec::new();
    // Offset of the next run from `lo`.
    let mut at = 0u64;
    for _ in 0..runs {
        let mut len = match r.gen_range(0..4) {
            0 => 1,
            1 => 64,
            _ => r.gen_range(1..100u64),
        };
        match r.gen_range(0..4) {
            0 => at = at.next_multiple_of(64),
            1 => len = (at + len).next_multiple_of(64) - at,
            _ => {}
        }
        let Some(end) = lo.checked_add(at + len) else { break };
        out.push((end - len, end));
        at += len
            + match shape {
                Shape::Dense => r.gen_range(1..100u64),
                _ => r.gen_range(300..5000),
            };
    }
    IndexSet::from_sorted_runs(out)
}

/// `runs` one-element runs over a span of exactly `64 * 2 * runs`
/// elements (the largest the bitmap takes), or one word more.
fn at_threshold(r: &mut StdRng, runs: u64, over: bool) -> IndexSet {
    let lo = r.gen_range(0..1000u64);
    let hi = lo + 64 * WORDS_PER_RUN * runs + if over { 64 } else { 0 } - 1;
    let mut members = BTreeSet::from([lo, hi]);
    while members.len() < runs as usize {
        // Odd offsets two apart or more, clear of both ends: separate runs.
        members.insert(lo + (r.gen_range(2..hi - lo - 2) | 1));
    }
    let set = IndexSet::from_indices(members);
    assert_eq!(set.run_count() as u64, runs, "{set:?}");
    assert_eq!(bitmap_side(&set), !over, "{set:?}");
    set
}

#[test]
fn positions_match_the_tree() {
    let (mut bitmap, mut runs, mut at, mut huge) = (0u32, 0u32, 0u32, 0u32);
    for case in 0..CASES {
        let r = &mut StdRng::seed_from_u64(0x1D_5EED ^ case);
        let shape = match case % 6 {
            0 | 1 => Shape::Dense,
            2 => Shape::Sparse,
            3 => Shape::Threshold { over: false },
            4 => Shape::Threshold { over: true },
            _ => Shape::Huge,
        };
        let set = arb_set(r, shape);
        let side = bitmap_side(&set);
        (bitmap, runs) = (bitmap + u32::from(side), runs + u32::from(!side && set.run_count() > 1));
        at += u32::from(matches!(shape, Shape::Threshold { over: false }));
        huge += u32::from(matches!(shape, Shape::Huge) && set.run_count() > 1);
        check_set(&set, r, &format!("case {case} ({shape:?}) {set:?}"));
    }
    let n = CASES as u32;
    assert!(bitmap >= n / 4 && runs >= n / 4, "both sides: {bitmap} bitmap, {runs} runs");
    assert!(at >= n / 8 && huge >= n / 10, "{at} at the threshold, {huge} huge");
}

#[test]
fn edge_sets() {
    let r = &mut StdRng::seed_from_u64(7);
    let top = u64::MAX;
    let cases = [
        ("empty", IndexSet::new()),
        ("one element", IndexSet::from_range(5, 6)),
        ("one run", IndexSet::from_range(64, 1000)),
        ("whole words", IndexSet::from_sorted_runs([(0, 64), (128, 192)])),
        ("word edges", IndexSet::from_sorted_runs([(63, 65), (127, 128), (191, 256)])),
        ("near the top", IndexSet::from_sorted_runs([(top - 300, top - 200), (top - 2, top)])),
    ];
    for (label, set) in &cases {
        check_set(set, r, label);
    }
}

/// Two short runs at the ends of a 2^62-element region: a bitmap over the
/// span would be 2^60 bytes, so the index keeps the runs.
#[test]
fn a_sparse_set_in_a_region_too_large_to_index_by_span() {
    let size: u64 = 1 << 62;
    let set = IndexSet::from_sorted_runs([(3, 10), (size / 2, size / 2 + 5), (size - 4, size)]);
    let r = &mut StdRng::seed_from_u64(11);
    check_set(&set, r, "2^62 region");
    let index = set.index();
    assert!(index.heap_bytes() <= 64, "{} bytes for three runs", index.heap_bytes());
    assert_eq!(index.pos(size - 1), Some(15));
}

/// A generated aliased partition: each subregion's index against its
/// tree, and each first-owner set's against the elements whose lowest
/// holding color it is.
#[test]
fn partition_membership_matches_the_trees() {
    let mut aliased = 0;
    for case in 0..CASES {
        let r = &mut StdRng::seed_from_u64(0xA11A5 ^ case);
        let colors = r.gen_range(1..6);
        let shape = [Shape::Dense, Shape::Sparse][case as usize % 2];
        let base = arb_set(r, shape);
        let subs: Vec<IndexSet> = (0..colors)
            .map(|_| {
                // Overlapping pieces of one set, so colors alias.
                let keep = base.runs().iter().filter(|_| r.gen_bool(0.6)).copied();
                IndexSet::from_sorted_runs(keep)
            })
            .collect();
        let p = Partition::new(RegionId(0), subs);
        aliased += u32::from(!p.is_disjoint());
        let trees: Vec<BTreeSet<u64>> = p.iter().map(oracle).collect();
        let label = format!("case {case} ({shape:?}, {colors} colors)");
        let mut seen = BTreeSet::new();
        for (c, tree) in trees.iter().enumerate() {
            let own: BTreeSet<u64> = tree.difference(&seen).copied().collect();
            seen.extend(tree.iter().copied());
            let at = probes(p.subregion(c), r);
            let (sub, first) = (p.subregion(c).index(), p.first_owner_sets()[c].index());
            check_index(sub, tree, &at, &format!("{label}: subregion {c}"));
            check_index(first, &own, &at, &format!("{label}: first owner {c}"));
        }
    }
    assert!(aliased >= CASES as u32 / 4, "{aliased} aliased partitions of {CASES}");
}

#[test]
fn local_map_translates_multi_run_footprints() {
    // Footprint {2,3} ∪ {10..13} ∪ {20}: positions 0,1,2,3,4,5.
    let set = IndexSet::from_indices([2, 3, 10, 11, 12, 20]);
    let m = set.index();
    assert_eq!(m.len(), 6);
    assert_eq!(m.pos(2), Some(0));
    assert_eq!(m.pos(3), Some(1));
    assert_eq!(m.pos(10), Some(2));
    assert_eq!(m.pos(12), Some(4));
    assert_eq!(m.pos(20), Some(5));
    for miss in [0, 1, 4, 9, 13, 19, 21] {
        assert_eq!(m.pos(miss), None, "element {miss} is not resident");
    }
    // A run is resident only inside one footprint run.
    assert_eq!(m.pos_run(10, 3), Some(2));
    assert_eq!(m.pos_run(11, 3), None);
    assert_eq!(m.pos_run(3, 2), None, "3 and 10 are neighbours locally, not globally");
    assert_eq!(m.pos_run(u64::MAX, 2), None);
    assert_eq!(m.pos_run(7, 0), Some(0), "the empty run is resident anywhere");
    // The dense fast path kicks in for one contiguous run.
    let one_run = IndexSet::from_range(5, 9);
    let dense = one_run.index();
    assert_eq!(dense.heap_bytes(), 0, "one run needs no bitmap");
    assert_eq!(dense.pos(7), Some(2));
    assert_eq!(dense.pos(9), None);
    assert_eq!(dense.pos_run(5, 4), Some(0));
    assert_eq!(dense.pos_run(6, 4), None);
}

/// The run search the position index replaced, kept as a second oracle:
/// the position of `[i, i + n)` when one run of `set` holds all of it.
fn run_search(set: &IndexSet, i: u64, n: u64) -> Option<u64> {
    if n == 0 {
        return Some(0);
    }
    let runs = set.runs();
    let k = runs.partition_point(|&(s, _)| s <= i);
    let (s, e) = *runs.get(k.checked_sub(1)?)?;
    let before: u64 = runs[..k - 1].iter().map(|&(s, e)| e - s).sum();
    (i < e && n <= e - i).then(|| before + (i - s))
}

/// Every `pos(i)` and `pos_run(i, n)` with `i` in a window around the
/// span (and at `u64::MAX`) and `n ≤ 130` against the run search.
fn agrees_with_run_search(set: &IndexSet) {
    let m = set.index();
    assert_eq!(m.len(), set.len());
    let (lo, hi) = (set.min().unwrap_or(0), set.max().map_or(0, |max| max + 1));
    let window = lo.saturating_sub(70)..hi.saturating_add(70);
    for i in window.chain([u64::MAX]) {
        assert_eq!(m.pos(i), run_search(set, i, 1), "{set:?}: pos({i})");
        for n in 0..=130 {
            assert_eq!(m.pos_run(i, n), run_search(set, i, n), "{set:?}: pos_run({i}, {n})");
        }
    }
}

/// Canonical runs from `lo` up: lengths around and at one 64-bit word,
/// some starting word-aligned relative to `lo`, stopping short of
/// `u64::MAX`.
fn arb_footprint(r: &mut StdRng) -> IndexSet {
    let lo = match r.gen_range(0..4u32) {
        0 => r.gen_range(0..200u64),
        1 => (1u64 << 40) + r.gen_range(0..64u64),
        2 => u64::MAX - r.gen_range(100..600u64),
        _ => 64 * r.gen_range(0..4u64),
    };
    let mut runs = Vec::new();
    let mut at = lo;
    for _ in 0..r.gen_range(0..12u32) {
        let len = match r.gen_range(0..4u32) {
            0 => r.gen_range(1..4u64),
            1 => 64,
            2 => r.gen_range(60..70u64),
            _ => r.gen_range(1..150u64),
        };
        if len == 64 && r.gen_bool(0.5) {
            at = lo + (at - lo).next_multiple_of(64);
        }
        let Some(end) = at.checked_add(len) else { break };
        runs.push((at, end));
        match end.checked_add(r.gen_range(1..80u64)) {
            Some(next) => at = next,
            None => break,
        }
    }
    IndexSet::from_sorted_runs(runs)
}

#[test]
fn position_index_matches_run_search() {
    // The empty set, one run (the dense path), runs straddling a word,
    // whole aligned words, a gap between words, a span near the top.
    let (big, top) = (1 << 40, u64::MAX);
    let fixed = [
        IndexSet::new(),
        IndexSet::from_range(5, 300),
        IndexSet::from_sorted_runs([(0, 3), (60, 70), (128, 192), (200, 201)]),
        IndexSet::from_sorted_runs([(64, 128), (192, 256), (256 + 63, 256 + 65)]),
        IndexSet::from_sorted_runs([(big, big + 2), (big + 190, big + 400)]),
        IndexSet::from_sorted_runs([(top - 200, top - 100), (top - 2, top)]),
    ];
    fixed.iter().for_each(agrees_with_run_search);
    for seed in 0..CASES {
        agrees_with_run_search(&arb_footprint(&mut StdRng::seed_from_u64(seed)));
    }
}
