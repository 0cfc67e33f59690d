//! First-class data partitions.
//!
//! A partition is an indexed set of *subregions* (index sets) of one region
//! (Section 1.1). Partitions in this crate are plain values: operators in
//! [`crate::ops`] build new partitions from old ones, mirroring DPL's
//! "dependent partitioning" model. Disjointness and completeness — the
//! `DISJ`/`COMP` predicates of the constraint language — are *checkable
//! properties* here, used both by tests and by the runtime to validate
//! solver output dynamically. Both, and the first-owner narrowing, come
//! from one sweep over the subregions' runs, made once per partition.
//! Membership in a subregion or a first-owner color, which executors test
//! per element, is that set's own index ([`IndexSet::index`]). A disjoint
//! family of sets, complete or not, splits any other set by owner through
//! one [`OwnerMap`]: the exchange footprint and the Figure 14 simulator
//! both use it.

use crate::index_set::{
    arc_bytes, bitmap_fits, push_bits, push_run, sets_bytes, word_masks, Idx, IndexSet,
};
use crate::region::RegionId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// An indexed collection of subregions of `region`.
///
/// `cover` is a write-once cell for what one sweep over the subregions
/// learns, filled the first time a predicate or the narrowing is asked
/// for. The subregions never change, so it never goes stale; clones carry
/// it, and equality, hashing and `Debug` see only `(region, subregions)`.
#[derive(Clone)]
pub struct Partition {
    pub region: RegionId,
    subregions: Vec<IndexSet>,
    cover: OnceLock<Cover>,
}

/// The union of a partition's subregions, as one sweep sees it.
#[derive(Clone)]
struct Cover {
    /// Elements in at least one subregion.
    support_len: u64,
    /// The largest of them.
    max: Option<Idx>,
    /// See [`Partition::first_owner`].
    first_owner: Option<Arc<[IndexSet]>>,
}

impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        self.region == other.region && self.subregions == other.subregions
    }
}

impl Hash for Partition {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.region.hash(state);
        self.subregions.hash(state);
    }
}

impl fmt::Debug for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Partition");
        d.field("region", &self.region).field("subregions", &self.subregions).finish()
    }
}

impl Partition {
    pub fn new(region: RegionId, subregions: Vec<IndexSet>) -> Self {
        Partition { region, subregions, cover: OnceLock::new() }
    }

    /// Number of subregions (the partition's "color space" size).
    pub fn num_subregions(&self) -> usize {
        self.subregions.len()
    }

    pub fn subregion(&self, i: usize) -> &IndexSet {
        &self.subregions[i]
    }

    pub fn subregions(&self) -> &[IndexSet] {
        &self.subregions
    }

    pub fn iter(&self) -> impl Iterator<Item = &IndexSet> {
        self.subregions.iter()
    }

    /// Total number of elements across subregions (elements in several
    /// subregions are counted once per subregion).
    pub fn total_elements(&self) -> u64 {
        self.subregions.iter().map(IndexSet::len).sum()
    }

    fn cover(&self) -> &Cover {
        self.cover.get_or_init(|| sweep(&self.subregions))
    }

    /// Bytes the partition holds on the heap: its subregions and, once
    /// swept, its first-owner narrowing, indexes included. Measuring
    /// builds nothing.
    pub fn heap_bytes(&self) -> u64 {
        let own = self.cover.get().and_then(|c| c.first_owner.as_ref());
        let own = own.map_or(0, |own| arc_bytes::<()>() + sets_bytes(own.iter()));
        sets_bytes(&self.subregions) + own
    }

    /// Number of elements in at least one subregion.
    pub fn support_len(&self) -> u64 {
        self.cover().support_len
    }

    /// `DISJ`: no element appears in two different subregions.
    pub fn is_disjoint(&self) -> bool {
        self.cover().first_owner.is_none()
    }

    /// First-owner narrowing of an aliased partition: subregion `c` minus
    /// every earlier subregion, so each element of the support stays with
    /// the lowest color holding it. `None` when the partition is already
    /// disjoint. This is what keeps centered writes sequentially ordered
    /// when a relaxed loop runs over an aliased iteration partition.
    /// Computed once; every call returns the same allocation.
    pub fn first_owner(&self) -> Option<&Arc<[IndexSet]>> {
        self.cover().first_owner.as_ref()
    }

    /// Each element's lowest color: [`Partition::first_owner`], or the
    /// subregions themselves when they are disjoint.
    pub fn first_owner_sets(&self) -> &[IndexSet] {
        self.first_owner().map_or(&self.subregions[..], |own| &own[..])
    }

    /// `COMP`: the subregions cover all of `[0, region_size)`.
    pub fn is_complete(&self, region_size: u64) -> bool {
        let c = self.cover();
        c.support_len == region_size && c.max == region_size.checked_sub(1)
    }

    /// `PART`: every subregion is contained in `[0, region_size)`.
    pub fn is_partition_of(&self, region_size: u64) -> bool {
        self.subregions.iter().all(|s| s.max().is_none_or(|m| m < region_size))
    }

    /// The paper's subset constraint `self ⊆ other`: subregion-wise
    /// containment, requiring `other` to have at least as many subregions.
    pub fn subset_of(&self, other: &Partition) -> bool {
        self.subregions.len() <= other.subregions.len()
            && self.subregions.iter().zip(&other.subregions).all(|(a, b)| a.is_subset(b))
    }

    /// Largest subregion size (load-imbalance diagnostics).
    pub fn max_subregion_len(&self) -> u64 {
        self.subregions.iter().map(IndexSet::len).max().unwrap_or(0)
    }
}

/// Which set of a disjoint family owns each element: the family's runs,
/// each tagged with its color (its position in the family), ascending.
/// The family need not cover its span. Built once per family,
/// [`OwnerMap::split`] cuts any set into the pieces each color owns.
#[derive(Debug)]
pub struct OwnerMap {
    colors: usize,
    /// `(start, end, color)`, ascending.
    runs: Vec<(Idx, Idx, usize)>,
}

impl OwnerMap {
    /// The owner map of `family`, whose sets must be pairwise disjoint.
    pub fn new<'a>(family: impl IntoIterator<Item = &'a IndexSet>) -> Self {
        let (mut colors, mut runs) = (0, Vec::new());
        for (c, set) in family.into_iter().enumerate() {
            runs.extend(set.runs().iter().map(|&(s, e)| (s, e, c)));
            colors = c + 1;
        }
        runs.sort_unstable();
        debug_assert!(runs.windows(2).all(|w| w[0].1 <= w[1].0), "the family is disjoint");
        OwnerMap { colors, runs }
    }

    /// Calls `piece(d, set ∩ family[d])` for every color `d` but `skip`
    /// whose piece is not empty, in ascending color order. One walk over
    /// the set's runs and the map's, skipping by binary search: past set
    /// runs before an owner run, owner runs before a set run, and the
    /// skipped color's runs. `scratch` holds each color's runs during the
    /// walk and is left empty but allocated, for the caller's next split.
    pub fn split(
        &self,
        set: &IndexSet,
        skip: Option<usize>,
        scratch: &mut Vec<Vec<(Idx, Idx)>>,
        mut piece: impl FnMut(usize, IndexSet),
    ) {
        scratch.resize_with(scratch.len().max(self.colors), Vec::new);
        let (runs, owner, mut i, mut j) = (set.runs(), &self.runs[..], 0, 0);
        while i < runs.len() && j < owner.len() {
            let ((s, e), (os, oe, d)) = (runs[i], owner[j]);
            if e <= os {
                i += runs[i..].partition_point(|&(_, e)| e <= os);
            } else if oe <= s {
                j += owner[j..].partition_point(|&(_, oe, _)| oe <= s);
            } else if Some(d) == skip {
                i += runs[i..].partition_point(|&(_, e)| e <= oe);
                j += 1;
            } else {
                scratch[d].push((s.max(os), e.min(oe)));
                (i, j) = if e <= oe { (i + 1, j) } else { (i, j + 1) };
            }
        }
        for (d, runs) in scratch.iter_mut().enumerate().filter(|(_, r)| !r.is_empty()) {
            piece(d, IndexSet::from_sorted_runs(runs.drain(..)));
        }
    }

    /// What each group of colors owns, for `groups` groups of which color
    /// `c` is in `group_of[c]`.
    pub fn gather(&self, group_of: &[usize], groups: usize) -> Vec<IndexSet> {
        let mut per_group = vec![Vec::new(); groups];
        for &(s, e, c) in &self.runs {
            per_group[group_of[c]].push((s, e));
        }
        per_group.into_iter().map(IndexSet::from_sorted_runs).collect()
    }
}

/// One pass over every run of `subs`: the support's size and largest
/// element, and each element's lowest color. Its cost grows with the
/// number of runs, never with the span alone: a dense span is a bitmap,
/// a sparse one a merge of the colors' runs in position order.
fn sweep(subs: &[IndexSet]) -> Cover {
    let runs: u64 = subs.iter().map(|s| s.run_count() as u64).sum();
    let lo = subs.iter().filter_map(IndexSet::min).min();
    let max = subs.iter().filter_map(IndexSet::max).max();
    let own = match (lo, max) {
        (Some(lo), Some(hi)) if bitmap_fits(lo, hi, runs) => bitmap_sweep(subs, lo, hi),
        _ => merge_sweep(subs),
    };
    let support_len: u64 = own.iter().map(IndexSet::len).sum();
    let total: u64 = subs.iter().map(IndexSet::len).sum();
    let first_owner = (support_len != total).then(|| own.into());
    Cover { support_len, max, first_owner }
}

/// Colors in order, each keeping the bits of its runs no earlier color
/// set.
fn bitmap_sweep(subs: &[IndexSet], lo: Idx, hi: Idx) -> Vec<IndexSet> {
    let mut seen = vec![0u64; usize::try_from((hi - lo) / 64 + 1).expect("the span fits")];
    let own = subs.iter().map(|sub| {
        let mut mine = Vec::new();
        for &(s, e) in sub.runs() {
            word_masks(lo, s, e, |w, mask| {
                push_bits(&mut mine, lo + w as u64 * 64, mask & !seen[w]);
                seen[w] |= mask;
            });
        }
        IndexSet::from_sorted_runs(mine)
    });
    own.collect()
}

/// A k-way merge of the colors' runs by start; between two events the
/// lowest color with an open run owns the segment. Open runs are kept by
/// color and dropped once they surface ended.
fn merge_sweep(subs: &[IndexSet]) -> Vec<IndexSet> {
    let mut own = vec![Vec::new(); subs.len()];
    // (start, color, run index) of each color's next unopened run.
    let mut next: BinaryHeap<Reverse<(Idx, usize, usize)>> = BinaryHeap::new();
    next.extend(subs.iter().enumerate().filter_map(|(c, s)| Some(Reverse((s.min()?, c, 0)))));
    let mut open: BinaryHeap<Reverse<(usize, Idx)>> = BinaryHeap::new();
    let mut pos = 0;
    loop {
        while let Some(&Reverse((_, c, k))) = next.peek().filter(|r| r.0 .0 <= pos) {
            next.pop();
            let runs = subs[c].runs();
            open.push(Reverse((c, runs[k].1)));
            next.extend(runs.get(k + 1).map(|&(s, _)| Reverse((s, c, k + 1))));
        }
        while open.peek().is_some_and(|&Reverse((_, e))| e <= pos) {
            open.pop();
        }
        let upcoming = next.peek().map(|&Reverse((s, _, _))| s);
        match (open.peek(), upcoming) {
            (Some(&Reverse((c, e))), _) => {
                let to = upcoming.map_or(e, |s| s.min(e));
                push_run(&mut own[c], pos, to);
                pos = to;
            }
            (None, Some(s)) => pos = s,
            (None, None) => break,
        }
    }
    own.into_iter().map(IndexSet::from_sorted_runs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r() -> RegionId {
        RegionId(0)
    }

    #[test]
    fn disjoint_and_complete_block_partition() {
        let p = Partition::new(r(), vec![IndexSet::from_range(0, 5), IndexSet::from_range(5, 10)]);
        assert!(p.is_disjoint());
        assert!(p.is_complete(10));
        assert!(p.is_partition_of(10));
        assert!(!p.is_complete(11));
        assert_eq!(p.total_elements(), 10);
    }

    #[test]
    fn overlapping_partition_is_not_disjoint() {
        let p = Partition::new(r(), vec![IndexSet::from_range(0, 6), IndexSet::from_range(4, 10)]);
        assert!(!p.is_disjoint());
        assert!(p.is_complete(10));
    }

    #[test]
    fn first_owner_gives_each_element_to_its_earliest_color() {
        let disjoint =
            Partition::new(r(), vec![IndexSet::from_range(0, 5), IndexSet::from_range(5, 10)]);
        assert_eq!(disjoint.first_owner(), None);

        let aliased = Partition::new(
            r(),
            vec![
                IndexSet::from_range(2, 6),
                IndexSet::from_range(4, 9),
                IndexSet::from_indices([0, 3, 8, 11]),
            ],
        );
        let own = aliased.first_owner().expect("aliased partitions narrow");
        assert_eq!(own[0], IndexSet::from_range(2, 6), "the first color keeps everything");
        assert_eq!(own[1], IndexSet::from_range(6, 9), "earlier colors win");
        assert_eq!(own[2], IndexSet::from_indices([0, 11]));
        let narrowed = Partition::new(r(), own.to_vec());
        assert!(narrowed.is_disjoint());
        assert_eq!(narrowed.support_len(), aliased.support_len());
    }

    #[test]
    fn incomplete_partition() {
        let p = Partition::new(r(), vec![IndexSet::from_range(0, 3), IndexSet::from_range(7, 10)]);
        assert!(p.is_disjoint());
        assert!(!p.is_complete(10));
        assert_eq!(p.support_len(), 6);
    }

    #[test]
    fn partition_of_bounds() {
        let p = Partition::new(r(), vec![IndexSet::from_range(0, 12)]);
        assert!(!p.is_partition_of(10));
        assert!(p.is_partition_of(12));
        let empty = Partition::new(r(), vec![IndexSet::new(), IndexSet::new()]);
        assert!(empty.is_partition_of(0));
        assert!(empty.is_disjoint());
    }

    #[test]
    fn subset_is_subregion_wise() {
        let small =
            Partition::new(r(), vec![IndexSet::from_range(1, 3), IndexSet::from_range(6, 8)]);
        let big = Partition::new(
            r(),
            vec![
                IndexSet::from_range(0, 5),
                IndexSet::from_range(5, 10),
                IndexSet::from_range(0, 1),
            ],
        );
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
        // Same supports but crossed subregions: not a subset.
        let crossed =
            Partition::new(r(), vec![IndexSet::from_range(6, 8), IndexSet::from_range(1, 3)]);
        assert!(!crossed.subset_of(&big));
    }

    #[test]
    fn max_subregion_len_for_imbalance() {
        let p = Partition::new(r(), vec![IndexSet::from_range(0, 2), IndexSet::from_range(2, 9)]);
        assert_eq!(p.max_subregion_len(), 7);
        assert_eq!(Partition::new(r(), vec![]).max_subregion_len(), 0);
    }
}
