//! Sorted-interval index sets.
//!
//! Every subregion of a region is a set of element indices. Partitioning
//! workloads produce sets that are mostly made of long contiguous runs
//! (block partitions, CSR row ranges, halo bands), so we store a set as a
//! sorted vector of disjoint half-open intervals `[start, end)`. This keeps
//! `equal`-style partitions O(1) in space and makes union / intersection /
//! difference linear in the number of runs rather than the number of
//! elements. This crate is the only one that walks run lists, and it has
//! one walk per job: the five binary operations and predicates share one
//! merge walk ([`IndexSet::union`] and its siblings), every run list is
//! built through one appender and every bitmap word read back into runs
//! by one bit reader, and [`IndexSet::union_all`] is the one n-ary union
//! (splitting a set by owner is [`crate::partition::OwnerMap`]).
//! Membership and an element's position go through the set's own
//! [`Positions`] index ([`IndexSet::index`]), built the first time it
//! is asked for and shared by every clone taken after that: a bitmap where
//! the set is dense enough and its runs otherwise ([`BITMAP_WORDS_PER_RUN`]),
//! so a lookup is one word load and no span is ever too large to index.

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::once;
use std::sync::{Arc, OnceLock};

/// Element index within a region's index space.
pub type Idx = u64;

/// A set of indices stored as sorted, disjoint, non-adjacent half-open runs.
///
/// Invariants (checked by [`IndexSet::check_invariants`], enforced by every
/// constructor):
/// * runs are sorted by start,
/// * `start < end` for every run,
/// * consecutive runs are separated by a gap (`prev.end < next.start`), so
///   the representation of a set is unique.
///
/// `index` is a write-once cell for the set's [`Positions`], filled by
/// [`IndexSet::index`]. The runs never change, so it never goes stale;
/// clones share it once it is built, and equality, hashing and `Debug`
/// see only the runs.
#[derive(Clone, Default)]
pub struct IndexSet {
    runs: Vec<(Idx, Idx)>,
    index: OnceLock<Arc<Positions>>,
}

impl PartialEq for IndexSet {
    fn eq(&self, other: &Self) -> bool {
        self.runs == other.runs
    }
}

impl Eq for IndexSet {}

impl Hash for IndexSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.runs.hash(state);
    }
}

impl IndexSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The contiguous range `[start, end)`. An empty range yields the empty set.
    pub fn from_range(start: Idx, end: Idx) -> Self {
        if start >= end {
            IndexSet::new()
        } else {
            IndexSet { runs: vec![(start, end)], ..Self::default() }
        }
    }

    /// Builds a set from an arbitrary (unsorted, possibly duplicated)
    /// sequence of indices.
    pub fn from_indices<I: IntoIterator<Item = Idx>>(iter: I) -> Self {
        let mut v: Vec<Idx> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Self::from_sorted_dedup(&v)
    }

    /// Builds a set from a sorted, deduplicated slice of indices.
    pub fn from_sorted_dedup(v: &[Idx]) -> Self {
        let mut runs = Vec::new();
        for &i in v {
            push_run(&mut runs, i, i + 1);
        }
        IndexSet { runs, ..Self::default() }
    }

    /// Builds from runs sorted by start; drops empty ones and merges
    /// adjacent and overlapping ones to restore canonical form.
    pub fn from_sorted_runs(runs: impl IntoIterator<Item = (Idx, Idx)>) -> Self {
        let mut out = Vec::new();
        for (s, e) in runs.into_iter().filter(|(s, e)| s < e) {
            push_run(&mut out, s, e);
        }
        IndexSet { runs: out, ..Self::default() }
    }

    /// Number of elements in the set.
    pub fn len(&self) -> u64 {
        self.runs.iter().map(|&(s, e)| e - s).sum()
    }

    /// True when the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of stored runs (representation size).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The underlying runs, sorted and disjoint.
    pub fn runs(&self) -> &[(Idx, Idx)] {
        &self.runs
    }

    /// Smallest element, if any.
    pub fn min(&self) -> Option<Idx> {
        self.runs.first().map(|&(s, _)| s)
    }

    /// Largest element, if any.
    pub fn max(&self) -> Option<Idx> {
        self.runs.last().map(|&(_, e)| e - 1)
    }

    /// The set's membership and position index, built on first ask. Every
    /// call, and every clone taken after the first, returns the same
    /// allocation.
    pub fn index(&self) -> &Arc<Positions> {
        self.index.get_or_init(|| Arc::new(Positions::new(self)))
    }

    /// Bytes the set holds on the heap: its runs and, once built, its
    /// index. An index shared by clones counts once per holder.
    pub fn heap_bytes(&self) -> u64 {
        let index =
            self.index.get().map_or(0, |p| arc_bytes::<Positions>() + p.heap_bytes() as u64);
        (self.runs.capacity() * std::mem::size_of::<(Idx, Idx)>()) as u64 + index
    }

    /// Membership test, through [`IndexSet::index`].
    pub fn contains(&self, i: Idx) -> bool {
        self.index().contains(i)
    }

    /// Iterates over all member indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Idx> + '_ {
        self.runs.iter().flat_map(|&(s, e)| s..e)
    }

    /// Set union.
    pub fn union(&self, other: &IndexSet) -> IndexSet {
        self.select(other, self.runs.len() + other.runs.len(), |a, b| a || b)
    }

    /// `∪ sets`, by pairwise unions in a balanced tree. One set is
    /// borrowed, not copied.
    pub fn union_all<'a>(sets: &[&'a IndexSet]) -> Cow<'a, IndexSet> {
        match sets {
            [] => Cow::Owned(IndexSet::new()),
            [s] => Cow::Borrowed(s),
            _ => {
                let (a, b) = sets.split_at(sets.len() / 2);
                Cow::Owned(IndexSet::union_all(a).union(&IndexSet::union_all(b)))
            }
        }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IndexSet) -> IndexSet {
        self.select(other, 0, |a, b| a && b)
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &IndexSet) -> IndexSet {
        self.select(other, 0, |a, b| a && !b)
    }

    /// Complement within the universe `[0, size)`.
    pub fn complement_within(&self, size: Idx) -> IndexSet {
        IndexSet::from_range(0, size).difference(self)
    }

    /// True when `self ⊆ other`: the walk finds no segment of `self`
    /// outside `other`, and stops once `self` runs out.
    pub fn is_subset(&self, other: &IndexSet) -> bool {
        merge(&self.runs, &other.runs, |a, b| a && !b, |_, _| false)
    }

    /// True when the two sets share no element: the walk finds no segment
    /// in both, and stops once either runs out.
    pub fn is_disjoint(&self, other: &IndexSet) -> bool {
        merge(&self.runs, &other.runs, |a, b| a && b, |_, _| false)
    }

    /// The segments of `self ∪ other` whose membership `keep` accepts,
    /// into a run list of `capacity`.
    fn select(
        &self,
        other: &IndexSet,
        capacity: usize,
        keep: impl Fn(bool, bool) -> bool,
    ) -> IndexSet {
        let mut runs = Vec::with_capacity(capacity);
        merge(&self.runs, &other.runs, keep, |s, e| {
            push_run(&mut runs, s, e);
            true
        });
        IndexSet { runs, ..Self::default() }
    }

    /// Validates the canonical-representation invariants (debug aid).
    pub fn check_invariants(&self) -> bool {
        self.runs.iter().all(|&(s, e)| s < e) && self.runs.windows(2).all(|w| w[0].1 < w[1].0)
    }
}

impl fmt::Debug for IndexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, &(s, e)) in self.runs.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            if e == s + 1 {
                write!(f, "{s}")?;
            } else {
                write!(f, "{s}..{e}")?;
            }
        }
        write!(f, "}}")
    }
}

impl FromIterator<Idx> for IndexSet {
    fn from_iter<I: IntoIterator<Item = Idx>>(iter: I) -> Self {
        IndexSet::from_indices(iter)
    }
}

/// The one walk over two sorted run lists, one step per pair of front
/// runs: the part of the earlier-starting run before the other starts,
/// then their overlap, each passed to `emit` in ascending order if
/// `keep(in_a, in_b)` accepts its membership; the run that ends first is
/// then done and the other is cut at its end. Runs of one list that end
/// before the other's front starts are skipped in one tight loop when
/// `keep` drops them. Once one list runs out, the other's remaining runs
/// go to `emit` whole if `keep` accepts them, and the walk stops there
/// otherwise. Returns `false` at the first segment `emit` answers `false`
/// for, `true` when nothing more can be emitted.
fn merge(
    a: &[(Idx, Idx)],
    b: &[(Idx, Idx)],
    keep: impl Fn(bool, bool) -> bool,
    mut emit: impl FnMut(Idx, Idx) -> bool,
) -> bool {
    let (mut a, mut b) = (a.iter().copied(), b.iter().copied());
    let (mut ra, mut rb) = (a.next(), b.next());
    loop {
        let ((sa, ea), (sb, eb)) = match (ra, rb) {
            (Some(ra), Some(rb)) => (ra, rb),
            (Some(r), None) => {
                return !keep(true, false) || once(r).chain(a).all(|(s, e)| emit(s, e))
            }
            (None, Some(r)) => {
                return !keep(false, true) || once(r).chain(b).all(|(s, e)| emit(s, e))
            }
            (None, None) => return true,
        };
        if ea <= sb && !keep(true, false) {
            ra = a.find(|&(_, e)| e > sb);
            continue;
        }
        if eb <= sa && !keep(false, true) {
            rb = b.find(|&(_, e)| e > sa);
            continue;
        }
        let (s, e) = (sa.max(sb), ea.min(eb));
        if sa < sb && keep(true, false) && !emit(sa, ea.min(sb)) {
            return false;
        }
        if sb < sa && keep(false, true) && !emit(sb, eb.min(sa)) {
            return false;
        }
        if s < e && keep(true, true) && !emit(s, e) {
            return false;
        }
        ra = if ea <= eb { a.next() } else { Some((sa.max(eb), ea)) };
        rb = if eb <= ea { b.next() } else { Some((sb.max(ea), eb)) };
    }
}

/// The one run appender: appends `[lo, hi)` (non-empty), growing the last
/// run instead when the new one starts inside or right after it. Runs
/// appended in ascending order of start come out canonical.
pub(crate) fn push_run(out: &mut Vec<(Idx, Idx)>, lo: Idx, hi: Idx) {
    match out.last_mut() {
        Some(last) if last.0 <= lo && lo <= last.1 => last.1 = last.1.max(hi),
        _ => out.push((lo, hi)),
    }
}

/// The one bit reader: appends the runs of set bits of one bitmap word
/// whose bit 0 is element `base`, through [`push_run`], so a run that
/// continues the last one across a word boundary grows it.
pub(crate) fn push_bits(out: &mut Vec<(Idx, Idx)>, base: Idx, mut bits: u64) {
    while bits != 0 {
        let first = bits.trailing_zeros();
        let len = (!(bits >> first)).trailing_zeros();
        let start = base + u64::from(first);
        push_run(out, start, start + u64::from(len));
        bits &= u64::MAX.checked_shl(first + len).unwrap_or(0);
    }
}

/// Heap bytes of one `Arc<T>` allocation: its two counts and the value.
pub fn arc_bytes<T>() -> u64 {
    (2 * std::mem::size_of::<usize>() + std::mem::size_of::<T>()) as u64
}

/// Heap bytes of sets held side by side in one buffer, and what each holds.
pub fn sets_bytes<'a>(sets: impl IntoIterator<Item = &'a IndexSet>) -> u64 {
    sets.into_iter().map(|s| std::mem::size_of::<IndexSet>() as u64 + s.heap_bytes()).sum()
}

/// The density rule: a set or a cover keeps one bit per element of its
/// span `[lo, hi]` only when that is at most this many 64-bit words per
/// run, and keeps its runs otherwise. The partition cover's sweep and
/// every set's [`Positions`] index follow it.
pub const BITMAP_WORDS_PER_RUN: u64 = 2;

/// True when a bitmap over `[lo, hi]` fits [`BITMAP_WORDS_PER_RUN`] words
/// per run for `runs` runs (`lo <= hi < u64::MAX`, as a set's bounds are).
pub(crate) fn bitmap_fits(lo: Idx, hi: Idx, runs: u64) -> bool {
    (hi - lo + 1) / 64 <= BITMAP_WORDS_PER_RUN.saturating_mul(runs)
}

/// Cuts `[s, e)` into the words of a bitmap whose bit 0 is `lo`, calling
/// `f(word, mask)` once per word it touches (`lo <= s`).
pub(crate) fn word_masks(lo: Idx, s: Idx, e: Idx, mut f: impl FnMut(usize, u64)) {
    let (mut a, b) = (s - lo, e - lo);
    while a < b {
        let (w, bit) = ((a / 64) as usize, a % 64);
        let n = (b - a).min(64 - bit);
        f(w, (u64::MAX >> (64 - n)) << bit);
        a += n;
    }
}

/// Position index over an [`IndexSet`]: membership, and the position of
/// an element in ascending iteration order (`None` for a non-member).
///
/// A one-run set translates by subtraction and allocates nothing. A set
/// whose span `[min, max]` has at most [`BITMAP_WORDS_PER_RUN`] 64-bit
/// words per run keeps one bit per element of the span and, with each
/// word, the count of set bits in the words before it: a membership test
/// is one word load, a position one more popcount, and the index a
/// quarter byte per element of span (32 bytes per run at most). A sparser
/// set keeps each run's start and position, 16 bytes per run, and
/// searches them. Either way memory is linear in the runs, whatever the
/// span.
#[derive(Debug)]
pub struct Positions {
    /// The set's smallest element.
    lo: Idx,
    len: u64,
    form: Form,
}

#[derive(Debug)]
enum Form {
    /// Empty, or the one run `[lo, lo + len)`: position `i - lo`.
    Run,
    /// Word `w` covers `lo + 64w ..`: `(set bits in earlier words, this
    /// word's bits)`.
    Bitmap(Vec<(u64, u64)>),
    /// `(start, position of start)` per run; a run ends where the next
    /// one's positions begin.
    Runs(Vec<(Idx, u64)>),
}

impl Positions {
    /// Indexes `set`, in time and memory linear in its runs. Only
    /// [`IndexSet::index`] calls it.
    pub(crate) fn new(set: &IndexSet) -> Self {
        let len = set.len();
        let (Some(lo), Some(max)) = (set.min(), set.max()) else {
            return Positions { lo: 0, len, form: Form::Run };
        };
        let runs = set.runs();
        let form = if runs.len() == 1 {
            Form::Run
        } else if bitmap_fits(lo, max, runs.len() as u64) {
            let mut words = vec![(0, 0); ((max - lo) / 64 + 1) as usize];
            for &(s, e) in runs {
                word_masks(lo, s, e, |w, mask| words[w].1 |= mask);
            }
            let mut before = 0;
            for (base, bits) in &mut words {
                *base = before;
                before += u64::from(bits.count_ones());
            }
            Form::Bitmap(words)
        } else {
            let mut at = 0;
            let starts = runs.iter().map(|&(s, e)| {
                at += e - s;
                (s, at - (e - s))
            });
            Form::Runs(starts.collect())
        };
        Positions { lo, len, form }
    }

    /// Number of elements in the set.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the index holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        match &self.form {
            Form::Run => 0,
            Form::Bitmap(words) => words.capacity() * std::mem::size_of::<(u64, u64)>(),
            Form::Runs(starts) => starts.capacity() * std::mem::size_of::<(Idx, u64)>(),
        }
    }

    /// True when `i` is a member.
    #[inline]
    pub fn contains(&self, i: Idx) -> bool {
        match &self.form {
            Form::Bitmap(words) => i.checked_sub(self.lo).is_some_and(|off| {
                let word = usize::try_from(off / 64).ok().and_then(|w| words.get(w));
                word.is_some_and(|&(_, bits)| bits >> (off % 64) & 1 != 0)
            }),
            _ => self.in_run(i).is_some(),
        }
    }

    /// Position of `i` in the set, `None` when it is not a member.
    #[inline]
    pub fn pos(&self, i: Idx) -> Option<u64> {
        let Form::Bitmap(words) = &self.form else { return self.in_run(i).map(|(p, _)| p) };
        let off = i.checked_sub(self.lo)?;
        let &(base, bits) = words.get(usize::try_from(off / 64).ok()?)?;
        let bit = 1u64 << (off % 64);
        (bits & bit != 0).then(|| base + u64::from((bits & (bit - 1)).count_ones()))
    }

    /// Position of the run `[i, i + n)`, `None` unless every element of it
    /// is a member. Positions grow by one per member, so the run is whole
    /// exactly when its two ends are members `n - 1` positions apart. The
    /// empty run is a member anywhere.
    #[inline]
    pub fn pos_run(&self, i: Idx, n: u64) -> Option<u64> {
        if n == 0 {
            return Some(0);
        }
        let Form::Bitmap(_) = &self.form else {
            return self.in_run(i).and_then(|(p, end)| (n <= end - p).then_some(p));
        };
        let p = self.pos(i)?;
        let q = self.pos(i.checked_add(n - 1)?)?;
        (q - p == n - 1).then_some(p)
    }

    /// Outside the bitmap form: `i`'s position and the position where its
    /// run ends, `None` for a non-member.
    #[inline]
    fn in_run(&self, i: Idx) -> Option<(u64, u64)> {
        let (start, p, end) = match &self.form {
            Form::Runs(starts) => {
                let k = starts.partition_point(|&(s, _)| s <= i).checked_sub(1)?;
                let (s, p) = starts[k];
                (s, p, starts.get(k + 1).map_or(self.len, |&(_, q)| q))
            }
            _ => (self.lo, 0, self.len),
        };
        let off = i.checked_sub(start)?;
        (off < end - p).then_some((p + off, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[Idx]) -> IndexSet {
        IndexSet::from_indices(v.iter().copied())
    }

    #[test]
    fn empty_set_basics() {
        let s = IndexSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(0));
        assert!(s.check_invariants());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn range_constructor() {
        let s = IndexSet::from_range(3, 7);
        assert_eq!(s.len(), 4);
        assert!(s.contains(3) && s.contains(6));
        assert!(!s.contains(2) && !s.contains(7));
        assert!(IndexSet::from_range(5, 5).is_empty());
        assert!(IndexSet::from_range(7, 3).is_empty());
    }

    #[test]
    fn from_indices_coalesces_runs() {
        let s = set(&[1, 2, 3, 7, 8, 10, 2, 3]);
        assert_eq!(s.run_count(), 3);
        assert_eq!(s.len(), 6);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 3, 7, 8, 10]);
    }

    #[test]
    fn from_sorted_runs_merges_adjacent_and_overlapping() {
        let s = IndexSet::from_sorted_runs(vec![(0, 3), (3, 5), (7, 9), (8, 12), (15, 15)]);
        assert_eq!(s.runs(), &[(0, 5), (7, 12)]);
        assert!(s.check_invariants());
    }

    #[test]
    fn union_basic() {
        let a = set(&[1, 2, 3, 10]);
        let b = set(&[3, 4, 5, 11]);
        let u = a.union(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5, 10, 11]);
        assert!(u.check_invariants());
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = set(&[4, 9, 100]);
        assert_eq!(a.union(&IndexSet::new()), a);
        assert_eq!(IndexSet::new().union(&a), a);
    }

    #[test]
    fn intersect_basic() {
        let a = IndexSet::from_range(0, 10);
        let b = set(&[5, 6, 12]);
        assert_eq!(a.intersect(&b).iter().collect::<Vec<_>>(), vec![5, 6]);
    }

    #[test]
    fn difference_splits_runs() {
        let a = IndexSet::from_range(0, 10);
        let b = set(&[3, 4, 7]);
        let d = a.difference(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![0, 1, 2, 5, 6, 8, 9]);
        assert!(d.check_invariants());
    }

    #[test]
    fn difference_from_empty() {
        let a = IndexSet::new();
        let b = set(&[1, 2]);
        assert!(a.difference(&b).is_empty());
        assert_eq!(b.difference(&a), b);
    }

    #[test]
    fn complement_within_universe() {
        let a = set(&[0, 1, 5]);
        let c = a.complement_within(7);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![2, 3, 4, 6]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = set(&[1, 2, 8]);
        let b = IndexSet::from_range(0, 10);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        let c = set(&[3, 4]);
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(IndexSet::new().is_disjoint(&a));
        assert!(IndexSet::new().is_subset(&a));
    }

    /// Membership at both ends of two runs `gap` apart, after checking
    /// which form the set's index took.
    fn contains_at_run_boundaries(gap: Idx, bitmap: bool) {
        let s = IndexSet::from_sorted_runs(vec![(10, 20), (20 + gap, 30 + gap)]);
        assert_eq!(matches!(s.index().form, Form::Bitmap(_)), bitmap, "{:?}", s.index());
        assert_eq!(matches!(s.index().form, Form::Runs(_)), !bitmap, "{:?}", s.index());
        assert!(s.contains(10));
        assert!(s.contains(19));
        assert!(!s.contains(20));
        assert!(!s.contains(19 + gap));
        assert!(s.contains(20 + gap));
        assert!(s.contains(29 + gap));
        assert!(!s.contains(30 + gap));
        assert!(!s.contains(9));
    }

    #[test]
    fn contains_boundaries_in_bitmap_form() {
        contains_at_run_boundaries(10, true);
    }

    #[test]
    fn contains_boundaries_in_run_search_form() {
        contains_at_run_boundaries(1000, false);
    }

    #[test]
    fn rank_positions() {
        let s = IndexSet::from_sorted_runs(vec![(10, 13), (20, 22)]);
        let p = s.index();
        assert_eq!(p.pos(10), Some(0));
        assert_eq!(p.pos(12), Some(2));
        assert_eq!(p.pos(13), None);
        assert_eq!(p.pos(20), Some(3));
        assert_eq!(p.pos(21), Some(4));
        assert_eq!(p.pos(22), None);
        assert_eq!(p.pos(0), None);
        assert_eq!(IndexSet::new().index().pos(5), None);
        // Positions agree with iteration order.
        for (k, i) in s.iter().enumerate() {
            assert_eq!(p.pos(i), Some(k as u64));
        }
        assert_eq!(p.len(), s.len());
    }

    #[test]
    fn the_index_is_built_once_and_shared_by_later_clones() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |s: &IndexSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let s = IndexSet::from_sorted_runs(vec![(10, 13), (20, 22)]);
        let (early, fresh) = (s.clone(), s.clone());
        let index = Arc::clone(s.index());
        assert!(Arc::ptr_eq(&index, s.index()), "built once");
        let late = s.clone();
        assert!(Arc::ptr_eq(&index, late.index()), "a clone taken after shares it");
        assert!(!Arc::ptr_eq(&index, early.index()), "one taken before builds its own");
        assert!(fresh.index.get().is_none());
        for t in [&s, &late, &early] {
            assert_eq!(*t, fresh);
            assert_eq!(hash(t), hash(&fresh), "the hash of the runs with no index built");
            assert_eq!(format!("{t:?}"), "{10..13, 20..22}");
        }
        let mut runs = DefaultHasher::new();
        s.runs.hash(&mut runs);
        assert_eq!(hash(&s), runs.finish(), "what the derive fed the hasher");
    }

    #[test]
    fn debug_format_is_compact() {
        let s = set(&[1, 5, 6, 7]);
        assert_eq!(format!("{s:?}"), "{1, 5..8}");
    }
}
