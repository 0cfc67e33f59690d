//! Property tests: the interval-run `IndexSet` must agree with a naive
//! `BTreeSet` model on every operation, near zero and, shifted by a base
//! offset, near both ends of the index space.

use partir_dpl::index_set::{Idx, IndexSet};
use partir_dpl::partition::OwnerMap;
use proptest::prelude::*;
use std::collections::BTreeSet;

const UNIVERSE: u64 = 200;

fn arb_indices() -> impl Strategy<Value = Vec<Idx>> {
    proptest::collection::vec(0..UNIVERSE, 0..80)
}

/// Where a shifted window `[base, base + UNIVERSE)` starts: at zero, past
/// 32 bits, at 2^62, and just below the largest index a run can hold.
fn arb_base() -> impl Strategy<Value = Idx> {
    (0usize..4).prop_map(|k| [0, 1 << 32, 1 << 62, u64::MAX - 256][k])
}

fn shifted(v: &[Idx], base: Idx) -> Vec<Idx> {
    v.iter().map(|&i| base + i).collect()
}

fn model(v: &[Idx]) -> BTreeSet<Idx> {
    v.iter().copied().collect()
}

fn to_vec(s: &IndexSet) -> Vec<Idx> {
    s.iter().collect()
}

/// The owner split of `set` against the disjoint family `b − c`, `∅`,
/// `c − b` (which leaves `b ∩ c` and everything outside `b ∪ c` unowned),
/// at every `skip`: each piece is `set ∩ family[d]`, the skipped color
/// yields nothing, empty pieces are left out and colors ascend.
fn check_owner_split(set: &IndexSet, b: &IndexSet, c: &IndexSet) -> Result<(), TestCaseError> {
    let family = [b.difference(c), IndexSet::new(), c.difference(b)];
    let owners = OwnerMap::new(&family);
    let mut scratch = Vec::new();
    for skip in [None, Some(0), Some(1), Some(2), Some(3)] {
        let mut got: Vec<(usize, IndexSet)> = Vec::new();
        owners.split(set, skip, &mut scratch, |d, piece| got.push((d, piece)));
        let want: Vec<(usize, IndexSet)> = (0..family.len())
            .filter(|&d| Some(d) != skip)
            .map(|d| (d, set.intersect(&family[d])))
            .filter(|(_, piece)| !piece.is_empty())
            .collect();
        for (_, piece) in &got {
            prop_assert!(piece.check_invariants());
        }
        prop_assert_eq!(got, want, "skip {:?}", skip);
    }
    Ok(())
}

proptest! {
    #[test]
    fn construction_matches_model(v in arb_indices()) {
        let s = IndexSet::from_indices(v.iter().copied());
        let m = model(&v);
        prop_assert!(s.check_invariants());
        prop_assert_eq!(to_vec(&s), m.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(s.len(), m.len() as u64);
        prop_assert_eq!(s.min(), m.first().copied());
        prop_assert_eq!(s.max(), m.last().copied());
    }

    #[test]
    fn contains_matches_model(v in arb_indices(), probe in 0..UNIVERSE + 10) {
        let s = IndexSet::from_indices(v.iter().copied());
        prop_assert_eq!(s.contains(probe), model(&v).contains(&probe));
    }

    #[test]
    fn union_matches_model(a in arb_indices(), b in arb_indices()) {
        let (sa, sb) = (IndexSet::from_indices(a.iter().copied()), IndexSet::from_indices(b.iter().copied()));
        let u = sa.union(&sb);
        prop_assert!(u.check_invariants());
        let mu: Vec<Idx> = model(&a).union(&model(&b)).copied().collect();
        prop_assert_eq!(to_vec(&u), mu);
        // The n-ary union of none, one and two sets.
        prop_assert_eq!(IndexSet::union_all(&[]).into_owned(), IndexSet::new());
        prop_assert_eq!(IndexSet::union_all(&[&sa]).into_owned(), sa.clone());
        prop_assert_eq!(IndexSet::union_all(&[&sa, &sb]).into_owned(), u);
    }

    #[test]
    fn intersect_matches_model(a in arb_indices(), b in arb_indices()) {
        let (sa, sb) = (IndexSet::from_indices(a.iter().copied()), IndexSet::from_indices(b.iter().copied()));
        let i = sa.intersect(&sb);
        prop_assert!(i.check_invariants());
        let mi: Vec<Idx> = model(&a).intersection(&model(&b)).copied().collect();
        prop_assert_eq!(to_vec(&i), mi);
    }

    #[test]
    fn difference_matches_model(a in arb_indices(), b in arb_indices()) {
        let (sa, sb) = (IndexSet::from_indices(a.iter().copied()), IndexSet::from_indices(b.iter().copied()));
        let d = sa.difference(&sb);
        prop_assert!(d.check_invariants());
        let md: Vec<Idx> = model(&a).difference(&model(&b)).copied().collect();
        prop_assert_eq!(to_vec(&d), md);
    }

    #[test]
    fn subset_and_disjoint_match_model(a in arb_indices(), b in arb_indices()) {
        let (sa, sb) = (IndexSet::from_indices(a.iter().copied()), IndexSet::from_indices(b.iter().copied()));
        let (ma, mb) = (model(&a), model(&b));
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sa.is_disjoint(&sb), ma.is_disjoint(&mb));
    }

    #[test]
    fn set_algebra_laws(a in arb_indices(), b in arb_indices(), c in arb_indices()) {
        let sa = IndexSet::from_indices(a.iter().copied());
        let sb = IndexSet::from_indices(b.iter().copied());
        let sc = IndexSet::from_indices(c.iter().copied());
        // Commutativity / associativity / distributivity / De Morgan-ish laws.
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
        prop_assert_eq!(sa.intersect(&sb), sb.intersect(&sa));
        prop_assert_eq!(sa.union(&sb).union(&sc), sa.union(&sb.union(&sc)));
        prop_assert_eq!(
            sa.intersect(&sb.union(&sc)),
            sa.intersect(&sb).union(&sa.intersect(&sc))
        );
        prop_assert_eq!(
            sa.difference(&sb.union(&sc)),
            sa.difference(&sb).difference(&sc)
        );
        // a = (a − b) ∪ (a ∩ b)
        prop_assert_eq!(sa.difference(&sb).union(&sa.intersect(&sb)), sa.clone());
        // a − b disjoint from b
        prop_assert!(sa.difference(&sb).is_disjoint(&sb));
        // Self-operand identities.
        prop_assert_eq!(sa.union(&sa), sa.clone());
        prop_assert_eq!(sa.intersect(&sa), sa.clone());
        prop_assert!(sa.difference(&sa).is_empty());
        prop_assert!(sa.is_subset(&sa));
        prop_assert_eq!(sa.is_disjoint(&sa), sa.is_empty());
        // The n-ary union of many sets, repeats included.
        let all = IndexSet::union_all(&[&sa, &sb, &sc, &sa, &sb]).into_owned();
        prop_assert!(all.check_invariants());
        prop_assert_eq!(all, sa.union(&sb).union(&sc));
        check_owner_split(&sa, &sb, &sc)?;
    }

    #[test]
    fn complement_involution(a in arb_indices()) {
        let sa = IndexSet::from_indices(a.iter().copied());
        let cc = sa.complement_within(UNIVERSE).complement_within(UNIVERSE);
        prop_assert_eq!(cc, sa);
    }

    #[test]
    fn algebra_matches_model_at_large_offsets(base in arb_base(), a in arb_indices(), b in arb_indices()) {
        let (a, b) = (shifted(&a, base), shifted(&b, base));
        let (sa, sb) = (IndexSet::from_indices(a.iter().copied()), IndexSet::from_indices(b.iter().copied()));
        let (ma, mb) = (model(&a), model(&b));
        for (got, want) in [
            (sa.union(&sb), ma.union(&mb).copied().collect::<Vec<_>>()),
            (sa.intersect(&sb), ma.intersection(&mb).copied().collect()),
            (sa.difference(&sb), ma.difference(&mb).copied().collect()),
        ] {
            prop_assert!(got.check_invariants());
            prop_assert_eq!(to_vec(&got), want);
        }
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sa.is_disjoint(&sb), ma.is_disjoint(&mb));
        // The complement within the window's end: all of `[0, base)`, and
        // the window's indices `a` lacks.
        let end = base + UNIVERSE;
        let c = sa.complement_within(end);
        prop_assert!(c.check_invariants());
        let window = IndexSet::from_range(base, end);
        prop_assert_eq!(c.difference(&window), IndexSet::from_range(0, base));
        let mc: Vec<Idx> = (base..end).filter(|i| !ma.contains(i)).collect();
        prop_assert_eq!(to_vec(&c.intersect(&window)), mc);
        // The n-ary union and the owner split, near both ends too.
        prop_assert_eq!(IndexSet::union_all(&[&sb]).into_owned(), sb.clone());
        prop_assert_eq!(IndexSet::union_all(&[&sa, &sb]).into_owned(), sa.union(&sb));
        let u = IndexSet::union_all(&[&sa, &sb, &c, &sb]).into_owned();
        prop_assert_eq!(u, sa.union(&sb).union(&c));
        check_owner_split(&sa, &sb, &c)?;
        check_owner_split(&c, &sa, &sb)?;
        prop_assert_eq!(c.complement_within(end), sa);
    }

    #[test]
    fn from_sorted_runs_canonicalizes(steps in proptest::collection::vec((0..16u64, -2..16i64), 0..24)) {
        // A walk of starts, each 0..16 past the last: a run overlaps the
        // one before it, touches it, or leaves a gap; a length of zero or
        // less is an empty run.
        let mut start = 0;
        let runs: Vec<(Idx, Idx)> = steps
            .iter()
            .map(|&(step, len)| {
                start += step;
                (start, start.saturating_add_signed(len))
            })
            .collect();
        let s = IndexSet::from_sorted_runs(runs.iter().copied());
        let m: BTreeSet<Idx> = runs.iter().flat_map(|&(s, e)| s..e).collect();
        prop_assert!(s.check_invariants());
        prop_assert_eq!(to_vec(&s), m.iter().copied().collect::<Vec<_>>());
        // The model's maximal runs: the one canonical form of its members.
        let mut canonical: Vec<(Idx, Idx)> = Vec::new();
        for &i in &m {
            match canonical.last_mut() {
                Some((_, e)) if *e == i => *e = i + 1,
                _ => canonical.push((i, i + 1)),
            }
        }
        prop_assert_eq!(s.runs(), &canonical[..]);
    }
}
