//! The exchange derivation against its rank-at-a-time definition.
//!
//! `derive_exchange_with` builds a color footprint once and folds it under
//! the owner assignment. The derivation it replaced recomputed everything
//! per assignment: per rank, the union of its colors' resident and
//! in-place sets, then `needed − owned` split by one intersection per
//! owner. That derivation lives on here, unchanged, as the oracle, and
//! every set the two produce is compared exactly: owned, ghost and local
//! footprints per region and rank, and per loop the message table, the
//! buffer routes, the interior/boundary split, and the iteration
//! partition's first-owner narrowing. The oracle checks
//! `DISJ`, `COMP` and the narrowing by chains of unions, not by the
//! partition's own sweep. Bad assignments must fail with the same error.
//!
//! Inputs: the eight configurations `exchange_golden.rs` pins (that test
//! pins totals; this one pins the sets), and programs from the shared
//! random generator. Assignments: block at every rank count from 1 to the
//! color count, seeded random ones, and ones that leave ranks empty.

use partir::core::exchange::{
    access_sets, block_assignment, derive_exchange_with, BufferRoute, ExchangeError, ExchangePlan,
    LoopExchange, PairMessages,
};
use partir::dpl::ops::equal;
use partir::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

mod common;
use common::{arb_cfg_with_optional_loops, build};

#[path = "common/golden_cases.rs"]
mod golden_cases;

/// Generated programs checked: small in debug, ten times that in release.
const CASES: u32 = if cfg!(debug_assertions) { 24 } else { 240 };

/// What the oracle derives: the rank-granular tables of an exchange plan.
struct Oracle {
    color_owner: Vec<usize>,
    owned: Vec<Vec<IndexSet>>,
    ghosts: Vec<Vec<IndexSet>>,
    locals: Vec<Vec<IndexSet>>,
    loops: Vec<LoopExchange>,
    /// Per loop, the iteration partition's first-owner narrowing.
    write_own: Vec<Option<Vec<IndexSet>>>,
}

/// The union of a partition's subregions.
fn support(p: &Partition) -> IndexSet {
    p.iter().fold(IndexSet::new(), |acc, s| acc.union(s))
}

/// Each subregion minus every earlier one; `None` when no element is in
/// two subregions.
fn first_owner(p: &Partition) -> Option<Vec<IndexSet>> {
    let mut seen = IndexSet::new();
    let own = p.iter().map(|s| {
        let mine = s.difference(&seen);
        seen = seen.union(s);
        mine
    });
    let own: Vec<IndexSet> = own.collect();
    (seen.len() != p.total_elements()).then_some(own)
}

/// Splits `set` by the (disjoint, complete) owner sets, ascending by rank;
/// empty slices are dropped.
fn split_by_owner(set: &IndexSet, owned: &[IndexSet]) -> Vec<(usize, IndexSet)> {
    owned
        .iter()
        .enumerate()
        .filter_map(|(rank, o)| {
            let piece = set.intersect(o);
            (!piece.is_empty()).then_some((rank, piece))
        })
        .collect()
}

/// The rank-at-a-time derivation: for one assignment, per rank unions of
/// its colors' sets, `needed − owned`, and one intersection per owner.
fn oracle(
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    schema: &Schema,
    n_ranks: usize,
    assignment: &[usize],
) -> Result<Oracle, ExchangeError> {
    if n_ranks == 0 {
        return Err(ExchangeError::NoRanks);
    }
    let n_colors = parts.first().map(|p| p.num_subregions()).unwrap_or(0);
    for (pi, p) in parts.iter().enumerate() {
        if p.num_subregions() != n_colors {
            return Err(ExchangeError::WidthMismatch {
                part: pi,
                expected: n_colors,
                got: p.num_subregions(),
            });
        }
    }
    if assignment.len() != n_colors {
        return Err(ExchangeError::BadAssignment {
            colors: n_colors,
            got: assignment.len(),
            n_ranks,
            bad_rank: None,
        });
    }
    if let Some(&bad) = assignment.iter().find(|&&r| r >= n_ranks) {
        return Err(ExchangeError::BadAssignment {
            colors: n_colors,
            got: assignment.len(),
            n_ranks,
            bad_rank: Some(bad),
        });
    }

    let color_owner: Vec<usize> = assignment.to_vec();
    let mut rank_colors: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
    for (c, &r) in color_owner.iter().enumerate() {
        rank_colors[r].push(c);
    }
    // `acc[rank] ∪= sets[c]` over each rank's colors.
    let union_colors = |acc: &mut [IndexSet], sets: &[IndexSet]| {
        for (acc, colors) in acc.iter_mut().zip(&rank_colors) {
            for &c in colors {
                *acc = acc.union(&sets[c]);
            }
        }
    };

    let n_regions = schema.num_regions();
    let owned: Vec<Vec<IndexSet>> = (0..n_regions)
        .map(|ri| {
            let region = RegionId(ri as u32);
            let size = schema.region_size(region);
            let candidate =
                plan.loops.iter().map(|lp| lp.iter.0 as usize).chain(0..parts.len()).find(|&pi| {
                    let (p, full) = (&parts[pi], IndexSet::from_range(0, size));
                    p.region == region && p.total_elements() == size && support(p) == full
                });
            let mut owned = vec![IndexSet::new(); n_ranks];
            match candidate {
                Some(pi) => union_colors(&mut owned, parts[pi].subregions()),
                None => union_colors(&mut owned, equal(region, size, n_colors.max(1)).subregions()),
            }
            owned
        })
        .collect();

    let mut ghost_acc: Vec<Vec<IndexSet>> = vec![vec![IndexSet::new(); n_ranks]; n_regions];
    let (mut loops, mut write_owns) = (Vec::new(), Vec::new());
    for lp in &plan.loops {
        let iter = &parts[lp.iter.0 as usize];
        let write_own = first_owner(iter);
        let sets: Vec<_> = lp
            .accesses
            .iter()
            .enumerate()
            .filter_map(|(ai, ap)| Some((ai, ap.region, access_sets(ap, iter, parts, schema)?)))
            .collect();

        type PerRank = Vec<(FieldId, Vec<IndexSet>)>;
        let slot = |table: &mut PerRank, f: FieldId| -> usize {
            table.iter().position(|(g, _)| *g == f).unwrap_or_else(|| {
                table.push((f, vec![IndexSet::new(); n_ranks]));
                table.len() - 1
            })
        };
        let (mut needed, mut mutated): (PerRank, PerRank) = (Vec::new(), Vec::new());
        let mut routes: Vec<BufferRoute> = Vec::new();
        for (ai, _, s) in &sets {
            if let Some(part) = s.resident {
                let ni = slot(&mut needed, s.field);
                union_colors(&mut needed[ni].1, part.subregions());
            }
            let in_place = match &write_own {
                Some(own) if lp.accesses[*ai].kind.is_write() => Some(&own[..]),
                _ => s.in_place,
            };
            if let Some(in_place) = in_place {
                let mi = slot(&mut mutated, s.field);
                union_colors(&mut mutated[mi].1, in_place);
            }
            if let Some(b) = &s.buffered {
                routes.push(BufferRoute {
                    access: *ai,
                    field: s.field,
                    op: b.op,
                    sets: b.sets().into_owned(),
                });
            }
        }

        let mut interior: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
        let mut boundary: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
        for (rank, colors) in rank_colors.iter().enumerate() {
            for &c in colors {
                let mut reads_ghost = false;
                for (_, region, s) in &sets {
                    let Some(part) = s.resident else { continue };
                    let owned = &owned[region.0 as usize];
                    let foreign = part.subregion(c).difference(&owned[rank]);
                    reads_ghost |= !split_by_owner(&foreign, owned).is_empty();
                }
                match reads_ghost {
                    false => interior[rank].push(c),
                    true => boundary[rank].push(c),
                }
            }
        }

        let mut pairs = vec![vec![PairMessages::default(); n_ranks]; n_ranks];
        needed.sort_by_key(|(f, _)| *f);
        mutated.sort_by_key(|(f, _)| *f);
        for (field, per_rank) in &needed {
            let region = schema.field(*field).region.0 as usize;
            for (dst, set) in per_rank.iter().enumerate() {
                let ghost = set.difference(&owned[region][dst]);
                if ghost.is_empty() {
                    continue;
                }
                ghost_acc[region][dst] = ghost_acc[region][dst].union(&ghost);
                for (src, piece) in split_by_owner(&ghost, &owned[region]) {
                    pairs[src][dst].ghost.push((*field, piece));
                }
            }
        }
        for (field, per_rank) in &mutated {
            let region = schema.field(*field).region.0 as usize;
            for (src, set) in per_rank.iter().enumerate() {
                let foreign = set.difference(&owned[region][src]);
                for (dst, piece) in split_by_owner(&foreign, &owned[region]) {
                    pairs[src][dst].post.write_back.push((*field, piece));
                }
            }
        }
        for (ri, route) in routes.iter().enumerate() {
            let region = schema.field(route.field).region.0 as usize;
            for (c, set) in route.sets.iter().enumerate() {
                for (dst, piece) in split_by_owner(set, &owned[region]) {
                    pairs[color_owner[c]][dst].post.slices.push((ri, c, piece));
                }
            }
        }
        drop(sets);
        loops.push(LoopExchange { pairs, routes, interior, boundary });
        write_owns.push(write_own);
    }

    let locals: Vec<Vec<IndexSet>> = owned
        .iter()
        .zip(&ghost_acc)
        .map(|(o, g)| o.iter().zip(g).map(|(os, gs)| os.union(gs)).collect())
        .collect();
    let (ghosts, write_own) = (ghost_acc, write_owns);
    Ok(Oracle { color_owner, owned, ghosts, locals, loops, write_own })
}

/// Compares one plan with the oracle, table by table, naming the first
/// difference.
fn assert_same(x: &ExchangePlan, o: &Oracle, schema: &Schema, label: &str) {
    assert_eq!(x.owner_assignment(), &o.color_owner[..], "{label}: owner assignment");
    for (region, _) in schema.regions() {
        let ri = region.0 as usize;
        for rank in 0..x.n_ranks {
            assert_eq!(
                x.owned(region, rank),
                &o.owned[ri][rank],
                "{label}: owned r{ri} rank {rank}"
            );
            let ghosts = x.local(region, rank).difference(x.owned(region, rank));
            assert_eq!(ghosts, o.ghosts[ri][rank], "{label}: ghosts r{ri} {rank}");
            assert_eq!(x.local(region, rank), &o.locals[ri][rank], "{label}: local r{ri} {rank}");
        }
    }
    let ghost_elements: u64 = o.ghosts.iter().flatten().map(IndexSet::len).sum();
    assert_eq!(x.stats().ghost_elements, ghost_elements, "{label}: ghost elements");
    assert_eq!(x.loops.len(), o.loops.len(), "{label}: loop count");
    for (li, (got, want)) in x.loops.iter().zip(&o.loops).enumerate() {
        for (src, (g_row, w_row)) in got.pairs.iter().zip(&want.pairs).enumerate() {
            for (dst, (g, w)) in g_row.iter().zip(w_row).enumerate() {
                let at = format!("{label}: loop {li} pair ({src},{dst})");
                assert_eq!(g.ghost, w.ghost, "{at} ghost");
                assert_eq!(g.post.write_back, w.post.write_back, "{at} write-back");
                assert_eq!(g.post.slices, w.post.slices, "{at} slices");
            }
        }
        assert_eq!(got.pairs.len(), want.pairs.len(), "{label}: loop {li} pair rows");
        assert_eq!(got.routes, want.routes, "{label}: loop {li} routes");
        assert_eq!(got.interior, want.interior, "{label}: loop {li} interior");
        assert_eq!(got.boundary, want.boundary, "{label}: loop {li} boundary");
    }
}

/// Derives under `assignment` both ways and compares: the same plan, or
/// the same error.
fn check(
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    schema: &Schema,
    n_ranks: usize,
    assignment: &[usize],
    label: &str,
) {
    let got = derive_exchange_with(plan, parts, schema, n_ranks, assignment);
    match (got, oracle(plan, parts, schema, n_ranks, assignment)) {
        (Ok(x), Ok(o)) => {
            assert_same(&x, &o, schema, label);
            for (li, (lp, want)) in plan.loops.iter().zip(&o.write_own).enumerate() {
                let got = parts[lp.iter.0 as usize].first_owner();
                let got = got.map(|own| &own[..]);
                assert_eq!(got, want.as_deref(), "{label}: loop {li} first-owner narrowing");
            }
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{label}: error"),
        (got, want) => panic!(
            "{label}: derivation {:?} but oracle {:?}",
            got.map(|_| "a plan"),
            want.map(|_| "a plan")
        ),
    }
}

/// Every assignment the test folds at `n_ranks` ranks of `n_colors`
/// colors: block, two seeded random ones, and one over the odd ranks only
/// (so the even ranks own nothing).
fn assignments(n_colors: usize, n_ranks: usize, rng: &mut rand::rngs::StdRng) -> Vec<Vec<usize>> {
    let mut out = vec![block_assignment(n_colors, n_ranks)];
    for _ in 0..2 {
        out.push((0..n_colors).map(|_| rng.gen_range(0..n_ranks)).collect());
    }
    if n_ranks > 1 {
        let odd = n_ranks / 2;
        out.push((0..n_colors).map(|_| 2 * rng.gen_range(0..odd) + 1).collect());
    }
    out
}

/// All of [`assignments`] at every rank count from 1 to the color count,
/// then the assignments that must fail.
fn check_all(
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    schema: &Schema,
    seed: u64,
    name: &str,
) {
    let n_colors = parts.first().map_or(0, |p| p.num_subregions());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for n_ranks in 1..=n_colors {
        for (k, a) in assignments(n_colors, n_ranks, &mut rng).iter().enumerate() {
            check(plan, parts, schema, n_ranks, a, &format!("{name}/r{n_ranks}/a{k} {a:?}"));
        }
    }
    let bad =
        [(0, block_assignment(n_colors, 1)), (2, vec![0; n_colors + 1]), (2, vec![5; n_colors])];
    for (n_ranks, a) in bad {
        check(plan, parts, schema, n_ranks, &a, &format!("{name}/bad r{n_ranks} {a:?}"));
    }
    // A partition one color short of the launch width.
    if let Some(last) = parts.last().filter(|_| parts.len() > 1) {
        let short = Partition::new(last.region, last.subregions()[1..].to_vec());
        let mut narrow = parts.to_vec();
        *narrow.last_mut().unwrap() = Arc::new(short);
        let a = block_assignment(n_colors, 1);
        check(plan, &narrow, schema, 1, &a, &format!("{name}/narrow"));
    }
}

#[test]
fn golden_configurations_match_the_rank_at_a_time_derivation() {
    for (name, plan, parts, schema) in golden_cases::cases() {
        check_all(&plan, &parts, &schema, 0x5eed, name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn generated_programs_match_the_rank_at_a_time_derivation(cfg in arb_cfg_with_optional_loops()) {
        let built = build(&cfg);
        let schema = built.store.schema().clone();
        let plan =
            auto_parallelize(&built.program, &built.fns, &schema, &Hints::new(), Options::default())
                .expect("generated programs are parallelizable");
        let parts = plan.evaluate(&built.store, &built.fns, cfg.colors, &ExtBindings::new());
        check_all(&plan, &parts, &schema, cfg.ptr_seed, "generated");
    }
}
