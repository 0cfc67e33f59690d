//! A partition computes its cover — `DISJ`, `COMP` and the first-owner
//! narrowing — once, and everything that needs the narrowing reads that
//! one copy: the footprint's in-place write sets, the runs on both
//! layouts, later calls. Every set's membership index is built once too:
//! a warm run tests the subregions, first-owner sets and rank footprints
//! against the indexes the first run built, so the plan cache's charge for
//! the plan stays where the first run left it. The caches are invisible to
//! equality and to the plan-cache key.

use partir::apps::circuit::{Circuit, CircuitParams};
use partir::core::exchange::{access_sets, block_assignment, derive_exchange_with};
use partir::core::fingerprint::solve_fingerprint;
use partir::core::placement::PlacementConfig;
use partir::prelude::*;
use partir::runtime::dist::LegalityMode;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn circuit() -> Circuit {
    Circuit::generate(&CircuitParams {
        clusters: 4,
        nodes_per_cluster: 200,
        wires_per_cluster: 800,
        cross_fraction: 0.2,
        cross_stride: None,
        seed: 7,
    })
}

#[test]
fn the_wire_loops_share_one_narrowing() {
    let a = circuit();
    let schema = a.store.schema().clone();
    let plan =
        Partir::new(a.program.clone(), a.fns.clone(), schema.clone()).colors(4).solve().unwrap();
    let solved = plan.solved();
    let parts = solved.parts_for(&a.store);
    let lplan = solved.plan();

    // Every loop over an aliased iteration partition: Circuit's wire loops.
    let aliased: Vec<_> = lplan
        .loops
        .iter()
        .filter(|lp| !parts[lp.iter.0 as usize].is_disjoint())
        .map(|lp| lp.iter)
        .collect();
    assert_eq!(aliased.len(), 2, "two wire loops iterate an aliased partition");
    assert_eq!(aliased[0], aliased[1], "over one partition");
    let wires = &parts[aliased[0].0 as usize];
    let own = Arc::clone(wires.first_owner().expect("aliased partitions narrow"));
    assert!(Arc::ptr_eq(&own, wires.first_owner().unwrap()), "a second call is the same copy");

    // The footprint's in-place sets of every centered write are that copy.
    let mut writes = 0;
    for lp in lplan.loops.iter().filter(|lp| lp.iter == aliased[0]) {
        for ap in lp.accesses.iter().filter(|ap| ap.kind.is_write()) {
            let sets = access_sets(ap, wires, &parts, &schema).expect("an f64 write");
            assert!(std::ptr::eq(sets.in_place.unwrap(), &own[..]), "in-place sets borrow it");
            writes += 1;
        }
    }
    assert!(writes > 0, "the wire loops write through the narrowing");

    // Deriving an exchange and running on both layouts keeps it.
    derive_exchange_with(lplan, &parts, &schema, 2, &block_assignment(4, 2)).unwrap();
    for backend in [Backend::Threads(2), Backend::Ranks(2)] {
        let mut store = a.store.clone();
        Run::new().backend(backend).run(&plan, &mut store).expect("the run finishes");
    }
    let after = solved.parts_for(&a.store);
    let again = after[aliased[0].0 as usize].first_owner().unwrap();
    assert!(Arc::ptr_eq(&own, again), "runs read the cached narrowing");
}

/// Which indexes of `sets` were built when `snapshot` was cloned from
/// them: a clone carries a built index, so its index is the same
/// allocation exactly then. Builds every index of `sets` (and of the
/// snapshot) on the way.
fn built_at(snapshot: &[IndexSet], sets: &[&IndexSet]) -> Vec<bool> {
    snapshot.iter().zip(sets).map(|(copy, set)| Arc::ptr_eq(copy.index(), set.index())).collect()
}

#[test]
fn a_warm_run_builds_no_membership_index() {
    let a = circuit();
    let schema = a.store.schema();
    let plan =
        Partir::new(a.program.clone(), a.fns.clone(), schema.clone()).colors(4).solve().unwrap();
    let parts = plan.solved().parts_for(&a.store);
    let backends = [Backend::Threads(2), Backend::Ranks(2)];
    let run = |backend| {
        let mut store = a.store.clone();
        let run = Run::new().backend(backend).legality_mode(LegalityMode::Element);
        run.run(&plan, &mut store).expect("the run finishes");
    };
    backends.into_iter().for_each(run);
    let artifacts = plan.solved().dist_artifacts(&a.store, 2, &PlacementConfig::default()).unwrap();
    let xplan = &artifacts.placement.xplan;
    // Every set a run indexes: each partition's subregions, then its
    // first-owner sets, then each rank's footprint of every region.
    let mut sets: Vec<&IndexSet> = Vec::new();
    for p in parts.iter() {
        sets.extend(p.subregions());
        sets.extend(p.first_owner_sets());
    }
    let regions = (0..schema.num_regions()).map(|g| RegionId(g as u32));
    let footprints: Vec<_> = regions.flat_map(|g| (0..2).map(move |r| (g, r))).collect();
    sets.extend(footprints.iter().map(|&(g, r)| xplan.local(g, r)));
    let snapshot = || sets.iter().map(|&s| s.clone()).collect::<Vec<_>>();
    let after_first = snapshot();
    // The plan cache charges the plan what its memo holds, indexes
    // included: warm runs build nothing, so the charge stays.
    let charged = plan.solved().charged_bytes();
    for backend in backends {
        run(backend);
        let now = plan.solved().charged_bytes();
        assert_eq!(now, charged, "a warm {backend:?} run leaves the charge unchanged");
    }
    let after_second = snapshot();
    assert!(Arc::ptr_eq(&parts, &plan.solved().parts_for(&a.store)), "runs share the partitions");
    let again = plan.solved().dist_artifacts(&a.store, 2, &PlacementConfig::default()).unwrap();
    assert!(Arc::ptr_eq(&artifacts, &again), "and the memoized exchange plan");

    let cold = built_at(&after_first, &sets);
    assert_eq!(built_at(&after_second, &sets), cold, "the warm run built no index");
    // The cold run built what its guards, write filters, checks and
    // shards use: every subregion of every partition, the aliased
    // iteration partition's first-owner colors, and each rank's
    // footprint of every region holding an f64 field.
    let aliased = parts.iter().position(|p| !p.is_disjoint()).expect("an aliased partition");
    let mut at = 0;
    for (k, p) in parts.iter().enumerate() {
        let n = p.num_subregions();
        for c in 0..n {
            assert!(cold[at + c], "partition {k}: subregion {c} indexed by the cold run");
            if k == aliased {
                assert!(cold[at + n + c], "first-owner color {c} indexed by the cold run");
            }
        }
        at += 2 * n;
    }
    let f64_regions: Vec<RegionId> = (0..schema.num_fields())
        .map(|f| schema.field(FieldId(f as u32)))
        .filter(|d| matches!(d.kind, FieldKind::F64))
        .map(|d| d.region)
        .collect();
    for (k, &(g, r)) in footprints.iter().enumerate() {
        if f64_regions.contains(&g) {
            assert!(cold[at + k], "region {g:?}: rank {r}'s footprint indexed by the cold run");
        }
    }
}

fn hash_of(p: &Partition) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

#[test]
fn the_cache_is_invisible_to_equality_and_the_key() {
    let a = circuit();
    let schema = a.store.schema();
    let plan = a.auto_plan();
    let parts = plan.evaluate(&a.store, &a.fns, 4, &ExtBindings::new());
    let wires = parts.iter().find(|p| !p.is_disjoint()).expect("an aliased partition");

    // A fresh copy with an empty cover against a clone of it.
    let fresh = Partition::new(wires.region, wires.subregions().to_vec());
    let before = fresh.clone();
    let key = |p: &Partition| {
        let mut exts = ExtBindings::new();
        exts.push(p.clone());
        solve_fingerprint(&a.program, &a.fns, schema, &Hints::new(), &Options::default(), &exts, 4)
    };
    let (hash0, key0) = (hash_of(&fresh), key(&fresh));
    assert!(!fresh.is_disjoint(), "fills the cover");
    let filled = fresh.clone();
    for p in [&fresh, &filled] {
        assert_eq!(*p, before, "equal to the clone taken before");
        assert_eq!(before, *p);
        assert_eq!(**wires, *p);
        assert_eq!(hash_of(p), hash0, "same hash");
        assert_eq!(key(p), key0, "same plan-cache key");
    }
    assert!(Arc::ptr_eq(fresh.first_owner().unwrap(), filled.first_owner().unwrap()));
    assert_eq!(format!("{fresh:?}"), format!("{before:?}"), "Debug shows no cache");
}
