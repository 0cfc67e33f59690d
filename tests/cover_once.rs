//! A partition computes its cover — `DISJ`, `COMP` and the first-owner
//! narrowing — once, and everything that needs the narrowing reads that
//! one copy: the footprint's in-place write sets, the runs on both
//! layouts, later calls. Its membership indexes are built once too: a warm
//! run tests against the ones the first run cached. The caches are
//! invisible to equality and to the plan-cache key.

use partir::apps::circuit::{Circuit, CircuitParams};
use partir::core::exchange::{access_sets, block_assignment, derive_exchange_with};
use partir::core::fingerprint::solve_fingerprint;
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

/// Which membership indexes of `parts` were built when `snapshot` was
/// cloned from them: a clone carries the built ones, so its index is the
/// same allocation exactly then. Builds every index of `parts` (and of
/// the snapshot) on the way.
fn built_at(snapshot: &[Partition], parts: &[Arc<Partition>]) -> Vec<bool> {
    let mut built = Vec::new();
    for (copy, p) in snapshot.iter().zip(parts) {
        for c in 0..p.num_subregions() {
            built.push(Arc::ptr_eq(copy.subregion_index(c), p.subregion_index(c)));
            built.push(Arc::ptr_eq(copy.owner_index(c), p.owner_index(c)));
        }
    }
    built
}

#[test]
fn a_warm_run_builds_no_membership_index() {
    let a = circuit();
    let plan = Partir::new(a.program.clone(), a.fns.clone(), a.store.schema().clone())
        .colors(4)
        .solve()
        .unwrap();
    let parts = plan.solved().parts_for(&a.store);
    let snapshot = || parts.iter().map(|p| (**p).clone()).collect::<Vec<_>>();
    let run_both = || {
        for backend in [Backend::Threads(2), Backend::Ranks(2)] {
            let mut store = a.store.clone();
            let run = Run::new().backend(backend).legality_mode(LegalityMode::Element);
            run.run(&plan, &mut store).expect("the run finishes");
        }
    };
    run_both();
    let after_first = snapshot();
    run_both();
    let after_second = snapshot();
    assert!(Arc::ptr_eq(&parts, &plan.solved().parts_for(&a.store)), "runs share the partitions");

    let cold = built_at(&after_first, &parts);
    assert_eq!(built_at(&after_second, &parts), cold, "the warm run built no index");
    // The cold run built what its guards, write filters and checks test:
    // every subregion of every partition, and the aliased iteration
    // partition's first-owner colors.
    let aliased = parts.iter().position(|p| !p.is_disjoint()).expect("an aliased partition");
    for (k, p) in parts.iter().enumerate() {
        let at = 2 * parts[..k].iter().map(|p| p.num_subregions()).sum::<usize>();
        for c in 0..p.num_subregions() {
            assert!(cold[at + 2 * c], "partition {k}: subregion {c} indexed by the cold run");
            if k == aliased {
                assert!(cold[at + 2 * c + 1], "first-owner color {c} indexed by the cold run");
            }
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
