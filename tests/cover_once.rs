//! A partition computes its cover — `DISJ`, `COMP` and the first-owner
//! narrowing — once, and everything that needs the narrowing reads that
//! one copy: the footprint's in-place write sets, the runs on both
//! layouts, later calls. The cache is invisible to equality and to the
//! plan-cache key.

use partir::apps::circuit::{Circuit, CircuitParams};
use partir::core::exchange::{access_sets, block_assignment, derive_exchange_with};
use partir::core::fingerprint::solve_fingerprint;
use partir::prelude::*;
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
