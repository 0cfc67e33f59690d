//! A store's index structure is hashed when it is first identified and
//! never again until an index column is written: `plan.store_hash`, the
//! trace instant emitted where the content hash really runs, is seen once
//! after a cold plan, a warm plan and three runs over clones of one store.
//!
//! One test, alone in its binary: the sink is process-wide, and any other
//! test hashing a store would be counted.

use partir::obs::{install_sink, uninstall_sink, EventKind, MemorySink};
use partir::prelude::*;
use std::sync::Arc;

mod common;
use common::{build, Cfg};

const COLORS: usize = 4;
const RANKS: usize = 2;

/// Content hashes run since the last call.
fn store_hashes(sink: &MemorySink) -> usize {
    sink.take()
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name == "plan.store_hash")
        .count()
}

#[test]
fn a_structure_is_hashed_once_and_again_only_after_an_index_write() {
    let built = build(&Cfg {
        n_a: 64,
        n_b: 32,
        colors: COLORS,
        read_ptr_chain: true,
        read_affine: true,
        reduce_via_ptr: true,
        reduce_via_affine: false,
        second_loop: false,
        ptr_seed: 11,
    });
    let store = built.store;
    let cache = PlanCache::default();
    let placement = PlacementConfig::default();
    // What a client of the server does: acquire the plan, then the
    // distributed artifacts for its store.
    let acquire = || {
        let plan = Partir::new(built.program.clone(), built.fns.clone(), store.schema().clone())
            .colors(COLORS)
            .cache(&cache)
            .solve()
            .expect("generated programs are parallelizable");
        plan.solved().dist_artifacts(&store, RANKS, &placement).expect("placement succeeds");
        plan
    };

    let sink = MemorySink::new();
    install_sink(sink.clone(), true);

    let cold = acquire();
    let warm = acquire();
    assert!(!cold.cache_hit() && warm.cache_hit());
    let threads = Run::new().backend(Backend::Threads(2));
    let ranks = Run::new().backend(Backend::Ranks(RANKS));
    // Each run on a fresh clone, and on one clone that lives through all
    // three: a run must leave its store identified.
    let mut reused = store.clone();
    for run in [&threads, &ranks, &threads] {
        run.run(&warm, &mut store.clone()).expect("a run on a fresh clone succeeds");
        run.run(&warm, &mut reused).expect("a run on a store that ran before succeeds");
    }
    assert_eq!(store_hashes(&sink), 1, "one structure, eight readers of its key, one hash");

    let parts = warm.evaluate(&store);
    let ptr = FieldId(0); // the generator's `A.ptr`
    let mut rewired = store.clone();
    rewired.ptrs_mut(ptr).swap(0, 1);
    assert_ne!(rewired.ptrs(ptr), store.ptrs(ptr), "the seed makes the two pointers differ");
    let rewired_parts = warm.evaluate(&rewired);
    assert!(!Arc::ptr_eq(&parts, &rewired_parts), "a pointer write is a memo miss");
    threads.run(&warm, &mut rewired).expect("the rewired store runs");
    assert_eq!(store_hashes(&sink), 1, "a pointer write costs exactly one more hash");

    let mut revalued = store.clone();
    revalued.f64s_mut(FieldId(1))[0] += 1.0;
    assert!(Arc::ptr_eq(&parts, &warm.evaluate(&revalued)), "an f64 write is a memo hit");
    assert!(Arc::ptr_eq(&parts, &warm.evaluate(&store)), "the original never saw either write");
    assert_eq!(store_hashes(&sink), 0, "an f64 write costs none");

    uninstall_sink();
}
