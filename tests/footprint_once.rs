//! The color footprint is built once per call site and every rank-level
//! exchange plan is a fold of it: `place` under `CostDriven` builds one
//! footprint and folds it three times (identity for the graph, block,
//! candidate), under `Block` once and once, and a crash recovery builds
//! one footprint and folds it twice (identity for the evacuation graph,
//! the evacuated assignment). Counted by the `exchange.footprint` and
//! `exchange.fold` spans.
//!
//! The sink is process-wide, so the tests serialize on a lock and this
//! binary holds no other test.

use partir::apps::stencil::{Stencil, StencilParams};
use partir::core::placement::place;
use partir::obs::{install_sink, uninstall_sink, EventKind, MemorySink};
use partir::prelude::*;
use std::sync::Mutex;

fn sink_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with a tracing sink installed; returns how many footprints it
/// built and how many folds it made.
fn count(f: impl FnOnce()) -> (usize, usize) {
    let sink = MemorySink::new();
    install_sink(sink.clone(), true, false);
    f();
    uninstall_sink();
    let events = sink.take();
    let starts = |name: &str| {
        events.iter().filter(|e| e.kind == EventKind::SpanStart && e.name == name).count()
    };
    (starts("exchange.footprint"), starts("exchange.fold"))
}

fn stencil() -> Stencil {
    Stencil::generate(&StencilParams { nx: 32, ny: 24 })
}

#[test]
fn placement_builds_one_footprint_and_folds_it() {
    let _guard = sink_test_lock();
    let a = stencil();
    let plan = a.auto_plan();
    let parts = plan.evaluate(&a.store, &a.fns, 8, &ExtBindings::new());
    let schema = a.store.schema();
    for (config, folds) in [(PlacementConfig::cost_driven(), 3), (PlacementConfig::default(), 1)] {
        let counted = count(|| {
            place(&plan, &parts, schema, 4, &config).expect("placement succeeds");
        });
        assert_eq!(counted, (1, folds), "{:?}: (footprints, folds)", config.policy);
    }
}

#[test]
fn a_recovery_builds_one_footprint() {
    let _guard = sink_test_lock();
    let a = stencil();
    let schema = a.store.schema().clone();
    let plan = Partir::new(a.program.clone(), a.fns, schema).colors(4).solve().unwrap();
    // The run's own placement is a memo hit, so only recovery derives.
    plan.solved().dist_artifacts(&a.store, 4, &PlacementConfig::default()).unwrap();
    let epoch = a.program.len() as u64 / 2;
    let run = Run::new()
        .backend(Backend::Ranks(4))
        .fault(FaultPlan {
            crash: Some(RankCrash { rank: 2, epoch, silent: false }),
            ..FaultPlan::quiescent(7)
        })
        .checkpoint(CheckpointPolicy::every(1));
    let mut store = a.store.clone();
    let mut recoveries = 0;
    let counted = count(|| {
        let outcome = run.run(&plan, &mut store).expect("the survivors finish the run");
        recoveries = outcome.report.as_ranks().expect("rank report").recoveries;
    });
    assert_eq!(recoveries, 1);
    assert_eq!(counted, (1, 2), "(footprints, folds) of one recovery");
}
