//! The color footprint is built once per call site and every rank-level
//! exchange plan is a fold of it: `place` under `CostDriven` builds one
//! footprint and folds it three times (identity for the graph, block,
//! candidate), under `Block` once and once, and a crash recovery builds
//! one footprint and folds it twice (identity for the evacuation graph,
//! the evacuated assignment). The legality proof runs once per exchange
//! plan and is recorded on it: the plan cache proves each plan it
//! memoizes, a warm run reuses the recorded proof, and a recovery proves
//! its re-fold. Counted by the `exchange.footprint`, `exchange.fold` and
//! `exchange.prove_legality` spans.
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
/// built, how many folds it made and how many plans it proved.
fn count(f: impl FnOnce()) -> (usize, usize, usize) {
    let sink = MemorySink::new();
    install_sink(sink.clone(), true);
    f();
    uninstall_sink();
    let events = sink.take();
    let starts = |name: &str| {
        events.iter().filter(|e| e.kind == EventKind::SpanStart && e.name == name).count()
    };
    (starts("exchange.footprint"), starts("exchange.fold"), starts("exchange.prove_legality"))
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
        assert_eq!(counted, (1, folds, 0), "{:?}: (footprints, folds, proofs)", config.policy);
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
    assert_eq!(counted, (1, 2, 1), "(footprints, folds, proofs) of one recovery");
}

#[test]
fn a_plan_is_proved_once_when_memoized_and_never_by_a_warm_run() {
    let _guard = sink_test_lock();
    let a = stencil();
    let solve = || {
        let schema = a.store.schema().clone();
        Partir::new(a.program.clone(), a.fns.clone(), schema).colors(4).solve().unwrap()
    };
    let run = Run::new().backend(Backend::Ranks(2));
    let proved = |plan: &Plan| {
        let outcome = run.run(plan, &mut a.store.clone()).expect("the stencil runs on 2 ranks");
        outcome.report.as_ranks().expect("rank report").plan_proved
    };
    let mut cold = 0;
    assert_eq!(count(|| cold = proved(&solve())).2, 1, "a cold run proves once");
    assert!(cold > 0, "the proof established facts");

    // The proof runs inside `dist_artifacts`, and the runs that follow
    // read it from the memoized exchange plan.
    let plan = solve();
    let artifacts = count(|| {
        let placed = plan.solved().dist_artifacts(&a.store, 2, &PlacementConfig::default());
        let facts = placed.unwrap().placement.xplan.proved_facts();
        assert_eq!(facts, Some(cold), "the memoized plan records the proof");
    });
    assert_eq!(artifacts.2, 1, "dist_artifacts proves the plan it memoizes");
    for _ in 0..2 {
        let mut warm = 0;
        assert_eq!(count(|| warm = proved(&plan)).2, 0, "a warm run proves nothing");
        assert_eq!(warm, cold, "a warm run reports the recorded facts");
    }
}
