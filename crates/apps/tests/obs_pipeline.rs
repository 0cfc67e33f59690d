//! Integration test: the auto-parallelization pipeline emits its phase
//! spans in order, the explanation trace pairs with the DPL program, and
//! the rank driver's span carries the numbers of the report it returns.

use partir_apps::circuit::{Circuit, CircuitParams};
use partir_apps::spmv::{Spmv, SpmvParams};
use partir_core::eval::ExtBindings;
use partir_core::exchange::derive_exchange;
use partir_obs::{install_sink, uninstall_sink, EventKind, MemorySink, Value};
use partir_runtime::dist::{execute_ranks, DistOptions, Layout};
use std::sync::Mutex;

// The sink is process-global; tests that install one serialize on this.
fn sink_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn spmv_pipeline_emits_phase_spans_in_order() {
    let _guard = sink_test_lock();
    let sink = MemorySink::new();
    install_sink(sink.clone(), true);

    let app = Spmv::generate(&SpmvParams { rows: 200, halo: 1, ..SpmvParams::default() });
    let plan = app.auto_plan();

    uninstall_sink();
    let events = sink.take();

    // Phase spans open and close in pipeline order, properly nested
    // (each closes before the next opens — the phases are sequential).
    let phase_starts: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart && e.name.starts_with("pipeline."))
        .map(|e| e.name)
        .collect();
    assert_eq!(
        phase_starts,
        vec![
            "pipeline.infer",
            "pipeline.relax",
            "pipeline.unify",
            "pipeline.solve",
            "pipeline.plan",
        ],
        "pipeline phases out of order"
    );
    let phase_ends: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name.starts_with("pipeline."))
        .map(|e| e.name)
        .collect();
    assert_eq!(phase_ends, phase_starts, "every phase span must close, in order");
    for (i, e) in events.iter().enumerate() {
        if e.kind == EventKind::SpanStart && e.name.starts_with("pipeline.") {
            let end = events[i..]
                .iter()
                .find(|f| f.kind == EventKind::SpanEnd && f.name == e.name)
                .unwrap_or_else(|| panic!("span {} never ends", e.name));
            assert!(end.field("elapsed_ns").is_some());
        }
    }

    // Inference reported the loop it processed; the solver reported its
    // search counters.
    assert!(
        events.iter().any(|e| e.name == "infer.loop"),
        "inference should emit one infer.loop per loop"
    );
    let solve_done =
        events.iter().rev().find(|e| e.name == "solve.done").expect("solver emits solve.done");
    for key in ["nodes", "candidates", "backtracks", "lemma_applications"] {
        assert!(solve_done.field(key).is_some(), "solve.done missing '{key}'");
    }

    // The explanation trace names a rule for every partition symbol and
    // pairs line-for-line with render_dpl's symbols.
    let expl = plan.render_explanation(&app.fns);
    assert!(expl.contains("via "), "explanation names candidate rules:\n{expl}");
    assert!(expl.contains("-- search:"), "explanation ends with search stats:\n{expl}");
    for i in 0..plan.system.num_syms() {
        assert!(expl.contains(&format!("P{i} = ")), "symbol P{i} missing from:\n{expl}");
    }
}

#[test]
fn pipeline_is_silent_without_a_sink() {
    // With no sink installed and no env override, planning emits nothing
    // and still succeeds (the zero-cost path).
    let _guard = sink_test_lock();
    let sink = MemorySink::new();
    install_sink(sink.clone(), false);
    let app = Spmv::generate(&SpmvParams { rows: 100, halo: 1, ..SpmvParams::default() });
    let _plan = app.auto_plan();
    uninstall_sink();
    assert!(sink.is_empty(), "disabled sink must see no events");
}

#[test]
fn dist_execute_span_agrees_with_the_dist_report() {
    let _guard = sink_test_lock();
    let app = Circuit::generate(&CircuitParams {
        clusters: 4,
        nodes_per_cluster: 20,
        wires_per_cluster: 60,
        cross_fraction: 0.2,
        cross_stride: None,
        seed: 3,
    });
    let plan = app.auto_plan();
    let parts = plan.evaluate(&app.store, &app.fns, 4, &ExtBindings::new());
    let xplan = derive_exchange(&plan, &parts, app.store.schema(), 2).expect("exchange derives");

    let sink = MemorySink::new();
    install_sink(sink.clone(), true);
    let mut store = app.store.clone();
    let layout = Layout::Sharded(&xplan);
    let run = execute_ranks(
        &app.program,
        &plan,
        &parts,
        layout,
        &mut store,
        &app.fns,
        &DistOptions::default(),
    );
    uninstall_sink();
    let report = run.expect("circuit runs on two ranks").report;
    assert!(report.messages > 0 && report.bytes_sent > 0, "two ranks exchange ghosts");

    let events = sink.take();
    let ends: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name == "dist.execute")
        .collect();
    assert_eq!(ends.len(), 1, "one run, one dist.execute span");
    assert_eq!(ends[0].field("messages"), Some(&Value::U64(report.messages)));
    assert_eq!(ends[0].field("bytes_sent"), Some(&Value::U64(report.bytes_sent)));
}
