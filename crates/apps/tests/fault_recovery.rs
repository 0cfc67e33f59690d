//! Acceptance test for the fault plane across all five applications:
//! executing each app's auto-parallelized plan under an injected fault
//! schedule must produce final stores bit-identical to the sequential
//! interpreter, and replaying the same `FaultPlan` seed must reproduce the
//! identical retry/recovery counts.

use partir_core::eval::ExtBindings;
use partir_core::pipeline::ParallelPlan;
use partir_dpl::func::FnTable;
use partir_dpl::region::{FieldData, FieldId, Store};
use partir_ir::ast::Loop;
use partir_ir::interp::run_program_seq;
use partir_runtime::dist::{execute_ranks, DistOptions, DistReport, Layout};
use partir_runtime::fault::{FaultPlan, InjectedPanic, MAX_TASK_RETRIES};

fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

struct Fixture {
    name: &'static str,
    program: Vec<Loop>,
    fns: FnTable,
    store: Store,
    plan: ParallelPlan,
    exts: ExtBindings,
    n_colors: usize,
}

fn fixtures() -> Vec<Fixture> {
    use partir_apps::circuit::{Circuit, CircuitParams};
    use partir_apps::miniaero::{MiniAero, MiniAeroParams};
    use partir_apps::pennant::{Pennant, PennantConfig, PennantParams};
    use partir_apps::spmv::{Spmv, SpmvParams};
    use partir_apps::stencil::{Stencil, StencilParams};

    let mut out = Vec::new();

    let app = Spmv::generate(&SpmvParams { rows: 300, halo: 2, ..SpmvParams::default() });
    out.push(Fixture {
        name: "spmv",
        plan: app.auto_plan(),
        program: app.program,
        fns: app.fns,
        store: app.store,
        exts: ExtBindings::new(),
        n_colors: 4,
    });

    let app = Stencil::generate(&StencilParams { nx: 20, ny: 15 });
    out.push(Fixture {
        name: "stencil",
        plan: app.auto_plan(),
        program: app.program,
        fns: app.fns,
        store: app.store,
        exts: ExtBindings::new(),
        n_colors: 4,
    });

    let app = Circuit::generate(&CircuitParams {
        clusters: 3,
        nodes_per_cluster: 40,
        wires_per_cluster: 120,
        cross_fraction: 0.2,
        cross_stride: None,
        seed: 7,
    });
    out.push(Fixture {
        name: "circuit",
        plan: app.auto_plan(),
        program: app.program,
        fns: app.fns,
        store: app.store,
        exts: ExtBindings::new(),
        n_colors: 3,
    });

    let app = MiniAero::generate(&MiniAeroParams { nx: 4, ny: 4, nz: 3 });
    out.push(Fixture {
        name: "miniaero",
        plan: app.auto_plan(),
        program: app.program,
        fns: app.fns,
        store: app.store,
        exts: ExtBindings::new(),
        n_colors: 4,
    });

    let app = Pennant::generate(&PennantParams { pieces: 3, zw: 4, zy: 4 });
    let (plan, exts) = app.plan(PennantConfig::Auto);
    out.push(Fixture {
        name: "pennant",
        plan,
        program: app.program,
        fns: app.fns,
        store: app.store,
        exts,
        n_colors: 3,
    });

    out
}

/// Executes the fixture on four threads under `opts` and asserts
/// bit-identity with the sequential interpreter on every f64 field.
fn run_against_seq(fx: &Fixture, opts: &DistOptions) -> (DistReport, Store) {
    let parts = fx.plan.evaluate(&fx.store, &fx.fns, fx.n_colors, &fx.exts);

    let mut seq = fx.store.clone();
    run_program_seq(&fx.program, &mut seq, &fx.fns);

    let mut par = fx.store.clone();
    let layout = Layout::InPlace { workers: 4 };
    let report = execute_ranks(&fx.program, &fx.plan, &parts, layout, &mut par, &fx.fns, opts)
        .unwrap_or_else(|e| panic!("{}: execution under faults failed: {e}", fx.name))
        .report;

    for f in 0..fx.store.schema().num_fields() {
        let fid = FieldId(f as u32);
        if let FieldData::F64(s) = seq.field_data(fid) {
            let FieldData::F64(p) = par.field_data(fid) else { panic!() };
            assert_eq!(s, p, "{}: field {fid:?} diverged under faults", fx.name);
        }
    }
    (report, par)
}

#[test]
fn all_apps_bit_identical_under_faults_with_deterministic_replay() {
    quiet_injected_panics();
    for fx in fixtures() {
        for seed in [1u64, 42] {
            let opts = DistOptions {
                fault: Some(FaultPlan {
                    task_failure_rate: 0.5,
                    poison_after: Some(4),
                    ..FaultPlan::quiescent(seed)
                }),
                ..DistOptions::default()
            };
            let (r1, s1) = run_against_seq(&fx, &opts);
            let (r2, s2) = run_against_seq(&fx, &opts);
            // Every count; the timings are the only fields that may differ.
            let counts = |r: &DistReport| {
                let mut r = *r;
                (r.pack_ns, r.exchange_wait_ns, r.unpack_ns, r.compute_ns, r.merge_ns) =
                    (0, 0, 0, 0, 0);
                r.to_json().to_string()
            };
            assert_eq!(
                counts(&r1),
                counts(&r2),
                "{} seed {seed}: replay must reproduce the exact report",
                fx.name
            );
            for f in 0..fx.store.schema().num_fields() {
                let fid = FieldId(f as u32);
                if let FieldData::F64(a) = s1.field_data(fid) {
                    let FieldData::F64(b) = s2.field_data(fid) else { panic!() };
                    assert_eq!(a, b, "{} seed {seed}: replay stores diverged", fx.name);
                }
            }
        }
    }
}

#[test]
fn all_apps_survive_total_failure_via_recovery() {
    for fx in fixtures() {
        let opts = DistOptions {
            fault: Some(FaultPlan { task_failure_rate: 1.0, ..FaultPlan::quiescent(9) }),
            ..DistOptions::default()
        };
        let (report, _) = run_against_seq(&fx, &opts);
        assert!(report.degraded(), "{}: full failure must degrade", fx.name);
        assert_eq!(
            report.tasks_recovered, report.tasks_run,
            "{}: every task re-runs sequentially",
            fx.name
        );
        // Every attempt dies: the first and each of the retries.
        let retries = u64::from(MAX_TASK_RETRIES);
        assert_eq!(report.task_retries, retries * report.tasks_run, "{}", fx.name);
        assert_eq!(report.faults_injected, (retries + 1) * report.tasks_run, "{}", fx.name);
    }
}
