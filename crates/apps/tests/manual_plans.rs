//! The Manual strategies of Figure 14 are plans, so they are checked, not
//! trusted: each app's `manual_plan` at 2 and 4 colors must pass the
//! plan-legality proof, run on two threads with per-access legality checks,
//! and run on one rank per color under both per-element and plan legality
//! with strict predicted-vs-measured volume — every run bit-identical to the
//! sequential interpreter. A hand-written plan that lies (Circuit's voltage
//! reads pointed at the owned nodes instead of the ghosted access
//! partition) must be rejected with a typed error, never a panic or a
//! silently wrong store.
//!
//! Run: `cargo test --release -p partir-apps --test manual_plans`

use partir_apps::circuit::{Circuit, CircuitParams};
use partir_apps::miniaero::{MiniAero, MiniAeroParams};
use partir_apps::pennant::{Pennant, PennantParams};
use partir_apps::stencil::{Stencil, StencilParams};
use partir_core::eval::ExtBindings;
use partir_core::exchange::{derive_exchange, prove_plan_legality};
use partir_core::pipeline::{ParallelPlan, PartId};
use partir_dpl::func::FnTable;
use partir_dpl::region::{FieldData, FieldId, Store};
use partir_ir::ast::Loop;
use partir_ir::interp::run_program_seq;
use partir_runtime::dist::{execute_ranks, DistError, DistOptions, Layout, LegalityMode};

/// One app instance with its Manual plan at `n` colors.
struct Case {
    name: &'static str,
    n: usize,
    program: Vec<Loop>,
    fns: FnTable,
    store: Store,
    plan: ParallelPlan,
    exts: ExtBindings,
}

fn case(name: &'static str, n: usize) -> Case {
    macro_rules! case {
        ($app:expr) => {{
            let app = $app;
            let (plan, exts) = app.manual_plan(n);
            Case { name, n, program: app.program, fns: app.fns, store: app.store, plan, exts }
        }};
    }
    let n64 = n as u64;
    match name {
        "stencil" => case!(Stencil::generate(&StencilParams { nx: 12, ny: 5 * n64 })),
        "miniaero" => case!(MiniAero::generate(&MiniAeroParams { nx: 4, ny: 3, nz: 2 * n64 })),
        "circuit" => case!(Circuit::generate(&CircuitParams {
            clusters: n,
            nodes_per_cluster: 100,
            wires_per_cluster: 300,
            cross_fraction: 0.2,
            cross_stride: None,
            seed: 11 + n64,
        })),
        "pennant" => case!(Pennant::generate(&PennantParams { pieces: n, zw: 3, zy: 4 })),
        other => unreachable!("no app {other}"),
    }
}

const APPS: [&str; 4] = ["stencil", "miniaero", "circuit", "pennant"];

/// Every f64 field of `got` equals the sequential interpreter's.
fn assert_bit_identical(c: &Case, seq: &Store, got: &Store, how: &str) {
    for f in 0..seq.schema().num_fields() {
        let f = FieldId(f as u32);
        if let (FieldData::F64(want), FieldData::F64(have)) = (seq.field_data(f), got.field_data(f))
        {
            assert_eq!(want, have, "{} at {} colors, {how}: field {f:?} diverged", c.name, c.n);
        }
    }
}

#[test]
fn manual_plans_are_legal_and_bit_identical_on_both_backends() {
    for name in APPS {
        for n in [2, 4] {
            let c = case(name, n);
            let schema = c.store.schema();
            let parts = c.plan.evaluate(&c.store, &c.fns, n, &c.exts);
            let xplan = derive_exchange(&c.plan, &parts, schema, n).expect("exchange derives");
            let proof = prove_plan_legality(&xplan, &c.plan, &parts, schema);
            assert!(proof.is_ok_and(|p| p.facts > 0), "{name} at {n}: not provably legal");

            let mut seq = c.store.clone();
            run_program_seq(&c.program, &mut seq, &c.fns);

            let runs = [
                (Layout::InPlace { workers: 2 }, LegalityMode::Element),
                (Layout::Sharded(&xplan), LegalityMode::Element),
                (Layout::Sharded(&xplan), LegalityMode::Plan),
            ];
            for (layout, legality) in runs {
                let mut out = c.store.clone();
                let opts = DistOptions { legality, strict_volume: true, ..DistOptions::default() };
                execute_ranks(&c.program, &c.plan, &parts, layout, &mut out, &c.fns, &opts)
                    .unwrap_or_else(|e| panic!("{name} at {n} on {layout:?}, {legality:?}: {e}"));
                assert_bit_identical(&c, &seq, &out, &format!("{layout:?}, {legality:?}"));
            }
        }
    }
}

/// Circuit's Manual plan with its voltage reads pointed at the owned nodes:
/// wires read the voltage of shared nodes other clusters own, so every
/// executor must refuse the plan with a legality error.
#[test]
fn a_lying_manual_plan_is_rejected_with_a_typed_error() {
    let mut c = case("circuit", 4);
    let schema = c.store.schema();
    let rn = schema.region_by_name("rn").unwrap();
    // calc_new_currents' node reads: `access` (partition 1) becomes `owned` (2).
    for a in c.plan.loops[0].accesses.iter_mut().filter(|a| a.region == rn) {
        a.part = PartId(2);
    }
    let parts = c.plan.evaluate(&c.store, &c.fns, c.n, &c.exts);
    let xplan = derive_exchange(&c.plan, &parts, schema, c.n).expect("exchange derives");
    let proved = prove_plan_legality(&xplan, &c.plan, &parts, schema).is_ok();

    let mut threads = c.store.clone();
    let opts = DistOptions { legality: LegalityMode::Element, ..DistOptions::default() };
    let threads_run = Layout::InPlace { workers: 2 };
    match execute_ranks(&c.program, &c.plan, &parts, threads_run, &mut threads, &c.fns, &opts) {
        Err(DistError::Legality(v)) => assert_eq!(v.rank, None, "one rank in place"),
        other => panic!("Threads(2) must report a legality violation, got {other:?}"),
    }
    for legality in [LegalityMode::Element, LegalityMode::Plan] {
        let mut ranks = c.store.clone();
        let opts = DistOptions { legality, strict_volume: true, ..DistOptions::default() };
        let layout = Layout::Sharded(&xplan);
        match execute_ranks(&c.program, &c.plan, &parts, layout, &mut ranks, &c.fns, &opts) {
            Err(DistError::Legality(_)) => {}
            Err(DistError::PlanIllegal(_)) => assert!(!proved),
            other => panic!("Ranks(4), {legality:?} must report a legality error, got {other:?}"),
        }
    }
}
