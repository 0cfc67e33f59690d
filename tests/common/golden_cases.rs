//! The eight exchange configurations `exchange_golden.rs` pins and
//! `diff_exchange.rs` checks set by set: the five apps, plus the hinted
//! and fully-buffered variants that reach every reduction mode, evaluated
//! at [`COLORS`] colors.

use partir::apps::circuit::{Circuit, CircuitParams};
use partir::apps::miniaero::{MiniAero, MiniAeroParams};
use partir::apps::pennant::{Pennant, PennantConfig, PennantParams};
use partir::apps::spmv::{Spmv, SpmvParams};
use partir::apps::stencil::{Stencil, StencilParams};
use partir::prelude::*;
use std::sync::Arc;

pub const COLORS: usize = 8;

pub type Case = (&'static str, ParallelPlan, Vec<Arc<Partition>>, Schema);

fn case(
    name: &'static str,
    plan: ParallelPlan,
    store: &Store,
    fns: &FnTable,
    exts: &ExtBindings,
) -> Case {
    let parts = plan.evaluate(store, fns, COLORS, exts);
    (name, plan, parts, store.schema().clone())
}

pub fn cases() -> Vec<Case> {
    let none = ExtBindings::new();
    let spmv = Spmv::generate(&SpmvParams { rows: 2_000, halo: 2, ..SpmvParams::default() });
    let stencil = Stencil::generate(&StencilParams { nx: 64, ny: 64 });
    let aero = MiniAero::generate(&MiniAeroParams { nx: 8, ny: 8, nz: 8 });
    let circuit = Circuit::generate(&CircuitParams {
        clusters: COLORS,
        nodes_per_cluster: 500,
        wires_per_cluster: 2_000,
        cross_fraction: 0.2,
        cross_stride: None,
        seed: 20190817,
    });
    let pennant = Pennant::generate(&PennantParams { pieces: COLORS, zw: 8, zy: 16 });
    let aero_buffered = auto_parallelize(
        &aero.program,
        &aero.fns,
        aero.store.schema(),
        &Hints::new(),
        Options { relax: RelaxPolicy::Off, private_subs: false, ..Options::default() },
    )
    .expect("MiniAero auto-parallelizes without relaxation or private sub-partitions");
    let (circuit_hinted, _, circuit_exts) = circuit.hinted_plan(COLORS);
    let (pennant_auto, pennant_exts) = pennant.plan(PennantConfig::Auto);
    let (pennant_hint2, pennant_exts2) = pennant.plan(PennantConfig::Hint2);
    vec![
        case("spmv", spmv.auto_plan(), &spmv.store, &spmv.fns, &none),
        case("stencil", stencil.auto_plan(), &stencil.store, &stencil.fns, &none),
        case("miniaero", aero.auto_plan(), &aero.store, &aero.fns, &none),
        case("miniaero/buffered", aero_buffered, &aero.store, &aero.fns, &none),
        case("circuit", circuit.auto_plan(), &circuit.store, &circuit.fns, &none),
        case("circuit+hint", circuit_hinted, &circuit.store, &circuit.fns, &circuit_exts),
        case("pennant", pennant_auto, &pennant.store, &pennant.fns, &pennant_exts),
        case("pennant+hint2", pennant_hint2, &pennant.store, &pennant.fns, &pennant_exts2),
    ]
}
