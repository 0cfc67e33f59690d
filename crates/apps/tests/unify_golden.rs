//! Golden test for unification (Section 3.2, Algorithm 3) on the paper's
//! apps, hinted configurations included: the search counters, the symbols
//! eliminated, the solver nodes spent on consistency checks, the merge log
//! and the synthesized DPL program of each configuration.
//!
//! The counters are pinned inline; the merge logs and DPL programs live in
//! `tests/golden/unify.txt`. Regenerate the file after an intentional
//! change to unification:
//! `UPDATE_GOLDEN=1 cargo test -p partir-apps --test unify_golden`

use partir_apps::circuit::{Circuit, CircuitParams};
use partir_apps::miniaero::{MiniAero, MiniAeroParams};
use partir_apps::pennant::{Pennant, PennantConfig, PennantParams};
use partir_apps::spmv::{Spmv, SpmvParams};
use partir_apps::stencil::{Stencil, StencilParams};
use partir_core::pipeline::ParallelPlan;
use partir_dpl::func::FnTable;
use std::fmt::Write;

/// Candidates / accepted / structural / unsolvable / merged / check nodes.
type Counters = [u64; 6];

fn cases() -> Vec<(&'static str, ParallelPlan, FnTable)> {
    let spmv = Spmv::generate(&SpmvParams { rows: 500, halo: 2, ..SpmvParams::default() });
    let stencil = Stencil::generate(&StencilParams::default());
    let circuit = Circuit::generate(&CircuitParams::default());
    let aero = MiniAero::generate(&MiniAeroParams::default());
    let pennant = Pennant::generate(&PennantParams::default());
    let pennant_plan = |config| pennant.plan(config).0;
    vec![
        ("SpMV", spmv.auto_plan(), spmv.fns.clone()),
        ("Stencil", stencil.auto_plan(), stencil.fns.clone()),
        ("Circuit", circuit.auto_plan(), circuit.fns.clone()),
        ("Circuit+hint", circuit.hinted_plan(4).0, circuit.fns.clone()),
        ("MiniAero", aero.auto_plan(), aero.fns.clone()),
        ("PENNANT Auto", pennant_plan(PennantConfig::Auto), pennant.fns.clone()),
        ("PENNANT Hint1", pennant_plan(PennantConfig::Hint1), pennant.fns.clone()),
        ("PENNANT Hint2", pennant_plan(PennantConfig::Hint2), pennant.fns.clone()),
    ]
}

fn counters(plan: &ParallelPlan) -> Counters {
    let u = &plan.unified;
    [
        u.stats.candidates_considered,
        u.stats.merges_accepted,
        u.stats.rejected_structural,
        u.stats.rejected_unsolvable,
        u.merged as u64,
        u.check_stats.nodes_explored,
    ]
}

/// The merge log in commit order (chain collapses first, in symbol order)
/// and the DPL program.
fn render(name: &str, plan: &ParallelPlan, fns: &FnTable) -> String {
    let mut out = format!("== {name}\n");
    for m in &plan.unified.merge_log {
        let _ = writeln!(out, "{}: {}", m.stage, m.detail);
    }
    out.push_str(&plan.render_dpl(fns));
    out
}

#[test]
fn unification_matches_golden() {
    let want: [(&str, Counters); 8] = [
        ("SpMV", [0, 0, 0, 0, 3, 0]),
        ("Stencil", [2, 1, 1, 0, 4, 11]),
        ("Circuit", [2, 1, 1, 0, 11, 8]),
        ("Circuit+hint", [9, 4, 3, 2, 17, 14]),
        ("MiniAero", [2, 1, 1, 0, 12, 8]),
        ("PENNANT Auto", [4, 2, 2, 0, 20, 23]),
        ("PENNANT Hint1", [5, 3, 2, 0, 23, 29]),
        ("PENNANT Hint2", [14, 9, 5, 0, 29, 57]),
    ];
    let mut text = String::new();
    let mut got = Vec::new();
    for (name, plan, fns) in cases() {
        got.push((name, counters(&plan)));
        text.push_str(&render(name, &plan, &fns));
    }
    assert_eq!(got, want, "unification counters moved");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/unify.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    for (g, w) in text.lines().zip(golden.lines()) {
        assert_eq!(g, w, "merge log or DPL program drifted from {path}");
    }
    assert_eq!(text.lines().count(), golden.lines().count(), "line count drifted from {path}");
}
