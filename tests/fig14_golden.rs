//! Golden-file test for the Figure 14 series: every `throughput_per_node`
//! and simulator-summary number of all five subplots (every label, the
//! failure-priced SpMV line and the MiniAero no-relaxation ablation
//! included) at nodes 1–8 and small per-node sizes. The numbers are pure
//! functions of the generators, the solver's partitions and the analytic
//! simulator, and the JSON writer prints every `f64` round-trip exactly,
//! so text equality is bit equality. The golden was generated from the
//! five per-figure series functions before they shared one driver.
//!
//! Regenerate after an intentional model change:
//! `UPDATE_GOLDEN=1 cargo test --test fig14_golden`

use partir::apps::{circuit, miniaero, pennant, spmv, stencil};
use partir::obs::json::Json;

const NODES: [usize; 4] = [1, 2, 4, 8];

#[test]
fn fig14_series_match_golden() {
    let figures = [
        ("fig14a", spmv::fig14a_series(2_000, &NODES)),
        ("fig14b", stencil::fig14b_series(64, 64, &NODES)),
        ("fig14c", miniaero::fig14c_series(8, 8, 8, &NODES)),
        ("fig14d", circuit::fig14d_series(500, 2_000, &NODES)),
        ("fig14e", pennant::fig14e_series(8, 16, &NODES)),
    ];
    // One figure per line, so a drift shows up as a one-line diff.
    let mut text = String::from("{\n");
    for (i, (name, series)) in figures.iter().enumerate() {
        let lines = series.iter().fold(Json::array(), |arr, s| arr.push(s.to_json()));
        let comma = if i + 1 < figures.len() { "," } else { "" };
        text.push_str(&format!("\"{name}\":{lines}{comma}\n"));
    }
    text.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig14_small.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        text, want,
        "Figure 14 numbers drifted from tests/golden/fig14_small.json; \
         regenerate with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
