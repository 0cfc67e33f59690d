//! Golden-file test for the exchange derivation: volume totals, per-pair
//! predicted volumes (whole pass and from loop 1), the interior/boundary
//! split with its dependencies, owned bytes per rank, legality facts and
//! placement cut bytes, for the five apps (plus the hinted and
//! fully-buffered variants that reach every reduction mode) at 8 colors on
//! 2, 3, 4 and 8 ranks under block, cost-driven and one scrambled explicit
//! placement. The golden was generated from the per-kind sets and inline
//! totals the derivation kept before the message table existed, so the
//! test pins that folding the table gives the same numbers.
//!
//! Regenerate after an intentional change to the derivation:
//! `UPDATE_GOLDEN=1 cargo test --test exchange_golden`

use partir::core::exchange::{block_assignment, prove_plan_legality, ExchangePlan};
use partir::core::placement::{place, CommGraph, PlacementConfig, PlacementPolicy};
use partir::obs::json::Json;
use partir::prelude::*;
use std::sync::Arc;

#[path = "common/golden_cases.rs"]
mod golden_cases;
use golden_cases::{cases, COLORS};

const RANKS: [usize; 4] = [2, 3, 4, 8];
/// The scrambled explicit placement: block over this color permutation.
const SCRAMBLE: [usize; COLORS] = [5, 2, 7, 0, 3, 6, 1, 4];

fn nums<T: Copy + Into<Json>>(v: &[T]) -> Json {
    Json::Arr(v.iter().map(|&x| x.into()).collect())
}

fn nested(v: &[Vec<usize>]) -> Json {
    Json::Arr(v.iter().map(|r| nums(r)).collect())
}

/// Non-zero `[src, dst, bytes, messages]` rows of a pair-volume matrix.
fn pair_rows(x: &ExchangePlan, first_loop: usize) -> Json {
    let vol = x.predicted_pair_volume_from(first_loop);
    let mut rows = Vec::new();
    for (src, row) in vol.iter().enumerate() {
        for (dst, v) in row.iter().enumerate() {
            if v.bytes() != 0 || v.messages != 0 {
                rows.push(nums(&[src as u64, dst as u64, v.bytes(), v.messages]));
            }
        }
    }
    Json::Arr(rows)
}

fn snapshot(
    x: &ExchangePlan,
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    schema: &Schema,
) -> Json {
    let s = x.stats();
    let loops = x.loops.iter().fold(Json::array(), |arr, lx| {
        arr.push(
            Json::object()
                .with("interior", nested(&lx.interior))
                .with("boundary", nested(&lx.boundary)),
        )
    });
    let owned: Vec<u64> = (0..x.n_ranks).map(|r| x.owned_field_bytes(schema, r)).collect();
    Json::object()
        .with("assignment", nums(x.owner_assignment()))
        .with(
            "stats",
            Json::object()
                .with("ghost_elements", s.ghost_elements)
                .with("ghost_fetch_bytes", s.ghost_fetch_bytes)
                .with("write_back_bytes", s.write_back_bytes)
                .with("partial_bytes", s.partial_bytes)
                .with("messages", s.messages)
                .with("replication_bytes", s.replication_bytes),
        )
        .with("pairs", pair_rows(x, 0))
        .with("pairs_from_1", pair_rows(x, 1))
        .with("loops", loops)
        .with("owned_field_bytes", nums(&owned))
        .with("facts", prove_plan_legality(x, plan, parts, schema).expect("plan is legal").facts)
}

#[test]
fn exchange_tables_match_golden() {
    // One case per line, so a drift shows up as a one-line diff.
    let mut lines = Vec::new();
    for (name, plan, parts, schema) in cases() {
        let graph = CommGraph::build(&plan, &parts, &schema).expect("color-granular graph");
        for ranks in RANKS {
            let block = block_assignment(COLORS, ranks);
            let scrambled: Vec<usize> = SCRAMBLE.iter().map(|&c| block[c]).collect();
            let policies = [
                ("block", PlacementPolicy::Block),
                ("cost", PlacementPolicy::CostDriven),
                ("scrambled", PlacementPolicy::Explicit(scrambled)),
            ];
            for (label, policy) in policies {
                let placed = place(&plan, &parts, &schema, ranks, &PlacementConfig { policy })
                    .expect("placement");
                let snap = snapshot(&placed.xplan, &plan, &parts, &schema)
                    .with("cut_bytes", graph.cut_bytes(placed.xplan.owner_assignment()));
                lines.push(format!("\"{name}/r{ranks}/{label}\":{snap}"));
            }
        }
    }
    let text = format!("{{\n{}\n}}\n", lines.join(",\n"));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exchange_small.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        text, want,
        "exchange tables drifted from tests/golden/exchange_small.json; \
         regenerate with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
