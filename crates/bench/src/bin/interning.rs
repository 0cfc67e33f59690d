//! Interning microbenchmark: solve+unify+eval wall time on the five
//! benchmark apps, with the partition-evaluation step measured both ways —
//! through the hash-consed `ExprId` IR (shared arena, memoized evaluator)
//! and through the pre-interning tree semantics (one fresh evaluator per
//! partition expression, deep-copied results, no cross-expression
//! sharing). The per-app speedup quantifies what the interned IR saves at
//! runtime; the pipeline column tracks the compile-side cost across PRs
//! via `BENCH_partir.json`.
//!
//! Run: `cargo run --release -p partir-bench --bin interning`
//! JSON report: `... --bin interning -- --json [--out PATH]`

use partir::Partir;
use partir_apps::{circuit, miniaero, pennant, spmv, stencil};
use partir_bench::BenchArgs;
use partir_core::eval::{Evaluator, ExtBindings};
use partir_core::pipeline::{auto_parallelize, Hints, Options, ParallelPlan};
use partir_dpl::func::FnTable;
use partir_dpl::partition::Partition;
use partir_dpl::region::Store;
use partir_ir::ast::Loop;
use partir_obs::json::Json;
use std::time::Instant;

const EVAL_COLORS: usize = 8;
const SAMPLES: usize = 15;

struct Case {
    name: &'static str,
    program: Vec<Loop>,
    fns: FnTable,
    store: Store,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let a = spmv::Spmv::generate(&spmv::SpmvParams {
        rows: 100_000,
        halo: 2,
        ..spmv::SpmvParams::default()
    });
    out.push(Case { name: "SpMV", program: a.program, fns: a.fns, store: a.store });
    let a = stencil::Stencil::generate(&stencil::StencilParams { nx: 256, ny: 256 });
    out.push(Case { name: "Stencil", program: a.program, fns: a.fns, store: a.store });
    let a = circuit::Circuit::generate(&circuit::CircuitParams::default());
    out.push(Case { name: "Circuit", program: a.program, fns: a.fns, store: a.store });
    let a = miniaero::MiniAero::generate(&miniaero::MiniAeroParams::default());
    out.push(Case { name: "MiniAero", program: a.program, fns: a.fns, store: a.store });
    let a = pennant::Pennant::generate(&pennant::PennantParams::default());
    out.push(Case { name: "PENNANT", program: a.program, fns: a.fns, store: a.store });
    out
}

/// Median wall time of `f` over [`SAMPLES`] runs, in milliseconds.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Pre-interning evaluation semantics: every partition expression is
/// evaluated as a standalone tree by a fresh evaluator, and the result is
/// deep-copied (the old evaluator cloned `Partition`s out of its memo).
fn eval_tree_baseline(
    plan: &ParallelPlan,
    store: &Store,
    fns: &FnTable,
    exts: &ExtBindings,
) -> Vec<Partition> {
    plan.partition_exprs
        .iter()
        .map(|e| {
            let mut ev = Evaluator::new(store, fns, EVAL_COLORS, exts);
            Partition::clone(&ev.eval(e))
        })
        .collect()
}

fn main() {
    let args = BenchArgs::parse();
    let exts = ExtBindings::new();
    let mut rows = Json::array();
    let mut human = String::new();
    human.push_str(&format!(
        "# Interning microbench: solve+unify vs eval (median of {SAMPLES} runs)\n"
    ));
    human.push_str(&format!(
        "{:<10} {:>14} {:>16} {:>14} {:>10}\n",
        "app", "pipeline_ms", "eval_interned_ms", "eval_tree_ms", "speedup"
    ));

    for case in cases() {
        let schema = case.store.schema().clone();
        // The timed loop calls the core pipeline directly: the metric tracked
        // across PRs is solve+unify+rewrite time, not the builder's input
        // clones and validation.
        let pipeline_ms = median_ms(|| {
            auto_parallelize(&case.program, &case.fns, &schema, &Hints::new(), Options::default())
                .unwrap()
        });
        let plan = Partir::new(case.program.clone(), case.fns.clone(), schema)
            .solve()
            .unwrap()
            .parallel_plan()
            .clone();
        let eval_interned_ms =
            median_ms(|| plan.evaluate(&case.store, &case.fns, EVAL_COLORS, &exts));
        let eval_tree_ms = median_ms(|| eval_tree_baseline(&plan, &case.store, &case.fns, &exts));
        let speedup = if eval_interned_ms > 0.0 { eval_tree_ms / eval_interned_ms } else { 0.0 };
        let (_, eval_stats) = plan.evaluate_with_stats(&case.store, &case.fns, EVAL_COLORS, &exts);
        let (interned, dedup_hits) = plan.system.arena.counters();

        human.push_str(&format!(
            "{:<10} {:>14.3} {:>16.3} {:>14.3} {:>9.2}x\n",
            case.name, pipeline_ms, eval_interned_ms, eval_tree_ms, speedup
        ));
        rows = rows.push(
            Json::object()
                .with("name", case.name)
                .with("pipeline_ms", pipeline_ms)
                .with("eval_interned_ms", eval_interned_ms)
                .with("eval_tree_ms", eval_tree_ms)
                .with("eval_speedup", speedup)
                .with("eval_cache_hits", eval_stats.cache_hits)
                .with("partitions_built", eval_stats.partitions_built)
                .with("exprs_interned", interned)
                .with("dedup_hits", dedup_hits)
                .with("subst_cache_hits", plan.solution.stats.subst_cache_hits)
                .with("lemma_memo_hits", plan.solution.stats.lemma_memo_hits),
        );
    }

    let payload =
        Json::object().with("samples", SAMPLES).with("eval_colors", EVAL_COLORS).with("apps", rows);
    args.emit("interning", payload, || print!("{human}"));
}
