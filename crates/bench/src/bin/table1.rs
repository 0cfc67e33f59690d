//! Table 1 reproduction: compilation-time breakdown of the
//! auto-parallelization pass for every benchmark program.
//!
//! The paper reports constraint inference, constraint solver, code rewrite,
//! and binary generation times. Binary generation is rustc's job here (not
//! part of the contribution), so this harness reports the three phases the
//! paper's pass owns plus the number of auto-parallelized loops — the rows
//! that measure the contribution's cost. On top of the paper's rows we
//! print the solver internals (backtracks, lemma applications, unification
//! merges) that the explanation traces record.
//!
//! Run: `cargo run --release -p partir-bench --bin table1`
//! JSON report: `... --bin table1 -- --json [--out PATH]`

use partir::Partir;
use partir_apps::{circuit, miniaero, pennant, spmv, stencil};
use partir_bench::{plan_json, BenchArgs};
use partir_core::eval::ExtBindings;
use partir_core::pipeline::{EvalStats, ParallelPlan, Timings};
use partir_core::solve::SolveStats;
use partir_dpl::func::FnTable;
use partir_dpl::region::Store;
use partir_obs::json::Json;
use std::time::Duration;

/// Launch width used for the partition-evaluation column (the evaluator's
/// memo behavior is independent of the width; this just has to be real).
const EVAL_COLORS: usize = 8;

struct Row {
    name: &'static str,
    timings: Timings,
    loops: usize,
    partitions: usize,
    solve: SolveStats,
    unify_merged: usize,
    unify_accepted: u64,
    interned: u64,
    dedup_hits: u64,
    eval: EvalStats,
    json: Json,
}

fn ms(d: Duration) -> String {
    format!("{:.2}ms", d.as_secs_f64() * 1e3)
}

fn row_of(
    name: &'static str,
    plan: ParallelPlan,
    loops: usize,
    fns: &FnTable,
    store: &Store,
) -> Row {
    let (_, eval) = plan.evaluate_with_stats(store, fns, EVAL_COLORS, &ExtBindings::new());
    let (interned, dedup_hits) = plan.system.arena.counters();
    let json = plan_json(name, &plan, loops, fns).with(
        "eval",
        Json::object()
            .with("cache_hits", eval.cache_hits)
            .with("partitions_built", eval.partitions_built),
    );
    Row {
        name,
        timings: plan.timings,
        loops,
        partitions: plan.num_partitions(),
        solve: plan.solution.stats,
        unify_merged: plan.unified.merged,
        unify_accepted: plan.unified.stats.merges_accepted,
        interned,
        dedup_hits,
        eval,
        json,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let mut rows = Vec::new();

    let app = spmv::Spmv::generate(&spmv::SpmvParams {
        rows: 100_000,
        halo: 2,
        ..spmv::SpmvParams::default()
    });
    rows.push(row_of("SpMV", app.auto_plan(), app.program.len(), &app.fns, &app.store));

    let app = stencil::Stencil::generate(&stencil::StencilParams { nx: 256, ny: 256 });
    rows.push(row_of("Stencil", app.auto_plan(), app.program.len(), &app.fns, &app.store));

    let app = circuit::Circuit::generate(&circuit::CircuitParams::default());
    rows.push(row_of("Circuit", app.auto_plan(), app.program.len(), &app.fns, &app.store));

    let app = miniaero::MiniAero::generate(&miniaero::MiniAeroParams::default());
    rows.push(row_of("MiniAero", app.auto_plan(), app.program.len(), &app.fns, &app.store));

    let app = pennant::Pennant::generate(&pennant::PennantParams::default());
    let plan = Partir::new(app.program.clone(), app.fns.clone(), app.store.schema().clone())
        .solve()
        .expect("pennant")
        .parallel_plan()
        .clone();
    rows.push(row_of("PENNANT", plan, app.program.len(), &app.fns, &app.store));

    let mut apps = Json::array();
    for r in &rows {
        apps = apps.push(r.json.clone());
    }
    let payload = Json::object().with("apps", apps);

    args.emit("table1", payload, || print_human(&rows));
}

fn print_human(rows: &[Row]) {
    println!("# Table 1: compilation time breakdown (auto-parallelization pass)");
    print!("{:<22}", "");
    for r in rows {
        print!("{:>12}", r.name);
    }
    println!();
    let col = |f: &dyn Fn(&Row) -> String| -> Vec<String> { rows.iter().map(f).collect() };
    let print_row = |label: &str, vals: Vec<String>| {
        print!("{label:<22}");
        for v in vals {
            print!("{v:>12}");
        }
        println!();
    };
    print_row("Constraint inference", col(&|r| ms(r.timings.inference)));
    print_row("Constraint solver", col(&|r| ms(r.timings.solver)));
    print_row("Code rewrite", col(&|r| ms(r.timings.rewrite)));
    print_row("Total", col(&|r| ms(r.timings.inference + r.timings.solver + r.timings.rewrite)));
    print_row("Num. parallel loops", col(&|r| r.loops.to_string()));
    print_row("Num. partitions", col(&|r| r.partitions.to_string()));
    print_row("Solver backtracks", col(&|r| r.solve.backtracks.to_string()));
    print_row("Lemma applications", col(&|r| r.solve.lemma_applications.to_string()));
    print_row("Unify merges", col(&|r| format!("{}/{}", r.unify_accepted, r.unify_merged)));
    print_row("Exprs interned", col(&|r| r.interned.to_string()));
    print_row("Intern dedup hits", col(&|r| r.dedup_hits.to_string()));
    print_row("Subst cache hits", col(&|r| r.solve.subst_cache_hits.to_string()));
    print_row("Lemma memo hits", col(&|r| r.solve.lemma_memo_hits.to_string()));
    print_row("Eval cache hits", col(&|r| r.eval.cache_hits.to_string()));
    println!();
    println!("(Binary generation is rustc's cost, not part of the pass; the paper's");
    println!(" corresponding rows measured the Regent compiler back-end.");
    println!(" Unify merges: accepted merge steps / symbols eliminated.)");
}
