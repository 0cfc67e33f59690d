//! Figure 14c reproduction: MiniAero weak scaling, Manual vs Auto.
//!
//! Paper: 2.1e6 cells/node; both versions reach ~98% parallel efficiency at
//! 256 nodes with Auto ~2% slower on average (sequential mesh numbering
//! fragments the auto version's face subregions). The auto version's flux
//! reductions are relaxed (Section 5.1) — no reduction buffers at all.
//!
//! Run: `cargo run --release -p partir-bench --bin fig14c`
//! JSON report: `... --bin fig14c -- --json [--out PATH]`
//! Ablation: `MINIAERO_NO_RELAX=1 cargo run ... --bin fig14c` disables the
//! relaxation to show the buffered fallback.

use partir::Partir;
use partir_apps::miniaero::{fig14c_series, MiniAero, MiniAeroParams};
use partir_apps::support::{
    render_series, sim_spec_from_plan, LoopWeights, ScalePoint, ScaleSeries, SimSummary,
    FIG14_NODES,
};
use partir_bench::{series_json, BenchArgs};
use partir_core::optimize::RelaxPolicy;
use partir_obs::json::Json;
use partir_runtime::sim::{simulate, MachineModel};

fn main() {
    let args = BenchArgs::parse();
    let nx: u64 = std::env::var("MINIAERO_NX").ok().and_then(|v| v.parse().ok()).unwrap_or(32);
    let ny: u64 = std::env::var("MINIAERO_NY").ok().and_then(|v| v.parse().ok()).unwrap_or(32);
    let nz_per_node: u64 =
        std::env::var("MINIAERO_NZ_PER_NODE").ok().and_then(|v| v.parse().ok()).unwrap_or(32);

    let mut series = fig14c_series(nx, ny, nz_per_node, &FIG14_NODES);

    // Ablation: relaxation off (buffered reductions).
    if std::env::var("MINIAERO_NO_RELAX").is_ok() {
        let mut points = Vec::new();
        for &n in FIG14_NODES.iter() {
            let app = MiniAero::generate(&MiniAeroParams { nx, ny, nz: nz_per_node * n as u64 });
            let plan =
                Partir::new(app.program.clone(), app.fns.clone(), app.store.schema().clone())
                    .relax(RelaxPolicy::Off)
                    .colors(n)
                    .solve()
                    .expect("miniaero no-relax");
            let parts = plan.evaluate(&app.store);
            let weights = LoopWeights(vec![12.0, 4.0, 4.0]);
            let spec = sim_spec_from_plan(
                &app.program,
                plan.parallel_plan(),
                &parts,
                &app.store,
                &weights,
            );
            let machine = MachineModel::gpu_cluster(n);
            let res = simulate(&spec, &machine).expect("sim spec is well-formed");
            points.push(ScalePoint {
                nodes: n,
                throughput_per_node: res.throughput_per_node(app.n_cells as f64, n),
                sim: SimSummary::from_result(&res, &machine),
            });
        }
        series.push(ScaleSeries { label: "Auto(no-relax)".into(), points });
    }

    let payload = Json::object()
        .with("nx", nx)
        .with("ny", ny)
        .with("nz_per_node", nz_per_node)
        .with("series", series_json(&series));
    args.emit("fig14c", payload, || {
        println!(
            "{}",
            render_series(
                &format!(
                    "Figure 14c: MiniAero weak scaling (cells/s per node; {}x{}x{} cells/node)",
                    nx, ny, nz_per_node
                ),
                &series
            )
        );
        for s in &series {
            println!(
                "{:<16} efficiency at {} nodes: {:.1}%",
                s.label,
                s.points.last().unwrap().nodes,
                s.efficiency() * 100.0
            );
        }
        println!("(paper: both 98%, Auto ~2% slower on average; relaxation eliminates buffers)");
    });
}
