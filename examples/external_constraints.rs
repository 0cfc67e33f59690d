//! External constraints (Section 3.3 / Figure 4 / Example 6).
//!
//! A manually parallelized component (here: the circuit generator's
//! cluster partitioning) exposes its partitions to the auto-parallelizer
//! through *interface constraints*. Unification discharges the inferred
//! constraints against those invariants, so the auto-parallelized loops
//! reuse the existing partitions instead of inventing new ones — and the
//! private-node partition serves as a private sub-partition that shrinks
//! reduction buffers (Theorem 5.1's job, done by the user here).
//!
//! Run: `cargo run --release --example external_constraints`

use partir::apps::circuit::{Circuit, CircuitParams};
use partir::prelude::*;

fn main() {
    let clusters = 8;
    let app = Circuit::generate(&CircuitParams {
        clusters,
        nodes_per_cluster: 2_000,
        wires_per_cluster: 8_000,
        cross_fraction: 0.2,
        cross_stride: None,
        seed: 42,
    });
    println!(
        "circuit: {} nodes ({} shared), {} wires, {} clusters",
        app.n_nodes, app.n_shared, app.n_wires, clusters
    );

    // The user constraint of Section 6.4: hints plus concrete bindings for
    // the generator's cluster partitions.
    let (hints, exts) = app.hint_setup(clusters);

    // Execute both configurations and compare against the sequential
    // interpreter. The builder takes hints and external bindings directly.
    let mut seq = app.store.clone();
    run_program_seq(&app.program, &mut seq, &app.fns);

    for (label, hints, bindings) in
        [("Auto", Hints::new(), ExtBindings::new()), ("Auto+Hint", hints, exts)]
    {
        let plan = Partir::new(app.program.clone(), app.fns.clone(), app.store.schema().clone())
            .hints(hints)
            .externals(bindings)
            .colors(clusters)
            .solve()
            .expect("circuit auto-parallelizes");
        println!("\n{label} DPL:");
        println!("{}", plan.render_dpl());

        let mut par = app.store.clone();
        let run = Run::new().backend(Backend::Threads(8));
        let outcome = run.run(&plan, &mut par).expect("parallel circuit");
        let exec = outcome.report.as_threads().expect("threads backend report");
        assert_eq!(seq.f64s(app.voltage), par.f64s(app.voltage), "{label} diverged");
        println!(
            "{label:<10} ✓ correct; reduction buffers: {} bytes, guard hits: {}",
            exec.buffer_bytes, exec.guard_hits
        );
    }
    println!("\nThe hinted run keeps reductions buffered over the tiny shared remainder");
    println!("(private sub-partition from the user constraint); the unhinted run was");
    println!("relaxed to guarded reductions over equal partitions.");
}
