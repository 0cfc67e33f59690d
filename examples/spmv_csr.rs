//! CSR SpMV (the paper's Figure 10): data-dependent inner loops and the
//! generalized `IMAGE` operator of Section 4.
//!
//! The outer loop iterates rows; the inner loop's iteration space is the
//! CSR row range — a *set-valued* function of the row index. Inference
//! produces `IMAGE`-chain constraints and the solver derives the matrix and
//! vector partitions from an equal partition of the rows, exactly as in
//! Figure 10b.
//!
//! Run: `cargo run --release --example spmv_csr`

use partir::apps::spmv::{Spmv, SpmvParams};
use partir::prelude::*;

fn main() {
    let app = Spmv::generate(&SpmvParams { rows: 100_000, halo: 2, ..SpmvParams::default() });
    println!(
        "CSR matrix: {} rows, {} non-zeros ({} per row)",
        app.rows,
        app.nnz,
        app.nnz / app.rows
    );

    // Solve once through the builder; run on 8 worker threads.
    let n_tasks = 8;
    let plan = Partir::new(app.program.clone(), app.fns.clone(), app.store.schema().clone())
        .colors(n_tasks)
        .solve()
        .expect("SpMV auto-parallelizes");
    let run = Run::new().backend(Backend::Threads(8)).check_legality(false);
    println!("\nSynthesized DPL (compare with Figure 10b):");
    println!("{}", plan.render_dpl());

    let expected = app.run_sequential();

    let mut store = app.store.clone();
    let t0 = std::time::Instant::now();
    run.run(&plan, &mut store).expect("parallel SpMV");
    let elapsed = t0.elapsed();

    assert_eq!(store.f64s(app.yv), &expected[..]);
    println!(
        "parallel SpMV matches the sequential interpreter ✓ ({} tasks, {:.2?}, {:.1} Mnnz/s)",
        n_tasks,
        elapsed,
        app.nnz as f64 / elapsed.as_secs_f64() / 1e6
    );
}
