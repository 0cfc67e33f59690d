//! Weak-scaling study on the distributed-memory simulator: the Stencil
//! benchmark's Manual vs Auto comparison (a miniature Figure 14b, through
//! the same `weak_scaling` driver the `fig14` bin uses).
//!
//! The auto-parallelized stencil uses eight affine image partitions (one
//! per neighbor); the hand-optimized version is a plan too
//! (`Stencil::manual_plan`) that reads each direction's four neighbors
//! through one halo partition, one transfer per direction. Same bytes,
//! fewer messages — a small, persistent gap, just like the paper reports.
//!
//! Run: `cargo run --release --example stencil_scaling`

use partir::apps::stencil::fig14b_series;
use partir::apps::support::render_series;

fn main() {
    let nodes = [1usize, 2, 4, 8, 16, 32, 64];
    let series = fig14b_series(256, 256, &nodes);
    println!("{}", render_series("Stencil weak scaling (points/s per node)", &series));
    for s in &series {
        println!(
            "{:<8} parallel efficiency at {} nodes: {:.1}%",
            s.label,
            nodes.last().unwrap(),
            s.efficiency() * 100.0
        );
    }
}
