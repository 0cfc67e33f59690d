//! Figure 14 reproduction: weak scaling of the five applications on 1–256
//! simulated nodes, one subplot per argument.
//!
//! * `a` — SpMV, Auto (paper: 0.4e9 non-zeros/node, 99% parallel
//!   efficiency at 256 nodes), plus the same line priced under a
//!   node-failure model;
//! * `b` — Stencil, Manual vs Auto (paper: 0.9e9 points/node; Manual 98%,
//!   Auto 93%, Auto ~3% slower on average because the manual version reads
//!   each direction's neighbours through one halo partition, one transfer
//!   per direction, where Auto's eight image partitions need two);
//! * `c` — MiniAero, Manual vs Auto (paper: 2.1e6 cells/node; both ~98%,
//!   Auto ~2% slower: sequential mesh numbering fragments its face
//!   subregions), plus the ablation with the Section 5.1 relaxation off,
//!   which falls back to buffered flux reductions;
//! * `d` — Circuit, Manual vs Auto+Hint vs Auto (paper: 1e5 wires/node;
//!   without the user constraint the generator's shared nodes, all in the
//!   first 1% of the node region, make one task of the `equal` partition a
//!   communication bottleneck beyond 8 nodes; with it Auto+Hint stays
//!   within 5% of Manual at 256 and beats it up to 64 thanks to tight
//!   private sub-partitions);
//! * `e` — PENNANT, Manual vs Auto+Hint2 vs Auto+Hint1 vs Auto (paper:
//!   ~1.8e6 zones/node; Auto keeps up only to 4 nodes, Hint1 matches
//!   Manual within 6% to 32 nodes and then pays runtime-metadata cost for
//!   its solver-derived partitions, Hint2 shows no noticeable difference);
//! * `all` — the five in order.
//!
//! Every line, Manual included, is a plan over the app's program and its
//! evaluated partitions; the Manual ones are each app's `manual_plan`.
//! The simulator reproduces the curve shapes at the scaled-down per-node
//! sizes in [`FIGURES`] (EXPERIMENTS.md documents them next to the
//! paper's).
//!
//! Run: `cargo run --release -p partir-bench --bin fig14 -- all`
//! JSON report: `... --bin fig14 -- c --json [--out PATH]` — one `fig14`
//! experiment whose `figures` object holds the chosen subplots.

use partir_apps::support::{render_series, ScaleSeries, FIG14_NODES};
use partir_apps::{circuit, miniaero, pennant, spmv, stencil};
use partir_bench::BenchArgs;
use partir_obs::json::Json;

/// One subplot: its letter, what it plots, its per-node sizes (named as
/// the report carries them, in the order `series` takes them), its lines,
/// and the parallel efficiencies the paper reports for it.
struct Figure {
    letter: &'static str,
    title: &'static str,
    sizes: &'static [(&'static str, u64)],
    series: fn(&[u64], &[usize]) -> Vec<ScaleSeries>,
    paper: &'static str,
}

const FIGURES: [Figure; 5] = [
    Figure {
        letter: "a",
        title: "SpMV weak scaling (non-zeros/s per node)",
        sizes: &[("rows_per_node", 20_000)],
        series: |s, nodes| spmv::fig14a_series(s[0], nodes),
        paper: "Auto 99%",
    },
    Figure {
        letter: "b",
        title: "Stencil weak scaling (points/s per node)",
        sizes: &[("nx", 256), ("rows_per_node", 256)],
        series: |s, nodes| stencil::fig14b_series(s[0], s[1], nodes),
        paper: "Manual 98%, Auto 93%, Auto ~3% slower on average",
    },
    Figure {
        letter: "c",
        title: "MiniAero weak scaling (cells/s per node)",
        sizes: &[("nx", 32), ("ny", 32), ("nz_per_node", 32)],
        series: |s, nodes| miniaero::fig14c_series(s[0], s[1], s[2], nodes),
        paper: "both 98%, Auto ~2% slower on average; relaxation eliminates buffers",
    },
    Figure {
        letter: "d",
        title: "Circuit weak scaling (wires/s per node)",
        sizes: &[("nodes_per_cluster", 4_000), ("wires_per_cluster", 16_000)],
        series: |s, nodes| circuit::fig14d_series(s[0], s[1], nodes),
        paper: "Auto matches <=8 nodes then bottlenecks on the shared-node subregion; \
                Auto+Hint within 5% of Manual at 256, ahead of Manual <=64 nodes",
    },
    Figure {
        letter: "e",
        title: "PENNANT weak scaling (zones/s per node)",
        sizes: &[("zw", 24), ("zy", 96)],
        series: |s, nodes| pennant::fig14e_series(s[0], s[1], nodes),
        paper: "Auto drops after 4 nodes; Hint1 within 6% to 32 then degrades; \
                Hint2 indistinguishable from Manual",
    },
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let which = argv.next().unwrap_or_default();
    let chosen: Vec<&Figure> =
        FIGURES.iter().filter(|f| which == "all" || which == f.letter).collect();
    let args = match BenchArgs::parse_from(argv) {
        Ok(args) if !chosen.is_empty() => args,
        other => {
            let usage = "usage: fig14 <a|b|c|d|e|all> [--json] [--out PATH]";
            eprintln!("{}", other.err().unwrap_or_else(|| usage.into()));
            std::process::exit(2);
        }
    };
    let last = FIG14_NODES[FIG14_NODES.len() - 1];
    let mut figures = Json::object();
    let mut text = String::new();
    for f in chosen {
        let sizes: Vec<u64> = f.sizes.iter().map(|&(_, v)| v).collect();
        let series = (f.series)(&sizes, &FIG14_NODES);
        let per_node = f.sizes.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>();
        let title = format!("Figure 14{}: {}; {}", f.letter, f.title, per_node.join(" "));
        text += &render_series(&title, &series);
        for s in &series {
            let pct = s.efficiency() * 100.0;
            text += &format!("{:<16} efficiency at {last} nodes: {pct:.1}%\n", s.label);
        }
        text += &format!("(paper: {})\n\n", f.paper);
        let payload = f.sizes.iter().fold(Json::object(), |j, &(k, v)| j.with(k, v));
        let lines = series.iter().fold(Json::array(), |arr, s| arr.push(s.to_json()));
        figures = figures.with(format!("fig14{}", f.letter), payload.with("series", lines));
    }
    args.emit("fig14", Json::object().with("figures", figures), || print!("{text}"));
}
