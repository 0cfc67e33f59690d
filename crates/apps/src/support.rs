//! Shared plumbing for the benchmark applications: the weak-scaling driver
//! behind every Figure 14 subplot, its series, and their rendering.

use crate::sim::{simulate, MachineModel, NodeBreakdown, SimResult};
use partir_core::pipeline::ParallelPlan;
use partir_dpl::partition::Partition;
use partir_dpl::region::Store;
use partir_ir::ast::Loop;
use std::sync::Arc;

/// The node counts of the Figure 14 x-axes.
pub const FIG14_NODES: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Compact simulator summary carried with each scale point into JSON
/// reports: scalar totals plus the bottleneck node's cost split, so a
/// report reader can tell *why* a curve bends (compute vs bytes vs
/// latency vs fragmentation vs runtime metadata) without rerunning.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimSummary {
    pub iteration_time_s: f64,
    /// Failure-aware expected iteration time (equals `iteration_time_s`
    /// when the machine model has no failure model).
    pub expected_iteration_time_s: f64,
    pub total_bytes: f64,
    pub total_work: f64,
    /// Node whose time equals the iteration time.
    pub bottleneck_node: usize,
    pub bottleneck_compute_s: f64,
    pub bottleneck_comm_s: f64,
    pub bottleneck_latency_s: f64,
    pub bottleneck_run_overhead_s: f64,
    pub bottleneck_meta_s: f64,
}

impl SimSummary {
    pub fn from_result(res: &SimResult, m: &MachineModel) -> Self {
        let (node, b) = res
            .per_node
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.time(m).total_cmp(&b.time(m)))
            .map(|(i, b)| (i, *b))
            .unwrap_or((0, NodeBreakdown::default()));
        SimSummary {
            iteration_time_s: res.iteration_time,
            expected_iteration_time_s: res.effective_time(),
            total_bytes: res.total_bytes,
            total_work: res.total_work,
            bottleneck_node: node,
            bottleneck_compute_s: b.compute,
            bottleneck_comm_s: b.comm_bytes / m.bandwidth,
            bottleneck_latency_s: b.messages as f64 * m.latency,
            bottleneck_run_overhead_s: b.runs as f64 * m.run_overhead,
            bottleneck_meta_s: b.meta_units * m.meta_overhead,
        }
    }

    pub fn to_json(&self) -> partir_obs::json::Json {
        partir_obs::json::Json::object()
            .with("iteration_time_s", self.iteration_time_s)
            .with("expected_iteration_time_s", self.expected_iteration_time_s)
            .with("total_bytes", self.total_bytes)
            .with("total_work", self.total_work)
            .with("bottleneck_node", self.bottleneck_node)
            .with("bottleneck_compute_s", self.bottleneck_compute_s)
            .with("bottleneck_comm_s", self.bottleneck_comm_s)
            .with("bottleneck_latency_s", self.bottleneck_latency_s)
            .with("bottleneck_run_overhead_s", self.bottleneck_run_overhead_s)
            .with("bottleneck_meta_s", self.bottleneck_meta_s)
    }
}

/// One point of a weak-scaling series.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    pub nodes: usize,
    /// App items (non-zeros, points, cells, wires, zones) per second per
    /// node.
    pub throughput_per_node: f64,
    /// Simulator cost breakdown behind this point.
    pub sim: SimSummary,
}

/// A named weak-scaling series (one line of a Figure 14 plot).
#[derive(Clone, Debug)]
pub struct ScaleSeries {
    pub label: String,
    pub points: Vec<ScalePoint>,
}

impl ScaleSeries {
    /// Parallel efficiency at the largest node count relative to 1 node.
    pub fn efficiency(&self) -> f64 {
        let first = self.points.first().expect("non-empty series");
        let last = self.points.last().expect("non-empty series");
        last.throughput_per_node / first.throughput_per_node
    }

    pub fn at(&self, nodes: usize) -> Option<f64> {
        self.points.iter().find(|p| p.nodes == nodes).map(|p| p.throughput_per_node)
    }

    /// JSON form for machine-readable reports (one Figure-14 line).
    pub fn to_json(&self) -> partir_obs::json::Json {
        use partir_obs::json::Json;
        let mut points = Json::array();
        for p in &self.points {
            points = points.push(
                Json::object()
                    .with("nodes", p.nodes)
                    .with("throughput_per_node", p.throughput_per_node)
                    .with("sim", p.sim.to_json()),
            );
        }
        Json::object()
            .with("label", self.label.as_str())
            .with("efficiency", self.efficiency())
            .with("points", points)
    }
}

/// One plotted line at one node count: its label, its plan (the solver's
/// or a hand-written strategy's), the plan's evaluated partitions, and the
/// machine that prices it.
pub type Line = (&'static str, ParallelPlan, Vec<Arc<Partition>>, MachineModel);

/// One app instance of a weak-scaling study: the program and store every
/// line's plan runs over, each loop's work units per iteration element,
/// the items one iteration processes, and the plotted lines.
pub struct Instance {
    pub program: Vec<Loop>,
    pub store: Store,
    pub weights: Vec<f64>,
    pub items: f64,
    pub lines: Vec<Line>,
}

/// The one weak-scaling driver behind every Figure 14 subplot: for each
/// node count, `instance` builds the app and its lines; each line is
/// simulated into one point of its series.
pub fn weak_scaling(
    nodes_list: &[usize],
    mut instance: impl FnMut(usize) -> Instance,
) -> Vec<ScaleSeries> {
    let mut series: Vec<ScaleSeries> = Vec::new();
    for &n in nodes_list {
        let Instance { program, store, weights, items, lines } = instance(n);
        for (i, (label, plan, parts, machine)) in lines.into_iter().enumerate() {
            if i == series.len() {
                series.push(ScaleSeries { label: label.into(), points: Vec::new() });
            }
            let res = simulate(&program, &plan, &parts, &store, &weights, &machine)
                .expect("every line is evaluated at the machine's node count");
            series[i].points.push(ScalePoint {
                nodes: n,
                throughput_per_node: res.throughput_per_node(items, n),
                sim: SimSummary::from_result(&res, &machine),
            });
        }
    }
    series
}

/// Renders series as the rows a Figure 14 subplot plots.
pub fn render_series(title: &str, series: &[ScaleSeries]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = write!(out, "{:>8}", "nodes");
    for s in series {
        let _ = write!(out, "{:>16}", s.label);
    }
    let _ = writeln!(out);
    let all_nodes: Vec<usize> =
        series.first().map(|s| s.points.iter().map(|p| p.nodes).collect()).unwrap_or_default();
    for n in all_nodes {
        let _ = write!(out, "{n:>8}");
        for s in series {
            match s.at(n) {
                Some(v) => {
                    let _ = write!(out, "{v:>16.3e}");
                }
                None => {
                    let _ = write!(out, "{:>16}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}
