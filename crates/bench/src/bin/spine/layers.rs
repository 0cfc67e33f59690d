//! The traced run: every per-layer metric.
//!
//! This is the one module that calls below the facade. Each layer's public
//! function is called on the workload's requests from outside, inside a
//! harness span; counts come from values the public API already returns
//! (`ParallelPlan`, `ExecReport`, `DistReport`, `VolumeAccounting`,
//! `PlacementReport`, `CacheStats`, `DistProfile`). Nothing is recorded
//! inside the library. When an internal signature changes, this file is
//! the only part of the benchmark that has to follow.

use crate::inputs::Request;
use crate::measure::{self, Ops, Prepared, WIDTH};
use crate::stats::{tail_percentile, Summary};
use crate::trace::{self_times, Scope, Tracer};
use partir::core::cache::PlanCache;
use partir::core::exchange::{block_assignment, derive_exchange_with, prove_plan_legality};
use partir::core::fingerprint::{solve_fingerprint, store_index_fingerprint};
use partir::core::infer::infer;
use partir::core::optimize::{apply_relaxation, RelaxPolicy};
use partir::core::pipeline::{auto_parallelize, Options};
use partir::core::placement::{place, PlacementConfig};
use partir::core::unify::unify;
use partir::ir::interp::run_program_seq;
use partir::obs::json::Json;
use partir::obs::profile::DistProfile;
use partir::obs::ObsConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Counts that must repeat exactly from one repetition to the next.
const EXACT: [&str; 5] =
    ["solve.nodes", "dist.bytes_sent", "dist.messages", "evaluate.runs", "prove.facts"];
/// Repetitions of a cache operation timed as one interval.
const CACHE_OPS: u32 = 100;

/// What the facade's cold path does with each layer at this commit, as
/// `(layer time, how often)`: `Server::submit` fingerprints the request and
/// `SolvedPlan::solve` fingerprints it again; `dist_artifacts` fingerprints
/// the store for its own memo and again inside `parts_for`. `plan.coverage`
/// is the sum of these over `plan_cold_ms`.
const COLD_PATH: [(&str, f64); 7] = [
    ("fingerprint.solve", 2.0),
    ("pipeline", 1.0),
    ("cache.insert", 1.0),
    ("fingerprint.store", 2.0),
    ("evaluate", 1.0),
    ("place", 1.0),
    ("prove", 1.0),
];

/// Per-round timing sums (nanoseconds or unit given by the metric) and
/// counts, keyed by metric or layer name.
#[derive(Default)]
struct Round {
    ns: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Round {
    fn time(&mut self, key: &'static str, d: Duration) {
        *self.ns.entry(key).or_default() += d.as_nanos() as f64;
    }

    fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_default() += n;
    }
}

/// Calls one layer inside a span and returns its result and duration.
fn call<R>(cx: Scope, span: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    cx.span(span, |_| {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed())
    })
}

/// Every plan-side layer, called directly on one request.
fn plan_layers(req: &Request, warm_plan: &partir::Plan, cx: Scope, r: &mut Round, ops: &mut Ops) {
    let schema = req.store.schema();
    let opts = Options::default();

    let (fp, d) = call(cx, "core.fingerprint.solve", || {
        solve_fingerprint(&req.program, &req.fns, schema, &req.hints, &opts, &req.exts, req.colors)
    });
    r.time("fingerprint.solve", d);
    let (_, d) = call(cx, "core.fingerprint.store", || store_index_fingerprint(&req.store));
    r.time("fingerprint.store", d);

    // Inference and unification on their own. Hints can only be installed
    // by the pipeline itself, so for a hinted request these two see the
    // system before its hints.
    let (inference, d) = call(cx, "core.infer", || infer(&req.program, &req.fns, schema));
    r.time("infer", d);
    let Ok(mut inference) = inference else {
        ops.record(false);
        return;
    };
    apply_relaxation(&mut inference, RelaxPolicy::Auto, &BTreeSet::new());
    let (_, d) = call(cx, "core.unify", || unify(&inference, &req.fns));
    r.time("unify", d);

    // The whole pipeline; its own phase times become child spans.
    let (plan, d_pipeline) = call(cx, "core.pipeline", || {
        auto_parallelize(&req.program, &req.fns, schema, &req.hints, opts)
    });
    ops.record(plan.is_ok());
    let Ok(plan) = plan else { return };
    r.time("pipeline", d_pipeline);
    if let Some(span) = cx.tracer.last("core.pipeline") {
        let t = plan.timings;
        let (a, b, c) = (t.inference.as_nanos(), t.solver.as_nanos(), t.rewrite.as_nanos());
        cx.tracer.reported(&span, "core.pipeline.inference", 0, a as u64);
        cx.tracer.reported(&span, "core.pipeline.unify+solve", a as u64, b as u64);
        cx.tracer.reported(&span, "core.pipeline.rewrite", (a + b) as u64, c as u64);
    }
    // The pipeline's own phase times: `solver` covers unification and every
    // solver call, and what its inference and solver phases leave of the
    // call is the rewrite and the glue.
    r.time("solve", plan.timings.solver);
    r.time(
        "pipeline.other",
        d_pipeline.saturating_sub(plan.timings.inference + plan.timings.solver),
    );
    let stats = &plan.solution.stats;
    r.count("unify.merges", plan.unified.merged as u64);
    r.count("solve.nodes", stats.nodes_explored);
    r.count("solve.backtracks", stats.backtracks);
    r.count("solve.lemma_applications", stats.lemma_applications);
    r.count("plan.partitions", plan.num_partitions() as u64);

    let ((parts, _), d) = call(cx, "core.eval", || {
        plan.evaluate_with_stats(&req.store, &req.fns, req.colors, &req.exts)
    });
    r.time("evaluate", d);
    let runs = |p: &partir::dpl::partition::Partition| {
        p.subregions().iter().map(|s| s.run_count() as u64).sum::<u64>()
    };
    r.count("evaluate.runs", parts.iter().map(|p| runs(p)).sum());

    let assignment = block_assignment(req.colors, WIDTH);
    let (xplan, d) = call(cx, "core.exchange.derive", || {
        derive_exchange_with(&plan, &parts, schema, WIDTH, &assignment)
    });
    ops.record(xplan.is_ok());
    r.time("exchange.derive", d);
    let (placed, d_place) =
        call(cx, "core.placement", || place(&plan, &parts, schema, WIDTH, &measure::placement()));
    ops.record(placed.is_ok());
    let Ok(placed) = placed else { return };
    r.time("place", d_place);
    let (proof, d) = call(cx, "core.exchange.prove", || {
        prove_plan_legality(&placed.xplan, &plan, &parts, schema)
    });
    r.time("prove", d);
    ops.record(proof.is_ok());
    r.count("prove.facts", proof.map_or(0, |p| p.facts));

    // Cache operations are far below a microsecond each; time a batch.
    let solved = warm_plan.solved();
    let cache = PlanCache::default();
    let (ok, d) = call(cx, "core.cache.insert", || {
        (0..CACHE_OPS).all(|_| cache.insert(solved.clone()).unwrap_or(false))
    });
    r.time("cache.insert", d / CACHE_OPS);
    let fp = if ok { solved.fingerprint() } else { fp };
    let (hit, d) =
        call(cx, "core.cache.hit", || (0..CACHE_OPS).all(|_| matches!(cache.get(fp), Ok(Some(_)))));
    r.time("cache.hit", d / CACHE_OPS);
    ops.record(ok && hit);
}

/// Cut bytes of block and cost-driven placement at `n_ranks`, from the
/// placement report of the cost-driven policy; nothing is run.
fn cut_bytes(req: &Request, plan: &partir::Plan, n_ranks: usize) -> (u64, u64) {
    plan.solved()
        .dist_artifacts(&req.store, n_ranks, &PlacementConfig::cost_driven())
        .map_or((0, 0), |a| (a.placement.report.cut_block_bytes, a.placement.report.cut_bytes))
}

/// Untraced request -> plan -> run: the base of the tracing overhead and
/// of the coverage and speed-up ratios.
fn untraced_first_result(p: &Prepared, r: &mut Round, ops: &mut Ops) {
    let (cold, whole, _) = p.first_result(ObsConfig::disabled(), ops, None);
    r.time("untraced.cold", cold);
    r.time("untraced.first", whole);
    r.time("untraced.ranks", whole - cold);
}

/// Runs the traced repetitions for `seconds` (at least `min_reps`) and
/// returns every per-layer metric, plus the Chrome trace events of the
/// last repetition's rank timelines.
pub fn per_layer(
    p: &Prepared,
    name: &str,
    seconds: f64,
    min_reps: usize,
    rss_after_setup_mb: f64,
    ops: &mut Ops,
    tracer: &Tracer,
) -> (Vec<(&'static str, &'static str, Summary)>, Vec<Json>) {
    let w = &p.workload;
    let traced_obs = ObsConfig { timeline: true, strict_volume: true, ..ObsConfig::disabled() };
    let mut rounds: Vec<Round> = Vec::new();
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut rank_events = Vec::new();
    let mut rss_after_plan_mb = 0.0;
    let mut cuts = [(0u64, 0u64); 2];
    let t_start = Instant::now();

    while rounds.len() < min_reps || t_start.elapsed().as_secs_f64() < seconds {
        let rep = rounds.len();
        let request = format!("{name}/{rep}");
        let mut r = Round::default();
        // The untraced and the traced side alternate which goes first, so
        // drift in the host's speed does not favour one.
        let untraced_first = rep.is_multiple_of(2);
        if untraced_first {
            untraced_first_result(p, &mut r, ops);
            if rep == 0 {
                rss_after_plan_mb = measure::rss_mb().0;
            }
        }
        tracer.span(None, "rep", &request, |root| {
            let cx = Scope { tracer, parent: root, request: &request };
            // The same, traced: harness spans, rank timelines, strict
            // predicted-vs-measured byte accounting.
            let (cold, whole, outcomes) = p.first_result(traced_obs, ops, Some(cx));
            r.time("traced.first", whole);
            let mut epochs_wall = 0u64;
            rank_events.clear();
            for (pid, outcome) in outcomes.iter().flatten().enumerate() {
                if let Some(d) = outcome.report.as_ranks() {
                    r.time("dist.compute", Duration::from_nanos(d.compute_ns));
                    r.time("dist.pack", Duration::from_nanos(d.pack_ns));
                    r.time("dist.unpack", Duration::from_nanos(d.unpack_ns));
                    r.time("dist.wait", Duration::from_nanos(d.exchange_wait_ns));
                    r.time("dist.merge", Duration::from_nanos(d.merge_ns));
                    r.count("dist.messages", d.messages);
                    r.count("dist.bytes_sent", d.bytes_sent);
                    r.count("dist.ghost_elements", d.ghost_elements);
                    r.count("dist.replication_bytes", d.replication_bytes);
                }
                if let Some(v) = &outcome.volume {
                    let delta =
                        v.pairs.iter().map(|p| p.measured_bytes.abs_diff(p.predicted_bytes));
                    r.count("dist.volume_delta_bytes", delta.sum());
                }
                if let Some(trace) = &outcome.trace {
                    let totals = DistProfile::from_trace(trace).totals();
                    epochs_wall += totals.wall_ns;
                    r.time("dist.skew", Duration::from_nanos(totals.barrier_skew_ns));
                    rank_events.extend(trace.chrome_trace_events(&request, pid as u64 + 1));
                }
            }
            let ranks_wall = whole - cold;
            r.time("dist.epochs", Duration::from_nanos(epochs_wall));
            r.time("traced.ranks", ranks_wall);
            r.time("dist.driver", ranks_wall.saturating_sub(Duration::from_nanos(epochs_wall)));

            let (d, outcomes) =
                cx.span("run_threads", |_| p.timed_run(&measure::threads_run(), ops));
            r.time("threads", d);
            for e in outcomes.iter().flatten().filter_map(|o| o.report.as_threads()) {
                r.count("exec.buffer_bytes", e.buffer_bytes);
                r.count("exec.private_buffer_bytes_saved", e.private_buffer_bytes_saved);
                r.count("exec.guard_hits", e.guard_hits);
                r.count("exec.guard_skips", e.guard_skips);
            }

            let before = p.warm.cache_stats().unwrap_or_default();
            let (_, pass) = cx.span("plan_warm", |_| p.warm_pass(ops));
            let after = p.warm.cache_stats().unwrap_or_default();
            latencies_us.extend(pass.latencies_ns.iter().map(|&ns| ns as f64 / 1.0e3));
            r.count("serve.rejects", pass.rejects);
            r.count("cache.hits", after.hits - before.hits);
            r.count("cache.lookups", (after.hits + after.misses) - (before.hits + before.misses));

            for (req, plan) in w.requests.iter().zip(&p.warm_plans) {
                let Some(plan) = plan else { continue };
                plan_layers(req, plan, cx, &mut r, ops);
                let mut store = req.store.clone();
                let (_, d) =
                    call(cx, "ir.interp", || run_program_seq(&req.program, &mut store, &req.fns));
                r.time("interp", d);
                if let Some(kernel) = req.kernel {
                    r.time("interp.with_kernel", d);
                    let mut store = req.store.clone();
                    let (_, d) = call(cx, "native", || kernel.run(&mut store));
                    r.time("native", d);
                }
                if rep == 0 {
                    for (slot, n_ranks) in cuts.iter_mut().zip([WIDTH, 8]) {
                        let ((block, cost), _) = call(cx, "core.placement.cost_driven", || {
                            cut_bytes(req, plan, n_ranks)
                        });
                        *slot = (slot.0 + block, slot.1 + cost);
                    }
                }
            }
        });
        if !untraced_first {
            untraced_first_result(p, &mut r, ops);
        }
        rounds.push(r);
    }

    // Counts that must repeat exactly.
    for key in EXACT {
        let of = |r: &Round| r.counts.get(key).copied().unwrap_or(0);
        if rounds.iter().any(|r| of(r) != of(&rounds[0])) {
            eprintln!("spine: {name}: {key} differs between repetitions");
            ops.record(false);
        }
    }

    let series = |key: &str| -> Vec<f64> {
        rounds.iter().map(|r| r.ns.get(key).copied().unwrap_or(0.0)).collect()
    };
    let med = |key: &str| Summary::of(&series(key)).expect("at least one round ran");
    let scaled = |key: &str, div: f64| {
        let s = med(key);
        Summary { value: s.value / div, q1: s.q1 / div, q3: s.q3 / div, n: s.n }
    };
    let count = |key: &str| Summary::single(rounds[0].counts.get(key).copied().unwrap_or(0) as f64);
    let ratio = |num: f64, den: f64| Summary::single(if den > 0.0 { num / den } else { 0.0 });

    // Like the end-to-end timings, the overhead compares fastest
    // repetitions: the median of the paired ratios swung by 10 points and
    // more from run to run on `circuit-auto-L`, this by about 1.
    let fastest = |key: &str| series(key).into_iter().fold(f64::NAN, f64::min);
    let overhead_pct = 100.0 * (fastest("traced.first") / fastest("untraced.first") - 1.0);
    let cold_path: f64 = COLD_PATH.iter().map(|(k, times)| med(k).value * times).sum();
    let elems: u64 = w.requests.iter().map(|r| r.elems).sum();
    let p50 = tail_percentile(&latencies_us, 0.5).unwrap_or(0.0);
    let p99 = tail_percentile(&latencies_us, 0.99).unwrap_or(0.0);
    let root = repo_root().unwrap_or_default();
    let loc = |dir: &str| Summary::single(count_lines(&root.join(dir)) as f64);
    let lookups = rounds[0].counts.get("cache.lookups").copied().unwrap_or(0) as f64;

    let metrics = vec![
        ("infer.ms", "ms", scaled("infer", 1.0e6)),
        ("unify.ms", "ms", scaled("unify", 1.0e6)),
        ("unify.merges", "count", count("unify.merges")),
        ("solve.ms", "ms", scaled("solve", 1.0e6)),
        ("solve.nodes", "count", count("solve.nodes")),
        ("solve.backtracks", "count", count("solve.backtracks")),
        ("solve.lemma_applications", "count", count("solve.lemma_applications")),
        ("pipeline.other_ms", "ms", scaled("pipeline.other", 1.0e6)),
        ("plan.partitions", "count", count("plan.partitions")),
        ("plan.coverage", "ratio", ratio(cold_path, med("untraced.cold").value)),
        ("evaluate.ms", "ms", scaled("evaluate", 1.0e6)),
        ("evaluate.runs", "count", count("evaluate.runs")),
        ("exchange.derive_ms", "ms", scaled("exchange.derive", 1.0e6)),
        ("prove.ms", "ms", scaled("prove", 1.0e6)),
        ("prove.facts", "count", count("prove.facts")),
        ("place.ms", "ms", scaled("place", 1.0e6)),
        ("place.cut_bytes_block", "bytes", Summary::single(cuts[0].0 as f64)),
        ("place.cut_bytes_cost", "bytes", Summary::single(cuts[0].1 as f64)),
        ("place.cut_bytes_block_r8", "bytes", Summary::single(cuts[1].0 as f64)),
        ("place.cut_bytes_cost_r8", "bytes", Summary::single(cuts[1].1 as f64)),
        ("fingerprint.solve_us", "us", scaled("fingerprint.solve", 1.0e3)),
        ("fingerprint.store_ms", "ms", scaled("fingerprint.store", 1.0e6)),
        ("cache.hit_us", "us", scaled("cache.hit", 1.0e3)),
        ("cache.insert_us", "us", scaled("cache.insert", 1.0e3)),
        ("cache.hit_rate", "ratio", ratio(count("cache.hits").value, lookups)),
        ("serve.p50_us", "us", Summary::single(p50)),
        ("serve.p99_us", "us", Summary::single(p99)),
        ("serve.rejects", "count", count("serve.rejects")),
        ("interp.seq_ms", "ms", scaled("interp", 1.0e6)),
        ("interp.ns_per_elem", "ns", scaled("interp", elems.max(1) as f64)),
        ("native.seq_ms", "ms", scaled("native", 1.0e6)),
        ("interp.overhead_x", "x", ratio(med("interp.with_kernel").value, med("native").value)),
        ("exec.speedup_x", "x", ratio(med("interp").value, med("threads").value)),
        ("exec.buffer_bytes", "bytes", count("exec.buffer_bytes")),
        ("exec.private_buffer_bytes_saved", "bytes", count("exec.private_buffer_bytes_saved")),
        ("exec.guard_hits", "count", count("exec.guard_hits")),
        ("exec.guard_skips", "count", count("exec.guard_skips")),
        ("dist.compute_ms", "ms", scaled("dist.compute", 1.0e6)),
        ("dist.pack_ms", "ms", scaled("dist.pack", 1.0e6)),
        ("dist.unpack_ms", "ms", scaled("dist.unpack", 1.0e6)),
        ("dist.wait_ms", "ms", scaled("dist.wait", 1.0e6)),
        ("dist.merge_ms", "ms", scaled("dist.merge", 1.0e6)),
        ("dist.driver_ms", "ms", scaled("dist.driver", 1.0e6)),
        ("dist.skew_pct", "%", ratio(100.0 * med("dist.skew").value, med("dist.epochs").value)),
        ("dist.coverage", "ratio", ratio(med("dist.epochs").value, med("traced.ranks").value)),
        ("dist.speedup_x", "x", ratio(med("interp").value, med("untraced.ranks").value)),
        ("dist.messages", "count", count("dist.messages")),
        ("dist.bytes_sent", "bytes", count("dist.bytes_sent")),
        ("dist.ghost_elements", "count", count("dist.ghost_elements")),
        ("dist.replication_bytes", "bytes", count("dist.replication_bytes")),
        ("dist.volume_delta_bytes", "bytes", count("dist.volume_delta_bytes")),
        (
            "obs.trace_overhead_pct",
            "%",
            Summary { n: rounds.len(), ..Summary::single(overhead_pct) },
        ),
        ("rss.after_setup_mb", "MB", Summary::single(rss_after_setup_mb)),
        ("rss.after_plan_mb", "MB", Summary::single(rss_after_plan_mb)),
        ("loc.core", "lines", loc("crates/core/src")),
        ("loc.runtime", "lines", loc("crates/runtime/src")),
        ("loc.dpl", "lines", loc("crates/dpl/src")),
        ("loc.ir", "lines", loc("crates/ir/src")),
        ("loc.obs", "lines", loc("crates/obs/src")),
        ("loc.apps", "lines", loc("crates/apps/src")),
        ("loc.facade", "lines", loc("src")),
    ];
    (metrics, rank_events)
}

/// Self time per harness span name over the whole traced run, in
/// milliseconds: the layer table of the report.
pub fn layer_table(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let mut rows: Vec<_> =
        self_times(&tracer.snapshot()).into_iter().map(|(k, ns)| (k, ns as f64 / 1.0e6)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

/// The checkout root: the nearest ancestor of the working directory that
/// holds `BENCHMARK.json`.
fn repo_root() -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    cwd.ancestors().find(|d| d.join("BENCHMARK.json").is_file()).map(Path::to_path_buf)
}

/// Non-test source lines under a directory: lines before a file's
/// `#[cfg(test)]`, not blank and not comments. Zero when the directory is
/// not there to count.
fn count_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut total = 0;
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            total += count_lines(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            total += non_test_lines(&text);
        }
    }
    total
}

fn non_test_lines(text: &str) -> u64 {
    text.lines()
        .map(str::trim)
        .take_while(|l| *l != "#[cfg(test)]")
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_test_lines_stop_at_the_test_module() {
        let src = "//! doc\n\nfn a() {}\n  // note\nfn b() {}\n#[cfg(test)]\nmod tests {\n}\n";
        assert_eq!(non_test_lines(src), 2);
    }
}
