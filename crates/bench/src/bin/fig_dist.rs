//! Distributed-backend scaling, placement and recovery: every gate of the
//! rank backend in one run.
//!
//! Runs the five benchmark applications on the rank-sharded SPMD backend
//! and reports four sections in one `fig_dist` envelope:
//!
//! * the strong-scaling table at 1, 2, 4 and 8 ranks under block
//!   placement: the exchange-set traffic the constraint solution derives
//!   against the bytes a replicate-everything runtime would ship, the
//!   `dist_profile` critical-path breakdown per epoch from per-rank
//!   timelines, and per-`(src, dst)` predicted-vs-measured bytes under
//!   strict volume accounting;
//! * the scaling verdict: on a Stencil and an SpMV of their own, sized so
//!   that one rank runs for over 50 ms, the fastest of five alternating
//!   8-rank runs over the fastest 1-rank one stays within 1.0 on a
//!   multi-core host (2.0 on one core, where thread-per-rank SPMD cannot
//!   beat one rank);
//! * `placement`: block vs cost-driven owner mapping on
//!   placement-adversarial inputs (SpMV with an antipodal band shift,
//!   Circuit with strided cross-cluster wires) over-decomposed to 4 colors
//!   per rank at 4 and 8 ranks. Cost-driven never predicts or measures
//!   more cross-rank bytes than block, and strictly fewer on SpMV and
//!   Circuit; KL/FM refinement never ends above its seed and cuts SpMV's
//!   to a hundredth or less; the steady refinement solve stays under 5 %
//!   of end-to-end planning (the median of five timed plannings);
//! * `dist_recovery`: a seeded rank crash (seed 42) mid-program in every
//!   app at 8 ranks, with mild seeded message loss and duplication on
//!   top. The survivors finish bit-identical, migrate no more than the
//!   lost rank's owned shard, and record a `recovery` span; fault-free
//!   checkpointing at the Young/Daly interval costs under 5 % for an
//!   assumed mean time between failures of one hour.
//!
//! Every run is checked bit-identical to the sequential interpreter with
//! clean strict volume accounting, and every check is a named entry of
//! the report's `verdicts`. The report is written first; the process then
//! exits 1 naming every failed verdict.
//!
//! Run: `cargo run --release -p partir-bench --bin fig_dist`
//! JSON report: `... --bin fig_dist -- --json [--out PATH]`
//! Chrome trace: `... --bin fig_dist -- --trace-out trace.json` (load in
//! Perfetto / `chrome://tracing`; one process per app × rank count and one
//! per app's crash, one thread per rank).

use partir::core::exchange::derive_exchange;
use partir::core::placement::{cost_driven_assignment, CommGraph, PlacementPolicy};
use partir::{Backend, Partir, Plan, Run, RunOutcome};
use partir_apps::circuit::{Circuit, CircuitParams};
use partir_apps::miniaero::{MiniAero, MiniAeroParams};
use partir_apps::pennant::{Pennant, PennantParams};
use partir_apps::{spmv, stencil};
use partir_bench::BenchArgs;
use partir_dpl::func::FnTable;
use partir_dpl::region::{FieldId, Store};
use partir_ir::ast::Loop;
use partir_ir::interp::run_program_seq;
use partir_obs::json::Json;
use partir_obs::profile::DistProfile;
use partir_obs::trace::{chrome_trace_doc, SpanKind};
use partir_obs::ObsConfig;
use partir_runtime::dist::DistReport;
use partir_runtime::fault::{CheckpointPolicy, FaultPlan, RankCrash};
use std::time::Instant;

/// Rank counts of the scaling table.
const SWEEP_RANKS: [usize; 4] = [1, 2, 4, 8];
/// Rank counts of the placement section (colors are four per rank).
const PLACEMENT_RANKS: [usize; 2] = [4, 8];
/// Rank count and seed of the crash.
const FAULT_RANKS: usize = 8;
const FAULT_SEED: u64 = 42;
/// Timed repetitions behind every wall-clock median.
const REPS: usize = 5;
/// Alternating 1-rank / 8-rank run pairs behind the scaling verdict; each
/// side is timed by its fastest run.
const SCALING_PAIRS: usize = 5;
/// Sizes of the scaling verdict's own Stencil and SpMV: one rank takes
/// over 50 ms on a 2-vCPU host, so the verdict times compute rather than
/// the start of eight rank threads.
const SCALING_STENCIL_N: u64 = 2048;
const SCALING_SPMV_ROWS: u64 = 700_000;
/// Budget for fault-free Young/Daly checkpointing, percent of wall-clock.
const OVERHEAD_MAX_PCT: f64 = 5.0;
/// Mean time between failures the Young/Daly interval assumes, seconds.
const MTBF_S: f64 = 3600.0;
/// Budget for the steady refinement solve, percent of end-to-end planning.
const MAX_SOLVE_PCT: f64 = 5.0;

/// An application instance and its sequential-interpreter result.
struct Case {
    name: &'static str,
    program: Vec<Loop>,
    fns: FnTable,
    store: Store,
    seq: Store,
}

impl Case {
    fn new(name: &'static str, program: Vec<Loop>, fns: FnTable, store: Store) -> Case {
        let mut seq = store.clone();
        run_program_seq(&program, &mut seq, &fns);
        Case { name, program, fns, store, seq }
    }
}

fn cases() -> Vec<Case> {
    let a = stencil::Stencil::generate(&stencil::StencilParams { nx: 256, ny: 256 });
    let stencil = Case::new("Stencil", a.program, a.fns, a.store);
    let a = spmv::Spmv::generate(&spmv::SpmvParams {
        rows: 100_000,
        halo: 2,
        ..spmv::SpmvParams::default()
    });
    let spmv = Case::new("SpMV", a.program, a.fns, a.store);
    let a = Circuit::generate(&CircuitParams {
        clusters: 4,
        nodes_per_cluster: 400,
        wires_per_cluster: 1_600,
        cross_fraction: 0.2,
        cross_stride: None,
        seed: 7,
    });
    let circuit = Case::new("Circuit", a.program, a.fns, a.store);
    vec![stencil, spmv, circuit, miniaero(), pennant()]
}

/// Placement-adversarial inputs: each strict-win app is tuned so that a
/// contiguous block owner mapping is the wrong answer at `4·ranks` colors.
/// SpMV's band is renumbered to center on the antipodal row (color `c`
/// only talks to color `c + C/2`, which block pins on a distant rank), and
/// Circuit's cross wires all target the cluster `ranks` strides away.
/// Stencil, MiniAero and PENNANT keep their natural locality: block is
/// already near-optimal for them, so they pin "cost-driven never regresses
/// below block" rather than a strict win.
fn placement_cases(ranks: usize) -> Vec<Case> {
    let a = stencil::Stencil::generate(&stencil::StencilParams { nx: 512, ny: 512 });
    let stencil = Case::new("Stencil", a.program, a.fns, a.store);
    let rows = 400_000;
    let a = spmv::Spmv::generate(&spmv::SpmvParams { rows, halo: 2, band_shift: rows / 2 });
    let spmv = Case::new("SpMV", a.program, a.fns, a.store);
    let a = Circuit::generate(&CircuitParams {
        clusters: 2 * ranks,
        nodes_per_cluster: 400,
        wires_per_cluster: 800,
        cross_fraction: 0.6,
        cross_stride: Some(ranks as u64),
        seed: 7,
    });
    let circuit = Case::new("Circuit", a.program, a.fns, a.store);
    vec![stencil, spmv, circuit, miniaero(), pennant()]
}

fn miniaero() -> Case {
    let a = MiniAero::generate(&MiniAeroParams { nx: 8, ny: 8, nz: 8 });
    Case::new("MiniAero", a.program, a.fns, a.store)
}

fn pennant() -> Case {
    let a = Pennant::generate(&PennantParams { pieces: 4, zw: 8, zy: 8 });
    Case::new("PENNANT", a.program, a.fns, a.store)
}

/// A fresh solve of `case` at `colors` (no cache: every call pays the
/// pipeline, and the first run on it pays evaluation and placement).
fn solve_at(case: &Case, colors: usize) -> Plan {
    Partir::new(case.program.clone(), case.fns.clone(), case.store.schema().clone())
        .colors(colors)
        .solve()
        .unwrap_or_else(|e| panic!("{} auto-parallelizes: {e}", case.name))
}

fn on_ranks(ranks: usize, obs: ObsConfig) -> Run {
    Run::new().backend(Backend::Ranks(ranks)).obs(obs)
}

fn strict() -> ObsConfig {
    ObsConfig { strict_volume: true, ..ObsConfig::disabled() }
}

fn ranks_report(outcome: &RunOutcome) -> DistReport {
    *outcome.report.as_ranks().expect("rank backend requested")
}

/// Every named check of the run, in the order they were made. A name
/// checked more than once holds only if every check of it held.
#[derive(Default)]
struct Verdicts(Vec<(String, bool, String)>);

impl Verdicts {
    /// Records `name`; `detail` says what was measured when it fails.
    fn check(&mut self, name: String, pass: bool, detail: impl FnOnce() -> String) {
        let detail = if pass { String::new() } else { detail() };
        match self.0.iter_mut().find(|(n, ..)| *n == name) {
            Some(v) if v.1 => (v.1, v.2) = (pass, detail),
            Some(_) => {}
            None => self.0.push((name, pass, detail)),
        }
    }

    fn to_json(&self) -> Json {
        self.0.iter().fold(Json::object(), |doc, (name, pass, _)| doc.with(name.as_str(), *pass))
    }

    /// One line per failed verdict: its name and what was measured.
    fn failures(&self) -> Vec<String> {
        self.0.iter().filter(|(_, pass, _)| !pass).map(|(n, _, d)| format!("{n}: {d}")).collect()
    }
}

/// One run of `plan` on a fresh copy of the case's store, checked as
/// `{at}.bit_identical` against the sequential interpreter and as
/// `{at}.volume_clean` under strict volume accounting (`run` must ask for
/// it), and its wall-clock. A run that errors has no numbers to report and
/// panics.
fn verified_run(
    v: &mut Verdicts,
    at: &str,
    case: &Case,
    run: &Run,
    plan: &Plan,
) -> (RunOutcome, u64) {
    let mut par = case.store.clone();
    let t0 = Instant::now();
    let outcome = run.run(plan, &mut par).unwrap_or_else(|e| panic!("{at}: {e}"));
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let diverged = (0..case.store.schema().num_fields() as u32)
        .map(FieldId)
        .find(|&f| case.seq.field_data(f) != par.field_data(f));
    v.check(format!("{at}.bit_identical"), diverged.is_none(), || {
        format!("field {diverged:?} diverged from the sequential interpreter")
    });
    let clean = outcome.volume.as_ref().is_some_and(|vol| vol.is_clean());
    v.check(format!("{at}.volume_clean"), clean, || "dirty volume accounting".into());
    (outcome, wall_ns)
}

/// The plan-level legality proof established facts and, in release
/// builds, replaced every per-element check (debug builds deliberately keep
/// the per-element path as a second line of defense).
fn check_proved(v: &mut Verdicts, at: &str, rep: &DistReport) {
    let pass = rep.plan_proved > 0 && (cfg!(debug_assertions) || rep.legality_checks == 0);
    v.check(format!("{at}.legality_proved"), pass, || {
        format!("{} per-element checks, {} proved facts", rep.legality_checks, rep.plan_proved)
    });
}

/// The median, by `key`, of `reps` calls of `f`.
fn median_of<T>(reps: usize, mut f: impl FnMut() -> T, key: impl Fn(&T) -> f64) -> T {
    let mut samples: Vec<T> = (0..reps).map(|_| f()).collect();
    samples.sort_by(|a, b| key(a).total_cmp(&key(b)));
    samples.swap_remove(reps / 2)
}

/// Median wall-clock of [`REPS`] runs of `plan` on fresh copies of the
/// case's store, and the report of the median run.
fn median_wall(run: &Run, plan: &Plan, case: &Case) -> (u64, DistReport) {
    let timed = || {
        let mut par = case.store.clone();
        let t0 = Instant::now();
        let outcome = run.run(plan, &mut par).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        (t0.elapsed().as_nanos() as u64, ranks_report(&outcome))
    };
    median_of(REPS, timed, |&(ns, _)| ns as f64)
}

/// The scaling table: every app at every sweep rank count. Returns the
/// section and its human rendering.
fn sweep(v: &mut Verdicts, cases: &[Case], chrome: &mut Vec<Vec<Json>>) -> (Json, String) {
    let obs = ObsConfig { timeline: true, ..strict() };
    let (mut apps, mut human) = (Json::array(), String::new());
    for case in cases {
        human.push_str(&format!(
            "\n{}\n{:<7} {:>7} {:>9} {:>13} {:>13} {:>9} {:>9} {:>9} {:>10} {:>8}\n",
            case.name,
            "ranks",
            "tasks",
            "messages",
            "ghost_bytes",
            "repl_bytes",
            "ratio",
            "wait%",
            "skew%",
            "wall_ms",
            "speedup"
        ));
        let mut points = Json::array();
        let mut series: Vec<(usize, u64)> = Vec::new();
        for r in SWEEP_RANKS {
            let at = format!("sweep.{}@{r}", case.name);
            let plan = solve_at(case, r.max(4));
            let (outcome, _) = verified_run(v, &at, case, &on_ranks(r, obs), &plan);
            let rep = ranks_report(&outcome);
            check_proved(v, &at, &rep);
            let trace = outcome.trace.as_ref().expect("timeline collection was requested");
            let valid = trace.validate();
            v.check(format!("{at}.timeline_valid"), valid.is_ok(), || valid.unwrap_err());
            let profile = DistProfile::from_trace(trace);
            v.check(format!("{at}.profile_coverage"), profile.coverage() >= 0.95, || {
                format!(
                    "critical-path categories cover {:.1}% of wall-clock",
                    profile.coverage() * 100.0
                )
            });
            if r > 1 {
                v.check(
                    format!("{at}.ghost_beats_replication"),
                    rep.bytes_sent < rep.replication_bytes,
                    || {
                        format!(
                            "ghost {} B vs replication {} B",
                            rep.bytes_sent, rep.replication_bytes
                        )
                    },
                );
            }
            let pid = chrome.len() as u64 + 1;
            chrome.push(trace.chrome_trace_events(&format!("{} @ {r} ranks", case.name), pid));

            let (wall_ns, _) = median_wall(&on_ranks(r, ObsConfig::disabled()), &plan, case);
            series.push((r, wall_ns));
            let speedup = series[0].1 as f64 / wall_ns.max(1) as f64;
            let totals = profile.totals();
            let pct = |part: u64| part as f64 / totals.wall_ns.max(1) as f64 * 100.0;
            let ratio = match rep.bytes_sent {
                0 => f64::INFINITY,
                sent => rep.replication_bytes as f64 / sent as f64,
            };
            human.push_str(&format!(
                "{:<7} {:>7} {:>9} {:>13} {:>13} {:>8.0}x {:>8.1} {:>8.1} {:>10.2} {:>7.2}x\n",
                r,
                rep.tasks_run,
                rep.messages,
                rep.bytes_sent,
                rep.replication_bytes,
                ratio,
                pct(totals.exchange_wait_ns),
                pct(totals.barrier_skew_ns),
                wall_ns as f64 / 1e6,
                speedup,
            ));
            points = points.push(
                rep.to_json()
                    .with("wall_ns", wall_ns)
                    .with("speedup", speedup)
                    .with("dist_profile", profile.to_json())
                    .with("pairs", outcome.volume.as_ref().map_or(Json::Null, |vol| vol.to_json())),
            );
        }
        apps = apps.push(Json::object().with("name", case.name).with("points", points));
    }
    (apps, human)
}

/// The scaling verdict's cases: Stencil and SpMV at [`SCALING_STENCIL_N`]
/// and [`SCALING_SPMV_ROWS`].
fn scaling_cases() -> Vec<Case> {
    let n = SCALING_STENCIL_N;
    let a = stencil::Stencil::generate(&stencil::StencilParams { nx: n, ny: n });
    let stencil = Case::new("Stencil", a.program, a.fns, a.store);
    let a = spmv::Spmv::generate(&spmv::SpmvParams {
        rows: SCALING_SPMV_ROWS,
        halo: 2,
        ..spmv::SpmvParams::default()
    });
    vec![stencil, Case::new("SpMV", a.program, a.fns, a.store)]
}

/// The scaling verdict: the largest sweep rank count must not lose against
/// one rank on the scaling-critical apps. Each side is solved at the
/// sweep's color count, run once checked against the interpreter (which
/// also memoizes its partitions and exchange plan), then timed by the
/// fastest of [`SCALING_PAIRS`] runs, alternating with the other side so
/// that a slow phase of the host hits both. The bound is parallelism-aware:
/// on a multi-core host threads-as-ranks genuinely parallelize, so it
/// demands no loss (1.0); on one core the ranks time-slice and only
/// overlap can help, so it caps the protocol overhead.
fn scaling(v: &mut Verdicts, cores: usize) -> Json {
    let max_ratio = if cores >= 2 { 1.0 } else { 2.0 };
    let (r0, rn) = (SWEEP_RANKS[0], SWEEP_RANKS[SWEEP_RANKS.len() - 1]);
    let mut out = Json::array();
    for case in scaling_cases() {
        let sides = [r0, rn].map(|r| {
            let plan = solve_at(&case, r.max(4));
            verified_run(
                v,
                &format!("scaling.{}@{r}", case.name),
                &case,
                &on_ranks(r, strict()),
                &plan,
            );
            (plan, on_ranks(r, ObsConfig::disabled()))
        });
        let mut fastest = [u64::MAX; 2];
        for _ in 0..SCALING_PAIRS {
            for (best, (plan, run)) in fastest.iter_mut().zip(&sides) {
                let mut store = case.store.clone();
                let t0 = Instant::now();
                run.run(plan, &mut store).unwrap_or_else(|e| panic!("{}: {e}", case.name));
                *best = (*best).min(t0.elapsed().as_nanos() as u64);
            }
        }
        let [w0, wn] = fastest;
        let ratio = wn as f64 / w0.max(1) as f64;
        eprintln!(
            "scaling: {}: {rn}-rank wall {:.2} ms vs {r0}-rank {:.2} ms \
             (ratio {ratio:.3}, allowed {max_ratio:.3}, host parallelism {cores})",
            case.name,
            wn as f64 / 1e6,
            w0 as f64 / 1e6,
        );
        v.check(format!("scaling.{}.{rn}_vs_{r0}_ranks", case.name), ratio <= max_ratio, || {
            format!(
                "{rn}-rank wall-clock is {ratio:.3}x the {r0}-rank one (allowed {max_ratio:.3})"
            )
        });
        out = out.push(
            Json::object()
                .with("name", case.name)
                .with("elements", case.store.schema().region_size(case.program[0].region))
                .with("ranks", rn as u64)
                .with("baseline_ranks", r0 as u64)
                .with("wall_ns", wn)
                .with("baseline_wall_ns", w0)
                .with("pairs", SCALING_PAIRS as u64)
                .with("ratio", ratio)
                .with("max_ratio", max_ratio),
        );
    }
    out
}

/// Steady-state cost of the placement solver on the case's real
/// communication graph: the minimum over repetitions, the standard
/// estimate for a µs-scale cost. A single in-situ solve right after a
/// cache-hostile execution phase measures mostly the machine's cache
/// state (~3× steady); the solve-time verdict bounds the *solver's* cost,
/// so it divides this number by the one-shot plan wall. The in-situ
/// `solve_ns` stays in the report unmodified.
fn steady_solve_ns(case: &Case, ranks: usize) -> u64 {
    let plan = solve_at(case, 4 * ranks);
    let parts = plan.evaluate(&case.store);
    let graph = CommGraph::build(plan.parallel_plan(), &parts, case.store.schema())
        .unwrap_or_else(|e| panic!("{} (steady solve) graph: {e}", case.name));
    (0..64)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(cost_driven_assignment(&graph, ranks));
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

/// One policy on the placement axis: over-decomposed to `4·ranks` colors,
/// strict volume accounting, verified. Returns the outcome and the wall
/// time of the solve (inference, constraint solve, rewrite) the solve-time
/// verdict divides by, together with the placement stage of the run.
fn placement_run(
    v: &mut Verdicts,
    case: &Case,
    ranks: usize,
    policy: PlacementPolicy,
) -> (RunOutcome, u64) {
    let at = format!("placement.{}@{ranks}.{}", case.name, policy.name());
    // Planning is timed at µs granularity and a cold first pass through
    // the planning and placement paths costs ~3× steady state in cache
    // misses alone. One unmeasured warm-up (solved *and* run — placement
    // happens inside `run`) keeps the measured timings about the solver,
    // not the process's cache state.
    let run = on_ranks(ranks, strict()).placement(policy);
    run.run(&solve_at(case, 4 * ranks), &mut case.store.clone())
        .unwrap_or_else(|e| panic!("{at} warm-up: {e}"));
    let t_build = Instant::now();
    let plan = solve_at(case, 4 * ranks);
    let build_ns = t_build.elapsed().as_nanos() as u64;
    (verified_run(v, &at, case, &run, &plan).0, build_ns)
}

/// The placement section: block vs cost-driven per app at 4 and 8 ranks.
fn placement(v: &mut Verdicts) -> (Json, String) {
    let mut entries = Json::array();
    let mut human = format!(
        "\n{:<9} {:>5} {:>6} {:>13} {:>13} {:>8} {:>6} {:>6} {:>9} {:>8}\n",
        "app",
        "ranks",
        "colors",
        "block_bytes",
        "cost_bytes",
        "reduct%",
        "passes",
        "moves",
        "solve_us",
        "solve%"
    );
    for ranks in PLACEMENT_RANKS {
        for case in placement_cases(ranks) {
            let (block, _) = placement_run(v, &case, ranks, PlacementPolicy::Block);
            let block_meas = ranks_report(&block).bytes_sent;
            let block_pl = block.placement.expect("rank backend records its placement");
            // Placement is deterministic, so bytes agree across repetitions;
            // only the µs-scale timings wobble. Planning has two phases:
            // `solve` (inference, constraint solve, rewrite) and the
            // placement stage inside `run`; the run kept is the one whose
            // planning time is the median of `REPS`.
            let (cost, build_ns) = median_of(
                REPS,
                || placement_run(v, &case, ranks, PlacementPolicy::CostDriven),
                |(o, build)| {
                    let pl = o.placement.as_ref().expect("rank backend records its placement");
                    (build + pl.place_ns) as f64
                },
            );
            let cost_meas = ranks_report(&cost).bytes_sent;
            let cost_pl = cost.placement.expect("rank backend records its placement");
            let steady_ns = steady_solve_ns(&case, ranks);
            // The denominator is the median time of the whole of planning:
            // inference, constraint solve, rewrite, and the full placement
            // stage (graph build and the rank-granular candidate derivations
            // included). The numerator is the steady-state solver cost:
            // the one-shot in-situ sample runs on caches the surrounding
            // execution just evicted and lands ~3x above what the solver
            // costs, so bounding it would bound scheduler noise.
            let solve_pct = steady_ns as f64 / (build_ns + cost_pl.place_ns).max(1) as f64 * 100.0;
            eprintln!(
                "placement: {} at {ranks} ranks: block {} B -> cost {} B (seed {} B); \
                 build {:.2} ms, place {:.1} us (graph {:.1} us, solve {:.1} us \
                 in-situ / {:.1} us steady, {solve_pct:.2}% of build), \
                 {} passes / {} moves",
                case.name,
                block_pl.predicted_bytes,
                cost_pl.predicted_bytes,
                cost_pl.seed_bytes,
                build_ns as f64 / 1e6,
                cost_pl.place_ns as f64 / 1e3,
                cost_pl.graph_ns as f64 / 1e3,
                cost_pl.solve_ns as f64 / 1e3,
                steady_ns as f64 / 1e3,
                cost_pl.passes,
                cost_pl.moves,
            );
            let (block_pred, cost_pred) = (block_pl.predicted_bytes, cost_pl.predicted_bytes);
            let seed = cost_pl.seed_bytes;
            let at = format!("placement.{}@{ranks}", case.name);
            let mut check = |gate: &str, pass: bool, detail: String| {
                v.check(format!("{at}.{gate}"), pass, || detail)
            };
            // Both candidates derive the same block baseline.
            check(
                "block_baselines_agree",
                cost_pl.predicted_block_bytes == block_pred,
                format!("{} B vs {block_pred} B", cost_pl.predicted_block_bytes),
            );
            let vs_block = format!(
                "predicted {cost_pred} vs {block_pred} B, measured {cost_meas} vs {block_meas} B"
            );
            check("cost_predicts_no_more", cost_pred <= block_pred, vs_block.clone());
            check("cost_measures_no_more", cost_meas <= block_meas, vs_block.clone());
            // What KL/FM refinement buys: cost-driven never moves more than
            // the seed it refines (the best of block and the greedy seed),
            // and on the shifted band a hundredth of it or less.
            let vs_seed = format!("cost-driven predicts {cost_pred} B vs seed {seed} B");
            check("refinement_no_worse_than_seed", cost_pred <= seed, vs_seed.clone());
            if case.name == "SpMV" {
                check("refinement_beats_seed_100x", cost_pred.saturating_mul(100) <= seed, vs_seed);
            }
            if matches!(case.name, "SpMV" | "Circuit") {
                let strict = cost_pred < block_pred && cost_meas < block_meas;
                check("cost_strictly_beats_block", strict, vs_block);
            }
            check(
                "solve_within_budget",
                solve_pct < MAX_SOLVE_PCT,
                format!("refinement took {solve_pct:.2}% of planning (budget {MAX_SOLVE_PCT}%)"),
            );

            let reduction = |block: u64, cost: u64| {
                if block > 0 {
                    block.saturating_sub(cost) as f64 / block as f64
                } else {
                    0.0
                }
            };
            let pred_red = reduction(block_pred, cost_pred);
            human.push_str(&format!(
                "{:<9} {:>5} {:>6} {:>13} {:>13} {:>7.1}% {:>6} {:>6} {:>9.1} {:>7.2}%\n",
                case.name,
                ranks,
                4 * ranks,
                block_pred,
                cost_pred,
                pred_red * 100.0,
                cost_pl.passes,
                cost_pl.moves,
                steady_ns as f64 / 1e3,
                solve_pct,
            ));
            entries = entries.push(
                cost_pl
                    .to_json()
                    .with("name", case.name)
                    .with("ranks", ranks as u64)
                    .with("measured_block_bytes", block_meas)
                    .with("measured_bytes", cost_meas)
                    .with("predicted_reduction", pred_red)
                    .with("measured_reduction", reduction(block_meas, cost_meas))
                    .with("build_ns", build_ns)
                    .with("solve_steady_ns", steady_ns)
                    .with("solve_pct_of_build", solve_pct),
            );
        }
    }
    (entries, human)
}

/// The recovery section for one app: prices fault-free checkpointing at the
/// Young/Daly interval, then crashes a seeded rank mid-program (with mild
/// seeded message loss and duplication on top) and reports what recovery
/// cost and moved. The crash's timeline joins the Chrome trace.
fn recovery(v: &mut Verdicts, case: &Case, chrome: &mut Vec<Vec<Json>>) -> Json {
    let ranks = FAULT_RANKS;
    let at = format!("recovery.{}@{ranks}", case.name);
    let n_epochs = (case.program.len() as u64).max(1);
    let plan = solve_at(case, ranks);
    let bare = on_ranks(ranks, ObsConfig::disabled());

    // Fault-free baseline, then an every-epoch probe to price a snapshot;
    // Young/Daly turns (epoch cost, snapshot cost, MTBF) into the
    // checkpoint interval the verdict measures at. For programs far shorter
    // than the interval the optimum is genuinely "no checkpoint within
    // this horizon", and the verdict then prices exactly that policy (the
    // every-epoch overhead stays in the report as the worst case).
    let (base_wall, _) = median_wall(&bare, &plan, case);
    let every = bare.clone().checkpoint(CheckpointPolicy::every(1));
    let (every_wall, probe) = median_wall(&every, &plan, case);
    let every_pct = (every_wall as f64 - base_wall as f64) / base_wall as f64 * 100.0;
    let epoch_cost_s = base_wall as f64 / 1e9 / n_epochs as f64;
    // Ranks snapshot in parallel: the per-epoch cost is one rank's average
    // snapshot time, not the sum across ranks.
    let snap_cost_s = probe.checkpoint_ns as f64 / 1e9 / probe.checkpoints.max(1) as f64;
    let policy = CheckpointPolicy::young_daly(epoch_cost_s, snap_cost_s, MTBF_S);
    let (ckpt_wall, ckpt_rep) = median_wall(&bare.checkpoint(policy), &plan, case);
    // The checked number is the snapshot time the ranks themselves clocked,
    // on the critical path (ranks snapshot concurrently, so the per-rank
    // average is what the run's wall-clock absorbs). Wall-clock A/B deltas
    // cannot resolve a 5% budget on a noisy shared host; the protocol's
    // own timer can, and it is what the budget is about.
    let overhead_pct = ckpt_rep.checkpoint_ns as f64 / ranks as f64 / ckpt_wall as f64 * 100.0;
    v.check(format!("{at}.checkpoint_overhead"), overhead_pct <= OVERHEAD_MAX_PCT, || {
        format!("Young/Daly checkpointing costs {overhead_pct:.2}% (budget {OVERHEAD_MAX_PCT}%)")
    });

    // The crash proper: seeded rank and epoch, a 2% drop/dup storm on
    // top, every-epoch checkpoints so the rollback is minimal, strict
    // volume accounting across the recovery.
    let crash_rank = (FAULT_SEED as usize) % ranks;
    let crash_epoch = (FAULT_SEED / 7) % n_epochs;
    let fault = FaultPlan {
        drop_rate: 0.02,
        dup_rate: 0.02,
        crash: Some(RankCrash { rank: crash_rank, epoch: crash_epoch, silent: false }),
        ..FaultPlan::quiescent(FAULT_SEED)
    };
    let schema = case.store.schema();
    let xplan = derive_exchange(plan.parallel_plan(), &plan.evaluate(&case.store), schema, ranks)
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    let dead_owned = xplan.owned_field_bytes(schema, crash_rank);
    // A recovery scheme with no migration bound would re-shard everything:
    // the full owned footprint is the yardstick `bytes_migrated` beats.
    let full_reshard: u64 = (0..ranks).map(|r| xplan.owned_field_bytes(schema, r)).sum();
    let run = on_ranks(ranks, ObsConfig { timeline: true, ..strict() })
        .check_legality(true)
        .fault(fault)
        .checkpoint(CheckpointPolicy::every(1));
    let (outcome, fault_wall) = verified_run(v, &at, case, &run, &plan);
    let rep = ranks_report(&outcome);
    v.check(format!("{at}.one_recovery"), rep.recoveries == 1, || {
        format!("{} recoveries", rep.recoveries)
    });
    v.check(format!("{at}.migration_bounded"), rep.bytes_migrated <= dead_owned, || {
        format!("migrated {} B but the lost rank owned {dead_owned} B", rep.bytes_migrated)
    });
    check_proved(v, &at, &rep);
    let trace = outcome.trace.as_ref().expect("timeline collection was requested");
    let traced = trace.validate().and_then(|()| {
        let recovered = trace.spans.iter().any(|s| s.kind == SpanKind::Recovery);
        recovered.then_some(()).ok_or_else(|| "the timeline holds no recovery span".to_string())
    });
    v.check(format!("{at}.recovery_traced"), traced.is_ok(), || traced.unwrap_err());
    let pid = chrome.len() as u64 + 1;
    chrome.push(trace.chrome_trace_events(&format!("{} @ {ranks} ranks, crash", case.name), pid));
    eprintln!(
        "recovery: {} at {ranks} ranks: rank {crash_rank} died at epoch {crash_epoch}; \
         recovered in {:.2} ms migrating {} B of {full_reshard} B; checkpoints every {} \
         epochs cost {overhead_pct:.2}% fault-free (every epoch: {every_pct:+.2}% wall)",
        case.name,
        rep.recovery_ns as f64 / 1e6,
        rep.bytes_migrated,
        policy.interval_epochs,
    );

    Json::object()
        .with("name", case.name)
        .with("ranks", ranks as u64)
        .with("crash_rank", crash_rank as u64)
        .with("crash_epoch", crash_epoch)
        .with("recoveries", rep.recoveries)
        .with("recovery_ns", rep.recovery_ns)
        .with("bytes_migrated", rep.bytes_migrated)
        .with("lost_rank_owned_bytes", dead_owned)
        .with("full_reshard_bytes", full_reshard)
        .with("migration_fraction", rep.bytes_migrated as f64 / full_reshard as f64)
        .with("retransmits", rep.retransmits)
        .with("duplicates", rep.duplicates)
        .with("faulted_wall_ns", fault_wall)
        .with("fault_free_wall_ns", base_wall)
        .with("young_daly_interval_epochs", policy.interval_epochs)
        .with("checkpoint_overhead_pct", overhead_pct)
        .with("every_epoch_overhead_pct", every_pct)
        .with("checkpoints", probe.checkpoints)
        .with("checkpoint_bytes", probe.checkpoint_bytes)
}

fn main() {
    let args = BenchArgs::parse();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut v = Verdicts::default();
    // Chrome trace events, one process per timeline.
    let mut chrome: Vec<Vec<Json>> = Vec::new();
    let cases = cases();
    let (apps, sweep_human) = sweep(&mut v, &cases, &mut chrome);
    let scaling = scaling(&mut v, cores);
    let (placement, placement_human) = placement(&mut v);
    let recoveries =
        cases.iter().fold(Json::array(), |arr, case| arr.push(recovery(&mut v, case, &mut chrome)));

    let payload = Json::object()
        .with("ranks", Json::Arr(SWEEP_RANKS.iter().map(|&r| Json::from(r as u64)).collect()))
        .with("host_parallelism", cores as u64)
        .with("apps", apps)
        .with("scaling", scaling)
        .with("solve_budget_pct", MAX_SOLVE_PCT)
        .with("placement", placement)
        .with("fault_seed", FAULT_SEED)
        .with("dist_recovery", recoveries)
        .with("verdicts", v.to_json());
    let failures = v.failures();
    args.emit("fig_dist", payload, || {
        println!("# Distributed backend: constraint-derived ghost exchange vs replication");
        println!("# (every run verified bit-identical to the sequential interpreter under");
        println!("#  strict predicted-vs-measured accounting; wait% / skew% from the");
        println!("#  per-epoch critical-path profile)");
        print!("{sweep_human}");
        println!("\n# Placement: block vs cost-driven owner mapping, 4 colors per rank");
        print!("{placement_human}");
        println!("\n# {} verdicts, {} failed", v.0.len(), failures.len());
    });
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, format!("{}\n", chrome_trace_doc(chrome.concat()))) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("verdict failed: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_verdict_is_false_in_the_report_and_named_in_the_failures() {
        let mut v = Verdicts::default();
        v.check("a.holds".into(), true, || unreachable!("no detail for a passing check"));
        v.check("b.fails".into(), false, || "measured 3 B".into());
        v.check("c.flips".into(), true, String::new);
        v.check("c.flips".into(), false, || "second check".into());
        v.check("c.flips".into(), true, String::new);
        let doc = v.to_json();
        assert_eq!(doc.get("a.holds").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("b.fails").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("c.flips").and_then(Json::as_bool), Some(false), "one failure sticks");
        assert_eq!(v.failures(), ["b.fails: measured 3 B", "c.flips: second check"]);
    }
}
