//! Solve-as-a-service benchmark: sustained solves/sec through the
//! `partir::Server` on a mixed corpus (the five paper applications at
//! several sizes and hint configurations), cold versus warm.
//!
//! The cold phase acquires every distinct request once against a fresh
//! cache; the warm phase replays the whole corpus several times from
//! concurrent closed-loop clients, where every request must hit the
//! fingerprint-keyed `PlanCache`. A request is timed from submission until
//! its client holds what it needs to run — the plan *and* the distributed
//! artifacts for its store — because a solve alone is not runnable, and a
//! warm request that re-derives (or re-identifies) anything store-sized
//! would pass a gate on solve time alone. The report records the hit rate,
//! p50/p99 of both the solve and the whole acquisition for both phases,
//! warm throughput, and the median cold/warm acquisition speedup, and
//! every warm plan is checked bit-identical to its cold counterpart by
//! executing both.
//!
//! Every run checks two gates: the warm hit rate is 100% and warm
//! acquisition (request → artifacts) is at least 10x faster than the cold
//! median. The report is written first; a failed gate then exits 1.
//!
//! Run: `cargo run --release -p partir-bench --bin fig_serve`
//! JSON report: `... --bin fig_serve -- --json [--out PATH]`

use partir::prelude::*;
use partir::serve::{ServeConfig, ServeReply, Server};
use partir_apps::{circuit, miniaero, pennant, spmv, stencil};
use partir_bench::BenchArgs;
use partir_obs::json::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Warm replays of the full corpus: enough requests (450) that the median
/// is not set by the clients' first, cache-cold ones.
const WARM_ROUNDS: usize = 50;
/// Server worker threads.
const WORKERS: usize = 4;
/// Closed-loop clients of the warm phase.
const CLIENTS: usize = 2;
/// The rank count artifacts are derived, and the bit-identity runs
/// executed, at.
const RANKS: usize = 4;
/// Warm acquisition (request → artifacts) must beat the cold median by at
/// least this factor.
const MIN_WARM_SPEEDUP: f64 = 10.0;

struct Request {
    name: &'static str,
    program: Vec<Loop>,
    fns: FnTable,
    store: Store,
    hints: Hints,
    exts: ExtBindings,
    colors: usize,
}

impl Request {
    fn builder(&self) -> Partir {
        Partir::new(self.program.clone(), self.fns.clone(), self.store.schema().clone())
            .colors(self.colors)
            .hints(self.hints.clone())
            .externals(self.exts.clone())
    }

    /// What a client does before it can run: gets the plan from `server`,
    /// then the distributed artifacts for its store. Returns the reply and
    /// the nanoseconds from request to artifacts.
    fn acquire(&self, server: &Server) -> (ServeReply, u64) {
        let t0 = Instant::now();
        let reply = server.solve(self.builder()).unwrap_or_else(|e| panic!("{}: {e}", self.name));
        reply
            .plan
            .solved()
            .dist_artifacts(&self.store, RANKS, &PlacementConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        (reply, t0.elapsed().as_nanos() as u64)
    }
}

/// The mixed corpus: five applications, varied sizes and hint setups.
fn corpus() -> Vec<Request> {
    let mut out = Vec::new();
    let plain = |name, program, fns, store, colors| Request {
        name,
        program,
        fns,
        store,
        hints: Hints::new(),
        exts: ExtBindings::new(),
        colors,
    };

    let a = spmv::Spmv::generate(&spmv::SpmvParams { rows: 4096, halo: 2, band_shift: 0 });
    out.push(plain("spmv_4k", a.program, a.fns, a.store, 8));
    let a = spmv::Spmv::generate(&spmv::SpmvParams { rows: 8192, halo: 3, band_shift: 0 });
    out.push(plain("spmv_8k_halo3", a.program, a.fns, a.store, 8));

    let a = stencil::Stencil::generate(&stencil::StencilParams { nx: 64, ny: 64 });
    out.push(plain("stencil_64", a.program, a.fns, a.store, 8));
    let a = stencil::Stencil::generate(&stencil::StencilParams { nx: 96, ny: 64 });
    out.push(plain("stencil_96x64", a.program, a.fns, a.store, 8));

    let a = miniaero::MiniAero::generate(&miniaero::MiniAeroParams { nx: 6, ny: 6, nz: 6 });
    out.push(plain("miniaero_6", a.program, a.fns, a.store, 8));

    let a = circuit::Circuit::generate(&circuit::CircuitParams {
        clusters: 4,
        nodes_per_cluster: 200,
        wires_per_cluster: 800,
        cross_fraction: 0.2,
        cross_stride: None,
        seed: 7,
    });
    out.push(plain("circuit_auto", a.program, a.fns, a.store, 8));
    let a = circuit::Circuit::generate(&circuit::CircuitParams {
        clusters: 8,
        nodes_per_cluster: 400,
        wires_per_cluster: 800,
        ..circuit::CircuitParams::default()
    });
    let (hints, exts) = a.hint_setup(8);
    out.push(Request {
        name: "circuit_hinted",
        program: a.program,
        fns: a.fns,
        store: a.store,
        hints,
        exts,
        colors: 8,
    });

    let a = pennant::Pennant::generate(&pennant::PennantParams { pieces: 4, zw: 4, zy: 4 });
    out.push(plain("pennant_auto", a.program, a.fns, a.store, 4));
    let a = pennant::Pennant::generate(&pennant::PennantParams { pieces: 4, zw: 4, zy: 4 });
    let (hints, exts) = a.hint_setup(pennant::PennantConfig::Hint2);
    out.push(Request {
        name: "pennant_hint2",
        program: a.program,
        fns: a.fns,
        store: a.store,
        hints,
        exts,
        colors: 4,
    });

    out
}

fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

struct PhaseStats {
    p50_ns: u64,
    p99_ns: u64,
}

fn phase_stats(mut lat: Vec<u64>) -> PhaseStats {
    lat.sort_unstable();
    PhaseStats { p50_ns: percentile_ns(&lat, 0.50), p99_ns: percentile_ns(&lat, 0.99) }
}

/// One phase's replies with the server's solve time and the client's
/// request → artifacts time of each.
struct Phase {
    replies: Vec<ServeReply>,
    solve: PhaseStats,
    acquire: PhaseStats,
    wall_s: f64,
}

impl Phase {
    fn of(timed: Vec<(ServeReply, u64)>, wall_s: f64) -> Phase {
        let solve = phase_stats(timed.iter().map(|(r, _)| r.solve_ns).collect());
        let acquire = phase_stats(timed.iter().map(|(_, ns)| *ns).collect());
        Phase { replies: timed.into_iter().map(|(r, _)| r).collect(), solve, acquire, wall_s }
    }

    fn to_json(&self) -> Json {
        Json::object()
            .with("wall_s", self.wall_s)
            .with("p50_ms", ns_to_ms(self.solve.p50_ns))
            .with("p99_ms", ns_to_ms(self.solve.p99_ns))
            .with("acquire_p50_ms", ns_to_ms(self.acquire.p50_ns))
            .with("acquire_p99_ms", ns_to_ms(self.acquire.p99_ns))
    }
}

fn main() {
    let args = BenchArgs::parse();
    let corpus = corpus();
    let server =
        Server::new(ServeConfig { workers: WORKERS, queue_cap: 256, ..Default::default() });

    // Cold phase: every distinct request once; all must miss.
    let cold_wall = Instant::now();
    let cold = corpus.iter().map(|r| r.acquire(&server)).collect();
    let cold = Phase::of(cold, cold_wall.elapsed().as_secs_f64());
    assert!(cold.replies.iter().all(|r| !r.plan.cache_hit()), "cold phase must miss");

    // Warm phase: the whole corpus WARM_ROUNDS times, from CLIENTS threads
    // that each acquire, then take the next request.
    let warm_wall = Instant::now();
    let next = AtomicUsize::new(0);
    let client = || {
        let mut done = Vec::new();
        loop {
            let at = next.fetch_add(1, Ordering::Relaxed);
            if at >= WARM_ROUNDS * corpus.len() {
                return done;
            }
            done.push(corpus[at % corpus.len()].acquire(&server));
        }
    };
    let warm: Vec<_> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS).map(|_| s.spawn(client)).collect();
        clients.into_iter().flat_map(|c| c.join().expect("a warm client panicked")).collect()
    });
    let warm = Phase::of(warm, warm_wall.elapsed().as_secs_f64());
    let hits = warm.replies.iter().filter(|r| r.plan.cache_hit()).count();
    let hit_rate = hits as f64 / warm.replies.len() as f64;
    let solves_per_sec = warm.replies.len() as f64 / warm.wall_s;
    let speedup = cold.acquire.p50_ns as f64 / warm.acquire.p50_ns.max(1) as f64;
    let solve_speedup = cold.solve.p50_ns as f64 / warm.solve.p50_ns.max(1) as f64;

    // Bit-identity: each warm plan must execute exactly like its cold one.
    for (req, cold_reply) in corpus.iter().zip(&cold.replies) {
        let warm_reply = warm
            .replies
            .iter()
            .find(|w| w.plan.fingerprint() == cold_reply.plan.fingerprint())
            .unwrap_or_else(|| panic!("{}: no warm reply for the cold fingerprint", req.name));
        // Ranks backend: ghost exchange makes even relaxed plans (the
        // auto-solved Circuit) legal to execute.
        let run = Run::new().backend(Backend::Ranks(RANKS));
        let mut from_cold = req.store.clone();
        let mut from_warm = req.store.clone();
        run.run(&cold_reply.plan, &mut from_cold)
            .unwrap_or_else(|e| panic!("{} cold run: {e}", req.name));
        run.run(&warm_reply.plan, &mut from_warm)
            .unwrap_or_else(|e| panic!("{} warm run: {e}", req.name));
        for f in 0..req.store.schema().num_fields() {
            let fid = partir::dpl::region::FieldId(f as u32);
            assert_eq!(
                from_cold.field_data(fid),
                from_warm.field_data(fid),
                "{}: warm plan diverged from cold on field {f}",
                req.name
            );
        }
    }

    let stats = server.cache_stats().expect("cache is healthy");

    let rows: Vec<Json> = corpus
        .iter()
        .zip(&cold.replies)
        .map(|(r, reply)| {
            Json::object()
                .with("request", r.name)
                .with("fingerprint", reply.plan.fingerprint().to_string())
                .with("colors", r.colors)
                .with("cold_ms", ns_to_ms(reply.solve_ns))
        })
        .collect();

    let payload = Json::object()
        .with("corpus", rows)
        .with("workers", WORKERS)
        .with("clients", CLIENTS)
        .with("warm_rounds", WARM_ROUNDS)
        .with("cold", cold.to_json().with("solves", cold.replies.len()))
        .with(
            "warm",
            warm.to_json()
                .with("requests", warm.replies.len())
                .with("hit_rate", hit_rate)
                .with("solves_per_sec", solves_per_sec),
        )
        .with("warm_speedup_median", speedup)
        .with("bit_identical", true)
        .with("cache", stats.to_json());

    args.emit("serve", payload, || {
        println!("serve: mixed corpus of {} requests, {WARM_ROUNDS} warm rounds", corpus.len());
        for (name, phase) in [("cold", &cold), ("warm", &warm)] {
            println!(
                "  {name}: request -> artifacts p50 {:8.3} ms  p99 {:8.3} ms   (solve alone p50 \
                 {:8.3} ms  p99 {:8.3} ms; {} requests in {:.2}s)",
                ns_to_ms(phase.acquire.p50_ns),
                ns_to_ms(phase.acquire.p99_ns),
                ns_to_ms(phase.solve.p50_ns),
                ns_to_ms(phase.solve.p99_ns),
                phase.replies.len(),
                phase.wall_s,
            );
        }
        println!("  warm: hit rate {:5.1}%   {solves_per_sec:8.1} requests/s", hit_rate * 100.0);
        println!(
            "  warm speedup (median cold / median warm): {speedup:.1}x request -> artifacts, \
             {solve_speedup:.1}x solve alone"
        );
        println!(
            "  cache: {} entries, {} bytes, {} hits / {} misses, {} evictions",
            stats.entries, stats.bytes, stats.hits, stats.misses, stats.evictions
        );
        println!("  bit-identity: every warm plan matched its cold solve");
    });

    let mut failures = Vec::new();
    if hit_rate < 1.0 {
        failures.push(format!(
            "warm hit rate {:.1}% (need 100%): {} of {} requests missed",
            hit_rate * 100.0,
            warm.replies.len() - hits,
            warm.replies.len()
        ));
    }
    if speedup < MIN_WARM_SPEEDUP {
        failures.push(format!(
            "warm request -> artifacts only {speedup:.1}x faster than cold median \
             (need {MIN_WARM_SPEEDUP}x): cold {:.3} ms vs warm {:.3} ms",
            ns_to_ms(cold.acquire.p50_ns),
            ns_to_ms(warm.acquire.p50_ns),
        ));
    }
    for f in &failures {
        eprintln!("serve gate FAILED: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
