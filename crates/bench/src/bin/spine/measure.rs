//! The fixed protocol and the end-to-end passes.
//!
//! Only the facade is used here (`Partir`, `Plan`, `Run`, `Server`,
//! `apps::*::generate` via `inputs`, `run_program_seq`), so refactors of
//! the library's internals cannot change what these numbers mean.

use crate::inputs::{self, Sizes, Workload};
use crate::stats::Summary;
use crate::trace::{maybe_span, Scope};
use partir::ir::interp::run_program_seq;
use partir::obs::json::Json;
use partir::prelude::*;
use partir::runtime::dist::LegalityMode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Backend width, server workers and the most client threads.
pub const WIDTH: usize = 2;
/// Fewest repetitions of any end-to-end series, whatever `--seconds` says.
pub const MIN_REPS: usize = 11;
const QUEUE_CAP: usize = 64;

/// Every plan acquisition, run and oracle comparison is one operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

pub fn serve_config() -> ServeConfig {
    ServeConfig { workers: WIDTH, queue_cap: QUEUE_CAP, ..ServeConfig::default() }
}

pub fn placement() -> PlacementConfig {
    PlacementConfig::default()
}

/// `Ranks(2)`, plan-level legality, block placement.
pub fn ranks_run(obs: ObsConfig) -> Run {
    Run::new()
        .backend(Backend::Ranks(WIDTH))
        .legality_mode(LegalityMode::Plan)
        .placement_config(placement())
        .obs(obs)
}

/// `Threads(2)`, legality checks off.
pub fn threads_run() -> Run {
    Run::new().backend(Backend::Threads(WIDTH)).check_legality(false).obs(ObsConfig::disabled())
}

/// Bitwise equality of two stores over every field (`-0.0 != 0.0`, and a
/// NaN equals itself).
pub fn stores_equal(a: &Store, b: &Store) -> bool {
    let n = a.schema().num_fields();
    n == b.schema().num_fields()
        && (0..n).all(|f| {
            let f = FieldId(f as u32);
            match (a.field_data(f), b.field_data(f)) {
                (FieldData::F64(x), FieldData::F64(y)) => {
                    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
                }
                (x, y) => x == y,
            }
        })
}

/// What one plan pass produced.
pub struct PlanPass {
    /// The last plan acquired for each request, by request index.
    pub plans: Vec<Option<Plan>>,
    /// Submit-to-artifacts latency of every request, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Requests the server refused (`serve.queue_full`, `serve.over_budget`).
    pub rejects: u64,
}

/// One pass: drains `w.order` (replayed `replays` times) through `server`
/// from `min(WIDTH, len)` closed-loop client threads. Each client submits,
/// waits, then derives the distributed artifacts for its request's store.
pub fn plan_pass(
    server: &Server,
    w: &Workload,
    replays: usize,
    ops: &mut Ops,
    scope: Option<Scope>,
) -> PlanPass {
    let total = w.order.len() * replays;
    let next = AtomicUsize::new(0);
    let placement = placement();
    let client = || {
        let mut done = Vec::new();
        loop {
            let at = next.fetch_add(1, Ordering::Relaxed);
            if at >= total {
                return done;
            }
            let ri = w.order[at % w.order.len()];
            let req = &w.requests[ri];
            let t0 = Instant::now();
            let acquire = || {
                let reply = server.solve(req.builder())?;
                reply.plan.solved().dist_artifacts(&req.store, WIDTH, &placement)?;
                Ok::<Plan, Error>(reply.plan)
            };
            let result = maybe_span(scope, "request", |_| acquire());
            done.push((ri, result, t0.elapsed().as_nanos() as u64));
        }
    };
    // `min(WIDTH, len)` clients for a list of `len` requests, however often
    // it is replayed. A single client is the calling thread itself: a
    // one-request pass then times the library, not a thread spawn.
    let n_clients = WIDTH.min(w.order.len());
    let per_client: Vec<Vec<_>> = if n_clients == 1 {
        vec![client()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_clients).map(|_| s.spawn(client)).collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        })
    };
    let mut pass = PlanPass {
        plans: vec![None; w.requests.len()],
        latencies_ns: Vec::with_capacity(total),
        rejects: 0,
    };
    for (ri, result, ns) in per_client.into_iter().flatten() {
        ops.record(result.is_ok());
        pass.latencies_ns.push(ns);
        match result {
            Ok(plan) => pass.plans[ri] = Some(plan),
            Err(e) => {
                eprintln!("spine: {}: plan acquisition failed: {e}", w.requests[ri].name);
                pass.rejects += u64::from(matches!(e, Error::Serve(_)));
            }
        }
    }
    pass
}

/// Fresh copies of the request stores, in pass order.
pub fn fresh_stores(w: &Workload) -> Vec<Store> {
    w.order.iter().map(|&ri| w.requests[ri].store.clone()).collect()
}

/// Runs the pass's plans one after another on `stores` (from
/// [`fresh_stores`]). A request without a plan was already counted as a
/// failed acquisition and is skipped.
pub fn run_pass(
    run: &Run,
    w: &Workload,
    plans: &[Option<Plan>],
    stores: &mut [Store],
    ops: &mut Ops,
) -> Vec<Option<RunOutcome>> {
    w.order
        .iter()
        .zip(stores)
        .map(|(&ri, store)| {
            let outcome = plans[ri].as_ref().map(|plan| run.run(plan, store));
            if let Some(result) = &outcome {
                if let Err(e) = result {
                    eprintln!("spine: {}: run failed: {e}", w.requests[ri].name);
                }
                ops.record(result.is_ok());
            }
            outcome.and_then(Result::ok)
        })
        .collect()
}

/// Compares every store a run pass produced with the oracle's.
pub fn verify(w: &Workload, stores: &[Store], oracles: &[Store], ops: &mut Ops) {
    for (&ri, store) in w.order.iter().zip(stores) {
        let same = stores_equal(store, &oracles[ri]);
        if !same {
            eprintln!(
                "spine: {}: store differs from the sequential interpreter",
                w.requests[ri].name
            );
        }
        ops.record(same);
    }
}

/// A workload ready to measure.
pub struct Prepared {
    pub workload: Workload,
    /// The sequential interpreter's result for each request.
    pub oracles: Vec<Store>,
    /// A server whose cache holds every request, and the plans it served.
    pub warm: Server,
    pub warm_plans: Vec<Option<Plan>>,
    /// How long this set-up took, in seconds.
    pub setup_s: f64,
}

/// Set-up: generate the inputs, run the oracle and the native kernel
/// (which must agree), fill the warm server's cache, and warm up with one
/// warm pass and one run on each backend. `None` for an unknown workload.
pub fn prepare(name: &str, seed: u64, sizes: &Sizes, ops: &mut Ops) -> Option<Prepared> {
    let t0 = Instant::now();
    let workload = inputs::build(name, seed, sizes)?;
    let mut oracles = Vec::with_capacity(workload.requests.len());
    for req in &workload.requests {
        let mut oracle = req.store.clone();
        run_program_seq(&req.program, &mut oracle, &req.fns);
        if let Some(kernel) = req.kernel {
            let mut native = req.store.clone();
            kernel.run(&mut native);
            let same = stores_equal(&native, &oracle);
            if !same {
                eprintln!("spine: {}: native kernel differs from the interpreter", req.name);
            }
            ops.record(same);
        }
        oracles.push(oracle);
    }
    let warm = Server::new(serve_config());
    let warm_plans = plan_pass(&warm, &workload, 1, ops, None).plans;
    let mut p = Prepared { workload, oracles, warm, warm_plans, setup_s: 0.0 };
    p.warm_pass(ops);
    p.timed_run(&ranks_run(ObsConfig::disabled()), ops);
    p.timed_run(&threads_run(), ops);
    p.setup_s = t0.elapsed().as_secs_f64();
    Some(p)
}

/// How a timing series becomes one number.
#[derive(Clone, Copy)]
pub enum Stat {
    /// The fastest repetition.
    Fastest,
    Median,
}

impl Stat {
    fn of(self, values: &[f64]) -> f64 {
        match self {
            Stat::Fastest => values.iter().copied().fold(f64::NAN, f64::min),
            Stat::Median => Summary::of(values).map_or(f64::NAN, |s| s.value),
        }
    }
}

/// The timed end-to-end series: name, unit, statistic (see [`combine`]).
pub const SERIES: [(&str, &str, Stat); 5] = [
    ("plan_cold_ms", "ms", Stat::Fastest),
    ("plan_warm_us", "us", Stat::Median),
    ("run_ranks_ms", "ms", Stat::Fastest),
    ("run_threads_ms", "ms", Stat::Fastest),
    ("first_result_ms", "ms", Stat::Fastest),
];

/// Timings of the end-to-end series, one entry per round, in the order of
/// [`SERIES`].
pub type Samples = [Vec<f64>; SERIES.len()];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1.0e3
}

impl Prepared {
    /// A cold pass against a fresh server immediately followed by a ranks
    /// run pass, one continuous interval. Returns `(cold, whole)`.
    pub fn first_result(
        &self,
        obs: ObsConfig,
        ops: &mut Ops,
        scope: Option<Scope>,
    ) -> (Duration, Duration, Vec<Option<RunOutcome>>) {
        let w = &self.workload;
        let server = Server::new(serve_config());
        let mut stores = fresh_stores(w);
        let run = ranks_run(obs);
        let t0 = Instant::now();
        let pass = maybe_span(scope, "plan_cold", |inner| plan_pass(&server, w, 1, ops, inner));
        let cold = t0.elapsed();
        let outcomes =
            maybe_span(scope, "run_ranks", |_| run_pass(&run, w, &pass.plans, &mut stores, ops));
        let whole = t0.elapsed();
        verify(w, &stores, &self.oracles, ops);
        (cold, whole, outcomes)
    }

    /// One pass with every request cached and its artifacts memoized.
    pub fn warm_pass(&self, ops: &mut Ops) -> (Duration, PlanPass) {
        let t0 = Instant::now();
        let pass = plan_pass(&self.warm, &self.workload, self.workload.warm_replays, ops, None);
        (t0.elapsed(), pass)
    }

    /// One run pass with the warm plans; store clones and the oracle
    /// comparison are outside the timer.
    pub fn timed_run(&self, run: &Run, ops: &mut Ops) -> (Duration, Vec<Option<RunOutcome>>) {
        let w = &self.workload;
        let mut stores = fresh_stores(w);
        let t0 = Instant::now();
        let outcomes = run_pass(run, w, &self.warm_plans, &mut stores, ops);
        let d = t0.elapsed();
        verify(w, &stores, &self.oracles, ops);
        (d, outcomes)
    }

    /// One round: one sample of every end-to-end series.
    pub fn round(&self, s: &mut Samples, ops: &mut Ops) {
        let (cold, whole, _) = self.first_result(ObsConfig::disabled(), ops, None);
        let warm = self.warm_pass(ops).0;
        let ranks = self.timed_run(&ranks_run(ObsConfig::disabled()), ops).0;
        let threads = self.timed_run(&threads_run(), ops).0;
        let round = [ms(cold), warm.as_secs_f64() * 1.0e6, ms(ranks), ms(threads), ms(whole)];
        for (series, value) in s.iter_mut().zip(round) {
            series.push(value);
        }
    }
}

/// Resident set figures of this process from `/proc/self/status`, in MB:
/// `(VmRSS, VmHWM)`.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// What one process measured: one set-up, then rounds. An untraced run is
/// split over [`PARTS`] processes, so set-up and peak memory are measured
/// several times and no timing depends on one process's memory layout.
pub struct Part {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub ops: Ops,
    pub samples: Samples,
}

/// Processes one untraced run is split over.
pub const PARTS: usize = 3;

/// Rounds one part makes for its share of `--seconds`: the share divided
/// by the workload's nominal round time, and at least a part's share of
/// [`MIN_REPS`]. The count depends on the arguments alone, never on how
/// fast this commit runs, so the fastest of `n` repetitions has the same
/// `n` on both sides of a comparison.
pub fn rounds_per_part(nominal_round_s: f64, seconds: f64) -> usize {
    let share = seconds / PARTS as f64;
    ((share / nominal_round_s).round() as usize).max(MIN_REPS.div_ceil(PARTS))
}

/// One part: set-up, then `rounds` rounds (`None`: by [`rounds_per_part`]).
pub fn run_part(
    name: &str,
    seed: u64,
    seconds: f64,
    rounds: Option<usize>,
    sizes: &Sizes,
) -> Option<Part> {
    let mut ops = Ops::default();
    let p = prepare(name, seed, sizes, &mut ops)?;
    let rounds = rounds.unwrap_or_else(|| rounds_per_part(p.workload.nominal_round_s, seconds));
    let mut samples = Samples::default();
    for _ in 0..rounds {
        p.round(&mut samples, &mut ops);
    }
    Some(Part { setup_s: p.setup_s, peak_rss_mb: rss_mb().1, ops, samples })
}

impl Part {
    pub fn to_json(&self) -> Json {
        let samples =
            SERIES.iter().zip(&self.samples).fold(Json::object(), |o, ((name, ..), v)| {
                o.with(*name, Json::Arr(v.iter().map(|&x| Json::from(x)).collect()))
            });
        Json::object()
            .with("setup_s", self.setup_s)
            .with("peak_rss_mb", self.peak_rss_mb)
            .with("attempted", self.ops.attempted)
            .with("failed", self.ops.failed)
            .with("samples", samples)
    }

    pub fn from_json(j: &Json) -> Option<Part> {
        let num = |key: &str| j.get(key).and_then(Json::as_f64);
        let mut samples = Samples::default();
        for ((name, ..), slot) in SERIES.iter().zip(&mut samples) {
            let values = j.get("samples")?.get(name)?.as_array()?;
            *slot = values.iter().map(Json::as_f64).collect::<Option<_>>()?;
        }
        Some(Part {
            setup_s: num("setup_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            ops: Ops { attempted: num("attempted")? as u64, failed: num("failed")? as u64 },
            samples,
        })
    }
}

/// The end-to-end metrics of one run from its parts.
///
/// Every metric is one statistic: the fastest repetition of a timing
/// series, the median of the warm pass, the one measurement of `setup_s`
/// and `peak_rss_mb`. The value is that statistic over all parts pooled
/// (for a once-per-part measurement, the median over parts); `q1` and `q3`
/// are the quartiles of the same statistic taken on each part alone, so the
/// spread beside a value is the spread of what is compared; `n` counts the
/// repetitions.
///
/// Why the fastest: on a shared host interference only ever adds time, in
/// bursts that last from seconds to minutes; over ten runs the fastest
/// repetition varied by 1-8 % where the median varied by 9-37 % (README,
/// "Why the fastest repetition"). The warm pass is the exception: it is a
/// chain of thread hand-offs with no hard floor, and its fastest repetition
/// is a lucky streak.
pub fn combine(parts: &[Part]) -> (Ops, Vec<(&'static str, &'static str, Summary)>) {
    let mut ops = Ops::default();
    for p in parts {
        ops.absorb(p.ops);
    }
    let over_parts = |values: Vec<f64>| Summary::of(&values).unwrap_or(Summary::single(f64::NAN));
    let mut metrics = vec![("setup_s", "s", over_parts(parts.iter().map(|p| p.setup_s).collect()))];
    for (i, &(name, unit, stat)) in SERIES.iter().enumerate() {
        let pooled: Vec<f64> = parts.iter().flat_map(|p| p.samples[i].iter().copied()).collect();
        let per_part = over_parts(parts.iter().map(|p| stat.of(&p.samples[i])).collect());
        metrics.push((
            name,
            unit,
            Summary { value: stat.of(&pooled), n: pooled.len(), ..per_part },
        ));
    }
    metrics.push(("peak_rss_mb", "MB", over_parts(parts.iter().map(|p| p.peak_rss_mb).collect())));
    (ops, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(scale: f64) -> Part {
        Part {
            setup_s: scale,
            peak_rss_mb: 10.0 * scale,
            ops: Ops { attempted: 7, failed: 0 },
            samples: [1.0, 2.0, 3.0, 4.0, 5.0]
                .map(|base| vec![base * scale, base * scale * 3.0, base * scale * 2.0]),
        }
    }

    #[test]
    fn each_metric_is_one_statistic_with_its_own_spread() {
        let parts = [part(2.0), part(100.0), part(1.0)];
        let (ops, metrics) = combine(&parts);
        assert_eq!((ops.attempted, ops.failed), (21, 0));
        let get = |k: &str| metrics.iter().find(|m| m.0 == k).unwrap().2;
        // plan_cold_ms samples are {2,6,4}, {100,300,200} and {1,3,2}: the
        // slow process does not move the value, all 9 are counted, and the
        // quartiles are those of the parts' own fastest, {1,2,100}.
        let cold = get("plan_cold_ms");
        assert_eq!((cold.value, cold.q1, cold.q3, cold.n), (1.0, 1.0, 100.0, 9));
        assert_eq!(get("first_result_ms").value, 5.0);
        // The warm pass reports the median of all nine,
        // {4,12,8,200,600,400,2,6,4}, beside the parts' medians {8,400,4}.
        let warm = get("plan_warm_us");
        assert_eq!((warm.value, warm.q1, warm.q3), (8.0, 4.0, 400.0));
        assert_eq!((get("setup_s").value, get("setup_s").n), (2.0, 3));
        assert_eq!(get("peak_rss_mb").value, 20.0);
        assert_eq!(metrics.len(), SERIES.len() + 2);
    }

    #[test]
    fn round_counts_depend_on_the_arguments_alone() {
        // A third of 12 s over the round, and the floor of 4 per part.
        assert_eq!(rounds_per_part(1.05, 12.0), 4);
        assert_eq!(rounds_per_part(1.8, 12.0), 4);
        assert_eq!(rounds_per_part(0.11, 12.0), 36);
        assert_eq!(rounds_per_part(1.05, 30.0), 10);
        assert_eq!(rounds_per_part(0.11, 0.0), 4);
    }

    #[test]
    fn part_round_trips_through_json() {
        let p = part(1.5);
        let q = Part::from_json(&Json::parse(&p.to_json().to_string()).unwrap()).unwrap();
        assert_eq!((q.setup_s, q.peak_rss_mb, q.ops.attempted), (1.5, 15.0, 7));
        assert_eq!(q.samples, p.samples);
        assert!(Part::from_json(&Json::parse("{}").unwrap()).is_none());
    }

    #[test]
    fn store_comparison_is_bitwise() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 2);
        let f = schema.add_field(r, "x", FieldKind::F64);
        let (mut a, mut b) = (Store::new(schema.clone()), Store::new(schema));
        assert!(stores_equal(&a, &b));
        b.f64s_mut(f)[1] = -0.0;
        assert!(!stores_equal(&a, &b), "-0.0 and 0.0 differ in one bit");
        a.f64s_mut(f)[1] = f64::NAN;
        b.f64s_mut(f)[1] = f64::NAN;
        assert!(stores_equal(&a, &b), "the same NaN is equal to itself");
    }
}
