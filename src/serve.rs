//! Solve-as-a-service: a [`Server`] that accepts concurrent solve
//! requests, shares one fingerprint-keyed [`PlanCache`] across them, and
//! applies admission control so one runaway request cannot monopolize the
//! solver.
//!
//! ```text
//! let server = Server::new(ServeConfig { workers: 8, ..ServeConfig::default() });
//! let reply = server.solve(Partir::new(program, fns, schema).colors(8))?;
//! reply.plan.run(&mut store)?;          // a normal shareable Plan
//! println!("{}", reply.report);         // partir-report-v1 envelope
//! ```
//!
//! Every request is admitted on the caller's thread, in
//! [`Server::submit`]: its `session.invalid` checks run, its solve
//! fingerprint is computed once, and the shared cache is probed once. A
//! hit is answered in the returned [`Ticket`] at once: no queue slot is
//! taken and no worker is involved. A miss goes to a fixed worker pool
//! over an MPSC queue, and the worker solves and inserts without probing
//! again. Concurrent misses of one key are each solved (the cache keeps
//! one artifact per key); they are not coalesced.
//!
//! [`Ticket::wait`] blocks for the reply, and [`Server::solve`] is the
//! blocking composition of the two. Admission control is two-layered:
//!
//! - **Queue bound** — at most `queue_cap` misses queued or solving;
//!   excess misses fail fast with `serve.queue_full`. Hits never count
//!   against it.
//! - **Solve budget** — an optional server-wide [`SolveBudget`] clamps
//!   every request's search; a request whose solve would degrade to the
//!   trivial fallback is rejected with `serve.over_budget` instead of
//!   being served (or cached) degraded.
//!
//! Every successful reply carries a `partir-report-v1` envelope recording
//! the fingerprint, cache outcome, and solve latency; failures map to the
//! registered `serve.*` / `cache.*` / `session.*` error codes via
//! [`Error::error_code`].

use crate::builder::Partir;
use crate::error::{Error, ServeError};
use crate::plan::Plan;
use partir_core::cache::{CacheStats, PlanCache, SolvedPlan, DEFAULT_CAPACITY_BYTES};
use partir_core::solve::SolveBudget;
use partir_obs::json::Json;
use partir_obs::report::envelope;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Serving-pool configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads solving requests (default 4).
    pub workers: usize,
    /// Maximum misses queued or solving before further misses are
    /// rejected with `serve.queue_full` (default 64).
    pub queue_cap: usize,
    /// Byte capacity of the server's [`PlanCache`], plans and their memos
    /// together (default 128 MiB).
    pub cache_bytes: u64,
    /// Server-wide admission budget. When set, it overrides each
    /// request's own [`SolveBudget`], and solves that would exhaust it
    /// (degrading to the trivial solution) are rejected with
    /// `serve.over_budget`.
    pub admission_budget: Option<SolveBudget>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            cache_bytes: DEFAULT_CAPACITY_BYTES,
            admission_budget: None,
        }
    }
}

impl ServeConfig {
    /// Sets the admission budget (see
    /// [`admission_budget`](Self::admission_budget)).
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.admission_budget = Some(budget);
        self
    }
}

/// A successful solve reply: the shareable plan plus its per-request
/// report envelope.
#[derive(Clone, Debug)]
pub struct ServeReply {
    /// The solved (or cache-satisfied) plan, ready to run or clone.
    pub plan: Plan,
    /// Wall-clock nanoseconds spent acquiring the plan: the caller's
    /// fingerprint and cache probe on a hit, the worker's solve and cache
    /// insert on a miss.
    pub solve_ns: u64,
    /// `partir-report-v1` envelope for this request: fingerprint,
    /// `cache_hit`, `solve_ns`, `colors`, `degraded`.
    pub report: Json,
}

type Reply = Result<ServeReply, Error>;

/// A miss to solve, and where its reply goes.
struct Job {
    builder: Partir,
    reply: mpsc::Sender<Reply>,
}

/// Handle for one submitted request; [`wait`](Ticket::wait) blocks for
/// the reply (a hit's is already here).
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Reply>,
}

impl Ticket {
    /// A ticket answered at admission.
    fn answered(reply: Reply) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(reply);
        Ticket { rx }
    }

    /// Blocks until the request is answered. Fails with
    /// `serve.disconnected` if the server shut down, or the worker solving
    /// the request panicked, before replying.
    pub fn wait(self) -> Result<ServeReply, Error> {
        self.rx.recv().map_err(|_| Error::Serve(ServeError::Disconnected))?
    }
}

/// A concurrent solve service over a shared [`PlanCache`].
///
/// Dropping the server drains the queue: already-accepted requests finish
/// (their tickets stay valid), new submissions are impossible.
#[derive(Debug)]
pub struct Server {
    tx: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    cache: PlanCache,
    inflight: Arc<AtomicUsize>,
    queue_cap: usize,
    budget: Option<SolveBudget>,
}

impl Server {
    pub fn new(config: ServeConfig) -> Server {
        let cache = PlanCache::new(config.cache_bytes);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let inflight = Arc::new(AtomicUsize::new(0));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let cache = cache.clone();
                let inflight = Arc::clone(&inflight);
                std::thread::spawn(move || loop {
                    // A worker that panicked mid-recv poisons the queue
                    // lock; remaining workers exit rather than spin.
                    let job = match rx.lock() {
                        Ok(rx) => match rx.recv() {
                            Ok(job) => job,
                            Err(_) => break,
                        },
                        Err(_) => break,
                    };
                    let result = solve_miss(&cache, job.builder);
                    // Release the queue slot before replying, so a caller
                    // that observes its reply also observes the capacity.
                    inflight.fetch_sub(1, Ordering::SeqCst);
                    let _ = job.reply.send(result);
                })
            })
            .collect();
        Server {
            tx: Some(tx),
            workers,
            cache,
            inflight,
            queue_cap: config.queue_cap.max(1),
            budget: config.admission_budget,
        }
    }

    /// The server's shared plan cache (clone of the handle; capacity and
    /// statistics are shared with the workers).
    pub fn cache(&self) -> PlanCache {
        self.cache.clone()
    }

    /// Snapshot of the shared cache's counters.
    pub fn cache_stats(&self) -> Result<CacheStats, Error> {
        Ok(self.cache.stats()?)
    }

    /// Misses queued or currently solving.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Admits a solve request on the calling thread (see the module doc):
    /// the server's admission budget (if any) overrides the request's, the
    /// request is checked and fingerprinted once, and the server's cache
    /// is probed once. A hit, an invalid request or a failed probe is
    /// answered in the returned ticket at once. A miss is enqueued; it
    /// fails fast with `serve.queue_full` when `queue_cap` misses are
    /// already queued or solving.
    pub fn submit(&self, builder: Partir) -> Result<Ticket, Error> {
        let t0 = Instant::now();
        let builder = if let Some(b) = self.budget { builder.budget(b) } else { builder };
        if let Err(e) = builder.admit() {
            return Ok(Ticket::answered(Err(e)));
        }
        match self.cache.get(builder.key()) {
            Ok(Some(solved)) => return Ok(Ticket::answered(Ok(reply(solved, true, t0)))),
            Ok(None) => {}
            Err(e) => return Ok(Ticket::answered(Err(e.into()))),
        }
        if self.inflight.fetch_add(1, Ordering::SeqCst) >= self.queue_cap {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(Error::Serve(ServeError::QueueFull { cap: self.queue_cap }));
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let tx = self.tx.as_ref().expect("sender lives until drop");
        if tx.send(Job { builder, reply: reply_tx }).is_err() {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(Error::Serve(ServeError::Disconnected));
        }
        Ok(Ticket { rx: reply_rx })
    }

    /// Blocking solve: [`submit`](Self::submit) + [`wait`](Ticket::wait).
    pub fn solve(&self, builder: Partir) -> Result<ServeReply, Error> {
        self.submit(builder)?.wait()
    }

    /// Stops accepting requests and joins the workers after the queue
    /// drains.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// One miss, on a worker thread: solve, reject a degraded result, insert.
fn solve_miss(cache: &PlanCache, builder: Partir) -> Reply {
    let t0 = Instant::now();
    let solved = builder.solve_cold()?;
    if solved.degraded() {
        // The cache would refuse it too (degraded plans are never
        // cached), so a later, better-budgeted request re-solves.
        return Err(Error::Serve(ServeError::OverBudget));
    }
    cache.insert(Arc::clone(&solved))?;
    Ok(reply(solved, false, t0))
}

/// A successful reply and its `partir-report-v1` envelope.
fn reply(solved: Arc<SolvedPlan>, cache_hit: bool, t0: Instant) -> ServeReply {
    let plan = Plan::from_solved(solved, cache_hit);
    let solve_ns = t0.elapsed().as_nanos() as u64;
    let report = envelope("serve_request")
        .with("fingerprint", plan.fingerprint().to_string())
        .with("cache_hit", cache_hit)
        .with("solve_ns", solve_ns)
        .with("colors", plan.colors())
        .with("degraded", false);
    ServeReply { plan, solve_ns, report }
}

/// `partir-report-v1` envelope for a failed request, carrying the stable
/// error code and the human-readable message.
pub fn error_report(err: &Error) -> Json {
    envelope("serve_request").with("error_code", err.error_code()).with("error", err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_dpl::func::{FnDef, FnTable, IndexFn};
    use partir_dpl::region::{FieldKind, Schema};
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};
    use partir_obs::report::validate_envelope;

    fn scatter() -> (Vec<partir_ir::ast::Loop>, FnTable, Schema) {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 64);
        let s = schema.add_region("S", 64);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g =
            fns.add("g", r, s, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 5, modulus: 64 }));
        let mut b = LoopBuilder::new("scatter", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let gi = b.idx_apply(g, i);
        b.val_reduce(s, sx, gi, ReduceOp::Add, VExpr::var(v));
        (vec![b.finish()], fns, schema)
    }

    #[test]
    fn serve_solves_and_reports_per_request() {
        let (program, fns, schema) = scatter();
        let server = Server::new(ServeConfig::default());

        let cold = server.solve(Partir::new(program.clone(), fns.clone(), schema.clone())).unwrap();
        assert!(!cold.plan.cache_hit());
        let parsed = Json::parse(&cold.report.to_string()).unwrap();
        assert_eq!(validate_envelope(&parsed).unwrap(), "serve_request");
        assert_eq!(parsed.get("cache_hit").and_then(Json::as_bool), Some(false));

        let warm = server.solve(Partir::new(program, fns, schema)).unwrap();
        assert!(warm.plan.cache_hit());
        assert!(Arc::ptr_eq(cold.plan.solved(), warm.plan.solved()));
        let stats = server.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn concurrent_submissions_share_one_solve_artifact() {
        let (program, fns, schema) = scatter();
        let server = Server::new(ServeConfig { workers: 4, ..ServeConfig::default() });
        // Prime the cache, so that every request below is a hit answered
        // on the submitting thread (simultaneous cold requests would each
        // be solved, and the cache would keep one of their artifacts).
        let primed = server
            .solve(Partir::new(program.clone(), fns.clone(), schema.clone()))
            .expect("priming solve succeeds");
        let tickets: Vec<_> = (0..8)
            .map(|_| server.submit(Partir::new(program.clone(), fns.clone(), schema.clone())))
            .collect::<Result<_, _>>()
            .unwrap();
        let replies: Vec<_> =
            tickets.into_iter().map(|t| t.wait().expect("request succeeds")).collect();
        for r in &replies {
            assert!(r.plan.cache_hit(), "every post-prime request hits");
            assert!(
                Arc::ptr_eq(r.plan.solved(), primed.plan.solved()),
                "all requests share one artifact"
            );
        }
        assert_eq!(server.inflight(), 0);
        let stats = server.cache_stats().unwrap();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits, 8);
    }

    #[test]
    fn queue_cap_rejects_with_a_stable_code() {
        let (program, fns, schema) = scatter();
        let server = Server::new(ServeConfig { workers: 1, queue_cap: 1, ..Default::default() });
        // Holding the single worker hostage is racy; instead submit
        // distinct shapes (a repeated one could hit) until one is rejected
        // or a bound is hit.
        let mut rejected = None;
        let mut tickets = Vec::new();
        for k in 1..=64 {
            let request = Partir::new(program.clone(), fns.clone(), schema.clone()).colors(k);
            match server.submit(request) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let err = rejected.expect("queue eventually fills");
        assert_eq!(err.error_code(), "serve.queue_full");
        let parsed = Json::parse(&error_report(&err).to_string()).unwrap();
        assert_eq!(parsed.get("error_code").and_then(Json::as_str), Some("serve.queue_full"));
        for t in tickets {
            t.wait().expect("accepted requests still complete");
        }
    }

    #[test]
    fn admission_budget_rejects_degraded_solves() {
        let (program, fns, schema) = scatter();
        // A zero budget forces every solve to degrade to the trivial
        // solution; the server must reject rather than serve it.
        let server = Server::new(
            ServeConfig::default()
                .budget(SolveBudget { max_nodes: Some(0), ..SolveBudget::default() }),
        );
        let err = server.solve(Partir::new(program, fns, schema)).unwrap_err();
        assert_eq!(err.error_code(), "serve.over_budget");
        let stats = server.cache_stats().unwrap();
        assert_eq!(stats.entries, 0, "degraded solves are never cached");
    }

    #[test]
    fn shutdown_disconnects_pending_tickets_cleanly() {
        let (program, fns, schema) = scatter();
        let server = Server::new(ServeConfig::default());
        let ticket = server.submit(Partir::new(program, fns, schema)).unwrap();
        server.shutdown();
        // The request was accepted before shutdown, so it completed.
        ticket.wait().expect("accepted work drains on shutdown");
    }
}
