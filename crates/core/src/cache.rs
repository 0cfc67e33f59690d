//! Fingerprint-keyed caching of solved plans — the solve-as-a-service
//! storage layer.
//!
//! A [`SolvedPlan`] is the immutable bundle a solve produces: the
//! [`ParallelPlan`] plus everything needed to execute it (program, function
//! table, schema, external bindings, color count), with interior memos for
//! the store-dependent artifacts — evaluated partitions, and per-rank-count
//! distributed artifacts (exchange plan, placement assignment, plan-legality
//! proof). A [`PlanCache`] maps [`solve_fingerprint`] keys to
//! `Arc<SolvedPlan>` under a byte-accounted LRU, so a warm request skips
//! constraint inference, solving, unification, partition evaluation,
//! exchange derivation, placement, *and* re-proving.
//!
//! Why memos live *inside* the plan instead of fragmenting the cache key:
//! the solve depends only on structure ([`solve_fingerprint`] inputs), while
//! partitions additionally depend on the store's index fields and the
//! distributed artifacts additionally depend on `(n_ranks, placement)`.
//! One cached solve therefore serves every rank count and every store whose
//! pointer structure matches — the common serving shape (same topology,
//! changing f64 payloads) hits all three levels.
//!
//! Locking: the cache uses a `std::sync::Mutex` deliberately (not the
//! vendored `parking_lot`), because poisoning is part of the contract — a
//! panic inside the critical section surfaces as
//! [`CacheError::Poisoned`] (`cache.poisoned` in `partir-report-v1`)
//! instead of silently serving a cache whose accounting may be corrupt.
//! The per-plan memos fail open instead: a poisoned memo quietly degrades
//! to recomputation, which is always safe because the artifacts are pure
//! functions of their key.

use crate::eval::ExtBindings;
use crate::exchange::{prove_plan_legality, ExchangeError};
use crate::fingerprint::{
    placement_fingerprint, solve_fingerprint, store_index_fingerprint, Fingerprint,
};
use crate::pipeline::{auto_parallelize, AutoError, Hints, Options, ParallelPlan};
use crate::placement::{place, Placement, PlacementConfig};
use partir_dpl::func::FnTable;
use partir_dpl::partition::Partition;
use partir_dpl::region::{Schema, Store};
use partir_ir::ast::{Loop, Stmt};
use partir_obs::json::Json;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Default LRU capacity when none is configured: generous for plan-sized
/// artifacts (a solved plan estimates in the tens of kilobytes), small
/// enough to be harmless resident state.
pub const DEFAULT_CAPACITY_BYTES: u64 = 64 * 1024 * 1024;

/// Entries kept per interior memo (partitions / distributed artifacts).
/// Serving workloads see a handful of distinct `(store, ranks, placement)`
/// shapes per plan; a small bound keeps `SolvedPlan` memory predictable
/// without a second accounting scheme.
const MEMO_CAP: usize = 8;

/// A cache failure. The only variant is lock poisoning: some thread
/// panicked while holding the cache lock, so hit/miss/byte accounting can
/// no longer be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    Poisoned,
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Poisoned => {
                write!(f, "plan cache poisoned: a thread panicked while holding the cache lock")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// The distributed-execution artifacts derived from one
/// `(store structure, n_ranks, placement config)` triple: evaluated
/// partitions, the placement (owner assignment + exchange plan + report),
/// and the plan-legality proof's fact count. With these in hand a run goes
/// straight to `partir-runtime`'s `dist::execute_ranks` with proving skipped.
#[derive(Debug)]
pub struct DistArtifacts {
    pub parts: Arc<Vec<Arc<Partition>>>,
    pub placement: Placement,
    /// Facts established by [`prove_plan_legality`] over these partitions
    /// and this exchange plan. `None` when the proof failed (the runtime
    /// then re-proves and surfaces the typed error on its own path).
    pub proof_facts: Option<u64>,
}

/// A tiny LRU used for the interior memos: linear scan, bounded length.
struct Memo<K: PartialEq, V> {
    entries: Vec<(K, V, u64)>,
    tick: u64,
}

impl<K: PartialEq, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Memo { entries: Vec::new(), tick: 0 }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.iter_mut().find(|(k, _, _)| k == key).map(|(_, v, t)| {
            *t = tick;
            v.clone()
        })
    }

    fn put(&mut self, key: K, value: V) {
        if self.entries.len() >= MEMO_CAP {
            if let Some(oldest) =
                self.entries.iter().enumerate().min_by_key(|(_, (_, _, t))| *t).map(|(i, _)| i)
            {
                self.entries.swap_remove(oldest);
            }
        }
        self.tick += 1;
        self.entries.push((key, value, self.tick));
    }
}

#[derive(PartialEq)]
struct DistKey {
    store_fp: Fingerprint,
    n_ranks: usize,
    placement_fp: Fingerprint,
}

struct Memos {
    parts: Memo<Fingerprint, Arc<Vec<Arc<Partition>>>>,
    dist: Memo<DistKey, Arc<DistArtifacts>>,
}

/// An immutable solved plan, shareable across threads and runs.
///
/// Everything a run needs travels with the plan, so a cache hit is
/// self-contained: callers bring only a store (whose schema must match)
/// and a backend width.
pub struct SolvedPlan {
    fingerprint: Fingerprint,
    program: Vec<Loop>,
    fns: FnTable,
    schema: Schema,
    externals: ExtBindings,
    n_colors: usize,
    plan: ParallelPlan,
    estimated_bytes: u64,
    memos: Mutex<Memos>,
}

impl fmt::Debug for SolvedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolvedPlan")
            .field("fingerprint", &self.fingerprint)
            .field("n_colors", &self.n_colors)
            .field("partitions", &self.plan.num_partitions())
            .field("estimated_bytes", &self.estimated_bytes)
            .finish()
    }
}

impl SolvedPlan {
    /// Runs the full constraint pipeline and bundles the result. This is
    /// the cold path a [`PlanCache`] hit skips.
    pub fn solve(
        program: Vec<Loop>,
        fns: FnTable,
        schema: Schema,
        hints: &Hints,
        opts: Options,
        externals: ExtBindings,
        n_colors: usize,
    ) -> Result<SolvedPlan, AutoError> {
        let fingerprint =
            solve_fingerprint(&program, &fns, &schema, hints, &opts, &externals, n_colors);
        let plan = auto_parallelize(&program, &fns, &schema, hints, opts)?;
        let mut sp = SolvedPlan {
            fingerprint,
            program,
            fns,
            schema,
            externals,
            n_colors,
            plan,
            estimated_bytes: 0,
            memos: Mutex::new(Memos { parts: Memo::new(), dist: Memo::new() }),
        };
        sp.estimated_bytes = sp.estimate_bytes();
        Ok(sp)
    }

    /// The structural key this plan was solved under.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    pub fn plan(&self) -> &ParallelPlan {
        &self.plan
    }

    pub fn program(&self) -> &[Loop] {
        &self.program
    }

    pub fn fns(&self) -> &FnTable {
        &self.fns
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn externals(&self) -> &ExtBindings {
        &self.externals
    }

    /// The color (task) count partitions are evaluated at.
    pub fn n_colors(&self) -> usize {
        self.n_colors
    }

    /// True when the solver's budget ran out and the pipeline fell back to
    /// the trivial (single-color-style) solution. Degraded plans are
    /// execution-correct but not worth caching or serving.
    pub fn degraded(&self) -> bool {
        self.plan.solution.degraded
    }

    /// Byte estimate used for LRU accounting: a deterministic structural
    /// census (statements, functions, fields, partition expressions, runs),
    /// not an allocator measurement. Interior memos are bounded
    /// (`MEMO_CAP`) and charged as slack.
    pub fn estimated_bytes(&self) -> u64 {
        self.estimated_bytes
    }

    fn estimate_bytes(&self) -> u64 {
        fn stmts(body: &[Stmt]) -> u64 {
            body.iter()
                .map(|s| match s {
                    Stmt::ForEach { body, .. } => 1 + stmts(body),
                    _ => 1,
                })
                .sum()
        }
        let program: u64 = self.program.iter().map(|l| 128 + 96 * stmts(&l.body)).sum();
        let fns = 128 * self.fns.len() as u64;
        let schema = 96 * (self.schema.num_fields() + self.schema.num_regions()) as u64;
        let exts: u64 = (0..self.externals.len())
            .map(|i| {
                let p = self.externals.get(crate::lang::ExtId(i as u32));
                48 + p.subregions().iter().map(|s| 16 * s.run_count() as u64).sum::<u64>()
            })
            .sum();
        let plan = 64 * self.plan.num_partitions() as u64 + 96 * self.plan.loops.len() as u64;
        4096 + program + fns + schema + exts + plan
    }

    /// Evaluated partitions for `store`, memoized per index-structure
    /// fingerprint: stores differing only in f64 payloads share one
    /// evaluation (the evaluator reads pointer/range fields and region
    /// sizes, never values).
    pub fn parts_for(&self, store: &Store) -> Arc<Vec<Arc<Partition>>> {
        self.parts_keyed(store_index_fingerprint(store), store)
    }

    /// [`Self::parts_for`] for a caller that has read `store`'s key already.
    fn parts_keyed(&self, key: Fingerprint, store: &Store) -> Arc<Vec<Arc<Partition>>> {
        if let Ok(mut memos) = self.memos.lock() {
            if let Some(parts) = memos.parts.get(&key) {
                return parts;
            }
        }
        let parts = Arc::new(self.plan.evaluate(store, &self.fns, self.n_colors, &self.externals));
        if let Ok(mut memos) = self.memos.lock() {
            memos.parts.put(key, Arc::clone(&parts));
        }
        parts
    }

    /// Distributed artifacts for `(store structure, n_ranks, placement)`,
    /// memoized: partitions, placement (assignment + exchange plan), and
    /// the plan-legality proof. A memo hit makes a distributed run skip
    /// evaluation, exchange derivation, placement, and re-proving.
    pub fn dist_artifacts(
        &self,
        store: &Store,
        n_ranks: usize,
        placement: &PlacementConfig,
    ) -> Result<Arc<DistArtifacts>, ExchangeError> {
        let key = DistKey {
            store_fp: store_index_fingerprint(store),
            n_ranks,
            placement_fp: placement_fingerprint(placement),
        };
        if let Ok(mut memos) = self.memos.lock() {
            if let Some(artifacts) = memos.dist.get(&key) {
                return Ok(artifacts);
            }
        }
        let parts = self.parts_keyed(key.store_fp, store);
        let placed = place(&self.plan, &parts, &self.schema, n_ranks, placement)?;
        let proof_facts = prove_plan_legality(&placed.xplan, &self.plan, &parts, &self.schema)
            .ok()
            .map(|p| p.facts);
        let artifacts = Arc::new(DistArtifacts { parts, placement: placed, proof_facts });
        if let Ok(mut memos) = self.memos.lock() {
            memos.dist.put(key, Arc::clone(&artifacts));
        }
        Ok(artifacts)
    }
}

/// Point-in-time cache counters, for reports and assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
    pub bytes: u64,
    pub capacity_bytes: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The `plan_cache` section of `partir-report-v1` payloads.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("hits", self.hits)
            .with("misses", self.misses)
            .with("evictions", self.evictions)
            .with("entries", self.entries as u64)
            .with("bytes", self.bytes)
            .with("capacity_bytes", self.capacity_bytes)
            .with("hit_rate", self.hit_rate())
    }
}

struct Entry {
    plan: Arc<SolvedPlan>,
    bytes: u64,
    last_use: u64,
}

struct Inner {
    entries: HashMap<Fingerprint, Entry>,
    tick: u64,
    bytes: u64,
    capacity: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A byte-accounted LRU of solved plans, keyed on [`solve_fingerprint`].
/// Cloning shares the cache (it's an `Arc` handle), so one cache can back
/// many builders and server workers.
#[derive(Clone)]
pub struct PlanCache {
    inner: Arc<Mutex<Inner>>,
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stats() {
            Ok(s) => f
                .debug_struct("PlanCache")
                .field("entries", &s.entries)
                .field("bytes", &s.bytes)
                .field("capacity_bytes", &s.capacity_bytes)
                .finish(),
            Err(_) => f.write_str("PlanCache(poisoned)"),
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_CAPACITY_BYTES)
    }
}

impl PlanCache {
    /// An empty cache holding at most `capacity_bytes` of estimated plan
    /// bytes. `0` disables caching (every insert evicts immediately).
    pub fn new(capacity_bytes: u64) -> PlanCache {
        PlanCache {
            inner: Arc::new(Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
                bytes: 0,
                capacity: capacity_bytes,
                hits: 0,
                misses: 0,
                evictions: 0,
            })),
        }
    }

    /// Looks up a plan, updating LRU order and the hit/miss counts of
    /// [`CacheStats`].
    pub fn get(&self, fp: Fingerprint) -> Result<Option<Arc<SolvedPlan>>, CacheError> {
        let mut inner = self.inner.lock().map_err(|_| CacheError::Poisoned)?;
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&fp) {
            Some(entry) => {
                entry.last_use = tick;
                let plan = Arc::clone(&entry.plan);
                inner.hits += 1;
                Ok(Some(plan))
            }
            None => {
                inner.misses += 1;
                Ok(None)
            }
        }
    }

    /// Inserts a plan under its own fingerprint, evicting least-recently
    /// used entries until it fits. Returns whether the plan was retained:
    /// degraded plans (budget-exhausted fallbacks) and plans larger than
    /// the whole capacity are not cached. Re-inserting an existing key
    /// refreshes the entry.
    pub fn insert(&self, plan: Arc<SolvedPlan>) -> Result<bool, CacheError> {
        if plan.degraded() {
            return Ok(false);
        }
        let bytes = plan.estimated_bytes();
        let fp = plan.fingerprint();
        let mut inner = self.inner.lock().map_err(|_| CacheError::Poisoned)?;
        if bytes > inner.capacity {
            return Ok(false);
        }
        if let Some(old) = inner.entries.remove(&fp) {
            inner.bytes -= old.bytes;
        }
        while inner.bytes + bytes > inner.capacity {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
                .expect("bytes > 0 implies at least one entry");
            let evicted = inner.entries.remove(&victim).expect("victim exists");
            inner.bytes -= evicted.bytes;
            inner.evictions += 1;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(fp, Entry { plan, bytes, last_use: tick });
        inner.bytes += bytes;
        Ok(true)
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> Result<CacheStats, CacheError> {
        let inner = self.inner.lock().map_err(|_| CacheError::Poisoned)?;
        Ok(CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.entries.len(),
            bytes: inner.bytes,
            capacity_bytes: inner.capacity,
        })
    }

    /// Drops every entry (counters survive).
    pub fn clear(&self) -> Result<(), CacheError> {
        let mut inner = self.inner.lock().map_err(|_| CacheError::Poisoned)?;
        inner.entries.clear();
        inner.bytes = 0;
        Ok(())
    }

    /// Test hook: poisons the cache lock by panicking while holding it,
    /// so the `cache.poisoned` path is reachable through the public API.
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        let inner = Arc::clone(&self.inner);
        let _ = std::thread::spawn(move || {
            let _guard = inner.lock().unwrap();
            panic!("poisoning the plan cache for a negative test");
        })
        .join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_dpl::func::{FnDef, IndexFn};
    use partir_dpl::region::FieldKind;
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};

    fn scatter(modulus: u64) -> (Vec<Loop>, FnTable, Schema, Store) {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 64);
        let s = schema.add_region("S", 64);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g = fns.add("g", r, s, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 3, modulus }));
        let mut b = LoopBuilder::new("scatter", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let gi = b.idx_apply(g, i);
        b.val_reduce(s, sx, gi, ReduceOp::Add, VExpr::var(v));
        let mut store = Store::new(schema.clone());
        for i in 0..64 {
            store.f64s_mut(rx)[i] = i as f64;
        }
        (vec![b.finish()], fns, schema, store)
    }

    fn solved(modulus: u64) -> Arc<SolvedPlan> {
        let (program, fns, schema, _) = scatter(modulus);
        Arc::new(
            SolvedPlan::solve(
                program,
                fns,
                schema,
                &Hints::new(),
                Options::default(),
                ExtBindings::new(),
                4,
            )
            .unwrap(),
        )
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = PlanCache::default();
        let plan = solved(64);
        assert!(cache.insert(Arc::clone(&plan)).unwrap());
        let hit = cache.get(plan.fingerprint()).unwrap().expect("hit");
        assert!(Arc::ptr_eq(&hit, &plan));
        let stats = cache.stats().unwrap();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 0, 1));
    }

    #[test]
    fn distinct_programs_never_share_an_entry() {
        let cache = PlanCache::default();
        let a = solved(64);
        let b = solved(32);
        assert_ne!(a.fingerprint(), b.fingerprint());
        cache.insert(Arc::clone(&a)).unwrap();
        assert!(cache.get(b.fingerprint()).unwrap().is_none());
        assert_eq!(cache.stats().unwrap().misses, 1);
    }

    #[test]
    fn byte_capacity_evicts_lru() {
        let a = solved(64);
        let b = solved(32);
        let c = solved(16);
        // Room for roughly two plans.
        let cache = PlanCache::new(a.estimated_bytes() + b.estimated_bytes() + 64);
        cache.insert(Arc::clone(&a)).unwrap();
        cache.insert(Arc::clone(&b)).unwrap();
        // Touch `a` so `b` is the LRU victim.
        cache.get(a.fingerprint()).unwrap().unwrap();
        cache.insert(Arc::clone(&c)).unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!(stats.evictions, 1);
        assert!(cache.get(a.fingerprint()).unwrap().is_some(), "recently used survives");
        assert!(cache.get(b.fingerprint()).unwrap().is_none(), "LRU entry evicted");
        assert!(cache.get(c.fingerprint()).unwrap().is_some());
        assert!(stats.bytes <= stats.capacity_bytes);
    }

    #[test]
    fn oversized_plans_are_refused_not_thrashed() {
        let plan = solved(64);
        let cache = PlanCache::new(16);
        assert!(!cache.insert(Arc::clone(&plan)).unwrap());
        assert_eq!(cache.stats().unwrap().entries, 0);
    }

    #[test]
    fn poisoned_cache_reports_typed_error() {
        let cache = PlanCache::default();
        cache.poison_for_test();
        assert_eq!(cache.get(Fingerprint([0, 0])).unwrap_err(), CacheError::Poisoned);
        assert_eq!(cache.insert(solved(64)).unwrap_err(), CacheError::Poisoned);
        assert_eq!(cache.stats().unwrap_err(), CacheError::Poisoned);
    }

    #[test]
    fn parts_memo_shares_evaluations_across_value_changes() {
        let (program, fns, schema, mut store) = scatter(64);
        let sp = SolvedPlan::solve(
            program,
            fns,
            schema,
            &Hints::new(),
            Options::default(),
            ExtBindings::new(),
            4,
        )
        .unwrap();
        let p1 = sp.parts_for(&store);
        store.f64s_mut(partir_dpl::region::FieldId(0))[7] = 99.0;
        let p2 = sp.parts_for(&store);
        assert!(Arc::ptr_eq(&p1, &p2), "value-only changes reuse evaluated partitions");
    }

    #[test]
    fn dist_artifacts_memoize_and_prove() {
        let (program, fns, schema, store) = scatter(64);
        let sp = SolvedPlan::solve(
            program,
            fns,
            schema,
            &Hints::new(),
            Options::default(),
            ExtBindings::new(),
            4,
        )
        .unwrap();
        let cfg = PlacementConfig::default();
        let a1 = sp.dist_artifacts(&store, 2, &cfg).unwrap();
        let a2 = sp.dist_artifacts(&store, 2, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(a1.proof_facts.unwrap() > 0, "legality proof travels with the artifacts");
        let a4 = sp.dist_artifacts(&store, 4, &cfg).unwrap();
        assert!(!Arc::ptr_eq(&a1, &a4), "rank count keys the memo");
        assert_eq!(a4.placement.xplan.n_ranks, 4);
    }
}
