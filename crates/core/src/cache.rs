//! Fingerprint-keyed caching of solved plans — the solve-as-a-service
//! storage layer.
//!
//! A [`SolvedPlan`] is the immutable bundle a solve produces: the
//! [`ParallelPlan`] plus everything needed to execute it (program, function
//! table, schema, external bindings, color count), with an interior memo
//! for the store-dependent artifacts — evaluated partitions, and per-rank-
//! count distributed artifacts (the placement, whose exchange plan records
//! its own plan-legality proof: `dist_artifacts` proves each plan it
//! memoizes, once). A [`PlanCache`] maps [`solve_fingerprint`] keys to
//! `Arc<SolvedPlan>`, so a warm request skips constraint inference,
//! solving, unification, partition evaluation, exchange derivation,
//! placement, *and* re-proving.
//!
//! Why memos live *inside* the plan instead of fragmenting the cache key:
//! the solve depends only on structure ([`solve_fingerprint`] inputs), while
//! partitions additionally depend on the store's index fields and the
//! distributed artifacts additionally depend on `(n_ranks, placement)`.
//! One cached solve therefore serves every rank count and every store whose
//! pointer structure matches — the common serving shape (same topology,
//! changing f64 payloads) hits all three levels.
//!
//! One byte budget: the cache's capacity. A plan is charged its
//! [`SolvedPlan::estimated_bytes`] plus the heap its memo entries hold,
//! measured (`heap_bytes`: runs, covers, narrowings, membership indexes,
//! exchange sets), never counted in entries. Membership indexes are built
//! by runs after an entry is memoized, so a plan is re-measured whenever
//! the cache touches it: the plan a `get` returns, and every plan on
//! `insert` and `stats`. Both the cache's plan map and each plan's memo are
//! one `Lru`: a hit never evicts the plan it returns, and a memo evicts
//! its own least-recently-used entries so that the plan's charge stays
//! within the capacity of the cache it last entered
//! ([`DEFAULT_CAPACITY_BYTES`] before it enters one).
//!
//! Locking: the cache uses a `std::sync::Mutex` deliberately (not the
//! vendored `parking_lot`), because poisoning is part of the contract — a
//! panic inside the critical section surfaces as
//! [`CacheError::Poisoned`] (`cache.poisoned` in `partir-report-v1`)
//! instead of silently serving a cache whose accounting may be corrupt.
//! The per-plan memos fail open instead: a poisoned memo quietly degrades
//! to recomputation (and is charged nothing), which is always safe because
//! the artifacts are pure functions of their key. Locks are taken in one
//! order, the cache's and then a memo's; memo code never takes the cache's.

use crate::eval::ExtBindings;
use crate::exchange::{prove_plan_legality, ExchangeError};
use crate::fingerprint::{solve_fingerprint, store_index_fingerprint, Fingerprint};
use crate::pipeline::{auto_parallelize, AutoError, Hints, Options, ParallelPlan};
use crate::placement::{place, Placement, PlacementConfig};
use partir_dpl::func::FnTable;
use partir_dpl::index_set::arc_bytes;
use partir_dpl::partition::Partition;
use partir_dpl::region::{Schema, Store};
use partir_ir::ast::{Loop, Stmt};
use partir_obs::json::Json;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// Default capacity when none is configured, and the bound of the memo of
/// a plan that is in no cache. The benchmark's largest plan, Circuit at
/// 8 × 40 000 nodes, holds about 88 MB once its partitions, its indexes
/// and the exchange plans of three placements are memoized.
pub const DEFAULT_CAPACITY_BYTES: u64 = 128 * 1024 * 1024;

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
/// `(store structure, n_ranks, placement config)` triple: the placement
/// (exchange plan + report), whose exchange plan carries its legality
/// proof ([`crate::exchange::ExchangePlan::proved_facts`]). With these and
/// the store's evaluated partitions ([`SolvedPlan::parts_for`]) a run goes
/// straight to `partir-runtime`'s `dist::execute_ranks` with proving
/// skipped.
#[derive(Debug)]
pub struct DistArtifacts {
    pub placement: Placement,
}

impl DistArtifacts {
    /// Bytes the artifacts hold on the heap: the exchange plan's sets.
    pub fn heap_bytes(&self) -> u64 {
        self.placement.xplan.heap_bytes()
    }
}

/// A byte-bounded LRU: a [`PlanCache`]'s plans and each plan's memo. Every
/// entry is charged the bytes it was last measured at; an entry larger
/// than the whole capacity is refused, and otherwise the least recently
/// used entries are evicted until the total fits.
struct Lru<K, V> {
    /// Value, charged bytes, last use.
    entries: HashMap<K, (V, u64, u64)>,
    tick: u64,
    bytes: u64,
    capacity: u64,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    fn new(capacity: u64) -> Self {
        Lru { entries: HashMap::new(), tick: 0, bytes: 0, capacity, evictions: 0 }
    }

    /// The entry under `key`, now the most recently used.
    fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(v, _, t)| {
            *t = tick;
            &*v
        })
    }

    /// Charges every entry what `measure` says it holds now. Evicts nothing.
    fn remeasure(&mut self, measure: impl Fn(&V) -> u64) {
        self.bytes = 0;
        for (v, bytes, _) in self.entries.values_mut() {
            *bytes = measure(v);
            self.bytes += *bytes;
        }
    }

    /// Inserts or refreshes `key`, charged `bytes`, and evicts others until
    /// the total fits. Returns whether it was kept.
    fn insert(&mut self, key: K, value: V, bytes: u64) -> bool {
        if bytes > self.capacity {
            return false;
        }
        self.tick += 1;
        let old = self.entries.insert(key.clone(), (value, 0, self.tick));
        self.bytes -= old.map_or(0, |(_, bytes, _)| bytes);
        self.recharge(&key, bytes);
        true
    }

    /// Charges the entry under `key` `bytes` and evicts others until the
    /// total fits.
    fn recharge(&mut self, key: &K, bytes: u64) {
        if let Some((_, charged, _)) = self.entries.get_mut(key) {
            self.bytes = self.bytes - *charged + bytes;
            *charged = bytes;
            self.evict_to_fit(Some(key));
        }
    }

    /// Evicts least-recently-used entries other than `keep` until the total
    /// fits the capacity (or only `keep` is left).
    fn evict_to_fit(&mut self, keep: Option<&K>) {
        while self.bytes > self.capacity {
            let others = self.entries.iter().filter(|(k, _)| Some(*k) != keep);
            let Some(victim) = others.min_by_key(|(_, e)| e.2).map(|(k, _)| k.clone()) else {
                return;
            };
            self.bytes -= self.entries.remove(&victim).map_or(0, |(_, bytes, _)| bytes);
            self.evictions += 1;
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum MemoKey {
    /// Partitions of one store structure.
    Parts(Fingerprint),
    /// Distributed artifacts of `(store structure, n_ranks, placement)`.
    Dist(Fingerprint, usize, PlacementConfig),
}

#[derive(Clone)]
enum Memoized {
    Parts(Arc<Vec<Arc<Partition>>>),
    Dist(Arc<DistArtifacts>),
}

impl Memoized {
    fn heap_bytes(&self) -> u64 {
        match self {
            Memoized::Parts(parts) => {
                let each = arc_bytes::<Partition>() + std::mem::size_of::<usize>() as u64;
                let parts = parts.iter().map(|p| each + p.heap_bytes()).sum::<u64>();
                arc_bytes::<Vec<Arc<Partition>>>() + parts
            }
            Memoized::Dist(artifacts) => arc_bytes::<DistArtifacts>() + artifacts.heap_bytes(),
        }
    }
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
    memo: Mutex<Lru<MemoKey, Memoized>>,
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
            memo: Mutex::new(Lru::new(0)),
        };
        sp.estimated_bytes = sp.estimate_bytes();
        sp.bound_memo(DEFAULT_CAPACITY_BYTES);
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

    /// The plan's own share of its charge: a deterministic structural
    /// census (statements, functions, fields, partition expressions, runs)
    /// fixed at solve time. What the memo holds is measured instead
    /// ([`Self::charged_bytes`]).
    pub fn estimated_bytes(&self) -> u64 {
        self.estimated_bytes
    }

    /// What a cache charges for the plan: [`Self::estimated_bytes`] plus
    /// the heap every memo entry holds, measured now.
    pub fn charged_bytes(&self) -> u64 {
        let memo = self.memo.lock().map(|mut memo| {
            memo.remeasure(Memoized::heap_bytes);
            memo.bytes
        });
        self.estimated_bytes + memo.unwrap_or(0)
    }

    /// Bounds the memo so that the plan's charge fits `capacity`, evicting
    /// its least recently used entries, and returns the charge.
    fn bound_memo(&self, capacity: u64) -> u64 {
        let memo = self.memo.lock().map(|mut memo| {
            memo.capacity = capacity.saturating_sub(self.estimated_bytes);
            memo.remeasure(Memoized::heap_bytes);
            memo.evict_to_fit(None);
            memo.bytes
        });
        self.estimated_bytes + memo.unwrap_or(0)
    }

    /// The memoized value under `key`, if any.
    fn memo_get(&self, key: &MemoKey) -> Option<Memoized> {
        self.memo.lock().ok()?.get(key).cloned()
    }

    /// Memoizes `value` under `key`, evicting the memo's least recently used
    /// entries (all re-measured first) until the plan's charge fits its
    /// bound. A value larger than the whole bound is not kept.
    fn memo_put(&self, key: MemoKey, value: Memoized) {
        if let Ok(mut memo) = self.memo.lock() {
            memo.remeasure(Memoized::heap_bytes);
            let bytes = value.heap_bytes();
            memo.insert(key, value, bytes);
        }
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
        8192 + program + fns + schema + exts + plan
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
        if let Some(Memoized::Parts(parts)) = self.memo_get(&MemoKey::Parts(key)) {
            return parts;
        }
        let parts = Arc::new(self.plan.evaluate(store, &self.fns, self.n_colors, &self.externals));
        self.memo_put(MemoKey::Parts(key), Memoized::Parts(Arc::clone(&parts)));
        parts
    }

    /// Distributed artifacts for `(store structure, n_ranks, placement)`,
    /// memoized: the placement, its exchange plan proved legal over the
    /// store's partitions with the proof recorded on it (a plan that fails
    /// the proof is memoized unproved, and a run surfaces the typed error).
    /// A memo hit makes a distributed run skip exchange derivation,
    /// placement, and re-proving; its partitions are [`Self::parts_for`]'s,
    /// memoized on their own so that no byte is charged twice.
    pub fn dist_artifacts(
        &self,
        store: &Store,
        n_ranks: usize,
        placement: &PlacementConfig,
    ) -> Result<Arc<DistArtifacts>, ExchangeError> {
        let store_fp = store_index_fingerprint(store);
        let key = MemoKey::Dist(store_fp, n_ranks, placement.clone());
        if let Some(Memoized::Dist(artifacts)) = self.memo_get(&key) {
            return Ok(artifacts);
        }
        let parts = self.parts_keyed(store_fp, store);
        let mut placed = place(&self.plan, &parts, &self.schema, n_ranks, placement)?;
        // Outside `PlacementReport::place_ns`: the proof is its own layer.
        let proof = prove_plan_legality(&placed.xplan, &self.plan, &parts, &self.schema);
        placed.xplan.proved = proof.ok().map(|p| p.facts);
        let artifacts = Arc::new(DistArtifacts { placement: placed });
        self.memo_put(key, Memoized::Dist(Arc::clone(&artifacts)));
        Ok(artifacts)
    }
}

/// Point-in-time cache counters, for reports and assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Plans evicted to make room. A memo's own evictions are not counted.
    pub evictions: u64,
    pub entries: usize,
    /// The resident plans' charges ([`SolvedPlan::charged_bytes`]),
    /// measured when the stats were taken.
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

struct Inner {
    plans: Lru<Fingerprint, Arc<SolvedPlan>>,
    hits: u64,
    misses: u64,
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
    /// An empty cache whose resident plans are charged at most
    /// `capacity_bytes`, memos included. `0` disables caching (every
    /// insert is refused).
    pub fn new(capacity_bytes: u64) -> PlanCache {
        let inner = Inner { plans: Lru::new(capacity_bytes), hits: 0, misses: 0 };
        PlanCache { inner: Arc::new(Mutex::new(inner)) }
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, Inner>, CacheError> {
        self.inner.lock().map_err(|_| CacheError::Poisoned)
    }

    /// Looks up a plan, updating LRU order and the hit/miss counts of
    /// [`CacheStats`]. A hit re-measures the plan it returns and evicts
    /// other plans if the charge has outgrown the capacity.
    pub fn get(&self, fp: Fingerprint) -> Result<Option<Arc<SolvedPlan>>, CacheError> {
        let mut inner = self.lock()?;
        let Some(plan) = inner.plans.get(&fp).cloned() else {
            inner.misses += 1;
            return Ok(None);
        };
        inner.hits += 1;
        inner.plans.recharge(&fp, plan.charged_bytes());
        Ok(Some(plan))
    }

    /// Inserts a plan under its own fingerprint, bounding its memo to the
    /// capacity and evicting least-recently used plans until it fits.
    /// Returns whether the plan was retained: degraded plans
    /// (budget-exhausted fallbacks) and plans whose own estimate exceeds
    /// the whole capacity are not cached. Re-inserting an existing key
    /// refreshes the entry.
    pub fn insert(&self, plan: Arc<SolvedPlan>) -> Result<bool, CacheError> {
        if plan.degraded() {
            return Ok(false);
        }
        let mut inner = self.lock()?;
        if plan.estimated_bytes() > inner.plans.capacity {
            return Ok(false);
        }
        inner.plans.remeasure(|p| p.charged_bytes());
        let charge = plan.bound_memo(inner.plans.capacity);
        Ok(inner.plans.insert(plan.fingerprint(), plan, charge))
    }

    /// Current counters and occupancy, every resident plan re-measured.
    pub fn stats(&self) -> Result<CacheStats, CacheError> {
        let mut inner = self.lock()?;
        inner.plans.remeasure(|p| p.charged_bytes());
        Ok(CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.plans.evictions,
            entries: inner.plans.entries.len(),
            bytes: inner.plans.bytes,
            capacity_bytes: inner.plans.capacity,
        })
    }

    /// Drops every entry (counters survive).
    pub fn clear(&self) -> Result<(), CacheError> {
        let mut inner = self.lock()?;
        inner.plans.entries.clear();
        inner.plans.bytes = 0;
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
        let facts = a1.placement.xplan.proved_facts();
        assert!(facts.unwrap() > 0, "the legality proof travels with the exchange plan");
        let a4 = sp.dist_artifacts(&store, 4, &cfg).unwrap();
        assert!(!Arc::ptr_eq(&a1, &a4), "rank count keys the memo");
        assert_eq!(a4.placement.xplan.n_ranks, 4);
    }

    #[test]
    fn every_placement_knob_keys_its_own_artifacts() {
        use crate::exchange::block_assignment;
        use crate::placement::PlacementPolicy;
        let (_, _, _, store) = scatter(64);
        let sp = solved(64);
        let at = |policy| sp.dist_artifacts(&store, 2, &PlacementConfig { policy });
        let explicit = |a: &[usize]| at(PlacementPolicy::Explicit(a.to_vec()));
        let configs = [
            at(PlacementPolicy::Block).unwrap(),
            at(PlacementPolicy::CostDriven).unwrap(),
            explicit(&[0, 1, 0, 1]).unwrap(),
            explicit(&[0, 1, 1, 1]).unwrap(),
            explicit(&block_assignment(4, 2)).unwrap(),
        ];
        for (i, a) in configs.iter().enumerate() {
            for b in &configs[i + 1..] {
                assert!(!Arc::ptr_eq(a, b), "one color moved, or the policy, keys the memo");
            }
        }
        assert_eq!(configs[3].placement.xplan.owner_assignment(), [0, 1, 1, 1]);
        assert!(explicit(&[0, 1, 0, 1, 0]).is_err(), "the length is keyed");
        assert!(explicit(&[0, 1, 0]).is_err());
        assert!(Arc::ptr_eq(&configs[0], &at(PlacementPolicy::Block).unwrap()), "equal configs");
        let default = sp.dist_artifacts(&store, 2, &PlacementConfig::default()).unwrap();
        assert!(Arc::ptr_eq(&configs[0], &default));
        assert!(Arc::ptr_eq(&configs[2], &explicit(&[0, 1, 0, 1]).unwrap()));
    }

    #[test]
    fn a_plan_is_charged_its_estimate_plus_its_memo() {
        let (_, _, _, store) = scatter(64);
        let sp = solved(64);
        assert_eq!(sp.charged_bytes(), sp.estimated_bytes(), "an empty memo costs nothing");
        let cache = PlanCache::default();
        cache.insert(Arc::clone(&sp)).unwrap();
        let parts = sp.parts_for(&store);
        let evaluated = sp.charged_bytes();
        assert!(evaluated > sp.estimated_bytes());
        assert_eq!(cache.stats().unwrap().bytes, evaluated, "stats re-measure");
        // Membership indexes are built after the partitions are memoized:
        // the charge follows them.
        for set in parts.iter().flat_map(|p| p.subregions()) {
            set.index();
        }
        let indexed = sp.charged_bytes();
        assert!(indexed > evaluated);
        let artifacts = sp.dist_artifacts(&store, 2, &PlacementConfig::default()).unwrap();
        let xplan = artifacts.placement.xplan.heap_bytes();
        assert!(sp.charged_bytes() > indexed + xplan, "the artifacts and their Arc");
        assert_eq!(cache.stats().unwrap().bytes, sp.charged_bytes());
    }

    #[test]
    fn a_memo_evicts_its_own_least_recent_entries_to_fit_the_cache() {
        let (_, _, _, store) = scatter(64);
        let sp = solved(64);
        let cfg = PlacementConfig::default();
        let arts: Vec<_> = (1..=4).map(|r| sp.dist_artifacts(&store, r, &cfg).unwrap()).collect();
        let full = sp.charged_bytes();
        // One byte short: the memo gives up its least recently used entry,
        // the artifacts at one rank.
        let cache = PlanCache::new(full - 1);
        assert!(cache.insert(Arc::clone(&sp)).unwrap());
        let stats = cache.stats().unwrap();
        assert!(stats.bytes <= stats.capacity_bytes, "{stats:?}");
        assert_eq!((stats.entries, stats.evictions), (1, 0), "the plan stays");
        assert!(Arc::ptr_eq(&arts[3], &sp.dist_artifacts(&store, 4, &cfg).unwrap()));
        assert!(!Arc::ptr_eq(&arts[0], &sp.dist_artifacts(&store, 1, &cfg).unwrap()));
        // New entries keep within the bound too.
        for r in 5..=8 {
            sp.dist_artifacts(&store, r, &cfg).unwrap();
            assert!(sp.charged_bytes() < full, "{} against {full}", sp.charged_bytes());
        }
    }

    #[test]
    fn a_hit_re_measures_its_plan_and_evicts_others_never_it() {
        let (_, _, _, store) = scatter(64);
        let (a, b) = (solved(64), solved(32));
        let cache = PlanCache::new(a.estimated_bytes() + b.estimated_bytes() + 64);
        cache.insert(Arc::clone(&a)).unwrap();
        cache.insert(Arc::clone(&b)).unwrap();
        a.dist_artifacts(&store, 2, &PlacementConfig::default()).unwrap();
        let hit = cache.get(a.fingerprint()).unwrap().expect("a hit");
        assert!(Arc::ptr_eq(&hit, &a));
        let stats = cache.stats().unwrap();
        assert_eq!((stats.entries, stats.evictions), (1, 1), "the grown plan pushed b out");
        assert!(cache.get(b.fingerprint()).unwrap().is_none());
        assert_eq!(stats.bytes, a.charged_bytes());
    }
}
