//! The plan cache's charge against the heap it keeps alive, on the four
//! spine workloads at full size.
//!
//! Each workload's requests (built by the spine's own generator, seed 1)
//! are solved into one default-capacity `PlanCache` and run once on
//! `Ranks(2)` and once on `Threads(2)`. The table then gives, per
//! workload:
//!
//! * `estimated`: the plans' structural census ([`SolvedPlan::estimated_bytes`]);
//! * `charged`: `CacheStats::bytes`, the census plus every memo entry,
//!   measured;
//! * `freed`: what dropping the cache frees, counted by this binary's
//!   global allocator;
//! * `spine_charged`: the charge once the cost-driven artifacts the spine
//!   also asks for (at 2 and at 8 ranks) are memoized too, and whether
//!   every memoized artifact survived them (`kept`).
//!
//! Exits 1 when a charge is outside ±25 % of what it frees, or when the
//! spine's memo state does not fit the default capacity.
//!
//! Run: `cargo run --release -p partir-bench --bin cache_bytes`
//!
//! The spine's input generator and kernels are borrowed as modules; their
//! unit tests need the rest of the spine and run as the spine's own, so
//! this binary has no test build.
#![cfg(not(test))]

#[path = "spine/inputs.rs"]
#[allow(dead_code)]
mod inputs;
#[path = "spine/kernels.rs"]
#[allow(dead_code)]
mod kernels;

use partir::core::cache::SolvedPlan;
use partir::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes allocated and not yet freed, by the whole process.
static LIVE: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The spine's width and the rank counts it prices cost-driven placement at.
const WIDTH: usize = 2;
const CUT_RANKS: [usize; 2] = [WIDTH, 8];

fn main() {
    let mut failed = Vec::new();
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>7} {:>14} {:>5}",
        "workload", "estimated", "charged", "freed", "ratio", "spine_charged", "kept"
    );
    for name in inputs::WORKLOADS {
        let w = inputs::build(name, 1, &inputs::FULL).expect("a spine workload");
        let cache = PlanCache::default();
        let mut solved: Vec<Arc<SolvedPlan>> = Vec::new();
        for req in &w.requests {
            let plan = req.builder().cache(&cache).solve().expect("the request solves");
            for backend in [Backend::Ranks(WIDTH), Backend::Threads(WIDTH)] {
                let mut store = req.store.clone();
                Run::new().backend(backend).run(&plan, &mut store).expect("the run finishes");
            }
            solved.push(Arc::clone(plan.solved()));
        }
        let estimated: u64 = solved.iter().map(|s| s.estimated_bytes()).sum();
        let charged = cache.stats().expect("an unpoisoned cache").bytes;

        // The spine's further placements, after which every artifact
        // memoized so far must still be the same allocation.
        let block = PlacementConfig::default();
        let cost = PlacementConfig::cost_driven();
        let artifacts = |s: &SolvedPlan, store, n, cfg| s.dist_artifacts(store, n, cfg).unwrap();
        let held: Vec<_> = solved
            .iter()
            .zip(&w.requests)
            .map(|(s, req)| (s.parts_for(&req.store), artifacts(s, &req.store, WIDTH, &block)))
            .collect();
        for (s, req) in solved.iter().zip(&w.requests) {
            for n in CUT_RANKS {
                artifacts(s, &req.store, n, &cost);
            }
        }
        let stats = cache.stats().expect("an unpoisoned cache");
        let kept = solved.iter().zip(&w.requests).zip(&held).all(|((s, req), (parts, d))| {
            Arc::ptr_eq(parts, &s.parts_for(&req.store))
                && Arc::ptr_eq(d, &artifacts(s, &req.store, WIDTH, &block))
        });
        drop((held, solved));

        // With the cost-driven entries evicted again by a fresh cache, the
        // heap is what the first table column describes; measure that one.
        let fresh = PlanCache::default();
        let mut plans = Vec::new();
        for req in &w.requests {
            let plan = req.builder().cache(&fresh).solve().expect("the request solves");
            for backend in [Backend::Ranks(WIDTH), Backend::Threads(WIDTH)] {
                let mut store = req.store.clone();
                Run::new().backend(backend).run(&plan, &mut store).expect("the run finishes");
            }
            plans.push(plan);
        }
        drop(plans);
        let charged_fresh = fresh.stats().expect("an unpoisoned cache").bytes;
        let before = LIVE.load(Ordering::Relaxed);
        drop(fresh);
        let freed = before - LIVE.load(Ordering::Relaxed);
        drop(cache);

        let ratio = charged_fresh as f64 / freed as f64;
        println!(
            "{name:<16} {estimated:>12} {charged_fresh:>12} {freed:>12} {ratio:>7.3} {:>14} {kept:>5}",
            stats.bytes
        );
        assert_eq!(charged, charged_fresh, "{name}: the same requests charge the same");
        if !(0.75..=1.25).contains(&ratio) {
            failed.push(format!("{name}: charged {charged_fresh} B for {freed} B freed"));
        }
        if stats.evictions > 0 || !kept || stats.bytes > stats.capacity_bytes {
            failed.push(format!("{name}: the spine's memo state does not fit ({stats:?})"));
        }
    }
    if !failed.is_empty() {
        eprintln!("{}", failed.join("\n"));
        std::process::exit(1);
    }
}
