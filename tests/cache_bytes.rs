//! The plan cache's capacity bounds the heap it keeps alive. A plan is
//! charged its structural estimate plus what its memo entries hold
//! (partitions, covers, membership indexes, exchange plans), so a server
//! fed ever new Circuit-shaped stores evicts before the cache holds more
//! than its capacity and one entry.
//!
//! This file holds one test: the process-wide allocation counter below
//! must see no other test's frees.

use partir::apps::circuit::{Circuit, CircuitParams};
use partir::prelude::*;
use partir::serve::{ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes freed so far, by every thread.
static FREED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes freed while `f` runs.
fn freed_by(f: impl FnOnce()) -> u64 {
    let before = FREED.load(Ordering::Relaxed);
    f();
    FREED.load(Ordering::Relaxed) - before
}

/// The cache's capacity: a few hundred kilobytes per request below, so a
/// handful of requests fill it.
const CAPACITY: u64 = 3 << 20;
/// Nodes per cluster of the three Circuit shapes served in turn: three
/// plans, each asked for [`STORES_PER_SHAPE`] pointer structures in a row.
const NODES: [u64; 3] = [1_000, 1_100, 1_200];
/// More stores than one plan's memo can hold within the capacity, so the
/// memo evicts its own entries before the next shape makes the cache
/// evict plans.
const STORES_PER_SHAPE: u64 = 6;
/// Requests served at least: every shape once.
const MIN_REQUESTS: u64 = 3 * STORES_PER_SHAPE;
/// Requests served at most. Every one keeps a few hundred kilobytes alive
/// unless the cache evicts, so this many overrun the capacity many times.
const MAX_REQUESTS: u64 = 30;

fn circuit(nodes_per_cluster: u64, seed: u64) -> Circuit {
    Circuit::generate(&CircuitParams {
        clusters: 4,
        nodes_per_cluster,
        wires_per_cluster: 4 * nodes_per_cluster,
        cross_fraction: 0.2,
        cross_stride: None,
        seed,
    })
}

/// One request: the plan from `server`, then one `Ranks(2)` run on the
/// store, which memoizes its partitions and exchange plan in the plan.
fn serve(server: &Server, a: &Circuit) {
    let builder = Partir::new(a.program.clone(), a.fns.clone(), a.store.schema().clone());
    let reply = server.solve(builder.colors(4)).expect("the request is served");
    let mut store = a.store.clone();
    Run::new().backend(Backend::Ranks(2)).run(&reply.plan, &mut store).expect("the run finishes");
}

#[test]
fn the_cache_keeps_no_more_than_its_capacity_and_one_entry() {
    // The largest entry: the largest shape's plan with its memo, alone in
    // a cache, measured as what dropping that cache frees.
    let (largest, charged) = {
        let server = Server::new(ServeConfig::default());
        let cache = server.cache();
        serve(&server, &circuit(NODES[2], 0));
        server.shutdown();
        let charged = cache.stats().unwrap().bytes;
        (freed_by(|| drop(cache)), charged)
    };
    assert!(largest < CAPACITY / 3, "{largest} B: several entries fit the capacity");

    let server = Server::new(ServeConfig { cache_bytes: CAPACITY, ..ServeConfig::default() });
    let cache = server.cache();
    let mut served = 0;
    while served < MIN_REQUESTS || (served < MAX_REQUESTS && cache.stats().unwrap().evictions == 0)
    {
        let seed = served + 1;
        let shape = NODES[(served / STORES_PER_SHAPE % 3) as usize];
        serve(&server, &circuit(shape, seed));
        served += 1;
    }
    server.shutdown();
    let stats = cache.stats().unwrap();
    let kept = freed_by(|| drop(cache));
    assert!(
        kept <= CAPACITY + largest,
        "after {served} requests the cache kept {kept} B alive: capacity {CAPACITY} B, \
         largest entry {largest} B ({stats:?})"
    );
    assert!(stats.evictions > 0, "the cache evicted within {served} requests ({stats:?})");
    let ratio = charged as f64 / largest as f64;
    assert!((0.75..=1.25).contains(&ratio), "charged {charged} B for {largest} B held");
}
