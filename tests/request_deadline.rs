//! A solve deadline bounds the whole request: unification's merge checks,
//! the preference trials and the final solve draw on one clock, started
//! when the solve begins. The program (`common::classic_loops_and_rows`)
//! is the generator's two classic loops with every access flag set, plus
//! the rows loop (`n_a = 60`, `n_b = 30`, 4 colors): its one candidate
//! merge is refuted by an exhaustive search that takes unbudgeted
//! unification about 0.3–0.45 s in release. A node or backtrack limit
//! applies to each solve on its own; a merge check that runs out of it
//! degrades the plan.

use partir::prelude::*;
use std::time::{Duration, Instant};

mod common;
use common::{classic_loops_and_rows, Built};

const DEADLINE: Duration = Duration::from_millis(5);

/// Ten deadlines in release. Debug runs the search several times slower
/// and its refutation alone takes seconds, so a tenth of a second there
/// still separates a bounded request from one that is not.
const BOUND: Duration =
    if cfg!(debug_assertions) { Duration::from_millis(100) } else { Duration::from_millis(50) };

fn request(built: &Built) -> Partir {
    Partir::new(built.program.clone(), built.fns.clone(), built.store.schema().clone()).colors(4)
}

fn deadline() -> SolveBudget {
    SolveBudget { deadline: Some(DEADLINE), ..SolveBudget::unlimited() }
}

/// Through `Partir::solve`: the request returns within the bound with the
/// degraded plan, which is not cached and still runs bit-identically.
#[test]
fn a_deadline_bounds_unification_through_solve() {
    let built = classic_loops_and_rows();
    let cache = PlanCache::default();
    let t = Instant::now();
    let plan = request(&built).budget(deadline()).cache(&cache).solve().expect("solves");
    let took = t.elapsed();
    assert!(took < BOUND, "a {DEADLINE:?} request took {took:?}");
    assert!(plan.degraded() && !plan.cache_hit());
    assert_eq!(cache.stats().unwrap().entries, 0, "degraded plans are never cached");

    let mut seq = built.store.clone();
    run_program_seq(&built.program, &mut seq, &built.fns);
    let mut par = built.store.clone();
    plan.run(&mut par).expect("a degraded plan runs");
    common::assert_f64_fields_eq(&seq, &par, "degraded plan").unwrap();
}

/// Through a `Server` with that admission budget: rejected as
/// `serve.over_budget` within the bound, and the worker is free again.
#[test]
fn a_deadline_bounds_unification_through_a_server() {
    let built = classic_loops_and_rows();
    let server = Server::new(ServeConfig::default().budget(deadline()));
    let t = Instant::now();
    let err = server.solve(request(&built)).unwrap_err();
    let took = t.elapsed();
    assert_eq!(err.error_code(), "serve.over_budget");
    assert!(took < BOUND, "a {DEADLINE:?} request held a worker for {took:?}");
    assert_eq!(server.cache_stats().unwrap().entries, 0);
}

/// A node budget the final solve fits but the merge check's refutation
/// does not: the merge is refused for budget, so the plan is degraded —
/// never cached, `serve.over_budget` through a server — though the final
/// solve itself completed.
#[test]
fn a_merge_check_out_of_nodes_degrades_the_plan() {
    let built = classic_loops_and_rows();
    let full = request(&built).solve().expect("solves");
    let unified = &full.parallel_plan().unified;
    assert!(!full.degraded() && unified.stats.rejected_over_budget == 0);
    assert!(unified.stats.rejected_unsolvable > 0, "the candidate merge is refuted");
    let nodes = full.parallel_plan().solution.stats.nodes_explored;
    let budget = SolveBudget { max_nodes: Some(2 * nodes), ..SolveBudget::unlimited() };

    let cache = PlanCache::default();
    let plan = request(&built).budget(budget).cache(&cache).solve().expect("solves");
    let pp = plan.parallel_plan();
    assert!(pp.unified.stats.rejected_over_budget > 0, "the merge check ran out of nodes");
    assert!(pp.solution.stats.exhausted.is_none(), "the final solve fits the budget");
    assert!(plan.degraded() && !plan.cache_hit());
    assert_eq!(cache.stats().unwrap().entries, 0, "degraded plans are never cached");

    let server = Server::new(ServeConfig::default().budget(budget));
    let err = server.solve(request(&built)).unwrap_err();
    assert_eq!(err.error_code(), "serve.over_budget");
}
