//! The serving layer's failure contract, exercised through the public
//! API: every rejection carries a registered `partir-report-v1` error
//! code (`serve.over_budget`, `serve.queue_full`, `serve.disconnected`,
//! `cache.poisoned`), and a loaded server still converges to one shared
//! artifact.

use partir::obs::report::is_known_error_code;
use partir::prelude::*;
use partir::serve::error_report;
use std::sync::Arc;

fn scatter() -> (Vec<Loop>, FnTable, Schema, Store) {
    let mut schema = Schema::new();
    let r = schema.add_region("R", 64);
    let s = schema.add_region("S", 64);
    let rx = schema.add_field(r, "x", FieldKind::F64);
    let sx = schema.add_field(s, "x", FieldKind::F64);
    let mut fns = FnTable::new();
    let g = fns.add("g", r, s, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 7, modulus: 64 }));
    let mut b = LoopBuilder::new("scatter", r);
    let i = b.loop_var();
    let v = b.val_read(r, rx, i);
    let gi = b.idx_apply(g, i);
    b.val_reduce(s, sx, gi, ReduceOp::Add, VExpr::var(v));
    let mut store = Store::new(schema.clone());
    for i in 0..64 {
        store.f64s_mut(rx)[i] = i as f64 * 0.5;
    }
    (vec![b.finish()], fns, schema, store)
}

#[test]
fn over_budget_requests_are_rejected_with_a_registered_code() {
    let (program, fns, schema, _) = scatter();
    // A zero-node admission budget degrades every solve; the server must
    // reject instead of serving the trivial fallback.
    let server = Server::new(
        ServeConfig::default().budget(SolveBudget { max_nodes: Some(0), ..SolveBudget::default() }),
    );
    let err = server.solve(Partir::new(program, fns, schema)).unwrap_err();
    assert_eq!(err.error_code(), "serve.over_budget");
    assert!(is_known_error_code(err.error_code()));
    assert!(matches!(err, Error::Serve(ServeError::OverBudget)));
    // Nothing degraded was cached: a later roomy request re-solves cold.
    assert_eq!(server.cache_stats().unwrap().entries, 0);
}

#[test]
fn the_admission_budget_does_not_taint_later_servers() {
    let (program, fns, schema, mut store) = scatter();
    // Same request on an unbudgeted server: solves fine, runs fine.
    let server = Server::new(ServeConfig::default());
    let reply = server.solve(Partir::new(program, fns, schema)).unwrap();
    assert!(!reply.plan.degraded());
    let outcome = reply.plan.run(&mut store).unwrap();
    assert!(outcome.report.tasks_run() > 0);
}

#[test]
fn queue_overflow_is_a_fast_typed_rejection() {
    let (program, fns, schema, _) = scatter();
    let server = Server::new(ServeConfig { workers: 1, queue_cap: 1, ..Default::default() });
    let mut tickets = Vec::new();
    // Distinct shapes: a repeated one could hit the cache.
    let err = loop {
        let request =
            Partir::new(program.clone(), fns.clone(), schema.clone()).colors(tickets.len() + 1);
        match server.submit(request) {
            Ok(t) => tickets.push(t),
            Err(e) => break e,
        }
        assert!(tickets.len() < 256, "queue bound never tripped");
    };
    assert_eq!(err.error_code(), "serve.queue_full");
    assert!(matches!(err, Error::Serve(ServeError::QueueFull { cap: 1 })));
    // The failure envelope is machine-readable.
    let report = error_report(&err);
    let parsed = partir::obs::json::Json::parse(&report.to_string()).unwrap();
    assert_eq!(
        parsed.get("error_code").and_then(partir::obs::json::Json::as_str),
        Some("serve.queue_full")
    );
    // Accepted requests are unaffected by the rejection.
    for t in tickets {
        t.wait().expect("accepted requests complete");
    }
}

#[test]
fn a_poisoned_cache_fails_closed_with_a_typed_error() {
    let (program, fns, schema, _) = scatter();
    let cache = PlanCache::default();
    cache.poison_for_test();
    let err = Partir::new(program, fns, schema).cache(&cache).solve().unwrap_err();
    assert_eq!(err.error_code(), "cache.poisoned");
    assert!(matches!(err, Error::Cache(_)));
    assert!(is_known_error_code(err.error_code()));
}

#[test]
fn concurrent_clients_converge_on_one_artifact_and_run_it() {
    let (program, fns, schema, seed) = scatter();
    let mut seq = seed.clone();
    run_program_seq(&program, &mut seq, &fns);

    let server = Arc::new(Server::new(ServeConfig { workers: 4, ..Default::default() }));
    // Prime the cache: every concurrent client below is then a hit,
    // answered on its own thread, and shares the primed artifact
    // (simultaneous cold clients would each solve, not coalesced).
    let primed = server
        .solve(Partir::new(program.clone(), fns.clone(), schema.clone()).colors(6))
        .expect("priming solve succeeds");
    let clients: Vec<_> = (0..6)
        .map(|k| {
            let server = Arc::clone(&server);
            let (program, fns, schema) = (program.clone(), fns.clone(), schema.clone());
            let mut store = seed.clone();
            std::thread::spawn(move || {
                let reply = server
                    .solve(Partir::new(program, fns, schema).colors(6))
                    .expect("request succeeds");
                // Alternate backends across clients over the same plan.
                let backend = if k % 2 == 0 { Backend::Threads(2) } else { Backend::Ranks(3) };
                Run::new().backend(backend).run(&reply.plan, &mut store).expect("run succeeds");
                (reply, store)
            })
        })
        .collect();
    let results: Vec<_> = clients.into_iter().map(|c| c.join().expect("no panic")).collect();
    let first = primed.plan.solved().clone();
    for (reply, store) in &results {
        assert!(reply.plan.cache_hit(), "every post-prime request hits");
        assert!(Arc::ptr_eq(reply.plan.solved(), &first), "one artifact for all clients");
        for f in 0..schema.num_fields() {
            let fid = partir::dpl::region::FieldId(f as u32);
            assert_eq!(seq.field_data(fid), store.field_data(fid), "bit-identical results");
        }
    }
    let stats = server.cache_stats().unwrap();
    assert_eq!(stats.entries, 1);
    assert!(stats.hit_rate() > 0.0);
}

#[test]
fn every_serve_code_is_registered_in_the_report_schema() {
    for code in ["serve.over_budget", "serve.queue_full", "serve.disconnected", "cache.poisoned"] {
        assert!(is_known_error_code(code), "{code} missing from ERROR_CODES");
    }
}
