//! `Run::run` is a function of `(Run, Plan, Store)`: the environment
//! variables that used to supply defaults for unset settings no longer
//! reach it. One test, alone in its file, because the environment is
//! process-global.

use partir::prelude::*;

/// Figure 7's scatter: `for i in R: S[g(i)] += R[i]`.
fn scatter() -> (Vec<Loop>, FnTable, Store) {
    let mut schema = Schema::new();
    let r = schema.add_region("R", 96);
    let s = schema.add_region("S", 96);
    let rx = schema.add_field(r, "x", FieldKind::F64);
    let sx = schema.add_field(s, "x", FieldKind::F64);
    let mut fns = FnTable::new();
    let g = fns.add("g", r, s, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 3, modulus: 96 }));
    let mut b = LoopBuilder::new("scatter", r);
    let i = b.loop_var();
    let v = b.val_read(r, rx, i);
    let gi = b.idx_apply(g, i);
    b.val_reduce(s, sx, gi, ReduceOp::Add, VExpr::var(v));
    let mut store = Store::new(schema);
    for i in 0..96 {
        store.f64s_mut(rx)[i] = (i as f64).cos() * 2.5;
        store.f64s_mut(sx)[i] = i as f64 * 0.125;
    }
    (vec![b.finish()], fns, store)
}

/// What a default run produced, minus wall-clock.
struct Seen {
    store: Store,
    /// The report without its `*_ns` timings.
    counts: String,
    timeline: bool,
    placement: Option<String>,
}

fn observe(plan: &Plan, seed: &Store, backend: Backend) -> Seen {
    let mut store = seed.clone();
    let outcome = Run::new().backend(backend).run(plan, &mut store).expect("default run succeeds");
    let counts: Vec<_> = outcome
        .report
        .to_json()
        .as_object()
        .expect("reports are objects")
        .iter()
        .filter(|(k, _)| !k.ends_with("_ns"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    Seen {
        store,
        counts: counts.join(" "),
        timeline: outcome.trace.is_some(),
        placement: outcome.placement.map(|p| p.policy),
    }
}

#[test]
fn default_runs_are_the_same_under_a_hostile_environment() {
    let (program, fns, seed) = scatter();
    let mut seq = seed.clone();
    run_program_seq(&program, &mut seq, &fns);
    let plan = Partir::new(program, fns, seed.schema().clone()).colors(4).solve().unwrap();
    let backends = [Backend::Threads(2), Backend::Ranks(2)];
    let clean: Vec<_> = backends.iter().map(|&b| observe(&plan, &seed, b)).collect();

    for (name, value) in [
        ("PARTIR_DIST_FAULT_SEED", "1"),
        ("PARTIR_DIST_FAULT_CRASH_RANK", "1"),
        ("PARTIR_DIST_FAULT_CRASH_EPOCH", "0"),
        ("PARTIR_FAULT_SEED", "1"),
        ("PARTIR_FAULT_RATE", "1"),
        ("PARTIR_PLACEMENT", "cost"),
        ("PARTIR_STRICT_VOLUME", "1"),
        ("PARTIR_TIMELINE", "1"),
        ("PARTIR_DIST_CHECKPOINT_INTERVAL", "1"),
    ] {
        std::env::set_var(name, value);
    }

    for (&backend, clean) in backends.iter().zip(&clean) {
        let hostile = observe(&plan, &seed, backend);
        let fields = seq.schema().num_fields();
        for f in (0..fields).map(|f| FieldId(f as u32)) {
            assert_eq!(seq.field_data(f), hostile.store.field_data(f), "{backend:?}: field {f:?}");
        }
        // No fault injected, no checkpoint taken, no timeline collected,
        // block placement: everything but wall-clock is what it was.
        assert_eq!(hostile.counts, clean.counts, "{backend:?}: report changed");
        assert!(!hostile.timeline, "{backend:?}: a timeline was collected");
        assert_eq!(hostile.placement, clean.placement, "{backend:?}: placement changed");
    }
    assert_eq!(clean[1].placement.as_deref(), Some("block"));
}
