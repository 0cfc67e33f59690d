//! Plan/partition validation, pinned per backend: each of the seven
//! malformed shapes the driver rejects before running anything is fed to
//! it in place on threads and sharded on ranks, and must come back with
//! the same registered `dist.*` code on both. The eighth
//! shape they reject, a body reading a `ForEach`'s variable after the
//! block, never gets that far through the facade: `solve()` refuses it.
//! Nor does a store laid out otherwise than the plan's schema: `Run::run`
//! answers `session.invalid` before either backend sees it.

use partir::core::eval::ExtBindings;
use partir::core::exchange::ExchangePlan;
use partir::core::pipeline::{auto_parallelize, Hints, Options, ParallelPlan, PartId};
use partir::core::pipeline::{LoopPlan, PlannedReduce};
use partir::core::placement::{place, PlacementConfig};
use partir::dpl::index_set::IndexSet;
use partir::dpl::partition::Partition;
use partir::obs::report::is_known_error_code;
use partir::prelude::*;
use partir::runtime::dist::{execute_ranks, DistOptions, Layout};
use std::sync::Arc;

mod common;
use common::{build, Built, Cfg};

const COLORS: usize = 4;

/// A well-formed program, plan, partition set and 2-rank exchange plan.
struct Fixture {
    built: Built,
    plan: ParallelPlan,
    parts: Vec<Arc<Partition>>,
    xplan: ExchangePlan,
}

fn fixture(reduce: bool, second_loop: bool) -> Fixture {
    let built = build(&Cfg {
        n_a: 48,
        n_b: 24,
        colors: COLORS,
        read_ptr_chain: false,
        read_affine: !reduce,
        reduce_via_ptr: reduce,
        reduce_via_affine: reduce,
        second_loop,
        ptr_seed: 5,
    });
    let schema = built.store.schema();
    let plan =
        auto_parallelize(&built.program, &built.fns, schema, &Hints::new(), Options::default())
            .expect("generated programs are parallelizable");
    let parts = plan.evaluate(&built.store, &built.fns, COLORS, &ExtBindings::new());
    let xplan = place(&plan, &parts, schema, 2, &PlacementConfig::default()).unwrap().xplan;
    Fixture { built, plan, parts, xplan }
}

/// The codes both backends answer a shape with.
fn codes(fx: &Fixture, s: &Shape) -> (&'static str, &'static str) {
    let fns = &fx.built.fns;
    let mut store = fx.built.store.clone();
    let opts = DistOptions::default();
    let threads = Layout::InPlace { workers: 4 };
    let exec = execute_ranks(&s.program, &s.plan, &s.parts, threads, &mut store, fns, &opts)
        .expect_err("the threads backend must reject the shape");
    let ranks = Layout::Sharded(&fx.xplan);
    let dist = execute_ranks(&s.program, &s.plan, &s.parts, ranks, &mut store, fns, &opts)
        .expect_err("the rank backend must reject the shape");
    assert_eq!(store.field_data(FieldId(2)), fx.built.store.field_data(FieldId(2)), "nothing ran");
    (Error::from(exec).error_code(), Error::from(dist).error_code())
}

/// One `(program, plan, parts)` triple on its way to being malformed.
struct Shape {
    program: Vec<Loop>,
    plan: ParallelPlan,
    parts: Vec<Arc<Partition>>,
}

impl Shape {
    /// Rewrites the subregions of partition `id`.
    fn reshape(&mut self, id: PartId, f: impl FnOnce(&mut Vec<IndexSet>)) {
        let old = &self.parts[id.0 as usize];
        let mut subs = old.subregions().to_vec();
        f(&mut subs);
        self.parts[id.0 as usize] = Arc::new(Partition::new(old.region, subs));
    }
}

/// Makes every later subregion overlap the first.
fn alias(subs: &mut [IndexSet]) {
    let first = subs[0].clone();
    for s in &mut subs[1..] {
        *s = s.union(&first);
    }
}

#[test]
fn every_malformed_shape_keeps_its_code_on_both_backends() {
    // Loop 0 over A only reads and writes; loop 1 over B has a centered
    // reduction, so its iteration partition must be disjoint.
    let plain = fixture(false, true);
    assert!(plain.plan.loops[1].iter_must_be_disjoint);
    // One relaxed loop whose two reductions are guarded (or proved
    // disjoint): their partitions must be disjoint.
    let reducing = fixture(true, false);
    let in_place = |lp: &LoopPlan| {
        lp.accesses.iter().find_map(|a| match &a.reduce {
            Some(PlannedReduce::Direct | PlannedReduce::Guarded) => Some(a.part),
            Some(PlannedReduce::BufferedPrivate { private }) => Some(*private),
            _ => None,
        })
    };
    let reduction_part =
        in_place(&reducing.plan.loops[0]).expect("a direct, guarded or private reduction");

    type Malform<'a> = Box<dyn Fn(&mut Shape) + 'a>;
    let table: [(&str, &Fixture, Malform); 7] = [
        (
            "plan_mismatch",
            &plain,
            Box::new(|s| {
                s.program.pop();
            }),
        ),
        (
            "partition_index_out_of_bounds",
            &plain,
            Box::new(|s| s.plan.loops[0].accesses[0].part = PartId(999)),
        ),
        (
            "partition_width_mismatch",
            &plain,
            Box::new(|s| {
                s.reshape(s.plan.loops[0].iter, |subs| {
                    subs.pop();
                })
            }),
        ),
        (
            "partition_exceeds_region",
            &plain,
            Box::new(|s| {
                // The iteration partition is complete, so anything past its
                // largest element is past the region.
                s.reshape(s.plan.loops[0].iter, |subs| {
                    let last = subs.iter().filter_map(IndexSet::max).max().unwrap();
                    subs[0] = subs[0].union(&IndexSet::from_indices([last + 5]));
                })
            }),
        ),
        (
            "incomplete_iteration",
            &plain,
            Box::new(|s| {
                let hole = IndexSet::from_indices([0]);
                s.reshape(s.plan.loops[0].iter, |subs| {
                    subs.iter_mut().for_each(|sub| *sub = sub.difference(&hole));
                })
            }),
        ),
        (
            "iteration_not_disjoint",
            &plain,
            Box::new(|s| s.reshape(s.plan.loops[1].iter, |subs| alias(subs))),
        ),
        (
            "reduction_not_disjoint",
            &reducing,
            Box::new(|s| s.reshape(reduction_part, |subs| alias(subs))),
        ),
    ];
    for (name, fx, malform) in table {
        let mut shape = Shape {
            program: fx.built.program.clone(),
            plan: fx.plan.clone(),
            parts: fx.parts.clone(),
        };
        malform(&mut shape);
        let (exec, dist) = codes(fx, &shape);
        assert_eq!(exec, format!("dist.{name}"));
        assert_eq!(dist, format!("dist.{name}"));
        assert!(is_known_error_code(exec) && is_known_error_code(dist), "{name}");
    }
}

/// A value read inside a `ForEach` and used after it, and the `ForEach`
/// variable itself used after it: `solve()` refuses both where the program
/// is first seen, so neither reaches a backend's
/// `*.variable_out_of_scope`.
#[test]
fn a_for_each_variable_read_after_the_block_is_not_parallelizable() {
    for index_variable in [false, true] {
        let mut schema = Schema::new();
        let rows = schema.add_region("Rows", 16);
        let cols = schema.add_region("Cols", 16);
        let range = schema.add_field(rows, "range", FieldKind::Range(cols));
        let out = schema.add_field(rows, "out", FieldKind::F64);
        let cw = schema.add_field(cols, "w", FieldKind::F64);
        let mut fns = FnTable::new();
        let f_rows = fns.add_range_field("rows", rows, cols, range);

        let mut b = LoopBuilder::new("leak", rows);
        let i = b.loop_var();
        let k = b.begin_for_each(f_rows, i);
        let inside = b.val_read(cols, cw, k);
        b.end_for_each();
        let v = if index_variable { b.val_read(cols, cw, k) } else { inside };
        b.val_write(rows, out, i, VExpr::var(v));

        let err = Partir::new(vec![b.finish()], fns, schema)
            .colors(COLORS)
            .solve()
            .expect_err("a read outside the assigning block must not be planned");
        assert_eq!(err.error_code(), "auto.not_parallelizable", "{err}");
    }
}

/// A plan is sized and typed by the schema it was solved over. A store with
/// as many regions and fields but other region sizes, or the same sizes and
/// other field kinds, is refused on both backends before anything indexes a
/// column by the plan's sizes or reads it as the plan's kind.
#[test]
fn a_store_shaped_otherwise_than_the_plan_is_session_invalid_on_both_backends() {
    let cfg = Cfg {
        n_a: 48,
        n_b: 24,
        colors: COLORS,
        read_ptr_chain: true,
        read_affine: true,
        reduce_via_ptr: false,
        reduce_via_affine: false,
        second_loop: false,
        ptr_seed: 5,
    };
    let built = build(&cfg);
    let schema = built.store.schema().clone();
    let plan = Partir::new(built.program, built.fns, schema.clone())
        .colors(COLORS)
        .solve()
        .expect("generated programs are parallelizable");

    // The plan's schema with every field's kind taken from its successor.
    let mut permuted = Schema::new();
    for (_, decl) in schema.regions() {
        permuted.add_region(decl.name.clone(), decl.size);
    }
    let n = schema.num_fields() as u32;
    for f in 0..n {
        let (decl, next) = (schema.field(FieldId(f)), schema.field(FieldId((f + 1) % n)));
        permuted.add_field(decl.region, decl.name.clone(), next.kind);
    }
    assert!(!schema.same_shape(&permuted));

    let misfits = [
        ("smaller", build(&Cfg { n_a: 12, n_b: 6, ..cfg.clone() }).store),
        ("larger", build(&Cfg { n_a: 96, n_b: 48, ..cfg.clone() }).store),
        ("permuted kinds", Store::new(permuted)),
    ];
    for backend in [Backend::Threads(2), Backend::Ranks(2)] {
        let run = Run::new().backend(backend);
        for (what, store) in &misfits {
            assert_eq!(store.schema().num_fields(), schema.num_fields(), "{what}");
            assert_eq!(store.schema().num_regions(), schema.num_regions(), "{what}");
            let err = run
                .run(&plan, &mut store.clone())
                .expect_err("a store of another shape must not run");
            assert_eq!(err.error_code(), "session.invalid", "{what} on {backend:?}: {err}");
        }
        run.run(&plan, &mut built.store.clone()).expect("the store the plan was solved for runs");
    }
}

/// `IndexFn::eval` reduces `AffineMod` in `i64`: a modulus of 0 divides by
/// zero and one past `i64::MAX` turns negative. Wherever the function sits —
/// on its own, inside a `Compose`, lifted to a set-valued one — `solve()`
/// answers `session.invalid` before solving or touching the cache, directly
/// and through a server, so no plan exists whose evaluation would panic.
#[test]
fn a_modulus_eval_cannot_reduce_by_is_session_invalid_and_never_cached() {
    type Embed = fn(IndexFn) -> FnDef;
    let request = |wrap: Embed, modulus: u64| {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 32);
        let s = schema.add_region("S", 32);
        let out = schema.add_field(r, "out", FieldKind::F64);
        let sx = schema.add_field(s, "x", FieldKind::F64);
        let mut fns = FnTable::new();
        let g = fns.add("g", r, s, wrap(IndexFn::AffineMod { mul: 1, add: 3, modulus }));
        let mut b = LoopBuilder::new("gather", r);
        let i = b.loop_var();
        let j = b.begin_for_each(g, i);
        let v = b.val_read(s, sx, j);
        b.val_reduce(r, out, i, ReduceOp::Add, VExpr::var(v));
        b.end_for_each();
        let store = Store::new(schema.clone());
        (Partir::new(vec![b.finish()], fns, schema).colors(COLORS), store)
    };
    let embeddings: [(&str, Embed); 3] = [
        ("top level", FnDef::Index),
        ("inside Compose", |f| {
            FnDef::Index(IndexFn::Compose(Box::new(IndexFn::Identity), Box::new(f)))
        }),
        ("inside Lift", |f| FnDef::Multi(MultiFn::Lift(f))),
    ];
    for (place, wrap) in embeddings {
        // The same request with a modulus `eval` can use solves and runs.
        let (good, mut store) = request(wrap, 32);
        let plan = good.solve().unwrap_or_else(|e| panic!("{place}: {e}"));
        Run::new().run(&plan, &mut store).unwrap_or_else(|e| panic!("{place}: {e}"));

        for modulus in [0, u64::MAX, i64::MAX as u64 + 1] {
            let cache = PlanCache::new(1 << 20);
            let err = request(wrap, modulus).0.cache(&cache).solve().expect_err(place);
            assert_eq!(err.error_code(), "session.invalid", "{place}, modulus {modulus}: {err}");
            let stats = cache.stats().unwrap();
            assert_eq!((stats.entries, stats.misses), (0, 0), "{place}: the cache was consulted");

            let server = Server::new(ServeConfig { workers: 1, ..Default::default() });
            let err = server.solve(request(wrap, modulus).0).expect_err(place);
            assert_eq!(err.error_code(), "session.invalid", "{place}, modulus {modulus}: {err}");
            assert_eq!(server.cache_stats().unwrap().entries, 0, "{place}: something was cached");
        }
    }
}
