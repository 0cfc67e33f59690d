//! Quickstart: the paper's Figure 1 program end to end.
//!
//! Builds the particles/cells program of Figure 1a, then lets the
//! `partir::Partir` builder infer partitioning constraints (Algorithm 1),
//! solve them with unification (Algorithms 2–3), and print the synthesized
//! DPL program (which matches Figure 2's "program B"). The one solved
//! `Plan` then runs on host threads and on the SPMD rank-sharded backend
//! — both bit-identical to the sequential interpreter.
//!
//! Run: `cargo run --release --example quickstart`

use partir::prelude::*;

fn main() {
    // ---- Regions and fields (Figure 1a's data model). ----
    let n_cells = 1000u64;
    let n_particles = 20_000u64;
    let mut schema = Schema::new();
    let cells = schema.add_region("Cells", n_cells);
    let particles = schema.add_region("Particles", n_particles);
    let cell_f = schema.add_field(particles, "cell", FieldKind::Ptr(cells));
    let pos = schema.add_field(particles, "pos", FieldKind::F64);
    let vel = schema.add_field(cells, "vel", FieldKind::F64);
    let acc = schema.add_field(cells, "acc", FieldKind::F64);

    // Partitioning functions: the pointer field Particles[·].cell and the
    // neighbor map h (a wrap-around affine function here).
    let mut fns = FnTable::new();
    let fcell = fns.add_ptr_field("Particles[.].cell", particles, cells, cell_f);
    let h = fns.add(
        "h",
        cells,
        cells,
        FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: n_cells }),
    );

    // ---- The two loops of Figure 1a. ----
    // for p in Particles:
    //   c = Particles[p].cell
    //   Particles[p].pos += Cells[c].vel + Cells[h(c)].vel
    let mut b = LoopBuilder::new("particles", particles);
    let p = b.loop_var();
    let c = b.idx_read(particles, cell_f, p, fcell);
    let v1 = b.val_read(cells, vel, c);
    let hc = b.idx_apply(h, c);
    let v2 = b.val_read(cells, vel, hc);
    b.val_reduce(particles, pos, p, ReduceOp::Add, VExpr::add(VExpr::var(v1), VExpr::var(v2)));
    let loop1 = b.finish();

    // for c in Cells:
    //   Cells[c].vel += Cells[c].acc + Cells[h(c)].acc
    let mut b = LoopBuilder::new("cells", cells);
    let cv = b.loop_var();
    let a1 = b.val_read(cells, acc, cv);
    let hc = b.idx_apply(h, cv);
    let a2 = b.val_read(cells, acc, hc);
    b.val_reduce(cells, vel, cv, ReduceOp::Add, VExpr::add(VExpr::var(a1), VExpr::var(a2)));
    let loop2 = b.finish();

    let program = vec![loop1, loop2];

    // ---- Populate data. ----
    let mut store = Store::new(schema.clone());
    for (i, ptr) in store.ptrs_mut(cell_f).iter_mut().enumerate() {
        *ptr = (i as u64 * 37) % n_cells;
    }
    for (i, v) in store.f64s_mut(vel).iter_mut().enumerate() {
        *v = (i % 10) as f64;
    }
    for (i, a) in store.f64s_mut(acc).iter_mut().enumerate() {
        *a = (i % 5) as f64;
    }

    // ---- Sequential ground truth. ----
    let mut seq = store.clone();
    run_program_seq(&program, &mut seq, &fns);

    // ---- Solve once. ----
    let plan =
        Partir::new(program, fns, schema).colors(8).solve().expect("Figure 1a is parallelizable");
    println!("Synthesized DPL program (compare with Figure 2b, 'program B'):");
    println!("{}", plan.render_dpl());
    let t = plan.parallel_plan().timings;
    println!("phases: inference {:?}, solver {:?}, rewrite {:?}", t.inference, t.solver, t.rewrite);
    for (i, part) in plan.evaluate(&store).iter().enumerate() {
        println!(
            "P{i}: {} subregions of r{}, disjoint={}, max |sub|={}",
            part.num_subregions(),
            part.region.0,
            part.is_disjoint(),
            part.max_subregion_len()
        );
    }

    // ---- Run the one plan on each backend, compare. ----
    for backend in [Backend::Threads(4), Backend::Ranks(4)] {
        let mut par = store.clone();
        let outcome =
            Run::new().backend(backend).run(&plan, &mut par).expect("parallel execution succeeds");
        assert_eq!(seq.f64s(pos), par.f64s(pos));
        assert_eq!(seq.f64s(vel), par.f64s(vel));
        match outcome.report {
            RunReport::Threads(r) => println!(
                "\n{backend:?}: matches sequential ✓ ({} tasks, {} buffer bytes)",
                r.tasks_run, r.buffer_bytes
            ),
            RunReport::Ranks(r) => println!(
                "\n{backend:?}: matches sequential ✓ ({} tasks, {} msgs, {} ghost bytes vs {} replicated)",
                r.tasks_run, r.messages, r.bytes_sent, r.replication_bytes
            ),
        }
    }
}
