//! Hand-written single-threaded kernels for Stencil, CSR SpMV and Circuit.
//!
//! Each works on the same `Store` arrays as the loop program and performs
//! the same floating-point operations in the same order, so its output is
//! bit-identical to `run_program_seq`; the time ratio between the two is
//! the interpreter's overhead (`interp.overhead_x`).

use partir::prelude::*;

#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    Stencil {
        nx: u64,
        f_in: FieldId,
        f_out: FieldId,
    },
    Spmv {
        yv: FieldId,
        range: FieldId,
        mval: FieldId,
        mind: FieldId,
        xv: FieldId,
    },
    Circuit {
        voltage: FieldId,
        charge: FieldId,
        current: FieldId,
        in_ptr: FieldId,
        out_ptr: FieldId,
    },
}

fn field(schema: &Schema, region: &str, name: &str) -> FieldId {
    let r = schema.region_by_name(region).unwrap_or_else(|| panic!("no region {region}"));
    schema.field_by_name(r, name).unwrap_or_else(|| panic!("no field {region}.{name}"))
}

/// Moves an f64 field out of the store so it can be written while other
/// fields are read; `put_f64s` moves it back.
fn take_f64s(store: &mut Store, f: FieldId) -> Vec<f64> {
    match std::mem::replace(store.field_data_mut(f), FieldData::F64(Vec::new())) {
        FieldData::F64(v) => v,
        other => panic!("field {f:?} is not F64 (got {other:?})"),
    }
}

fn put_f64s(store: &mut Store, f: FieldId, v: Vec<f64>) {
    *store.field_data_mut(f) = FieldData::F64(v);
}

impl Kernel {
    /// The kernel for `apps::stencil` on an `nx`-wide grid.
    pub fn stencil(schema: &Schema, nx: u64) -> Kernel {
        Kernel::Stencil {
            nx,
            f_in: field(schema, "Grid", "in"),
            f_out: field(schema, "Grid", "out"),
        }
    }

    /// The kernel for the CSR schema of `apps::spmv` and the spine's
    /// power-law generator.
    pub fn spmv(schema: &Schema) -> Kernel {
        Kernel::Spmv {
            yv: field(schema, "Y", "val"),
            range: field(schema, "Y", "range"),
            mval: field(schema, "Mat", "val"),
            mind: field(schema, "Mat", "ind"),
            xv: field(schema, "X", "val"),
        }
    }

    /// The kernel for `apps::circuit`.
    pub fn circuit(schema: &Schema) -> Kernel {
        Kernel::Circuit {
            voltage: field(schema, "rn", "voltage"),
            charge: field(schema, "rn", "charge"),
            current: field(schema, "rw", "current"),
            in_ptr: field(schema, "rw", "in"),
            out_ptr: field(schema, "rw", "out"),
        }
    }

    /// Runs one iteration of the program, in place.
    pub fn run(&self, store: &mut Store) {
        match *self {
            Kernel::Stencil { nx, f_in, f_out } => stencil(store, nx, f_in, f_out),
            Kernel::Spmv { yv, range, mval, mind, xv } => {
                let mut y = take_f64s(store, yv);
                let (a, cols, x) = (store.f64s(mval), store.ptrs(mind), store.f64s(xv));
                for (yi, &(s, e)) in y.iter_mut().zip(store.ranges(range)) {
                    let (s, e) = (s as usize, e as usize);
                    let mut acc = *yi;
                    for (av, &c) in a[s..e].iter().zip(&cols[s..e]) {
                        acc += av * x[c as usize];
                    }
                    *yi = acc;
                }
                put_f64s(store, yv, y);
            }
            Kernel::Circuit { voltage, charge, current, in_ptr, out_ptr } => {
                let mut i_w = take_f64s(store, current);
                let mut q = take_f64s(store, charge);
                let mut v = take_f64s(store, voltage);
                let (ins, outs) = (store.ptrs(in_ptr), store.ptrs(out_ptr));
                // calc_new_currents
                for ((i, &ni), &no) in i_w.iter_mut().zip(ins).zip(outs) {
                    *i = 0.5 * (v[ni as usize] - v[no as usize]);
                }
                // distribute_charge
                for ((&i, &ni), &no) in i_w.iter().zip(ins).zip(outs) {
                    q[ni as usize] += -0.125 * i;
                    q[no as usize] += 0.125 * i;
                }
                // update_voltages
                for (v, q) in v.iter_mut().zip(q.iter_mut()) {
                    *v += 0.25 * *q;
                    *q = 0.0;
                }
                put_f64s(store, current, i_w);
                put_f64s(store, charge, q);
                put_f64s(store, voltage, v);
            }
        }
    }
}

/// 9-point periodic stencil on the row-major linearized grid, then the
/// "add roots" increment; neighbour order and weights as in
/// `apps::stencil`.
fn stencil(store: &mut Store, nx: u64, f_in: FieldId, f_out: FieldId) {
    let mut out = take_f64s(store, f_out);
    let mut inp = take_f64s(store, f_in);
    let n = inp.len();
    let nx = nx as i64;
    let offsets = [-nx - 1, -nx, -nx + 1, -1, 1, nx - 1, nx, nx + 1];
    // Each neighbour is `(i + off) mod n`; with `off` reduced into `0..n`
    // that is one conditional subtraction.
    let shifts = offsets.map(|off| off.rem_euclid(n as i64) as usize);
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 4.0 * inp[i];
        for (k, &shift) in shifts.iter().enumerate() {
            let j = if i + shift >= n { i + shift - n } else { i + shift };
            let w = if k % 2 == 0 { -0.25 } else { -0.5 };
            acc += w * inp[j];
        }
        *o = acc;
    }
    for v in &mut inp {
        *v += 1.0;
    }
    put_f64s(store, f_out, out);
    put_f64s(store, f_in, inp);
}

#[cfg(test)]
mod tests {
    use crate::inputs::{build, SMOKE};
    use partir::ir::interp::run_program_seq;

    /// Every request that has a kernel, at small size: the kernel's store
    /// equals the sequential interpreter's bit for bit, over two
    /// iterations (the second starts from a non-trivial state).
    #[test]
    fn kernels_are_bit_identical_to_the_interpreter() {
        let mut covered = 0;
        for name in crate::inputs::WORKLOADS {
            let w = build(name, 42, &SMOKE).unwrap();
            for r in &w.requests {
                let Some(kernel) = r.kernel else { continue };
                let (mut native, mut oracle) = (r.store.clone(), r.store.clone());
                for _ in 0..2 {
                    kernel.run(&mut native);
                    run_program_seq(&r.program, &mut oracle, &r.fns);
                }
                assert!(crate::measure::stores_equal(&native, &oracle), "{name}/{}", r.name);
                covered += 1;
            }
        }
        // 3 L requests + (2 spmv + 2 stencil + 2 circuit) x 2 color counts.
        assert_eq!(covered, 15);
    }
}
