//! Seeded input generation: the four workloads and their request lists.
//!
//! Everything the program under test receives is built here from `--seed`.
//! The generator owns its random numbers (SplitMix64) so inputs do not
//! change when a vendored crate does; only `apps::circuit` draws from its
//! own generator, seeded from ours.

use crate::kernels::Kernel;
use partir::apps::{circuit, miniaero, pennant, spmv, stencil};
use partir::prelude::*;

/// SplitMix64: small, fast, and good enough for workload generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One solve request plus the store it runs on.
pub struct Request {
    pub name: String,
    pub program: Vec<Loop>,
    pub fns: FnTable,
    pub store: Store,
    pub hints: Hints,
    pub exts: ExtBindings,
    pub colors: usize,
    /// Hand-written kernel for the same program, where the spine has one.
    pub kernel: Option<Kernel>,
    /// Innermost loop-body executions in one run of the program, the unit
    /// of `interp.ns_per_elem`.
    pub elems: u64,
}

impl Request {
    fn plain(name: &str, program: Vec<Loop>, fns: FnTable, store: Store, colors: usize) -> Request {
        let elems = program.iter().map(|l| store.schema().region_size(l.region)).sum();
        Request {
            name: name.into(),
            program,
            fns,
            store,
            hints: Hints::new(),
            exts: ExtBindings::new(),
            colors,
            kernel: None,
            elems,
        }
    }

    fn hinted(mut self, (hints, exts): (Hints, ExtBindings)) -> Request {
        self.hints = hints;
        self.exts = exts;
        self
    }

    pub fn builder(&self) -> Partir {
        Partir::new(self.program.clone(), self.fns.clone(), self.store.schema().clone())
            .colors(self.colors)
            .hints(self.hints.clone())
            .externals(self.exts.clone())
    }
}

/// A workload: its requests and the order one pass submits them in.
pub struct Workload {
    pub requests: Vec<Request>,
    /// Indices into `requests`, seeded-shuffled.
    pub order: Vec<usize>,
    /// How many times a warm pass replays `order`.
    pub warm_replays: usize,
    /// What one round (`Prepared::round`) took on the host that defined the
    /// benchmark, in seconds. It turns `--seconds` into a number of rounds
    /// that is the same on every commit (`measure::rounds_per_part`); it is
    /// never measured.
    pub nominal_round_s: f64,
}

/// Problem sizes. `FULL` is the benchmark; `SMOKE` only proves the harness
/// runs and emits every metric.
pub struct Sizes {
    pub stencil_n: u64,
    pub spmv_rows: u64,
    pub circuit_nodes_per_cluster: u64,
    pub circuit_wires_per_cluster: u64,
}

pub const FULL: Sizes = Sizes {
    stencil_n: 1536,
    spmv_rows: 400_000,
    circuit_nodes_per_cluster: 40_000,
    circuit_wires_per_cluster: 160_000,
};

pub const SMOKE: Sizes = Sizes {
    stencil_n: 48,
    spmv_rows: 3_000,
    circuit_nodes_per_cluster: 400,
    circuit_wires_per_cluster: 1_600,
};

/// Colors every L workload is solved at.
pub const COLORS: usize = 8;
const CIRCUIT_CLUSTERS: usize = 8;
/// Mean non-zeros per SpMV row.
const SPMV_MEAN_NNZ: f64 = 8.0;
/// Density exponent of the row-length power law.
const SPMV_EXPONENT: f64 = 2.1;
/// Longest row.
const SPMV_ROW_CAP: f64 = 4096.0;
/// Warm passes of `serve-mix` replay the request list this often.
const SERVE_WARM_REPLAYS: usize = 20;
/// A warm request on `stencil-L` takes about 0.03 ms (no pointer field to
/// fingerprint), too short to time once; its warm pass replays it.
const STENCIL_WARM_REPLAYS: usize = 512;

pub const WORKLOADS: [&str; 4] = ["stencil-L", "spmv-powerlaw-L", "circuit-auto-L", "serve-mix"];

/// Builds the named workload from `seed`. `None` for an unknown name.
pub fn build(name: &str, seed: u64, sizes: &Sizes) -> Option<Workload> {
    let mut rng = Rng::new(seed ^ 0x5350_494E);
    let (requests, warm_replays, nominal_round_s) = match name {
        "stencil-L" => (
            vec![stencil_request("stencil", sizes.stencil_n, COLORS, &mut rng)],
            STENCIL_WARM_REPLAYS,
            1.1,
        ),
        "spmv-powerlaw-L" => {
            (vec![spmv_powerlaw_request(sizes.spmv_rows, COLORS, &mut rng)], 1, 1.05)
        }
        "circuit-auto-L" => (
            vec![circuit_request(
                "circuit_auto",
                CIRCUIT_CLUSTERS,
                sizes.circuit_nodes_per_cluster,
                sizes.circuit_wires_per_cluster,
                COLORS,
                &mut rng,
            )],
            1,
            1.8,
        ),
        "serve-mix" => (serve_corpus(&mut rng), SERVE_WARM_REPLAYS, 0.11),
        _ => return None,
    };
    let mut order: Vec<usize> = (0..requests.len()).collect();
    rng.shuffle(&mut order);
    Some(Workload { requests, order, warm_replays, nominal_round_s })
}

fn stencil_request(name: &str, n: u64, colors: usize, rng: &mut Rng) -> Request {
    let mut a = stencil::Stencil::generate(&stencil::StencilParams { nx: n, ny: n });
    for v in a.store.f64s_mut(a.f_in) {
        *v = 1.0 + rng.below(13) as f64;
    }
    let mut r = Request::plain(name, a.program, a.fns, a.store, colors);
    r.kernel = Some(Kernel::stencil(r.store.schema(), n));
    r
}

fn circuit_request(
    name: &str,
    clusters: usize,
    nodes_per_cluster: u64,
    wires_per_cluster: u64,
    colors: usize,
    rng: &mut Rng,
) -> Request {
    let a = circuit::Circuit::generate(&circuit::CircuitParams {
        clusters,
        nodes_per_cluster,
        wires_per_cluster,
        cross_fraction: 0.2,
        cross_stride: None,
        seed: rng.next_u64(),
    });
    let mut r = Request::plain(name, a.program, a.fns, a.store, colors);
    r.kernel = Some(Kernel::circuit(r.store.schema()));
    r
}

/// Row lengths of the power-law matrix: the quantiles of a Pareto density
/// `x^-2.1` truncated to `[x_min, 4096]`, one per row at a jittered
/// stratum, then shuffled. Stratifying keeps the multiset of lengths (and
/// so the non-zero count and the longest row) nearly the same for every
/// seed; the seed decides which row gets which length.
fn powerlaw_row_lengths(rows: u64, rng: &mut Rng) -> Vec<u64> {
    // x_min such that the truncated density has the wanted mean.
    let a = SPMV_EXPONENT - 1.0;
    let mean_of = |x_min: f64| {
        let num = (x_min.powf(1.0 - a) - SPMV_ROW_CAP.powf(1.0 - a)) / (a - 1.0);
        let den = (x_min.powf(-a) - SPMV_ROW_CAP.powf(-a)) / a;
        num / den
    };
    // Lengths are floored, which lowers the mean by about a half.
    let target = SPMV_MEAN_NNZ + 0.5;
    let (mut lo, mut hi) = (0.5f64, 64.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mean_of(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let x_min = 0.5 * (lo + hi);
    let (tail_min, tail_cap) = (x_min.powf(-a), SPMV_ROW_CAP.powf(-a));
    let mut lens: Vec<u64> = (0..rows)
        .map(|i| {
            let u = (i as f64 + rng.unit()) / rows as f64;
            // Inverse of the truncated Pareto distribution function.
            let x = (tail_min - u * (tail_min - tail_cap)).powf(-1.0 / a);
            (x as u64).clamp(1, SPMV_ROW_CAP as u64)
        })
        .collect();
    rng.shuffle(&mut lens);
    lens
}

/// CSR SpMV over the schema and loop of `examples/spmv_csr.rs`, with
/// power-law row lengths; 80% of a row's columns fall within `rows/64` of
/// the diagonal and 20% anywhere.
fn spmv_powerlaw_request(rows: u64, colors: usize, rng: &mut Rng) -> Request {
    let lens = powerlaw_row_lengths(rows, rng);
    let nnz: u64 = lens.iter().sum();

    let mut schema = Schema::new();
    let mat = schema.add_region("Mat", nnz);
    let x = schema.add_region("X", rows);
    let y = schema.add_region("Y", rows);
    let yv = schema.add_field(y, "val", FieldKind::F64);
    let range_f = schema.add_field(y, "range", FieldKind::Range(mat));
    let mval = schema.add_field(mat, "val", FieldKind::F64);
    let mind = schema.add_field(mat, "ind", FieldKind::Ptr(x));
    let xv = schema.add_field(x, "val", FieldKind::F64);
    let mut fns = FnTable::new();
    let ranges = fns.add_range_field("Ranges", y, mat, range_f);
    let ind = fns.add_ptr_field("Mat[.].ind", mat, x, mind);

    let mut store = Store::new(schema);
    let band = (rows / 64).max(1);
    let mut cols: Vec<u64> = Vec::with_capacity(nnz as usize);
    for (i, &len) in lens.iter().enumerate() {
        let start = cols.len();
        for _ in 0..len {
            cols.push(if rng.below(5) < 4 {
                let lo = (i as u64).saturating_sub(band);
                let hi = (i as u64 + band + 1).min(rows);
                lo + rng.below(hi - lo)
            } else {
                rng.below(rows)
            });
        }
        cols[start..].sort_unstable();
        store.ranges_mut(range_f)[i] = (start as u64, cols.len() as u64);
    }
    store.ptrs_mut(mind).copy_from_slice(&cols);
    for v in store.f64s_mut(mval) {
        *v = 1.0 + rng.below(5) as f64;
    }
    for v in store.f64s_mut(xv) {
        *v = 1.0 + rng.below(7) as f64;
    }

    // for i in Y: for k in Ranges(i): Y[i] += Mat[k].val * X[Mat[k].ind]
    let mut b = LoopBuilder::new("spmv", y);
    let i = b.loop_var();
    let kv = b.begin_for_each(ranges, i);
    let a = b.val_read(mat, mval, kv);
    let col = b.idx_read(mat, mind, kv, ind);
    let xval = b.val_read(x, xv, col);
    b.val_reduce(y, yv, i, ReduceOp::Add, VExpr::mul(VExpr::var(a), VExpr::var(xval)));
    b.end_for_each();

    let mut r = Request::plain("spmv_powerlaw", vec![b.finish()], fns, store, colors);
    r.kernel = Some(Kernel::spmv(r.store.schema()));
    r.elems = nnz;
    r
}

/// The nine small request shapes of the serving benchmark, each at 4 and 8
/// colors: 18 distinct solve fingerprints. The hinted shapes take their
/// external partitions from the generator, which makes one piece per
/// color.
fn serve_corpus(rng: &mut Rng) -> Vec<Request> {
    let mut out = Vec::new();
    for colors in [4usize, 8] {
        let tag = |shape: &str| format!("{shape}@{colors}");

        for (shape, rows, halo) in [("spmv_4k", 4096, 2), ("spmv_8k_halo3", 8192, 3)] {
            let a = spmv::Spmv::generate(&spmv::SpmvParams { rows, halo, band_shift: 0 });
            let mut r = Request::plain(&tag(shape), a.program, a.fns, a.store, colors);
            r.kernel = Some(Kernel::spmv(r.store.schema()));
            r.elems = a.nnz;
            out.push(r);
        }
        for (shape, nx, ny) in [("stencil_64", 64, 64), ("stencil_96x64", 96, 64)] {
            let a = stencil::Stencil::generate(&stencil::StencilParams { nx, ny });
            let mut r = Request::plain(&tag(shape), a.program, a.fns, a.store, colors);
            r.kernel = Some(Kernel::stencil(r.store.schema(), nx));
            out.push(r);
        }
        let a = miniaero::MiniAero::generate(&miniaero::MiniAeroParams { nx: 6, ny: 6, nz: 6 });
        out.push(Request::plain(&tag("miniaero_6"), a.program, a.fns, a.store, colors));

        out.push(circuit_request(&tag("circuit_auto"), 4, 200, 800, colors, rng));
        let a = circuit::Circuit::generate(&circuit::CircuitParams {
            clusters: colors,
            nodes_per_cluster: 400,
            wires_per_cluster: 800,
            cross_fraction: 0.2,
            cross_stride: None,
            seed: rng.next_u64(),
        });
        let hints = a.hint_setup(colors);
        let mut r = Request::plain(&tag("circuit_hinted"), a.program, a.fns, a.store, colors);
        r.kernel = Some(Kernel::circuit(r.store.schema()));
        out.push(r.hinted(hints));

        let pennant_params = pennant::PennantParams { pieces: colors, zw: 4, zy: 4 };
        let a = pennant::Pennant::generate(&pennant_params);
        out.push(Request::plain(&tag("pennant_auto"), a.program, a.fns, a.store, colors));
        let a = pennant::Pennant::generate(&pennant_params);
        let hints = a.hint_setup(pennant::PennantConfig::Hint2);
        out.push(
            Request::plain(&tag("pennant_hint2"), a.program, a.fns, a.store, colors).hinted(hints),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir::core::fingerprint::{solve_fingerprint, store_index_fingerprint, Fingerprint};
    use std::collections::BTreeSet;

    fn solve_fp(r: &Request) -> Fingerprint {
        solve_fingerprint(
            &r.program,
            &r.fns,
            r.store.schema(),
            &r.hints,
            &Options::default(),
            &r.exts,
            r.colors,
        )
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_store() {
        for name in ["spmv-powerlaw-L", "circuit-auto-L"] {
            let a = build(name, 7, &SMOKE).unwrap();
            let b = build(name, 7, &SMOKE).unwrap();
            let c = build(name, 8, &SMOKE).unwrap();
            let store_fp = |w: &Workload| store_index_fingerprint(&w.requests[0].store);
            assert_eq!(store_fp(&a), store_fp(&b), "{name}: same seed, same index structure");
            assert_ne!(store_fp(&a), store_fp(&c), "{name}: another seed, another structure");
            assert_eq!(solve_fp(&a.requests[0]), solve_fp(&b.requests[0]));
        }
        // f64 payloads are not part of the index fingerprint; compare them.
        let a = build("stencil-L", 7, &SMOKE).unwrap();
        let b = build("stencil-L", 7, &SMOKE).unwrap();
        let c = build("stencil-L", 8, &SMOKE).unwrap();
        let data = |w: &Workload| w.requests[0].store.field_data(FieldId(0)).clone();
        assert_eq!(data(&a), data(&b));
        assert_ne!(data(&a), data(&c));
    }

    #[test]
    fn serve_corpus_has_18_fingerprints_stable_across_runs() {
        let a = build("serve-mix", 3, &SMOKE).unwrap();
        let b = build("serve-mix", 3, &SMOKE).unwrap();
        assert_eq!(a.requests.len(), 18);
        let fps: Vec<_> = a.requests.iter().map(solve_fp).collect();
        assert_eq!(fps.iter().map(|f| f.to_string()).collect::<BTreeSet<_>>().len(), 18);
        assert_eq!(fps, b.requests.iter().map(solve_fp).collect::<Vec<_>>());
        assert_eq!(a.order, b.order);
        assert_ne!(a.order, build("serve-mix", 4, &SMOKE).unwrap().order);
    }

    #[test]
    fn row_lengths_follow_the_power_law() {
        let rows = 100_000;
        let mut lens = powerlaw_row_lengths(rows, &mut Rng::new(11));
        let mean = lens.iter().sum::<u64>() as f64 / rows as f64;
        assert!((mean - SPMV_MEAN_NNZ).abs() < 0.5, "mean row length {mean}");
        lens.sort_unstable();
        let (median, max) = (lens[lens.len() / 2], *lens.last().unwrap());
        assert!(max <= SPMV_ROW_CAP as u64);
        assert!(max / median >= 50, "max {max} over median {median}");
        // Density x^-2.1: doubling the length divides the tail count by 2^1.1.
        let tail = |x: u64| lens.iter().filter(|&&l| l >= x).count() as f64;
        let ratio = tail(16) / tail(32);
        assert!((ratio - 2f64.powf(1.1)).abs() < 0.25, "tail ratio {ratio}");
    }

    #[test]
    fn spmv_columns_are_mostly_banded_and_sorted_per_row() {
        let w = build("spmv-powerlaw-L", 5, &SMOKE).unwrap();
        let r = &w.requests[0];
        let schema = r.store.schema();
        let y = schema.region_by_name("Y").unwrap();
        let mat = schema.region_by_name("Mat").unwrap();
        let ranges = r.store.ranges(schema.field_by_name(y, "range").unwrap());
        let cols = r.store.ptrs(schema.field_by_name(mat, "ind").unwrap());
        let band = SMOKE.spmv_rows / 64;
        let mut near = 0u64;
        for (i, &(s, e)) in ranges.iter().enumerate() {
            let row = &cols[s as usize..e as usize];
            assert!(row.windows(2).all(|w| w[0] <= w[1]));
            near += row.iter().filter(|&&c| c.abs_diff(i as u64) <= band).count() as u64;
        }
        let share = near as f64 / cols.len() as f64;
        assert!((0.78..0.86).contains(&share), "banded share {share}");
    }
}
