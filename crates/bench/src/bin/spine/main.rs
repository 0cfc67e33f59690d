//! `spine`: the request -> plan -> run benchmark.
//!
//! ```text
//! spine --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON result line
//! spine [--seed N] [--seconds S] [--out FILE] [--trace-out FILE] [--smoke]
//!                                                          every workload, both ways
//! spine compare A.json B.json                              regression verdicts
//! ```
//!
//! See `README.md` beside this file for the protocol, the metrics and what
//! each workload is for. `BENCHMARK.json` at the repository root is the
//! definition; it is compiled in, and a test keeps the two in step.

mod compare;
mod inputs;
mod kernels;
mod layers;
mod measure;
mod stats;
mod trace;

use measure::Ops;
use partir::obs::json::Json;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The benchmark definition, shared with the driver that runs the spine.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

const DEFAULT_SEED: u64 = 1;
/// Fewest traced repetitions; per-layer metrics carry no bound.
const MIN_TRACED_REPS: usize = 3;
/// Tracing may cost at most this share of request -> plan -> run.
const MAX_TRACE_OVERHEAD_PCT: f64 = 5.0;

type Metric = (&'static str, &'static str, Summary);

/// The result of one workload run, traced or not.
pub struct Outcome {
    pub ops: Ops,
    pub metrics: Vec<Metric>,
    /// Self time per harness span, traced runs only.
    pub layer_table: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric exactly `value` and `unit`.
    fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().fold(Json::object(), |o, (name, unit, s)| {
            o.with(*name, Json::object().with("value", s.value).with("unit", *unit))
        });
        Json::object()
            .with("correct", self.correct())
            .with("attempted", self.ops.attempted)
            .with("failed", self.ops.failed)
            .with("metrics", metrics)
    }

    /// The same with quartiles and counts, for `spine compare` and the
    /// all-workloads report.
    fn detail(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .fold(Json::object(), |o, (name, unit, s)| o.with(*name, s.to_json(unit)));
        let layers = self
            .layer_table
            .iter()
            .fold(Json::object(), |o, (name, self_ms)| o.with(*name, *self_ms));
        Json::object()
            .with("correct", self.correct())
            .with("attempted", self.ops.attempted)
            .with("failed", self.ops.failed)
            .with("metrics", metrics)
            .with("layer_self_ms", layers)
    }

    fn print(&self) {
        for (name, unit, s) in &self.metrics {
            if s.n > 1 {
                println!(
                    "  {name:<34} {:>14.4} {unit:<6} (q1 {:.4}, q3 {:.4}, n {})",
                    s.value, s.q1, s.q3, s.n
                );
            } else {
                println!("  {name:<34} {:>14.4} {unit}", s.value);
            }
        }
        if !self.layer_table.is_empty() {
            println!("  layer self times, whole traced run:");
            for (name, self_ms) in &self.layer_table {
                println!("    {name:<32} {self_ms:>12.3} ms");
            }
        }
    }
}

/// Runs one workload once. `trace` selects the per-layer run. An untraced
/// run is split over `measure::PARTS` child processes of this executable
/// (see `measure::Part`); `smoke` runs one tiny part in process.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    trace_out: Option<&Path>,
) -> Result<Outcome, String> {
    if !inputs::WORKLOADS.contains(&name) {
        return Err(format!("unknown workload {name:?}; one of {:?}", inputs::WORKLOADS));
    }
    let sizes = if smoke { &inputs::SMOKE } else { &inputs::FULL };
    if !trace {
        let parts = if smoke {
            vec![measure::run_part(name, seed, 0.0, Some(1), sizes)
                .expect("workload name was checked")]
        } else {
            let (seed, seconds) = (seed.to_string(), seconds.to_string());
            (0..measure::PARTS)
                .map(|_| {
                    let args =
                        ["--workload", name, "--seed", &seed, "--seconds", &seconds, "--part"];
                    let line = run_child(&args, "part ")?;
                    measure::Part::from_json(&line).ok_or_else(|| format!("{name}: malformed part"))
                })
                .collect::<Result<Vec<_>, _>>()?
        };
        let (ops, metrics) = measure::combine(&parts);
        return Ok(Outcome { ops, metrics, layer_table: Vec::new() });
    }
    let mut ops = Ops::default();
    let prepared =
        measure::prepare(name, seed, sizes, &mut ops).expect("workload name was checked");
    let rss_after_setup = measure::rss_mb().0;
    let tracer = trace::Tracer::new();
    let min_reps = if smoke { 1 } else { MIN_TRACED_REPS };
    let (metrics, rank_events) =
        layers::per_layer(&prepared, name, seconds, min_reps, rss_after_setup, &mut ops, &tracer);
    if let Some(path) = trace_out {
        let mut events = tracer.chrome_events(0);
        events.extend(rank_events);
        let doc = partir::obs::trace::chrome_trace_doc(events);
        std::fs::write(path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Outcome { ops, metrics, layer_table: layers::layer_table(&tracer) })
}

/// Runs this executable with `args`, waits for it, and returns the JSON
/// after `prefix` on the last stdout line that starts with it.
fn run_child(args: &[&str], prefix: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(prefix))
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| format!("child {args:?} printed no {prefix:?} line"))
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    /// Set by the spine itself on the children of an untraced run.
    part: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--part" => a.part = true,
            "--out" => a.out = Some(value()?.into()),
            "--trace-out" => a.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// Refuses to measure in an environment that would change what is
/// measured: any `PARTIR_*` variable (the library reads them as defaults)
/// or fewer than two cores (the protocol's width).
fn check_environment() -> Result<usize, String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PARTIR_"))
        .collect();
    if !set.is_empty() {
        return Err(format!("unset {} first: every setting is passed explicitly", set.join(", ")));
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < measure::WIDTH {
        return Err(format!("{nproc} core(s) available, the protocol needs {}", measure::WIDTH));
    }
    Ok(nproc)
}

fn benchmark_def() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

fn default_seconds() -> f64 {
    benchmark_def().get("run_seconds").and_then(Json::as_f64).unwrap_or(10.0)
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// One workload, one way, in a child process of this executable, so peak
/// RSS and allocator state start fresh. Returns the child's detail line.
fn run_side(args: &Args, name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let mut argv = vec!["--workload", name, "--seed", &seed, "--seconds", &seconds];
    argv.extend(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        argv.push("--smoke");
    }
    let trace_file = args.trace_out.as_ref().map(|p| with_suffix(p, name));
    if let (true, Some(path)) = (trace, trace_file.as_ref().and_then(|p| p.to_str())) {
        argv.extend(["--trace-out", path]);
    }
    run_child(&argv, "detail ")
}

/// `dir/trace.json` + `stencil-L` -> `dir/trace.stencil-L.json`.
fn with_suffix(path: &Path, name: &str) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("json");
    path.with_file_name(format!("{stem}.{name}.{ext}"))
}

/// A metric of a child's detail line; NaN throughout when it is missing.
fn metric(side: &Json, key: &str) -> Summary {
    let m = side.get("metrics").and_then(|m| m.get(key));
    m.and_then(Summary::from_json).unwrap_or(Summary::single(f64::NAN))
}

/// The gates of the all-workloads command on one workload: what failed.
fn failed_gates(failed_ops: f64, traced: &Json) -> Vec<String> {
    let mut out = Vec::new();
    if failed_ops != 0.0 {
        out.push(format!("{failed_ops} operations failed (a store, a kernel or a count differed)"));
    }
    let delta = metric(traced, "dist.volume_delta_bytes").value;
    if delta != 0.0 {
        out.push(format!("dist.volume_delta_bytes is {delta}, not 0"));
    }
    let overhead = metric(traced, "obs.trace_overhead_pct");
    if overhead.value.is_nan() || overhead.value >= MAX_TRACE_OVERHEAD_PCT {
        out.push(format!(
            "obs.trace_overhead_pct is {:.2} over {} repetitions each way, not below {}",
            overhead.value, overhead.n, MAX_TRACE_OVERHEAD_PCT
        ));
    }
    out
}

/// Every workload, untraced then traced, each in its own child process;
/// prints every metric and applies the gates.
fn run_all(args: &Args, nproc: usize) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or_else(default_seconds);
    let header = Json::object()
        .with("git_sha", git_sha())
        .with("nproc", nproc)
        .with("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .with("seed", seed)
        .with("seconds", seconds)
        .with("smoke", args.smoke)
        .with("width", measure::WIDTH)
        .with("min_reps", measure::MIN_REPS)
        .with("min_traced_reps", MIN_TRACED_REPS)
        .with("parts", measure::PARTS);
    println!("spine {header}");
    let mut ok = true;
    let mut workloads = Json::object();
    for name in inputs::WORKLOADS {
        let untraced = run_side(args, name, seed, seconds, false)?;
        let traced = run_side(args, name, seed, seconds, true)?;
        println!("{name}");
        for (label, side) in [("end to end", &untraced), ("per layer", &traced)] {
            println!("  -- {label}");
            for (metric, v) in side.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                let s = Summary::from_json(v).unwrap_or(Summary::single(f64::NAN));
                println!("  {metric:<34} {:>14.4} {unit:<6} n {}", s.value, s.n);
            }
        }
        let ops = |key: &str| -> f64 {
            [&untraced, &traced].iter().filter_map(|s| s.get(key)?.as_f64()).sum()
        };
        let (attempted, failed) = (ops("attempted"), ops("failed"));
        println!("  {:<34} {attempted:>14} count", "ops_attempted");
        println!("  {:<34} {failed:>14} count", "ops_failed");
        for what in failed_gates(failed, &traced) {
            println!("  GATE FAILED: {what}");
            ok = false;
        }
        if name.ends_with("-L") {
            for (key, rest) in [
                ("plan.coverage", "server hand-off and glue between the layers"),
                ("dist.coverage", "dist.driver_ms: spawn, shard and gather"),
            ] {
                let c = metric(&traced, key).value;
                if c < 0.95 {
                    println!("  note: {key} {c:.3} < 0.95; unattributed: {rest}");
                }
            }
        }
        workloads = workloads.with(
            name,
            Json::object()
                .with("attempted", attempted)
                .with("failed", failed)
                .with("end_to_end", untraced.get("metrics").cloned().unwrap_or(Json::Null))
                .with("per_layer", traced.get("metrics").cloned().unwrap_or(Json::Null))
                .with("layer_self_ms", traced.get("layer_self_ms").cloned().unwrap_or(Json::Null)),
        );
    }
    if let Some(path) = &args.out {
        let doc = Json::object()
            .with("schema", "spine-v1")
            .with("header", header)
            .with("workloads", workloads);
        std::fs::write(path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [a, b] = &argv[1..] else {
            return Err("usage: spine compare A.json B.json".into());
        };
        return compare::run(Path::new(a), Path::new(b), &benchmark_def());
    }
    let args = parse_args(&argv)?;
    let nproc = check_environment()?;
    let Some(name) = &args.workload else {
        return run_all(&args, nproc);
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or_else(default_seconds);
    if args.part {
        let sizes = if args.smoke { &inputs::SMOKE } else { &inputs::FULL };
        let part = measure::run_part(name, seed, seconds, None, sizes)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        println!("part {}", part.to_json());
        return Ok(true);
    }
    let outcome =
        run_workload(name, seed, seconds, args.trace, args.smoke, args.trace_out.as_deref())?;
    println!("{name} seed {seed} trace {}", u8::from(args.trace));
    outcome.print();
    println!("detail {}", outcome.detail());
    println!("{}", outcome.result_line());
    // The result line reports failed operations; the exit code stays 0 so
    // the driver reads it.
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("spine: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names(def: &Json, key: &str) -> BTreeSet<String> {
        def.get(key)
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
            .collect()
    }

    /// Tiny sizes, one repetition, in process: every workload named in
    /// `BENCHMARK.json` runs both ways, is correct, and emits exactly the
    /// metrics the file names.
    #[test]
    fn smoke_emits_exactly_what_benchmark_json_names() {
        let def = benchmark_def();
        let workloads = names(&def, "workloads");
        assert_eq!(workloads, inputs::WORKLOADS.iter().map(|s| s.to_string()).collect());
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let wanted = names(&def, key);
            for n in wanted.iter().chain(&workloads) {
                assert!(
                    n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{n:?} has a character outside letters, digits, _ . -"
                );
            }
            for w in &workloads {
                let out = run_workload(w, 5, 0.0, trace, true, None).unwrap();
                assert!(out.correct(), "{w} trace {trace}: {:?}", out.ops);
                assert!(out.ops.attempted > 0);
                let emitted: BTreeSet<String> =
                    out.metrics.iter().map(|m| m.0.to_string()).collect();
                assert_eq!(emitted, wanted, "{w}: {key} metrics differ from BENCHMARK.json");
                for (name, unit, s) in &out.metrics {
                    assert!(s.value.is_finite(), "{w}: {name} is {}", s.value);
                    let def_unit = def.get(key).and_then(Json::as_array).and_then(|ms| {
                        ms.iter()
                            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
                            .get("unit")?
                            .as_str()
                    });
                    assert_eq!(def_unit, Some(*unit), "{w}: unit of {name}");
                }
                if trace {
                    let get = |k: &str| out.metrics.iter().find(|m| m.0 == k).unwrap().2.value;
                    assert_eq!(get("dist.volume_delta_bytes"), 0.0, "{w}");
                    assert_eq!(get("cache.hit_rate"), 1.0, "{w}");
                    assert!(get("loc.core") > 1000.0, "{w}: sources not found");
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve-mix --seed 9 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve-mix"), Some(9), Some(2.5), true)
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seconds -1")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
        assert!(run_workload("no-such-workload", 1, 0.0, false, true, None).is_err());
    }

    #[test]
    fn gates_of_the_all_workloads_command() {
        let traced = |delta: f64, overhead: Summary| {
            let metrics = Json::object()
                .with("dist.volume_delta_bytes", Summary::single(delta).to_json("bytes"))
                .with("obs.trace_overhead_pct", overhead.to_json("%"));
            Json::object().with("metrics", metrics)
        };
        let quiet = Summary::single(1.0);
        assert!(failed_gates(0.0, &traced(0.0, quiet)).is_empty());
        assert_eq!(failed_gates(2.0, &traced(0.0, quiet)).len(), 1);
        assert_eq!(failed_gates(0.0, &traced(8.0, quiet)).len(), 1);
        // The limit itself fails.
        assert_eq!(failed_gates(0.0, &traced(0.0, Summary::single(5.0))).len(), 1);
        assert!(failed_gates(0.0, &traced(0.0, Summary::single(4.9))).is_empty());
        // A missing metric fails its gate.
        assert_eq!(failed_gates(0.0, &Json::object()).len(), 2);
    }

    /// The driver builds the spine from the manifest beside this file,
    /// tier-1 builds and tests it as a bin of `partir-bench`. Both must
    /// produce the same code: same release profile, same locked versions.
    #[test]
    fn standalone_manifest_builds_what_the_workspace_builds() {
        fn table<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
            toml.lines()
                .skip_while(|l| l.trim() != header)
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        fn quoted<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            line.strip_prefix(key)?.strip_prefix(" = \"")?.strip_suffix('"')
        }
        fn locked(lock: &str) -> BTreeSet<(&str, &str)> {
            let mut name = None;
            let mut out = BTreeSet::new();
            for line in lock.lines() {
                if let Some(n) = quoted(line, "name") {
                    name = Some(n);
                } else if let (Some(n), Some(v)) = (name, quoted(line, "version")) {
                    out.insert((n, v));
                    name = None;
                }
            }
            out
        }
        let profile = table(include_str!("Cargo.toml"), "[profile.release]");
        assert!(!profile.is_empty());
        assert_eq!(profile, table(include_str!("../../../../../Cargo.toml"), "[profile.release]"));
        let workspace = locked(include_str!("../../../../../Cargo.lock"));
        let own = locked(include_str!("Cargo.lock"));
        assert!(own.len() > 5 && own.contains(&("partir", "0.1.0")));
        for package in own.iter().filter(|p| p.0 != "spine") {
            assert!(workspace.contains(package), "{package:?} is not what the workspace locks");
        }
    }

    #[test]
    fn trace_files_are_named_per_workload() {
        assert_eq!(
            with_suffix(Path::new("out/t.json"), "serve-mix"),
            Path::new("out/t.serve-mix.json")
        );
    }
}
