//! The NAPEL pipeline's benchmark, built around the three stages of the
//! paper's Table 4: the DoE simulation campaign, Train + Tune, and
//! prediction (served). The campaign and serve stages are workloads;
//! every traced run measures all three stages. See `README.md` beside
//! this crate for why, and for how to read the traced output.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload campaign|serve --seed N --seconds N --trace 0|1 [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — every end-to-end metric of
//! `BENCHMARK.json` with `--trace 0`, every per-layer metric with
//! `--trace 1`. A failed correctness check prints `"correct": false` and
//! exits with status 1.

mod campaign;
mod host;
mod serve;
mod spec;
mod stats;
mod tracer;
mod train;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use napel_workloads::Workload;

use crate::spec::{metric, Metric, Spec};
use crate::stats::median;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["campaign", "serve"];

/// The pipeline stages every traced run measures.
const STAGES: [&str; 3] = ["campaign", "train", "serve"];

/// Every end-to-end metric, as each workload reports it.
pub const END_TO_END: [(&str, &str); 4] = [
    ("rows_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// Every per-layer metric; each traced run reports all of them.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("workloads.generate_s", "s"),
    ("workloads.minst_per_s", "1/s"),
    ("pisa.observe_s", "s"),
    ("ir.encode_s", "s"),
    ("ir.decode_s", "s"),
    ("ir.bytes_per_inst", "B"),
    ("nmc_sim.simulate_s", "s"),
    ("nmc_sim.mcycles_per_s", "1/s"),
    ("nmc_sim.cycles", "count"),
    ("nmc_sim.reference_s", "s"),
    ("nmc_sim.phase_speedup", "ratio"),
    ("core.label_s", "s"),
    ("core.campaign_s", "s"),
    ("campaign.unaccounted_frac", "ratio"),
    ("campaign.trace_overhead_frac", "ratio"),
    ("core.dataset_s", "s"),
    ("ml.subset_s", "s"),
    ("ml.fit_s", "s"),
    ("ml.forest_fits", "count"),
    ("ml.trees_per_s", "1/s"),
    ("ml.cv_predict_s", "s"),
    ("core.save_s", "s"),
    ("core.bundle_bytes", "B"),
    ("core.train_s", "s"),
    ("train.mre_ipc_pct", "%"),
    ("train.mre_energy_pct", "%"),
    ("train.unaccounted_frac", "ratio"),
    ("train.trace_overhead_frac", "ratio"),
    ("serve.read_parse_mean_us", "us"),
    ("serve.queue_wait_mean_us", "us"),
    ("serve.batch_assembly_mean_us", "us"),
    ("serve.predict_mean_us", "us"),
    ("serve.respond_flush_mean_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.answer_p50_ms", "ms"),
    ("serve.answer_p99_ms", "ms"),
    ("serve.answer_samples", "count"),
    ("serve.parse_us", "us"),
    ("core.predict_batch_us_per_row", "us"),
    ("serve.render_us", "us"),
    ("core.predict_row_us", "us"),
    ("core.predict_batch64_us_per_row", "us"),
    ("ml.forest_walk_us_per_row", "us"),
    ("ml.spread_us_per_row", "us"),
    ("core.bundle_load_ms", "ms"),
    ("serve.unaccounted_frac", "ratio"),
    ("serve.trace_overhead_frac", "ratio"),
    ("host.calib_s", "s"),
    ("host.nproc", "count"),
    ("host.peak_rss_mib", "MiB"),
];

/// The nine dense PolyBench kernels (every workload but bfs, kme and bp).
pub const DENSE: [Workload; 9] = [
    Workload::Atax,
    Workload::Chol,
    Workload::Gemv,
    Workload::Gesu,
    Workload::Gram,
    Workload::Lu,
    Workload::Mvt,
    Workload::Syrk,
    Workload::Trmm,
];

/// Input sizes: the measured size, or a quick one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Largest share of a traced pass that layer spans may leave uncovered.
const MAX_UNACCOUNTED: f64 = 0.10;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

const USAGE: &str = "usage: stagebench --workload campaign|serve --seed N \
                     --seconds N --trace 0|1 [--smoke]";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut size = Size::Full;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not a number")?),
                "--seconds" => {
                    seconds = Some(
                        value()?
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s >= 0.0)
                            .ok_or("--seconds: not a non-negative number")?,
                    );
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    });
                }
                "--smoke" => size = Size::Smoke,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}`"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size,
        })
    }
}

/// FNV-1a over `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Calls `pass` until at least `min` passes have run and `seconds` have
/// elapsed, returning every pass's value.
pub fn repeat_for(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut values = Vec::new();
    while values.len() < min || start.elapsed().as_secs_f64() < seconds {
        values.push(pass()?);
    }
    Ok(values)
}

/// Logs a run's per-pass values to standard error.
pub fn log_passes(what: &str, values: &[f64]) {
    let list: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    eprintln!(
        "{what}: {} passes, median {:.4}: [{}]",
        values.len(),
        median(values),
        list.join(", ")
    );
}

/// Runs `setup` [`SETUPS`] times (once in smoke mode), keeping the last
/// result and the median set-up time. `drop_old` disposes of the rest.
fn timed_setup<T>(
    size: Size,
    mut setup: impl FnMut() -> Result<T, String>,
    mut drop_old: impl FnMut(T),
) -> Result<(T, f64), String> {
    let n = if size == Size::Smoke { 1 } else { SETUPS };
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..n {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(value) {
            drop_old(old);
        }
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// What one run produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Digest of outputs that must repeat exactly across runs.
    digest: Option<u64>,
}

/// `--trace 0`: the workload's end-to-end metrics.
fn untraced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let (rows_per_s, setup_s, attempted, failed, digest) = match args.workload.as_str() {
        "campaign" => {
            let (c, setup_s) = timed_setup(
                args.size,
                || campaign::Campaign::setup(args.size, args.seed),
                drop,
            )?;
            let m = campaign::measure(&c, args.seconds)?;
            (m.rows_per_s, setup_s, m.attempted, m.failed, Some(m.digest))
        }
        _ => {
            let (mut s, setup_s) = timed_setup(
                args.size,
                || serve::Serve::setup(args.size, args.seed, dir),
                serve::Serve::close,
            )?;
            let m = serve::measure(&mut s, args.seconds);
            s.close();
            let m = m?;
            (m.rows_per_s, setup_s, m.attempted, m.failed, None)
        }
    };
    Ok(Outcome {
        metrics: vec![
            metric("rows_per_s", "1/s", rows_per_s),
            metric("setup_s", "s", setup_s),
            metric("peak_rss_mib", "MiB", host::peak_rss_mib()),
            metric(
                "ok_frac",
                "ratio",
                (attempted - failed) as f64 / attempted as f64,
            ),
        ],
        attempted,
        failed,
        digest,
    })
}

/// `--trace 1`: every stage's traced ledger. The workload's own stage
/// gets `--seconds` of passes; the other stages run one pass of each
/// kind, so every per-layer metric is measured on every workload.
fn traced(args: &Args, dir: &Path, calib_s: f64, nproc: usize) -> Result<Outcome, String> {
    let budget = |stage: &str| {
        if args.workload == stage {
            args.seconds
        } else {
            0.0
        }
    };
    let mut metrics = Vec::new();
    let mut attempted = 0;
    let c = campaign::Campaign::setup(args.size, args.seed)?;
    let (m, n) = campaign::ledger(&c, budget("campaign"))?;
    drop(c);
    metrics.extend(m);
    attempted += n;
    let t = train::Train::setup(args.size, dir);
    let (m, n) = train::ledger(&t)?;
    metrics.extend(m);
    attempted += n;
    let mut s = serve::Serve::setup(args.size, args.seed, dir)?;
    let result = serve::ledger(&mut s, budget("serve"));
    s.close();
    let (m, n) = result?;
    metrics.extend(m);
    attempted += n;
    for stage in STAGES {
        let name = format!("{stage}.unaccounted_frac");
        let frac = metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value);
        if frac.is_nan() || frac > MAX_UNACCOUNTED {
            return Err(format!(
                "{stage}: layer spans account for only {:.1}% of the traced pass",
                100.0 * (1.0 - frac)
            ));
        }
    }
    metrics.extend([
        metric("host.calib_s", "s", calib_s),
        metric("host.nproc", "count", nproc as f64),
        metric("host.peak_rss_mib", "MiB", host::peak_rss_mib()),
    ]);
    Ok(Outcome {
        metrics,
        attempted,
        failed: 0,
        digest: None,
    })
}

/// Appends this run to the history file and checks that every earlier
/// run of the same workload and size produced the same digest.
fn record(
    history: &Path,
    args: &Args,
    fp: &host::Fingerprint,
    calib_s: f64,
    out: &Outcome,
) -> Result<(), String> {
    let size = format!("{:?}", args.size);
    if let (Some(digest), Ok(text)) = (out.digest, std::fs::read_to_string(history)) {
        let hex = format!("{digest:016x}");
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Ok(old) = spec::parse(line) else { continue };
            let field = |k: &str| match old.get(k) {
                Some(spec::Json::Str(s)) => Some(s.clone()),
                _ => None,
            };
            if field("workload").as_deref() == Some(args.workload.as_str())
                && field("size").as_deref() == Some(size.as_str())
            {
                if let Some(prev) = field("digest") {
                    if prev != hex {
                        return Err(format!(
                            "{} outputs digest to {hex}, an earlier run's to {prev}",
                            args.workload
                        ));
                    }
                }
            }
        }
    }
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut line = format!(
        "{{\"workload\": \"{}\", \"size\": \"{size}\", \"seed\": {}, \"trace\": {}, \
         \"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"calib_s\": {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        fp.nproc,
        esc(&fp.cpu_model),
        esc(&fp.rustc),
        spec::json_number(calib_s),
    );
    if let Some(d) = out.digest {
        let _ = write!(line, ", \"digest\": \"{d:016x}\"");
    }
    let body = spec::result_line(true, out.attempted, out.failed, &out.metrics);
    let _ = writeln!(line, ", \"result\": {body}}}");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("appending to {}: {e}", history.display()))
}

fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let spec = Spec::load(&root.join("BENCHMARK.json"))?;
    if !spec.workloads.contains(&args.workload) {
        return Err(format!(
            "BENCHMARK.json has no workload `{}`",
            args.workload
        ));
    }
    let fp = host::Fingerprint::read();
    let calib_s = host::calibrate();
    eprintln!(
        "stagebench: {} seed {} trace {} — {} cores, {}, {}, calibration {calib_s:.6} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        fp.nproc,
        fp.cpu_model,
        fp.rustc
    );
    let out_dir = root.join(".bench_out");
    let dir: PathBuf = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let result = if args.trace {
        traced(args, &dir, calib_s, fp.nproc)
    } else {
        untraced(args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let out = result?;
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    spec::validate(declared, &out.metrics)?;
    if args.trace {
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, tracer::chrome_json(&tracer::snapshot()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("stagebench: spans written to {}", path.display());
    }
    record(&out_dir.join("history.jsonl"), args, &fp, calib_s, &out)?;
    Ok(out)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stagebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits inside the repository");
    match run(&args, root) {
        Ok(out) => {
            for m in &out.metrics {
                eprintln!(
                    "  {:<34} {:>16} {}",
                    m.name,
                    format!("{:.6}", m.value),
                    m.unit
                );
            }
            println!(
                "{}",
                spec::result_line(true, out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stagebench: FAILED: {e}");
            println!("{}", spec::result_line(false, 1, 1, &[]));
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            trace,
            size: Size::Smoke,
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload serve --seed 3 --seconds 10 --trace 1 --smoke").unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.size),
            (3, 10.0, true, Size::Smoke)
        );
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload serve --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload serve --seconds 10 --trace 0").is_err());
        assert!(parse("--workload serve --seed x --seconds 10 --trace 0").is_err());
    }

    /// The smoke-size mode runs every workload, untraced and traced, and
    /// emits exactly the declared metrics.
    #[test]
    fn smoke_runs_every_workload() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let spec = Spec::load(&root.join("BENCHMARK.json")).unwrap();
        let dir = root
            .join(".bench_out")
            .join(format!("smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for w in WORKLOADS {
            let out = untraced(&args(w, false), &dir).unwrap_or_else(|e| panic!("{w}: {e}"));
            spec::validate(&spec.end_to_end, &out.metrics).unwrap();
            assert_eq!(out.failed, 0, "{w}");
        }
        let out = traced(&args("serve", true), &dir, 0.1, 1).unwrap();
        spec::validate(&spec.per_layer, &out.metrics).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
