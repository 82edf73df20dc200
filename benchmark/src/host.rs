//! The machine a run measured on: fingerprint, peak memory, and a drift
//! probe that times a fixed piece of work, so a slow set of runs can be
//! told apart from a slow program.

use std::time::Instant;

use napel_workloads::{Scale, Workload};
use nmc_sim::{ArchConfig, NmcSystem};

use crate::stats::median;

/// Core count, CPU model and compiler.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host.
    pub fn read() -> Fingerprint {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
        let rustc = std::process::Command::new(rustc)
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc,
            cpu_model,
            rustc,
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median seconds of a fixed simulation on the retained reference engine
/// (the `gemv` test input at tiny scale on the Table 3 system), over five
/// repeats. The reference engine is kept as the simulator's oracle and
/// never optimized, so this time moves with the host, not the program.
pub fn calibrate() -> f64 {
    let spec = Workload::Gemv.spec();
    let params: Vec<f64> = spec.params.iter().map(|p| p.test).collect();
    let trace = Workload::Gemv.generate(&params, Scale::tiny());
    let system = NmcSystem::new(ArchConfig::paper_default());
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(system.run_reference(std::hint::black_box(&trace)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}
