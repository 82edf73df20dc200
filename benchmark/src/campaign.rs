//! `campaign` — Table 4's DoE simulation stage: plan the CCD jobs and run
//! them through `napel_core::campaign`, where trace generation, PISA
//! profiling, trace encoding and simulation do all their work.
//!
//! The untraced pass calls the campaign engine's public entry point. The
//! traced pass replays the same jobs through each layer's public
//! functions one at a time — generate into the profiler and the encoder,
//! finish both, simulate from the decoded trace, assemble the label —
//! with a span around every call, and must produce the same rows.

use std::collections::HashMap;
use std::time::Instant;

use napel_core::campaign::{plan_jobs, run_supervised, Serial, SimJob};
use napel_core::collect::{arch_neighborhood, CollectionPlan};
use napel_core::fault::{CampaignOptions, FaultPolicy};
use napel_core::features::LabeledRun;
use napel_ir::{DecodeIter, EncodedTrace, EncodedTraceSink, Inst, ThreadedTraceSink};
use napel_pisa::{ApplicationProfile, ProfileObserver};
use napel_workloads::{Scale, Workload};
use nmc_sim::{NmcSystem, SimEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{metric, Metric};
use crate::stats::median;
use crate::tracer::{self, span, Ledger};
use crate::{fnv, repeat_for, Size, DENSE};

/// Instructions buffered between timed hand-offs to a layer: large enough
/// that two clock reads per chunk cost nothing measurable, small enough
/// to stay in cache.
const CHUNK: usize = 8192;

/// Jobs whose labels are re-derived on the reference engine every run.
const CHECKED_JOBS: usize = 4;

/// The job batch of one campaign pass.
pub struct Campaign {
    /// Jobs in run order; `jobs[i].index == i`.
    jobs: Vec<SimJob>,
    /// Run position → position in plan order (for the label digest).
    plan_pos: Vec<usize>,
    /// Run position → distinct `(workload, point)` id.
    point_of: Vec<usize>,
    points: usize,
    /// Run positions checked against the reference engine.
    checked: Vec<usize>,
}

impl Campaign {
    /// Plans the batch and shuffles its run order with `seed`, then warms
    /// the thread's simulation engine and the PISA feature tables on the
    /// dense-kernel jobs so the first timed pass pays no lazy set-up.
    pub fn setup(size: Size, seed: u64) -> Result<Campaign, String> {
        let (archs, bfs_every, dense): (usize, usize, &[Workload]) = match size {
            // bfs keeps every fourth of its 25 CCD points: one irregular
            // kernel whose generation and simulation each take about half
            // of a pass, at a pass length that fits several in a run.
            Size::Full => (3, 4, &DENSE),
            Size::Smoke => (2, 0, &[Workload::Atax, Workload::Syrk]),
        };
        let arch_configs: Vec<_> = arch_neighborhood().into_iter().take(archs).collect();
        let mut planned = Vec::new();
        if bfs_every > 0 {
            let bfs = plan_jobs(&CollectionPlan {
                workloads: vec![Workload::Bfs],
                arch_configs: arch_configs.clone(),
                scale: Scale::tiny(),
                dedup: true,
            });
            planned.extend(
                bfs.into_iter()
                    .filter(|j| (j.index / archs) % bfs_every == 0),
            );
        }
        let dense_plan = CollectionPlan {
            workloads: dense.to_vec(),
            arch_configs,
            scale: Scale::tiny(),
            dedup: true,
        };
        planned.extend(plan_jobs(&dense_plan));

        let mut point_ids: HashMap<(Workload, Vec<u64>), usize> = HashMap::new();
        let plan_point: Vec<usize> = planned
            .iter()
            .map(|j| {
                let key = (j.workload, j.coords.iter().map(|c| c.to_bits()).collect());
                let next = point_ids.len();
                *point_ids.entry(key).or_insert(next)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..planned.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let jobs: Vec<SimJob> = order
            .iter()
            .enumerate()
            .map(|(i, &p)| SimJob {
                index: i,
                ..planned[p].clone()
            })
            .collect();
        let point_of = order.iter().map(|&p| plan_point[p]).collect();
        let checked = (0..CHECKED_JOBS.min(jobs.len()))
            .map(|_| rng.gen_range(0..jobs.len()))
            .collect();

        // Warm-up, outside every timed region.
        let warm: Vec<SimJob> = jobs
            .iter()
            .filter(|j| j.workload != Workload::Bfs)
            .cloned()
            .enumerate()
            .map(|(i, j)| SimJob { index: i, ..j })
            .collect();
        run_supervised(&Serial, &warm, &CampaignOptions::default())
            .map_err(|e| format!("campaign warm-up failed: {e}"))?;

        Ok(Campaign {
            jobs,
            plan_pos: order,
            point_of,
            points: point_ids.len(),
            checked,
        })
    }

    /// Jobs per pass.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// One untraced pass through the campaign engine: `(seconds, rows in
    /// run order, failed jobs)`. Quarantine keeps a failing job from
    /// hiding the others, so the pass reports how many succeeded.
    pub fn pass(&self) -> Result<(f64, Vec<LabeledRun>, u64), String> {
        let opts = CampaignOptions {
            policy: FaultPolicy::Quarantine,
            ..CampaignOptions::default()
        };
        let t = Instant::now();
        let (rows, report) =
            run_supervised(&Serial, &self.jobs, &opts).map_err(|e| format!("campaign: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        for q in &report.quarantined {
            eprintln!("campaign: job failed: {q:?}");
        }
        Ok((secs, rows, report.quarantined.len() as u64))
    }

    /// FNV-1a digest of every label, in plan order (independent of the
    /// seed's run order).
    pub fn digest(&self, rows: &[LabeledRun]) -> Result<u64, String> {
        if rows.len() != self.jobs.len() {
            return Err(format!(
                "campaign returned {} rows for {} jobs",
                rows.len(),
                self.jobs.len()
            ));
        }
        let mut by_plan: Vec<&LabeledRun> = vec![&rows[0]; rows.len()];
        for (i, row) in rows.iter().enumerate() {
            by_plan[self.plan_pos[i]] = row;
        }
        let mut bytes = Vec::new();
        for r in by_plan {
            bytes.extend_from_slice(r.workload.name().as_bytes());
            for v in r.params.iter().chain(&r.features) {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            bytes.extend_from_slice(&r.instructions.to_le_bytes());
            bytes.extend_from_slice(&r.ipc.to_bits().to_le_bytes());
            bytes.extend_from_slice(&r.energy_per_inst_pj.to_bits().to_le_bytes());
        }
        Ok(fnv(&bytes))
    }

    /// Re-derives the seeded sample of jobs on an independent path — the
    /// materialized trace, `ApplicationProfile::of`, and the retained
    /// reference engine — and compares labels with the pass's rows.
    pub fn check_against_reference(&self, rows: &[LabeledRun]) -> Result<(), String> {
        for &i in &self.checked {
            let job = &self.jobs[i];
            let trace = job.workload.generate(&job.coords, job.scale);
            let profile = ApplicationProfile::of(&trace);
            let report = NmcSystem::new(job.arch.clone()).run_reference(&trace);
            let expect = LabeledRun::from_report_checked(
                job.workload,
                job.coords.clone(),
                &profile,
                &job.arch,
                &report,
            )
            .map_err(|e| format!("reference label: {e}"))?;
            if rows[i] != expect {
                return Err(format!(
                    "campaign label differs from the reference engine for {}",
                    job.describe()
                ));
            }
        }
        Ok(())
    }

    /// The traced replay of one pass. Returns the rows in run order and
    /// the per-point analyses (kept for the reference probe).
    fn traced_pass(&self) -> Result<TracedPass, String> {
        let _root = span("core.campaign");
        let mut analyses: Vec<Option<(ApplicationProfile, EncodedTrace)>> =
            (0..self.points).map(|_| None).collect();
        let mut engine = SimEngine::new();
        let mut rows = Vec::with_capacity(self.jobs.len());
        let (mut insts, mut bytes, mut cycles) = (0u64, 0u64, 0u64);
        for (i, job) in self.jobs.iter().enumerate() {
            let slot = &mut analyses[self.point_of[i]];
            if slot.is_none() {
                let mut observer = ProfileObserver::new();
                let mut encoder = EncodedTraceSink::new();
                {
                    let _g = span("workloads.generate");
                    let mut sink = Chunked {
                        observer: &mut observer,
                        encoder: &mut encoder,
                        buf: Vec::with_capacity(CHUNK),
                    };
                    job.workload
                        .generate_into(&job.coords, job.scale, &mut sink);
                    sink.flush();
                }
                let profile = {
                    let _g = span("pisa.observe");
                    observer.finish()
                };
                let encoded = {
                    let _g = span("ir.encode");
                    encoder.finish()
                };
                insts += encoded.total_insts() as u64;
                bytes += encoded.encoded_bytes() as u64;
                *slot = Some((profile, encoded));
            }
            let (profile, encoded) = slot.as_ref().expect("analysed above");
            let report = {
                let _g = span("nmc_sim.simulate");
                let system = NmcSystem::new(job.arch.clone());
                engine.run_streams(&system, chunked_streams(encoded))
            };
            cycles += report.cycles;
            let _g = span("core.label");
            let row = LabeledRun::from_report_checked(
                job.workload,
                job.coords.clone(),
                profile,
                &job.arch,
                &report,
            )
            .map_err(|e| format!("traced label: {e}"))?;
            row.validate(&job.arch)
                .map_err(|e| format!("traced label of {}: {e}", job.describe()))?;
            rows.push(row);
        }
        Ok(TracedPass {
            rows,
            analyses: analyses
                .into_iter()
                .map(|a| a.expect("every point has a job"))
                .collect(),
            insts,
            bytes,
            cycles,
        })
    }

    /// Simulates every job of the pass again on the retained reference
    /// engine (same decoded streams), each call in an
    /// `nmc_sim.reference` span, and checks its labels match.
    fn reference_probe(&self, traced: &TracedPass) -> Result<(), String> {
        for (i, job) in self.jobs.iter().enumerate() {
            let (profile, encoded) = &traced.analyses[self.point_of[i]];
            let report = {
                let _g = span("nmc_sim.reference");
                NmcSystem::new(job.arch.clone()).run_streams_reference(chunked_streams(encoded))
            };
            let row = LabeledRun::from_report_checked(
                job.workload,
                job.coords.clone(),
                profile,
                &job.arch,
                &report,
            )
            .map_err(|e| format!("reference label: {e}"))?;
            if row != traced.rows[i] {
                return Err(format!(
                    "phase-split and reference engines disagree on {}",
                    job.describe()
                ));
            }
        }
        Ok(())
    }
}

struct TracedPass {
    rows: Vec<LabeledRun>,
    /// Per-point analyses, indexed by point id.
    analyses: Vec<(ApplicationProfile, EncodedTrace)>,
    insts: u64,
    bytes: u64,
    cycles: u64,
}

/// Buffers the kernel's instruction stream and hands it on a chunk at a
/// time to the profiler (`pisa.observe` span) and the encoder
/// (`ir.encode` span), so the generating kernel's own time is what is
/// left in the enclosing `workloads.generate` span.
struct Chunked<'a> {
    observer: &'a mut ProfileObserver,
    encoder: &'a mut EncodedTraceSink,
    buf: Vec<(usize, Inst)>,
}

impl Chunked<'_> {
    fn flush(&mut self) {
        {
            let _g = span("pisa.observe");
            for &(t, inst) in &self.buf {
                self.observer.record(t, inst);
            }
        }
        {
            let _g = span("ir.encode");
            for &(t, inst) in &self.buf {
                self.encoder.record(t, inst);
            }
        }
        self.buf.clear();
    }
}

impl ThreadedTraceSink for Chunked<'_> {
    fn begin(&mut self, num_threads: usize) {
        self.flush();
        self.observer.begin(num_threads);
        self.encoder.begin(num_threads);
    }

    fn record(&mut self, thread: usize, inst: Inst) {
        self.buf.push((thread, inst));
        if self.buf.len() == CHUNK {
            self.flush();
        }
    }
}

/// Decodes one thread's stream a chunk at a time inside an `ir.decode`
/// span, so decoding is split out of the simulator's time.
struct ChunkedDecode<'a> {
    inner: DecodeIter<'a>,
    buf: Vec<Inst>,
    pos: usize,
}

fn chunked_streams(encoded: &EncodedTrace) -> Vec<ChunkedDecode<'_>> {
    encoded
        .thread_iters()
        .into_iter()
        .map(|inner| ChunkedDecode {
            inner,
            buf: Vec::new(),
            pos: 0,
        })
        .collect()
}

impl Iterator for ChunkedDecode<'_> {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        if self.pos == self.buf.len() {
            let _g = span("ir.decode");
            self.buf.clear();
            self.buf.extend(self.inner.by_ref().take(CHUNK));
            self.pos = 0;
        }
        let inst = self.buf.get(self.pos).copied()?;
        self.pos += 1;
        Some(inst)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.buf.len() - self.pos + self.inner.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for ChunkedDecode<'_> {}

/// What an untraced campaign run measured.
pub struct Measured {
    pub rows_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
}

/// Untraced passes for `seconds`, every pass's labels digested and
/// compared, then the reference-engine sample check.
pub fn measure(c: &Campaign, seconds: f64) -> Result<Measured, String> {
    let mut digest = None;
    let mut last_rows = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let rates = repeat_for(seconds, 3, || {
        let (secs, rows, bad) = c.pass()?;
        attempted += c.len() as u64;
        failed += bad;
        let d = c.digest(&rows)?;
        if *digest.get_or_insert(d) != d {
            return Err("campaign labels differ between passes".to_string());
        }
        let rate = rows.len() as f64 / secs;
        last_rows = rows;
        Ok(rate)
    })?;
    c.check_against_reference(&last_rows)?;
    crate::log_passes("campaign rows/s", &rates);
    Ok(Measured {
        rows_per_s: median(&rates),
        attempted,
        failed,
        digest: digest.expect("at least one pass"),
    })
}

/// The traced part of a run: pairs of one untraced and one traced pass
/// for `seconds` (at least one pair), the reference probe, and the
/// per-layer metrics. Pairing puts both halves of each overhead ratio in
/// the same stretch of host time. Checks that the traced replay's labels
/// equal the campaign engine's and that every pass agrees.
pub fn ledger(c: &Campaign, seconds: f64) -> Result<(Vec<Metric>, u64), String> {
    let mut digest = None;
    let mut attempted = 0;
    let mut check = |rows: &[LabeledRun]| -> Result<(), String> {
        let d = c.digest(rows)?;
        if *digest.get_or_insert(d) != d {
            return Err("campaign labels differ between passes".to_string());
        }
        Ok(())
    };
    let base = tracer::count();
    let mut ratios = Vec::new();
    let mut last = None;
    repeat_for(seconds, 1, || {
        let (untraced, rows, bad) = c.pass()?;
        if bad > 0 {
            return Err(format!("{bad} campaign jobs failed"));
        }
        check(&rows)?;
        tracer::set_enabled(true);
        let t = Instant::now();
        let pass = c.traced_pass();
        let traced = t.elapsed().as_secs_f64();
        tracer::set_enabled(false);
        let pass = pass?;
        check(&pass.rows)?;
        attempted += 2 * c.len() as u64;
        ratios.push(traced / untraced);
        last = Some(pass);
        Ok(traced)
    })?;
    let passes = ratios.len() as f64;
    let last = last.expect("at least one traced pass");
    let l = Ledger::of(&tracer::since(base), base);
    let probe_base = tracer::count();
    tracer::set_enabled(true);
    let probed = c.reference_probe(&last);
    tracer::set_enabled(false);
    probed?;
    let probe = Ledger::of(&tracer::since(probe_base), probe_base);
    eprintln!(
        "campaign ledger ({passes} traced passes):\n{}reference probe:\n{}",
        l.table(),
        probe.table()
    );

    let per = |name: &str| l.self_of(name) / passes;
    let generate = per("workloads.generate");
    let simulate = per("nmc_sim.simulate");
    let wall = l.wall_of("core.campaign") / passes;
    let reference = probe.self_of("nmc_sim.reference");
    Ok((
        vec![
            metric("workloads.generate_s", "s", generate),
            metric(
                "workloads.minst_per_s",
                "1/s",
                last.insts as f64 / generate / 1e6,
            ),
            metric("pisa.observe_s", "s", per("pisa.observe")),
            metric("ir.encode_s", "s", per("ir.encode")),
            metric("ir.decode_s", "s", per("ir.decode")),
            metric(
                "ir.bytes_per_inst",
                "B",
                last.bytes as f64 / last.insts as f64,
            ),
            metric("nmc_sim.simulate_s", "s", simulate),
            metric(
                "nmc_sim.mcycles_per_s",
                "1/s",
                last.cycles as f64 / simulate / 1e6,
            ),
            metric("nmc_sim.cycles", "count", last.cycles as f64),
            metric("nmc_sim.reference_s", "s", reference),
            metric("nmc_sim.phase_speedup", "ratio", reference / simulate),
            metric("core.label_s", "s", per("core.label")),
            metric("core.campaign_s", "s", wall),
            metric(
                "campaign.unaccounted_frac",
                "ratio",
                per("core.campaign") / wall,
            ),
            metric(
                "campaign.trace_overhead_frac",
                "ratio",
                median(&ratios) - 1.0,
            ),
        ],
        attempted,
    ))
}
