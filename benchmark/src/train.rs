//! The Train + Tune stage of Table 4: a tuned `Napel::train` (the default
//! 12-candidate grid, 4-fold CV, both targets) to a saved bundle, scored
//! on one held-out application.
//!
//! The stage has no workload of its own: its pass time swings by about
//! 20% from run to run on a shared host, more than any bound could
//! absorb. Every traced run still measures it, one untraced and one
//! traced pass, so its per-layer metrics exist on every workload.
//!
//! The untraced pass calls `Napel::train` and `TrainedNapel::save`. The
//! traced pass replays the same tuning through napel-ml's public API —
//! the same RNG stream, folds, candidates and scoring — with a span
//! around every dataset build, forest fit, CV prediction and the save,
//! and must pick the same winners and write the same bundle bytes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use napel_core::artifact::{write_artifacts, ModelArtifact, Provenance, TargetKind};
use napel_core::campaign::{plan_jobs, run_jobs, Serial};
use napel_core::collect::CollectionPlan;
use napel_core::features::{combined_feature_names, LabeledRun, TrainingSet};
use napel_core::model::{Napel, NapelConfig, TrainedNapel};
use napel_ml::cv::k_fold;
use napel_ml::dataset::Dataset;
use napel_ml::forest::{RandomForest, RandomForestParams};
use napel_ml::log_space::{LogModel, LogOf};
use napel_ml::metrics::mean_relative_error;
use napel_ml::{Estimator, Regressor};
use napel_workloads::{Scale, Workload};
use nmc_sim::ArchConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::{metric, Metric};
use crate::tracer::{self, span, Ledger};
use crate::{fnv, Size, DENSE};

/// The application whose rows are held out and scored.
pub const HELD_OUT: Workload = Workload::Gesu;

/// The training set and the held-out rows.
pub struct Train {
    set: TrainingSet,
    held: Vec<LabeledRun>,
    held_rows: Vec<Vec<f64>>,
    dir: PathBuf,
}

/// The dense-kernel CCD rows at tiny scale on the Table 3 system.
pub fn dense_rows(size: Size) -> Vec<LabeledRun> {
    let workloads = match size {
        Size::Full => DENSE.to_vec(),
        Size::Smoke => vec![Workload::Atax, Workload::Gesu, Workload::Syrk],
    };
    let jobs = plan_jobs(&CollectionPlan {
        workloads,
        arch_configs: vec![ArchConfig::paper_default()],
        scale: Scale::tiny(),
        dedup: true,
    });
    run_jobs(&Serial, &jobs).0
}

impl Train {
    /// Collects the rows and splits off the held-out application. The
    /// inputs do not depend on the seed: the held-out MREs must repeat
    /// exactly from run to run.
    pub fn setup(size: Size, dir: &Path) -> Train {
        // Three matrix-vector kernels train; gesummv, a fourth, is scored.
        // The row count sizes a pass at a few seconds (tuned training
        // grows faster than linearly in rows).
        let train_apps = match size {
            Size::Full => vec![Workload::Gemv, Workload::Mvt],
            Size::Smoke => vec![Workload::Atax],
        };
        let rows = dense_rows(size);
        let held: Vec<LabeledRun> = rows
            .iter()
            .filter(|r| r.workload == HELD_OUT)
            .cloned()
            .collect();
        let set = TrainingSet {
            feature_names: combined_feature_names(),
            runs: rows
                .into_iter()
                .filter(|r| train_apps.contains(&r.workload))
                .collect(),
            stats: Default::default(),
        };
        let held_rows = held.iter().map(|r| r.features.clone()).collect();
        Train {
            set,
            held,
            held_rows,
            dir: dir.to_path_buf(),
        }
    }

    fn bundle(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// One untraced pass: tuned training plus save. Returns the seconds
    /// and the trained model.
    fn pass(&self) -> Result<(f64, TrainedNapel), String> {
        let path = self.bundle("train.napel");
        let t = Instant::now();
        let trained = Napel::new(NapelConfig::default())
            .train(&self.set)
            .map_err(|e| format!("training: {e}"))?;
        trained
            .save(&path)
            .map_err(|e| format!("saving the bundle: {e}"))?;
        Ok((t.elapsed().as_secs_f64(), trained))
    }

    /// Held-out mean relative errors, in percent: `(ipc, energy)`.
    fn held_out_mre(&self, model: &TrainedNapel) -> Result<(f64, f64), String> {
        let preds = model
            .predict_batch(&self.held_rows)
            .map_err(|e| format!("held-out prediction: {e}"))?;
        let ipc: Vec<f64> = preds.iter().map(|(p, _)| p.ipc).collect();
        let epi: Vec<f64> = preds.iter().map(|(p, _)| p.energy_per_inst_pj).collect();
        let want_ipc: Vec<f64> = self.held.iter().map(|r| r.ipc).collect();
        let want_epi: Vec<f64> = self.held.iter().map(|r| r.energy_per_inst_pj).collect();
        Ok((
            100.0 * mean_relative_error(&ipc, &want_ipc),
            100.0 * mean_relative_error(&epi, &want_epi),
        ))
    }

    /// The saved bundle reloads and predicts the held-out rows
    /// bit-identically to the in-memory model.
    fn check_reload(&self, model: &TrainedNapel) -> Result<(), String> {
        let loaded = TrainedNapel::load(self.bundle("train.napel"))
            .map_err(|e| format!("reloading the bundle: {e}"))?;
        let a = model
            .predict_batch(&self.held_rows)
            .map_err(|e| e.to_string())?;
        let b = loaded
            .predict_batch(&self.held_rows)
            .map_err(|e| e.to_string())?;
        let bits = |v: &[(napel_core::model::Prediction, f64)]| -> Vec<[u64; 3]> {
            v.iter()
                .map(|(p, s)| [p.ipc.to_bits(), p.energy_per_inst_pj.to_bits(), s.to_bits()])
                .collect()
        };
        if bits(&a) != bits(&b) {
            return Err("the reloaded bundle predicts differently".to_string());
        }
        Ok(())
    }

    /// Digest of the saved bundle's bytes.
    fn bundle_digest(&self, name: &str) -> Result<u64, String> {
        std::fs::read(self.bundle(name))
            .map(|b| fnv(&b))
            .map_err(|e| format!("reading the bundle: {e}"))
    }

    /// The traced replay of `Napel::train` + `save`: returns the two
    /// tuning outcomes `(winner, score)` and the forest fit and tree
    /// counts.
    fn traced_pass(&self) -> Result<Replay, String> {
        let _root = span("core.train");
        let config = NapelConfig::default();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (ipc_data, energy_data) = {
            let _g = span("core.dataset");
            (
                self.set.ipc_dataset().map_err(|e| e.to_string())?,
                self.set.energy_dataset().map_err(|e| e.to_string())?,
            )
        };
        let folds = k_fold(
            ipc_data.len(),
            config.cv_folds.clamp(2, ipc_data.len()),
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let grid: Vec<LogOf<RandomForestParams>> = config.grid.iter().cloned().map(LogOf).collect();
        let mut replay = Replay::default();
        let mut tune = |data: &Dataset, rng: &mut StdRng| -> Result<_, String> {
            let mut best: Option<(usize, f64)> = None;
            for (c, cand) in grid.iter().enumerate() {
                let mut total = 0.0;
                for fold in &folds {
                    let (train, test) = {
                        let _g = span("ml.subset");
                        (data.subset(&fold.train), data.subset(&fold.test))
                    };
                    let model = fit(cand, &train, rng, &mut replay)?;
                    let preds = {
                        let _g = span("ml.cv_predict");
                        model.predict(&test)
                    };
                    total += mean_relative_error(&preds, test.targets());
                }
                let score = total / folds.len() as f64;
                if best.is_none_or(|(_, b)| score < b) {
                    best = Some((c, score));
                }
            }
            let (c, score) = best.expect("the grid is not empty");
            let model = fit(&grid[c], data, rng, &mut replay)?;
            Ok((model, (grid[c].describe(), score)))
        };
        let (perf, perf_tune) = tune(&ipc_data, &mut rng)?;
        let (energy, energy_tune) = tune(&energy_data, &mut rng)?;
        let _g = span("core.save");
        let provenance = Provenance {
            seed: config.seed,
            grid: grid.iter().map(Estimator::describe).collect(),
            workloads: self
                .set
                .workloads()
                .iter()
                .map(|w| w.name().to_string())
                .collect(),
            training_rows: self.set.runs.len(),
            training_hash: self.set.content_hash(),
        };
        let artifact = |target, tune: &(String, f64), model: &LogModel<RandomForest>| {
            ModelArtifact::from_predictor(
                target,
                self.set.feature_names.clone(),
                provenance.clone(),
                Some(tune.clone()),
                model,
            )
            .map_err(|e| e.to_string())
        };
        let a = artifact(TargetKind::Ipc, &perf_tune, &perf)?;
        let b = artifact(TargetKind::EnergyPerInst, &energy_tune, &energy)?;
        replay.bundle_bytes = write_artifacts(&self.bundle("traced.napel"), &[&a, &b])
            .map_err(|e| format!("writing the traced bundle: {e}"))?;
        replay.tunes = vec![perf_tune, energy_tune];
        Ok(replay)
    }
}

#[derive(Default)]
struct Replay {
    tunes: Vec<(String, f64)>,
    fits: u64,
    trees: u64,
    bundle_bytes: u64,
}

fn fit(
    cand: &LogOf<RandomForestParams>,
    data: &Dataset,
    rng: &mut StdRng,
    replay: &mut Replay,
) -> Result<LogModel<RandomForest>, String> {
    let _g = span("ml.fit");
    let model = cand.fit(data, rng).map_err(|e| e.to_string())?;
    replay.fits += 1;
    replay.trees += model.inner().num_trees() as u64;
    Ok(model)
}

/// The train stage's ledger: one untraced pass (`Napel::train` + `save`)
/// and one traced replay. Checks that the saved bundle reloads and
/// predicts bit-identically, and that the replay picks the same winners
/// with the same scores and writes a byte-identical bundle.
pub fn ledger(t: &Train) -> Result<(Vec<Metric>, u64), String> {
    let (untraced, model) = t.pass()?;
    t.check_reload(&model)?;
    let want = [model.perf_tuning().cloned(), model.energy_tuning().cloned()];
    let (mre_ipc, mre_energy) = t.held_out_mre(&model)?;

    let base = tracer::count();
    tracer::set_enabled(true);
    let start = Instant::now();
    let replay = t.traced_pass()?;
    let traced = start.elapsed().as_secs_f64();
    tracer::set_enabled(false);
    for (got, want) in replay.tunes.iter().zip(&want) {
        let same = want
            .as_ref()
            .is_some_and(|(w, s)| w == &got.0 && s.to_bits() == got.1.to_bits());
        if !same {
            return Err(format!(
                "replayed CV picked {got:?}, Napel::train picked {want:?}"
            ));
        }
    }
    if t.bundle_digest("traced.napel")? != t.bundle_digest("train.napel")? {
        return Err("the replayed training wrote a different bundle".to_string());
    }
    let l = Ledger::of(&tracer::since(base), base);
    eprintln!("train ledger:\n{}", l.table());
    let fit_s = l.self_of("ml.fit");
    let wall = l.wall_of("core.train");
    Ok((
        vec![
            metric("core.dataset_s", "s", l.self_of("core.dataset")),
            metric("ml.subset_s", "s", l.self_of("ml.subset")),
            metric("ml.fit_s", "s", fit_s),
            metric("ml.forest_fits", "count", replay.fits as f64),
            metric("ml.trees_per_s", "1/s", replay.trees as f64 / fit_s),
            metric("ml.cv_predict_s", "s", l.self_of("ml.cv_predict")),
            metric("core.save_s", "s", l.self_of("core.save")),
            metric("core.bundle_bytes", "B", replay.bundle_bytes as f64),
            metric("core.train_s", "s", wall),
            metric("train.mre_ipc_pct", "%", mre_ipc),
            metric("train.mre_energy_pct", "%", mre_energy),
            metric(
                "train.unaccounted_frac",
                "ratio",
                l.self_of("core.train") / wall,
            ),
            metric(
                "train.trace_overhead_frac",
                "ratio",
                traced / untraced - 1.0,
            ),
        ],
        2,
    ))
}
