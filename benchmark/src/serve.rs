//! `serve` — Table 4's prediction stage as users reach it: an in-process
//! `napel_serve::Server` with one worker shard hosting an untuned bundle,
//! driven over TCP by two connections on two threads, each keeping a
//! fixed window of pre-rendered `predict` lines in flight (a closed
//! loop). Connections × window stay below the shard's queue capacity, so
//! no request can be shed.
//!
//! The traced part adds an in-process replay of the worker's request path
//! — `parse_request`, `predict_batch` over batches of the worker's size,
//! `predict_payload` + `Response::render` — with a span around each call,
//! probes of `predict_batch`'s pieces and of bundle loading, and the
//! server's own stage means scraped from `Server::prometheus()`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use napel_core::experiments::fig4::sample_arch_configs;
use napel_core::features::{combined_features, TrainingSet};
use napel_core::model::{Napel, NapelConfig, TrainedNapel};
use napel_ml::Regressor;
use napel_pisa::ApplicationProfile;
use napel_serve::protocol::{parse_request, payload_field, predict_payload};
use napel_serve::{Request, Response, ServeClient, Server, ServerConfig, WorkerConfig};

use crate::spec::{metric, Metric};
use crate::stats::{median, percentile};
use crate::tracer::{self, span, Ledger};
use crate::{repeat_for, Size};

const MODEL_KEY: &str = "napel";
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight.
const WINDOW: usize = 16;
/// Requests the in-process replay scores per pass.
const REPLAY_REQUESTS: usize = 4096;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// A running server with its connected clients and the request set.
pub struct Serve {
    server: Server,
    clients: Vec<ServeClient>,
    /// `predict <row index> napel <features…>`, one per row.
    lines: Vec<String>,
    rows: Vec<Vec<f64>>,
    /// In-process `predict_batch` answers as bits: ipc, energy, spread.
    expected: Vec<[u64; 3]>,
    model: TrainedNapel,
    model_path: PathBuf,
    per_conn: usize,
}

/// One closed-loop burst: both connections send `per_conn` requests.
struct Burst {
    secs: f64,
    answered: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
}

impl Serve {
    /// Trains and saves the untuned bundle on the dense-kernel rows,
    /// builds the request rows from those kernels' profiles × `seed`'s
    /// sample of architecture configurations, computes every expected
    /// answer in process, and starts and connects to the server.
    pub fn setup(size: Size, seed: u64, dir: &Path) -> Result<Serve, String> {
        let (archs, per_conn) = match size {
            Size::Full => (8, 8000),
            Size::Smoke => (2, 600),
        };
        let runs = crate::train::dense_rows(size);
        let set = TrainingSet {
            feature_names: napel_core::features::combined_feature_names(),
            runs,
            stats: Default::default(),
        };
        let model = Napel::new(NapelConfig::untuned())
            .train(&set)
            .map_err(|e| format!("training the served model: {e}"))?;
        let model_dir = dir.join("models");
        std::fs::create_dir_all(&model_dir).map_err(|e| format!("creating the model dir: {e}"))?;
        let model_path = model_dir.join(format!("{MODEL_KEY}.napel"));
        model
            .save(&model_path)
            .map_err(|e| format!("saving the served bundle: {e}"))?;

        let profile_len = napel_pisa::feature_names().len();
        let configs = sample_arch_configs(archs, seed);
        let rows: Vec<Vec<f64>> = set
            .runs
            .iter()
            .flat_map(|r| {
                let profile = ApplicationProfile::from_values(r.features[..profile_len].to_vec());
                configs
                    .iter()
                    .map(move |a| combined_features(&profile, a))
                    .collect::<Vec<_>>()
            })
            .collect();
        let lines = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut line = format!("predict {i} {MODEL_KEY}");
                for v in row {
                    line.push(' ');
                    line.push_str(&v.to_string());
                }
                line
            })
            .collect();
        let expected = model
            .predict_batch(&rows)
            .map_err(|e| format!("in-process prediction: {e}"))?
            .iter()
            .map(|(p, s)| [p.ipc.to_bits(), p.energy_per_inst_pj.to_bits(), s.to_bits()])
            .collect();

        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            model_dir,
            workers: 1,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("starting the server: {e}"))?;
        let cfg_queue = ServerConfig::default().queue_capacity;
        assert!(
            CONNECTIONS * WINDOW < cfg_queue,
            "the load could be shed by a {cfg_queue}-deep queue"
        );
        let clients = (0..CONNECTIONS)
            .map(|_| ServeClient::connect(server.addr(), CONNECT_TIMEOUT))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("connecting: {e}"))?;
        Ok(Serve {
            server,
            clients,
            lines,
            rows,
            expected,
            model,
            model_path,
            per_conn,
        })
    }

    /// Closes the connections and drains the server, joining its threads.
    pub fn close(mut self) {
        for c in &mut self.clients {
            let _ = c.send_line("quit");
        }
        drop(self.clients);
        self.server.drain();
    }

    /// Both connections send `per_conn` requests each, keeping `WINDOW`
    /// in flight. Every `ok` answer is checked bit for bit against the
    /// in-process answer for its row.
    fn burst(&mut self, per_conn: usize) -> Result<Burst, String> {
        let (lines, expected) = (&self.lines, &self.expected);
        let start = Instant::now();
        let results: Vec<Result<Burst, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let offset = c * lines.len() / CONNECTIONS;
                    s.spawn(move || drive(client, lines, expected, offset, per_conn))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("a client thread panicked".into()))
                })
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        let mut burst = Burst {
            secs,
            answered: 0,
            failed: 0,
            latencies_ms: Vec::new(),
        };
        for r in results {
            let r = r?;
            burst.answered += r.answered;
            burst.failed += r.failed;
            burst.latencies_ms.extend(r.latencies_ms);
        }
        Ok(burst)
    }

    /// The server's stage means (µs) and mean batch size, from its
    /// Prometheus exposition. Means, not the exposition's bucketed p50s:
    /// a bucket midpoint can read the same on every run.
    fn scrape(&self) -> Result<Vec<Metric>, String> {
        let text = self.server.prometheus();
        let value = |name: &str| -> Result<f64, String> {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .ok_or_else(|| format!("the metrics exposition lacks `{name}`"))
        };
        let mean = |base: &str| -> Result<f64, String> {
            Ok(value(&format!("{base}_sum"))? / value(&format!("{base}_count"))?)
        };
        let stage = |s: &str| mean(&format!("serve_stage_seconds_{s}")).map(|v| v * 1e6);
        Ok(vec![
            metric("serve.read_parse_mean_us", "us", stage("read_parse")?),
            metric("serve.queue_wait_mean_us", "us", stage("queue_wait")?),
            metric(
                "serve.batch_assembly_mean_us",
                "us",
                stage("batch_assembly")?,
            ),
            metric("serve.predict_mean_us", "us", stage("predict")?),
            metric("serve.respond_flush_mean_us", "us", stage("respond_flush")?),
            metric("serve.batch_size_mean", "count", mean("serve_batch_size")?),
        ])
    }

    /// The worker's request path in process: parse, batch-predict and
    /// render `REPLAY_REQUESTS` lines in batches of the worker's size.
    fn replay(&self) -> Result<usize, String> {
        let _root = span("serve.pass");
        let batch = WorkerConfig::default().batch_max;
        let mut rendered = 0;
        let order: Vec<usize> = (0..REPLAY_REQUESTS).map(|i| i % self.lines.len()).collect();
        for chunk in order.chunks(batch) {
            let (ids, rows): (Vec<String>, Vec<Vec<f64>>) = {
                let _g = span("serve.parse");
                chunk
                    .iter()
                    .map(|&i| match parse_request(&self.lines[i], false) {
                        Ok(Request::Predict { id, row, .. }) => Ok((id, row)),
                        other => Err(format!("replayed line parsed as {other:?}")),
                    })
                    .collect::<Result<Vec<_>, _>>()?
                    .into_iter()
                    .unzip()
            };
            let preds = {
                let _g = span("core.predict_batch");
                self.model
                    .predict_batch(&rows)
                    .map_err(|e| format!("replayed prediction: {e}"))?
            };
            let _g = span("serve.render");
            for (id, (p, s)) in ids.into_iter().zip(preds) {
                let line =
                    Response::ok(id, predict_payload(p.ipc, p.energy_per_inst_pj, s)).render();
                rendered += std::hint::black_box(line).len();
            }
        }
        Ok(rendered)
    }

    /// Traced probes of `predict_batch`'s pieces and of bundle loading.
    fn probes(&self) -> Result<(), String> {
        for row in self.rows.iter().take(512) {
            let _g = span("core.predict_row");
            self.model
                .predict_batch(std::slice::from_ref(row))
                .map_err(|e| e.to_string())?;
        }
        let forest = self.model.perf_forest();
        for chunk in self.rows.chunks_exact(64) {
            {
                let _g = span("core.predict_batch64");
                self.model.predict_batch(chunk).map_err(|e| e.to_string())?;
            }
            {
                let _g = span("ml.forest_walk");
                std::hint::black_box(forest.predict_many(chunk));
            }
            let _g = span("ml.spread");
            std::hint::black_box(forest.prediction_std_many(chunk));
        }
        for _ in 0..5 {
            let _g = span("core.bundle_load");
            TrainedNapel::load(&self.model_path).map_err(|e| format!("loading the bundle: {e}"))?;
        }
        Ok(())
    }
}

/// One connection's closed loop.
fn drive(
    client: &mut ServeClient,
    lines: &[String],
    expected: &[[u64; 3]],
    offset: usize,
    per_conn: usize,
) -> Result<Burst, String> {
    let mut outstanding: VecDeque<(usize, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut out = Burst {
        secs: 0.0,
        answered: 0,
        failed: 0,
        latencies_ms: Vec::with_capacity(per_conn),
    };
    let mut sent = 0;
    while sent < per_conn || !outstanding.is_empty() {
        while sent < per_conn && outstanding.len() < WINDOW {
            let row = (offset + sent) % lines.len();
            client
                .send_line(&lines[row])
                .map_err(|e| format!("sending: {e}"))?;
            outstanding.push_back((row, Instant::now()));
            sent += 1;
        }
        let response = client
            .read_response()
            .map_err(|e| format!("reading: {e}"))?
            .ok_or("the server closed the connection")?;
        let received = Instant::now();
        let row: usize = response
            .id()
            .parse()
            .map_err(|_| format!("unexpected response id in `{}`", response.render()))?;
        let pos = outstanding
            .iter()
            .position(|&(r, _)| r == row)
            .ok_or_else(|| format!("response for a row not in flight: {}", response.render()))?;
        let (_, sent_at) = outstanding.remove(pos).expect("position is in range");
        match &response {
            Response::Ok { payload, .. } => {
                let got = ["ipc", "energy_pj", "spread"]
                    .map(|k| payload_field(payload, k).map_or(u64::MAX, f64::to_bits));
                if got != expected[row] {
                    return Err(format!(
                        "served answer differs from in-process predict_batch for row {row}: {payload}"
                    ));
                }
                out.answered += 1;
                out.latencies_ms
                    .push(received.duration_since(sent_at).as_secs_f64() * 1e3);
            }
            Response::Err { .. } => {
                eprintln!("serve: request failed: {}", response.render());
                out.failed += 1;
            }
        }
    }
    Ok(out)
}

/// What an untraced serve run measured.
pub struct Measured {
    pub rows_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// A warm-up burst, then closed-loop bursts for `seconds`.
pub fn measure(s: &mut Serve, seconds: f64) -> Result<Measured, String> {
    s.burst(s.per_conn / 16)?;
    let (mut attempted, mut failed) = (0, 0);
    let mut latencies = Vec::new();
    let per_conn = s.per_conn;
    let rates = repeat_for(seconds, 3, || {
        let b = s.burst(per_conn)?;
        attempted += b.answered + b.failed;
        failed += b.failed;
        latencies.extend(b.latencies_ms);
        Ok(b.answered as f64 / b.secs)
    })?;
    report_latency(&latencies);
    crate::log_passes("serve answers/s", &rates);
    Ok(Measured {
        rows_per_s: median(&rates),
        attempted,
        failed,
    })
}

fn report_latency(latencies: &[f64]) {
    for p in [50.0, 99.0] {
        match percentile(latencies, p) {
            Ok(v) => eprintln!(
                "serve: answer p{p} {v:.4} ms of {} samples",
                latencies.len()
            ),
            Err(e) => eprintln!("serve: no answer p{p}: {e}"),
        }
    }
}

/// The traced part of a run: closed-loop bursts for half of `seconds`
/// (answer percentiles and the server's stage means), then pairs of one
/// untraced and one traced replay for the other half (at least four
/// pairs), then the probes.
pub fn ledger(s: &mut Serve, seconds: f64) -> Result<(Vec<Metric>, u64), String> {
    s.burst(s.per_conn / 16)?;
    let per_conn = s.per_conn;
    let mut latencies = Vec::new();
    let mut attempted = 0;
    repeat_for(seconds / 2.0, 1, || {
        let b = s.burst(per_conn)?;
        if b.failed > 0 {
            return Err(format!("{} requests failed", b.failed));
        }
        attempted += b.answered;
        latencies.extend(b.latencies_ms);
        Ok(b.secs)
    })?;
    report_latency(&latencies);
    let mut metrics = s.scrape()?;

    // One untimed replay warms the request path after the load phase;
    // then untraced and traced replays alternate, so both halves of each
    // overhead ratio share the same stretch of host time.
    s.replay()?;
    let base = tracer::count();
    let mut ratios = Vec::new();
    repeat_for(seconds / 2.0, 4, || {
        let t = Instant::now();
        s.replay()?;
        let untraced = t.elapsed().as_secs_f64();
        tracer::set_enabled(true);
        let t = Instant::now();
        let replayed = s.replay();
        let traced = t.elapsed().as_secs_f64();
        tracer::set_enabled(false);
        replayed?;
        ratios.push(traced / untraced);
        Ok(traced)
    })?;
    let l = Ledger::of(&tracer::since(base), base);
    let probe_base = tracer::count();
    tracer::set_enabled(true);
    let probed = s.probes();
    tracer::set_enabled(false);
    probed?;
    let probe = Ledger::of(&tracer::since(probe_base), probe_base);
    eprintln!(
        "serve ledger ({} traced replays):\n{}probes:\n{}",
        ratios.len(),
        l.table(),
        probe.table()
    );
    let requests = (ratios.len() * REPLAY_REQUESTS) as f64;
    let us_per = |ledger: &Ledger, name: &str, n: f64| ledger.self_of(name) * 1e6 / n;
    let walked = (s.rows.len() / 64 * 64) as f64;
    metrics.extend([
        metric("serve.answer_p50_ms", "ms", percentile(&latencies, 50.0)?),
        metric("serve.answer_p99_ms", "ms", percentile(&latencies, 99.0)?),
        metric("serve.answer_samples", "count", latencies.len() as f64),
        metric("serve.parse_us", "us", us_per(&l, "serve.parse", requests)),
        metric(
            "core.predict_batch_us_per_row",
            "us",
            us_per(&l, "core.predict_batch", requests),
        ),
        metric(
            "serve.render_us",
            "us",
            us_per(&l, "serve.render", requests),
        ),
        metric(
            "core.predict_row_us",
            "us",
            us_per(
                &probe,
                "core.predict_row",
                probe.count_of("core.predict_row") as f64,
            ),
        ),
        metric(
            "core.predict_batch64_us_per_row",
            "us",
            us_per(&probe, "core.predict_batch64", walked),
        ),
        metric(
            "ml.forest_walk_us_per_row",
            "us",
            us_per(&probe, "ml.forest_walk", walked),
        ),
        metric(
            "ml.spread_us_per_row",
            "us",
            us_per(&probe, "ml.spread", walked),
        ),
        metric(
            "core.bundle_load_ms",
            "ms",
            probe.self_of("core.bundle_load") * 1e3 / probe.count_of("core.bundle_load") as f64,
        ),
        metric(
            "serve.unaccounted_frac",
            "ratio",
            l.self_of("serve.pass") / l.wall_of("serve.pass"),
        ),
        metric("serve.trace_overhead_frac", "ratio", median(&ratios) - 1.0),
    ]);
    Ok((metrics, attempted))
}
