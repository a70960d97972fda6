//! Deterministic load generator: drives a server with a seeded stream of
//! predict batches drawn from a fixed key pool and measures exact
//! client-side latency quantiles (`esp-client bench` prints the summary).
//!
//! The *request content* is a pure function of the seed (PCG32 all the way
//! down): every work item — which pool rows a batch carries and which
//! outcomes are profiled back — is precomputed before the clock starts, so
//! every run asks for the same rows regardless of how many connections
//! race to claim them. With one connection the server also processes them
//! in order, making the reported cache hit rate exactly reproducible; with
//! several, only the claim order (and thus hit/miss attribution at the
//! margin) varies. Timings, of course, vary with the machine.
//!
//! Two load shapes run back to back:
//!
//! - **Closed loop** — `connections` clients each keep exactly one request
//!   in flight, claiming precomputed items from a shared counter. This
//!   measures service latency and peak sustainable throughput.
//! - **Open loop** (optional) — requests *arrive* on a fixed schedule
//!   (`t_i = i / rate`) whether or not earlier ones finished, the way real
//!   callers behave; latency is measured from the scheduled arrival, so
//!   queueing delay counts. A sweep over target rates yields the
//!   latency-under-load curve (`rps_target` → achieved rps, p50/p99) that
//!   shows where the server saturates.
//!
//! With `profile_rate > 0` the generator also closes the accuracy loop:
//! each pool key gets a deterministic ground-truth taken-probability (seed
//! `+2`), and after every predict batch the precomputed outcome records
//! (seed `+3`) stream back via the `PROFILE` opcode. The run then reports
//! the server ledger's `observed_miss_rate` and `calibration_ece`, read
//! back out of the final `STATS` exposition.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use esp_runtime::Pcg32;

use crate::client::Client;
use crate::protocol::{PredictRow, ProfileRecord, ServeError, StatsSnapshot};

/// Load-generator knobs. Defaults produce a few seconds of traffic.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Predict requests (batches) to send in the closed-loop phase
    /// (at least 1).
    pub requests: usize,
    /// Rows per request (at least 1).
    pub batch: usize,
    /// Distinct feature vectors in the pool (at least 1); smaller pools
    /// mean higher cache hit rates.
    pub keys: usize,
    /// RNG seed for the pool and the request sequence.
    pub seed: u64,
    /// Fraction of predicted rows replayed back as `PROFILE` outcomes
    /// (`0.0` disables the accuracy loop entirely — no profile frames are
    /// sent).
    pub profile_rate: f64,
    /// Concurrent client connections (at least 1). Each keeps
    /// one request in flight during the closed loop and owns an arrival
    /// stripe during the open loop.
    pub connections: usize,
    /// Open-loop arrival-rate sweep: `None` skips the phase, `Some(rates)`
    /// sweeps those request-per-second targets, and `Some(vec![])` derives
    /// targets from the measured closed-loop throughput (0.5×, 0.9×,
    /// 1.2× — below, near, and past saturation).
    pub open_loop: Option<Vec<f64>>,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            requests: 500,
            batch: 32,
            keys: 256,
            seed: 0xBE7C4,
            profile_rate: 0.0,
            connections: 1,
            open_loop: None,
        }
    }
}

/// One point on the open-loop latency-under-load curve.
#[derive(Debug, Clone)]
pub struct OpenLoopPoint {
    /// Scheduled arrival rate, requests per second.
    pub rps_target: f64,
    /// Completed requests divided by the phase's wall clock — tracks the
    /// target until the server saturates, then flattens at capacity.
    pub achieved_rps: f64,
    /// Median latency from *scheduled arrival* to response, milliseconds
    /// (queueing delay included — this is what explodes past saturation).
    pub p50_ms: f64,
    /// 99th-percentile scheduled-arrival latency, milliseconds.
    pub p99_ms: f64,
}

/// What a load-generation run measured.
#[derive(Debug, Clone)]
pub struct LoadGenReport {
    /// Echo of the generator knobs.
    pub cfg: LoadGenConfig,
    /// Rows predicted in the closed-loop phase.
    pub predictions: u64,
    /// Wall-clock for the closed-loop phase, milliseconds.
    pub elapsed_ms: f64,
    /// Closed-loop predict requests per second.
    pub throughput_rps: f64,
    /// Closed-loop rows per second.
    pub predictions_per_sec: f64,
    /// Exact client-side round-trip latency quantiles, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile round-trip latency, milliseconds.
    pub p99_ms: f64,
    /// Worst round-trip latency, milliseconds.
    pub max_ms: f64,
    /// Histogram-estimated p50, microseconds (from the shared
    /// [`esp_obs::Log2Histogram`] the run records into).
    pub hist_p50_us: u64,
    /// Histogram-estimated p90, microseconds.
    pub hist_p90_us: u64,
    /// Histogram-estimated p99, microseconds.
    pub hist_p99_us: u64,
    /// Server-side cache hit rate over the closed-loop phase's rows (the
    /// open loop replays the same pool, so its hits would inflate this).
    pub cache_hit_rate: f64,
    /// Shard workers the server runs (the `esp_serve_shards` gauge).
    pub shards: u64,
    /// Hot reloads the server has performed (`esp_serve_reloads_total`).
    pub reloads_total: u64,
    /// The open-loop latency-under-load curve, one point per swept rate
    /// (empty when the phase is skipped).
    pub open_loop: Vec<OpenLoopPoint>,
    /// The server ledger's observed-weighted miss rate at the end of the
    /// run (`NaN` when no outcomes were profiled back).
    pub observed_miss_rate: f64,
    /// The server ledger's expected calibration error at the end of the
    /// run (`NaN` when no outcomes were profiled back).
    pub calibration_ece: f64,
    /// `PROFILE` outcome records streamed back per second (`0` when
    /// `profile_rate` is `0`).
    pub profile_updates_per_sec: f64,
    /// Server counters at the end of the run.
    pub server: StatsSnapshot,
}

impl LoadGenReport {
    /// The one-line human summary `esp-client bench` prints: throughput
    /// plus the histogram's quantile estimates.
    pub fn summary_line(&self) -> String {
        format!(
            "bench: {} requests x {} rows over {} conn(s) in {:.0} ms | {:.0} req/s, {:.0} rows/s | \
             latency p50 {} us, p90 {} us, p99 {} us (histogram) | cache hit rate {:.1}%",
            self.cfg.requests,
            self.cfg.batch,
            self.cfg.connections,
            self.elapsed_ms,
            self.throughput_rps,
            self.predictions_per_sec,
            self.hist_p50_us,
            self.hist_p90_us,
            self.hist_p99_us,
            self.cache_hit_rate * 100.0,
        )
    }
}

fn exact_quantile_ms(sorted_us: &[u64], q: f64) -> f64 {
    esp_obs::exact_quantile(sorted_us, q) as f64 / 1e3
}

/// Build the deterministic key pool: `keys` synthetic rows of width `dim`.
/// Masks mostly keep features live, with a seeded sprinkling of gated
/// positions so the mask path is exercised.
pub fn key_pool(dim: usize, cfg: &LoadGenConfig) -> Vec<PredictRow> {
    let mut rng = Pcg32::seed_from_u64(cfg.seed);
    (0..cfg.keys)
        .map(|_| {
            let row: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mask: Vec<bool> = (0..dim).map(|_| !rng.gen_bool(0.1)).collect();
            PredictRow { row, mask }
        })
        .collect()
}

/// One precomputed request: which pool rows to send, and which outcome
/// records (if any) to replay back after the batch returns. Precomputing
/// the whole run keeps request content seed-deterministic even when
/// several connections race to claim items.
struct WorkItem {
    picks: Vec<usize>,
    profile: Vec<ProfileRecord>,
}

fn build_work(site_keys: &[Vec<u8>], cfg: &LoadGenConfig) -> Vec<WorkItem> {
    let pool_len = site_keys.len();
    let mut seq = Pcg32::seed_from_u64(cfg.seed.wrapping_add(1));
    let mut profile_rng = Pcg32::seed_from_u64(cfg.seed.wrapping_add(3));
    // Each pool key's deterministic ground-truth taken-probability, which
    // the outcome sampler draws against.
    let mut truth_rng = Pcg32::seed_from_u64(cfg.seed.wrapping_add(2));
    let truth: Vec<f64> = (0..pool_len)
        .map(|_| truth_rng.gen_range(0.0..1.0))
        .collect();
    (0..cfg.requests)
        .map(|_| {
            let picks: Vec<usize> = (0..cfg.batch)
                .map(|_| seq.gen_range(0..pool_len))
                .collect();
            let mut profile = Vec::new();
            if cfg.profile_rate > 0.0 {
                for &i in &picks {
                    if profile_rng.gen_bool(cfg.profile_rate) {
                        profile.push(ProfileRecord {
                            site_key: site_keys[i].clone(),
                            taken: profile_rng.gen_bool(truth[i]),
                            weight: 1.0,
                        });
                    }
                }
            }
            WorkItem { picks, profile }
        })
        .collect()
}

/// Closed loop: `connections` clients each keep one request in flight,
/// claiming items off a shared counter. Returns the merged, sorted
/// latencies (µs) and the phase wall-clock in seconds.
fn closed_loop(
    addr: &str,
    pool: &[PredictRow],
    items: &[WorkItem],
    connections: usize,
    hist: &esp_obs::Log2Histogram,
) -> Result<(Vec<u64>, f64), ServeError> {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let results: Vec<Result<Vec<u64>, ServeError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(|| -> Result<Vec<u64>, ServeError> {
                    let mut client = Client::connect(addr)?;
                    let mut lat = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let batch: Vec<PredictRow> =
                            item.picks.iter().map(|&k| pool[k].clone()).collect();
                        let _sp = esp_obs::span!("client", "predict", rows = batch.len());
                        let sent = Instant::now();
                        let preds = client.predict(batch)?;
                        let us = sent.elapsed().as_micros() as u64;
                        lat.push(us);
                        hist.record(us);
                        debug_assert_eq!(preds.len(), item.picks.len());
                        if !item.profile.is_empty() {
                            client.profile(item.profile.clone())?;
                        }
                    }
                    Ok(lat)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_unstable();
    Ok((all, elapsed_s))
}

/// One open-loop point: requests arrive at `t_i = i / rate` on a fixed
/// schedule striped across the connections, whether or not earlier ones
/// have finished. Latency runs from the *scheduled* arrival, so a server
/// that falls behind shows its queueing delay.
fn open_loop_point(
    addr: &str,
    pool: &[PredictRow],
    items: &[WorkItem],
    connections: usize,
    rps_target: f64,
    total: usize,
) -> Result<OpenLoopPoint, ServeError> {
    // A small grace lead so the first arrivals aren't already late while
    // the threads connect.
    let t0 = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<Vec<u64>, ServeError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                s.spawn(move || -> Result<Vec<u64>, ServeError> {
                    let mut client = Client::connect(addr)?;
                    let mut lat = Vec::new();
                    let mut i = conn;
                    while i < total {
                        let due = t0 + Duration::from_secs_f64(i as f64 / rps_target);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let item = &items[i % items.len()];
                        let batch: Vec<PredictRow> =
                            item.picks.iter().map(|&k| pool[k].clone()).collect();
                        client.predict(batch)?;
                        lat.push(due.elapsed().as_micros() as u64);
                        i += connections;
                    }
                    Ok(lat)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64().max(1e-9);
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_unstable();
    Ok(OpenLoopPoint {
        rps_target,
        achieved_rps: all.len() as f64 / elapsed_s,
        p50_ms: exact_quantile_ms(&all, 0.50),
        p99_ms: exact_quantile_ms(&all, 0.99),
    })
}

/// Run the generator against a server: the closed loop, then (when
/// configured) the open-loop sweep. The pre-run server stats are
/// subtracted out, so the reported cache hit rate covers exactly the
/// closed-loop phase. A zero-sized load (no requests, rows, keys or
/// connections) or a profile rate outside `[0, 1]` is rejected before any
/// connection opens.
pub fn run(addr: &str, dim: usize, cfg: &LoadGenConfig) -> Result<LoadGenReport, ServeError> {
    for (name, value) in [
        ("requests", cfg.requests),
        ("batch", cfg.batch),
        ("keys", cfg.keys),
        ("connections", cfg.connections),
    ] {
        if value == 0 {
            return Err(ServeError::Protocol(format!("{name} must be at least 1")));
        }
    }
    if !(0.0..=1.0).contains(&cfg.profile_rate) {
        return Err(ServeError::Protocol(format!(
            "profile rate must be in [0, 1], got {}",
            cfg.profile_rate
        )));
    }
    let pool = key_pool(dim, cfg);
    let site_keys: Vec<Vec<u8>> = pool
        .iter()
        .map(|r| crate::cache::cache_key(&r.row, &r.mask))
        .collect();
    let items = build_work(&site_keys, cfg);
    let profile_updates: u64 = items.iter().map(|i| i.profile.len() as u64).sum();

    let mut control = Client::connect(addr)?;
    let before = control.stats()?;
    let hist = esp_obs::Log2Histogram::new();
    let (latencies_us, elapsed_s) = closed_loop(addr, &pool, &items, cfg.connections, &hist)?;
    let after_closed = control.stats()?;
    let hits = after_closed.cache_hits - before.cache_hits;
    let misses = after_closed.cache_misses - before.cache_misses;
    let run_rows = hits + misses;
    let closed_rps = cfg.requests as f64 / elapsed_s;

    let mut open = Vec::new();
    if let Some(targets) = &cfg.open_loop {
        let targets: Vec<f64> = if targets.is_empty() {
            [0.5, 0.9, 1.2].iter().map(|f| f * closed_rps).collect()
        } else {
            targets.clone()
        };
        let per_point = (cfg.requests / 2).clamp(20, 400);
        for rate in targets {
            if rate.is_finite() && rate > 0.0 {
                open.push(open_loop_point(
                    addr, &pool, &items, cfg.connections, rate, per_point,
                )?);
            }
        }
    }

    let after = control.stats()?;
    Ok(LoadGenReport {
        cfg: cfg.clone(),
        predictions: (cfg.requests * cfg.batch) as u64,
        elapsed_ms: elapsed_s * 1e3,
        throughput_rps: closed_rps,
        predictions_per_sec: (cfg.requests * cfg.batch) as f64 / elapsed_s,
        p50_ms: exact_quantile_ms(&latencies_us, 0.50),
        p99_ms: exact_quantile_ms(&latencies_us, 0.99),
        max_ms: latencies_us.last().copied().unwrap_or(0) as f64 / 1e3,
        hist_p50_us: hist.quantile(0.50),
        hist_p90_us: hist.quantile(0.90),
        hist_p99_us: hist.quantile(0.99),
        cache_hit_rate: if run_rows == 0 {
            0.0
        } else {
            hits as f64 / run_rows as f64
        },
        shards: gauge_value(&after.exposition, "esp_serve_shards").unwrap_or(1.0) as u64,
        reloads_total: gauge_value(&after.exposition, "esp_serve_reloads_total")
            .unwrap_or(0.0) as u64,
        open_loop: open,
        observed_miss_rate: if profile_updates > 0 {
            gauge_value(&after.exposition, "esp_ledger_observed_miss_rate")
                .unwrap_or(f64::NAN)
        } else {
            f64::NAN
        },
        calibration_ece: if profile_updates > 0 {
            gauge_value(&after.exposition, "esp_ledger_calibration_ece").unwrap_or(f64::NAN)
        } else {
            f64::NAN
        },
        profile_updates_per_sec: profile_updates as f64 / elapsed_s,
        server: after,
    })
}

/// Pull a single unlabeled sample out of a Prometheus text exposition:
/// the value on the `NAME VALUE` line for exactly `family` (a longer
/// family name sharing the prefix does not match).
pub fn gauge_value(exposition: &str, family: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        line.strip_prefix(family)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> LoadGenReport {
        LoadGenReport {
            cfg: LoadGenConfig::default(),
            predictions: 16000,
            elapsed_ms: 1200.0,
            throughput_rps: 416.7,
            predictions_per_sec: 13333.3,
            p50_ms: 1.2,
            p99_ms: 4.5,
            max_ms: 9.0,
            hist_p50_us: 2047,
            hist_p90_us: 4095,
            hist_p99_us: 8191,
            cache_hit_rate: 0.82,
            shards: 2,
            reloads_total: 0,
            open_loop: vec![
                OpenLoopPoint {
                    rps_target: 200.0,
                    achieved_rps: 199.2,
                    p50_ms: 1.1,
                    p99_ms: 3.2,
                },
                OpenLoopPoint {
                    rps_target: 500.0,
                    achieved_rps: 417.0,
                    p50_ms: 88.0,
                    p99_ms: 240.0,
                },
            ],
            observed_miss_rate: 0.25,
            calibration_ece: 0.03,
            profile_updates_per_sec: 1234.5,
            server: StatsSnapshot::default(),
        }
    }

    #[test]
    fn key_pool_is_deterministic_and_shaped() {
        let cfg = LoadGenConfig {
            keys: 10,
            seed: 7,
            ..LoadGenConfig::default()
        };
        let a = key_pool(5, &cfg);
        let b = key_pool(5, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|r| r.row.len() == 5 && r.mask.len() == 5));
        // pools from different seeds differ
        let c = key_pool(
            5,
            &LoadGenConfig {
                keys: 10,
                seed: 8,
                ..LoadGenConfig::default()
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn work_items_are_seed_deterministic() {
        let cfg = LoadGenConfig {
            requests: 12,
            batch: 4,
            keys: 16,
            seed: 99,
            profile_rate: 0.5,
            ..LoadGenConfig::default()
        };
        let keys: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i]).collect();
        let a = build_work(&keys, &cfg);
        let b = build_work(&keys, &cfg);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.picks, y.picks);
            assert_eq!(x.profile.len(), y.profile.len());
            for (p, q) in x.profile.iter().zip(&y.profile) {
                assert_eq!((&p.site_key, p.taken), (&q.site_key, q.taken));
            }
        }
        // some but not all rows profile back at rate 0.5
        let total: usize = a.iter().map(|i| i.profile.len()).sum();
        assert!(total > 0 && total < 12 * 4, "profiled {total} of 48");
    }

    #[test]
    fn exact_quantiles() {
        let us: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert!((exact_quantile_ms(&us, 0.50) - 50.0).abs() < 1e-9);
        assert!((exact_quantile_ms(&us, 0.99) - 99.0).abs() < 1e-9);
        assert_eq!(exact_quantile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_line_reports_the_histogram_quantiles() {
        let line = report().summary_line();
        assert!(line.contains("p90 4095 us"));
        assert!(line.contains("500 requests"));
        assert!(line.contains("1 conn(s)"));
        assert!(line.contains("cache hit rate 82.0%"));
    }

    #[test]
    fn zero_sized_loads_are_rejected_before_connecting() {
        let base = LoadGenConfig::default();
        for (what, cfg) in [
            (
                "requests",
                LoadGenConfig {
                    requests: 0,
                    open_loop: Some(vec![100.0]),
                    ..base.clone()
                },
            ),
            ("batch", LoadGenConfig { batch: 0, ..base.clone() }),
            ("keys", LoadGenConfig { keys: 0, ..base.clone() }),
            ("connections", LoadGenConfig { connections: 0, ..base.clone() }),
            ("profile rate", LoadGenConfig { profile_rate: 1.5, ..base.clone() }),
        ] {
            // Nothing listens on the discard port: a config that got past
            // validation would fail with an I/O error instead.
            match run("127.0.0.1:9", 4, &cfg) {
                Err(ServeError::Protocol(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("{what}: expected a typed rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn gauge_value_matches_exact_family_names() {
        let text = "# TYPE esp_ledger_observed_weight gauge\n\
                    esp_ledger_observed_weight 12.5\n\
                    esp_ledger_observed_miss_rate 0.125\n\
                    esp_ledger_calibration_ece NaN\n";
        assert_eq!(gauge_value(text, "esp_ledger_observed_weight"), Some(12.5));
        assert_eq!(
            gauge_value(text, "esp_ledger_observed_miss_rate"),
            Some(0.125)
        );
        // A prefix of a longer family must not match the longer line.
        assert_eq!(gauge_value(text, "esp_ledger_observed"), None);
        assert_eq!(gauge_value(text, "esp_ledger_missing"), None);
        // Prometheus renders NaN literally; it parses as NaN here.
        assert!(gauge_value(text, "esp_ledger_calibration_ece")
            .is_some_and(f64::is_nan));
    }
}
