//! The repository's benchmark: three workloads over the two end-to-end
//! paths, the research pipeline (`table4-cold`) and the prediction server
//! (`serve-compile`, `serve-feedback`). See `DESIGN.md` beside this crate
//! for why each workload and metric was chosen.
//!
//! An untraced run reports the end-to-end metrics; a traced run (a
//! separate process) times the benchmark's own calls into each layer's
//! public functions and reports the per-layer metrics. Every op's output
//! is checked, and failed checks are counted against the ops attempted.

pub mod report;
pub mod serve;
pub mod table4;

use std::process::{Command, Stdio};
use std::time::Instant;

use report::{median, peak_rss_mb, Report};
use serve::Kind;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Regenerate Table 4 from nothing.
    Table4Cold,
    /// Serve one of the two serving workloads.
    Serve(Kind),
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table4Cold,
        Workload::Serve(Kind::Compile),
        Workload::Serve(Kind::Feedback),
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table4Cold => "table4-cold",
            Workload::Serve(Kind::Compile) => "serve-compile",
            Workload::Serve(Kind::Feedback) => "serve-feedback",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("rows_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A layer
/// that does not run on a workload reports 0 from 0 samples.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("corpus.gen_ms", "ms"),
    ("lang.compile_ms", "ms"),
    ("ir.analyze_ms", "ms"),
    ("exec.profile_ms", "ms"),
    ("exec.dyn_insns", "count"),
    ("exec.insns_per_us", "1/us"),
    ("esp.encode_ms", "ms"),
    ("nnet.coalesce_ms", "ms"),
    ("nnet.coalesce_ratio", "ratio"),
    ("nnet.train_ms", "ms"),
    ("nnet.epochs", "count"),
    ("esp.score_ms", "ms"),
    ("heur.score_ms", "ms"),
    ("eval.other_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_us", "us"),
    ("client.encode_us", "us"),
    ("client.wait_us", "us"),
    ("client.decode_us", "us"),
    ("client.p90_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("client.profile_p50_ms", "ms"),
    ("serve.protocol.decode_ns_per_row", "ns"),
    ("serve.cache.key_ns_per_row", "ns"),
    ("serve.cache.lookup_ns_per_row", "ns"),
    ("nnet.predict_ns_per_row", "ns"),
    ("obs.ledger.served_ns_per_row", "ns"),
    ("obs.ledger.outcome_ns_per_record", "ns"),
    ("serve.protocol.encode_ns_per_row", "ns"),
    ("serve.server.residual_us_per_req", "us"),
    ("serve.requests", "count"),
    ("serve.rows", "count"),
    ("serve.errors", "count"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("obs.ledger.join_ratio", "ratio"),
    ("obs.ledger.sites", "count"),
    ("run.ops", "count"),
    ("run.failed", "count"),
    ("run.peak_rss_mb", "MB"),
];

/// Pin the calling thread, and so every thread and process it starts
/// later, to the lowest-numbered CPU it may run on. Returns that CPU, or
/// `None` where affinity cannot be read or set.
///
/// On a 2-core shared VM, letting the scheduler spread the client, the
/// reactor and the shard worker over both cores made the serve medians
/// move by up to 2× between runs (cross-core wake-ups land in different
/// places each run); on one core they repeat. Outputs do not depend on
/// placement.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    /// glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is writable for exactly the size passed, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable for exactly the size passed, and pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Affinity is Linux-only here; elsewhere the scheduler places threads.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_PROBES: usize = 3;

/// Set up `workload` once and check the set-up's ops: the body of a
/// set-up probe process. For `table4-cold` the set-up is one Table 4 op;
/// for `serve-*` it is the corpus, the model, the server and the warm-up.
pub fn setup_once(workload: Workload, seed: u64) -> Result<(), String> {
    match workload {
        Workload::Table4Cold => {
            let (rows, table) = table4::untraced_op();
            table4::check(&table, &rows)
        }
        Workload::Serve(kind) => serve::setup_check(kind, seed),
    }
}

/// Time [`SETUP_PROBES`] set-ups, each a fresh process of this binary
/// (`--setup-probe`) timed from spawn to exit, so process start counts.
fn measure_setup(workload: Workload, seed: u64, report: &mut Report) {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut secs = Vec::new();
    for _ in 0..SETUP_PROBES {
        let t0 = Instant::now();
        let status = Command::new(&exe)
            .args([
                "--setup-probe",
                "--workload",
                workload.name(),
                "--seed",
                &seed.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status();
        secs.push(t0.elapsed().as_secs_f64());
        report.op(match status {
            Ok(s) if s.success() => Ok(()),
            Ok(s) => Err(format!("set-up probe exited with {s}")),
            Err(e) => Err(format!("cannot start a set-up probe: {e}")),
        });
    }
    report.metric("setup_s", median(&secs), "s", secs.len() as u64);
}

/// Run one workload and return its report, metrics in catalog order.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    if trace {
        match workload {
            Workload::Table4Cold => table4::run_traced(seconds, &mut report),
            Workload::Serve(kind) => {
                serve::run_traced(kind, seed, seconds, &mut report);
            }
        }
        report.metric("run.ops", report.attempted as f64, "count", 1);
        report.metric("run.failed", report.failed as f64, "count", 1);
        report.metric("run.peak_rss_mb", peak_rss_mb(), "MB", 1);
        order(&mut report, &PER_LAYER);
    } else {
        measure_setup(workload, seed, &mut report);
        match workload {
            Workload::Table4Cold => table4::run(seconds, &mut report),
            Workload::Serve(kind) => serve::run(kind, seed, seconds, &mut report),
        }
        report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        order(&mut report, &END_TO_END);
    }
    report
}

/// Put the report's metrics in `catalog` order, adding any the workload
/// does not measure as 0 from 0 samples.
///
/// # Panics
///
/// Panics if the report holds a metric the catalog lacks.
fn order(report: &mut Report, catalog: &[(&'static str, &'static str)]) {
    for m in &report.metrics {
        assert!(
            catalog.iter().any(|&(n, u)| n == m.name && u == m.unit),
            "metric {} ({}) is not in the catalog",
            m.name,
            m.unit
        );
    }
    let mut ordered = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        match report.metrics.iter().find(|m| m.name == name) {
            Some(m) => ordered.push(m.clone()),
            None => ordered.push(report::Metric {
                name,
                value: 0.0,
                unit,
                samples: 0,
            }),
        }
    }
    report.metrics = ordered;
}
