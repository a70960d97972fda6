//! `esp-client` — query, benchmark and administer an `esp-serve` instance,
//! and manage a model registry.
//!
//! ```text
//! esp-client info      --addr HOST:PORT [--model NAME[@VERSION]]
//! esp-client stats     --addr HOST:PORT
//! esp-client shutdown  --addr HOST:PORT
//! esp-client get       --addr HOST:PORT [--path /metrics]
//! esp-client bench     --addr HOST:PORT
//!                      [--requests N] [--batch N] [--keys N] [--seed S]
//!                      [--connections N] [--open-loop auto|R1,R2,…] [--no-open-loop]
//!                      [--profile-rate P] [--trace-out FILE] [--metrics-out FILE]
//! esp-client merge-traces --out FILE LABEL=PATH [LABEL=PATH ...]
//! esp-client registry  (list | inspect --name M [--model-version V]
//!                       | publish --name M (--from PATH | --synthetic DIM,HIDDEN,SEED)
//!                       | gc --name M --keep K) --dir DIR
//! ```
//!
//! `bench` runs the deterministic load generator against the running
//! `esp-serve` at `--addr` and prints a one-line summary with the
//! histogram's p50/p90/p99. The closed loop drives `--connections`
//! concurrent clients (default 2); unless `--no-open-loop` is given, an
//! open-loop arrival-rate sweep follows — `--open-loop auto` (the default)
//! derives targets from the measured closed-loop throughput, a comma list
//! pins them — and prints one latency-under-load line per target. A
//! zero-sized load (`--requests`, `--batch`, `--keys` or `--connections`
//! of 0) is rejected. `--trace-out` records client-side spans into a
//! Perfetto-loadable trace; `--metrics-out` saves the server's metrics text
//! exposition (as carried by the final `STATS` reply). The repository's
//! benchmark (`BENCHMARK.json`) is the measurement of record; this command
//! is a smoke and a quick look at a live server.
//!
//! `bench --profile-rate P` closes the accuracy loop: that fraction of the
//! predicted rows is replayed back as `PROFILE` outcomes drawn from a
//! seeded per-key ground truth, and the summary gains the server ledger's
//! observed miss rate and calibration error plus profile updates per
//! second.
//!
//! Each subcommand rejects a flag it does not know with exit 2.
//!
//! `get` speaks plain HTTP/1.1 over a raw `TcpStream` against the server's
//! `--http-addr` telemetry sidecar (no curl required); `merge-traces`
//! unions per-process Perfetto traces onto one timeline, one pid per
//! labelled input, joined by the `req` ids stamped on client and server
//! spans.

use std::path::Path;

use esp_artifact::{ModelArtifact, Registry};
use esp_serve::loadgen::{self, LoadGenConfig};
use esp_serve::Client;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(value: &str, what: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{what} takes a number, got {value:?}");
        std::process::exit(2);
    })
}

fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// A subcommand's flags that take a value, and those that take none.
type KnownFlags = (&'static [&'static str], &'static [&'static str]);

fn known_flags(subcommand: &str) -> Option<KnownFlags> {
    Some(match subcommand {
        "info" => (&["--addr", "--model"], &[]),
        "stats" | "shutdown" => (&["--addr"], &[]),
        "get" => (&["--addr", "--path"], &[]),
        "bench" => (
            &[
                "--addr",
                "--requests",
                "--batch",
                "--keys",
                "--seed",
                "--connections",
                "--open-loop",
                "--profile-rate",
                "--trace-out",
                "--metrics-out",
            ],
            &["--no-open-loop"],
        ),
        "merge-traces" => (&["--out"], &[]),
        "registry" => (
            &[
                "--dir",
                "--name",
                "--model-version",
                "--from",
                "--synthetic",
                "--keep",
            ],
            &[],
        ),
        _ => return None,
    })
}

/// Exit 2 on any `--flag` the subcommand does not know, so a typo or a
/// removed flag is never silently ignored.
fn check_flags(args: &[String], (value_flags, bool_flags): KnownFlags) {
    let mut i = 1;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            i += 1; // skip the value
        } else if a.starts_with("--") && !bool_flags.contains(&a) {
            eprintln!("unknown flag `{a}` for `esp-client {}`", args[0]);
            std::process::exit(2);
        }
        i += 1;
    }
}

fn connect(args: &[String]) -> Client {
    let addr = flag_value(args, "--addr")
        .unwrap_or_else(|| fail("this subcommand needs --addr HOST:PORT".into()));
    Client::connect(addr).unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(known) = args.first().and_then(|cmd| known_flags(cmd)) {
        check_flags(&args, known);
    }
    match args.first().map(String::as_str) {
        Some("info") => {
            let selector = flag_value(&args, "--model").unwrap_or("");
            let i = connect(&args)
                .info_model(selector)
                .unwrap_or_else(|e| fail(e.to_string()));
            let routed = if i.model_name.is_empty() {
                String::new()
            } else {
                format!(" [{}@{}]", i.model_name, i.model_version)
            };
            println!(
                "model `{}`{routed}: {} inputs, {} hidden units, artifact format v{}",
                i.corpus_id, i.dim, i.hidden, i.format_version
            );
        }
        Some("stats") => {
            let s = connect(&args).stats().unwrap_or_else(|e| fail(e.to_string()));
            println!("connections:      {}", s.connections);
            println!("requests:         {}", s.requests);
            println!("predict requests: {}", s.predict_requests);
            println!("predictions:      {}", s.predictions);
            println!("cache hits:       {}", s.cache_hits);
            println!("cache misses:     {}", s.cache_misses);
            println!("cache hit rate:   {:.4}", s.cache_hit_rate());
            println!("latency p50/p99/max: {}/{}/{} us", s.p50_us, s.p99_us, s.max_us);
        }
        Some("shutdown") => {
            connect(&args).shutdown().unwrap_or_else(|e| fail(e.to_string()));
            println!("server acknowledged shutdown");
        }
        Some("get") => get(&args),
        Some("bench") => bench(&args),
        Some("merge-traces") => merge_traces(&args),
        Some("registry") => registry(&args),
        _ => {
            eprintln!(
                "usage: esp-client (info [--model NAME[@V]]|stats|shutdown) --addr HOST:PORT\n\
                 \x20      esp-client get --addr HOST:PORT [--path /metrics]\n\
                 \x20      esp-client bench --addr HOST:PORT\n\
                 \x20                       [--requests N] [--batch N] [--keys N] [--seed S]\n\
                 \x20                       [--connections N] [--open-loop auto|R1,R2,…] [--no-open-loop]\n\
                 \x20                       [--profile-rate P] [--trace-out FILE] [--metrics-out FILE]\n\
                 \x20      esp-client merge-traces --out FILE LABEL=PATH [LABEL=PATH ...]\n\
                 \x20      esp-client registry (list | inspect --name M [--model-version V]\n\
                 \x20                           | publish --name M (--from PATH | --synthetic DIM,HIDDEN,SEED)\n\
                 \x20                           | gc --name M --keep K) --dir DIR"
            );
            std::process::exit(2);
        }
    }
}

/// Plain HTTP/1.1 `GET` over a raw `TcpStream` — lets scripts smoke-test
/// the telemetry sidecar without curl. Prints the body to stdout; a
/// non-200 status is an error.
fn get(args: &[String]) {
    use std::io::{Read, Write};
    let addr = flag_value(args, "--addr")
        .unwrap_or_else(|| fail("get needs --addr HOST:PORT (the server's --http-addr)".into()));
    let path = flag_value(args, "--path").unwrap_or("/metrics");
    let mut stream = std::net::TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .and_then(|()| stream.flush())
        .unwrap_or_else(|e| fail(format!("cannot send request: {e}")));
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .unwrap_or_else(|e| fail(format!("cannot read response: {e}")));
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| fail(format!("malformed response from {addr}")));
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        fail(format!("GET {path}: {status}"));
    }
    print!("{body}");
}

/// Union per-process Perfetto traces onto one timeline via
/// [`esp_obs::trace::merge_json`]: each positional `LABEL=PATH` input
/// becomes its own pid, labelled by a `process_name` metadata event.
fn merge_traces(args: &[String]) {
    let out = flag_value(args, "--out")
        .unwrap_or_else(|| fail("merge-traces needs --out FILE".into()));
    let mut inputs: Vec<(String, std::path::PathBuf)> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => i += 2,
            arg => {
                let (label, path) = arg.split_once('=').unwrap_or_else(|| {
                    fail(format!("inputs are LABEL=PATH, got {arg:?}"))
                });
                if label.is_empty() || path.is_empty() {
                    fail(format!("inputs are LABEL=PATH, got {arg:?}"));
                }
                inputs.push((label.to_string(), std::path::PathBuf::from(path)));
                i += 1;
            }
        }
    }
    if inputs.is_empty() {
        fail("merge-traces needs at least one LABEL=PATH input".into());
    }
    let borrowed: Vec<(&str, &Path)> = inputs
        .iter()
        .map(|(l, p)| (l.as_str(), p.as_path()))
        .collect();
    match esp_obs::trace::merge_json(&borrowed, Path::new(out)) {
        Ok(n) => println!("merged {n} events from {} trace(s) into {out}", inputs.len()),
        Err(e) => fail(format!("cannot merge traces: {e}")),
    }
}

fn bench(args: &[String]) {
    let addr = flag_value(args, "--addr").unwrap_or_else(|| {
        eprintln!("bench needs --addr HOST:PORT of a running esp-serve");
        std::process::exit(2);
    });
    let trace_out = flag_value(args, "--trace-out").map(std::path::PathBuf::from);
    let metrics_out = flag_value(args, "--metrics-out").map(std::path::PathBuf::from);
    if trace_out.is_some() {
        esp_obs::trace::enable();
    }
    let defaults = LoadGenConfig::default();
    let cfg = LoadGenConfig {
        requests: flag_value(args, "--requests")
            .map_or(defaults.requests, |v| parse(v, "--requests")),
        batch: flag_value(args, "--batch").map_or(defaults.batch, |v| parse(v, "--batch")),
        keys: flag_value(args, "--keys").map_or(defaults.keys, |v| parse(v, "--keys")),
        seed: flag_value(args, "--seed").map_or(defaults.seed, |v| parse(v, "--seed")),
        profile_rate: flag_value(args, "--profile-rate")
            .map_or(defaults.profile_rate, |v| parse(v, "--profile-rate")),
        connections: flag_value(args, "--connections").map_or(2, |v| parse(v, "--connections")),
        open_loop: if args.iter().any(|a| a == "--no-open-loop") {
            None
        } else {
            match flag_value(args, "--open-loop") {
                None | Some("auto") => Some(Vec::new()),
                Some(list) => Some(
                    list.split(',')
                        .map(|v| parse(v.trim(), "--open-loop"))
                        .collect(),
                ),
            }
        },
    };

    let dim = Client::connect(addr)
        .and_then(|mut c| c.info())
        .unwrap_or_else(|e| fail(format!("cannot query {addr}: {e}")))
        .dim as usize;
    eprintln!(
        "load: {} requests x {} rows over {} distinct keys, {} connection(s) (seed {})",
        cfg.requests, cfg.batch, cfg.keys, cfg.connections, cfg.seed
    );
    let report = loadgen::run(addr, dim, &cfg).unwrap_or_else(|e| fail(format!("bench: {e}")));

    if let Some(path) = &metrics_out {
        std::fs::write(path, &report.server.exposition)
            .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", path.display())));
        eprintln!("wrote metrics exposition to {}", path.display());
    }
    if let Some(path) = &trace_out {
        match esp_obs::trace::write_json(path) {
            Ok(n) => eprintln!("wrote {n} trace events to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.summary_line());
    for p in &report.open_loop {
        println!(
            "open loop: target {:.0} rps -> achieved {:.0} rps, p50 {:.2} ms, p99 {:.2} ms",
            p.rps_target, p.achieved_rps, p.p50_ms, p.p99_ms
        );
    }
    if cfg.profile_rate > 0.0 {
        println!(
            "accuracy loop: observed miss rate {:.4}, calibration ece {:.4}, {:.0} profile updates/s",
            report.observed_miss_rate, report.calibration_ece, report.profile_updates_per_sec
        );
    }
}

fn registry(args: &[String]) {
    let dir = flag_value(args, "--dir")
        .unwrap_or_else(|| fail("registry subcommands need --dir DIR".into()));
    let reg = Registry::open(dir);
    match args.get(1).map(String::as_str) {
        Some("list") => {
            let entries = reg.list().unwrap_or_else(|e| fail(e.to_string()));
            if entries.is_empty() {
                println!("(empty registry)");
            }
            for e in entries {
                let versions: Vec<String> = e.versions.iter().map(u32::to_string).collect();
                println!("{}: v{}", e.name, versions.join(", v"));
            }
        }
        Some("inspect") => {
            let name = flag_value(args, "--name")
                .unwrap_or_else(|| fail("inspect needs --name M".into()));
            let version = flag_value(args, "--model-version").map(|v| parse(v, "--model-version"));
            let i = reg
                .inspect(name, version)
                .unwrap_or_else(|e| fail(e.to_string()));
            println!("{} v{} — {}", i.name, i.version, i.path.display());
            println!("  corpus:   {}", i.meta.corpus_id);
            println!("  seed:     {}", i.meta.seed);
            match i.meta.fold {
                Some(f) => println!("  fold:     {f}"),
                None => println!("  fold:     (none)"),
            }
            println!("  examples: {}", i.meta.examples);
            println!("  config:   {}", i.meta.train_config);
            println!("  topology: {} inputs, {} hidden", i.dim, i.hidden);
            println!("  rates:    {}", if i.has_rates { "present" } else { "absent" });
            println!("  size:     {} bytes", i.file_len);
        }
        Some("publish") => {
            let name = flag_value(args, "--name")
                .unwrap_or_else(|| fail("publish needs --name M".into()));
            let artifact = match (flag_value(args, "--from"), flag_value(args, "--synthetic")) {
                (Some(path), None) => ModelArtifact::load(Path::new(path))
                    .unwrap_or_else(|e| fail(format!("cannot load {path}: {e}"))),
                (None, Some(spec)) => {
                    let parts: Vec<&str> = spec.split(',').collect();
                    if parts.len() != 3 {
                        fail(format!("--synthetic takes DIM,HIDDEN,SEED, got {spec:?}"));
                    }
                    ModelArtifact::synthetic(
                        parse(parts[0], "--synthetic DIM"),
                        parse(parts[1], "--synthetic HIDDEN"),
                        parse(parts[2], "--synthetic SEED"),
                    )
                }
                _ => fail("publish needs exactly one of --from PATH | --synthetic DIM,HIDDEN,SEED".into()),
            };
            let v = reg.publish(name, &artifact).unwrap_or_else(|e| fail(e.to_string()));
            println!("published {name} v{v} to {dir}");
        }
        Some("gc") => {
            let name =
                flag_value(args, "--name").unwrap_or_else(|| fail("gc needs --name M".into()));
            let keep: usize = flag_value(args, "--keep")
                .map(|v| parse(v, "--keep"))
                .unwrap_or_else(|| fail("gc needs --keep K".into()));
            let removed = reg.gc(name, keep).unwrap_or_else(|e| fail(e.to_string()));
            for p in &removed {
                println!("removed {}", p.display());
            }
            println!("{} version(s) removed", removed.len());
        }
        _ => fail("registry subcommand must be list | inspect | publish | gc".into()),
    }
}
