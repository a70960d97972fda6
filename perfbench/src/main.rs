//! `esp-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints each metric with its unit and sample
//! count, then, as the last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. Exits 2 on a bad command line.

use std::process::ExitCode;

use esp_perfbench::{pin_to_one_cpu, run, setup_once, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: esp-perfbench --workload table4-cold|serve-compile|serve-feedback \
         --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut probe = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--setup-probe" {
            probe = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("--seed takes a whole number, got `{value}`")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage(&format!("--seconds takes a positive number, got `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(&format!("--trace takes 0 or 1, got `{value}`")),
            },
            _ => return usage(&format!("unknown argument `{flag}`")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };
    if pin_to_one_cpu().is_none() {
        eprintln!("cannot pin to one CPU; the scheduler places threads");
    }
    if probe {
        return match setup_once(workload, seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("set-up check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (Some(seconds), Some(trace)) = (seconds, trace) else {
        return usage("--seconds and --trace are required");
    };
    let report = run(workload, seed, seconds, trace);
    for f in &report.failures {
        eprintln!("check failed: {f}");
    }
    print!("{}", report.render());
    ExitCode::SUCCESS
}
