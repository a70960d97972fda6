//! The serving binaries' command-line contracts: a usage error (missing
//! `--addr`, an unknown or removed flag) exits 2, a load the generator
//! rejects exits 1 with the reason, and neither path panics (exit 101).

use std::process::{Command, Output};

use esp_artifact::ModelArtifact;
use esp_serve::{serve, ServeConfig};

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let Output {
        status,
        stdout,
        stderr,
    } = Command::new(bin).args(args).output().expect("spawn binary");
    (
        status.code(),
        String::from_utf8_lossy(&stdout).into_owned(),
        String::from_utf8_lossy(&stderr).into_owned(),
    )
}

#[test]
fn usage_errors_exit_2() {
    let client = env!("CARGO_BIN_EXE_esp-client");
    let server = env!("CARGO_BIN_EXE_esp-serve");
    // Nothing listens on the discard port and no model file exists, so a
    // flag that slipped past the check fails later with another message.
    let cases: [(&str, &[&str], &str); 6] = [
        (client, &["bench"], "needs --addr"),
        (
            client,
            &["bench", "--addr", "127.0.0.1:9", "--shards", "2"],
            "unknown flag `--shards`",
        ),
        (
            client,
            &["bench", "--addr", "127.0.0.1:9", "--quick"],
            "unknown flag `--quick`",
        ),
        (
            client,
            &["stats", "--addr", "127.0.0.1:9", "--bogus"],
            "unknown flag `--bogus`",
        ),
        (
            server,
            &["--model", "missing.espm", "--threads", "4"],
            "unknown flag `--threads`",
        ),
        (
            server,
            &["--model", "missing.espm", "--predict-chunk", "8"],
            "unknown flag `--predict-chunk`",
        ),
    ];
    for (bin, args, message) in cases {
        let (code, _, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn bench_drives_a_running_server_and_rejects_zero_sized_loads() {
    let client = env!("CARGO_BIN_EXE_esp-client");
    let handle = serve(
        &ModelArtifact::synthetic(8, 4, 1),
        "127.0.0.1:0",
        &ServeConfig::default(),
    )
    .expect("serve");
    let addr = handle.addr().to_string();

    let (code, stdout, stderr) = run(
        client,
        &[
            "bench",
            "--addr",
            &addr,
            "--requests",
            "20",
            "--no-open-loop",
            "--profile-rate",
            "1.0",
        ],
    );
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("bench: 20 requests x 32 rows"), "{stdout}");
    assert!(
        stdout.contains("accuracy loop: observed miss rate"),
        "{stdout}"
    );

    for (args, what) in [
        (&["--keys", "0"][..], "keys"),
        (&["--requests", "0", "--open-loop", "100"], "requests"),
    ] {
        let mut full = vec!["bench", "--addr", &addr];
        full.extend_from_slice(args);
        let (code, _, stderr) = run(client, &full);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{what} must be at least 1")),
            "{args:?}: {stderr}"
        );
    }
    handle.shutdown();
}
