//! Exact counts repeat for a seed, request streams follow the seed, and
//! the traced pipeline reproduces the untraced one. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use esp_perfbench::report::Report;
use esp_perfbench::serve::{run_traced, Kind};
use esp_perfbench::table4::{check, traced_op, untraced_op};
use esp_perfbench::{END_TO_END, PER_LAYER};

#[test]
fn traced_table4_repeats_and_matches_the_untraced_table() {
    // Table 4 takes no seed: every seed regenerates the same bytes, which
    // `check` compares with the pinned digest.
    let (rows, table) = untraced_op();
    check(&table, &rows).expect("untraced table");
    let a = traced_op();
    let b = traced_op();
    for t in [&a, &b] {
        assert_eq!(t.fold_error, None);
        assert_eq!(
            t.table, table,
            "traced bytes differ from the untraced table"
        );
        check(&t.table, &t.rows).expect("traced table");
    }
    assert_eq!(a.dyn_insns, b.dyn_insns);
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(
        (a.examples_in, a.examples_out),
        (b.examples_in, b.examples_out)
    );
    assert_eq!(a.fold_weights, b.fold_weights);
    // The layers and the rest make up the op.
    let layers: f64 = a.layers().iter().map(|(_, l)| l.secs).sum();
    assert!((layers + a.other_secs() - a.op_secs).abs() < 1e-9);
    assert!(a.other_secs() >= 0.0);
}

#[test]
fn serve_counts_repeat_for_a_seed_and_streams_follow_it() {
    for kind in [Kind::Compile, Kind::Feedback] {
        let mut ra = Report::default();
        let a = run_traced(kind, 11, 0.5, &mut ra);
        let mut rb = Report::default();
        let b = run_traced(kind, 11, 0.5, &mut rb);
        let mut rc = Report::default();
        let c = run_traced(kind, 12, 0.5, &mut rc);
        for r in [&ra, &rb, &rc] {
            assert!(r.correct(), "{kind:?}: {:?}", r.failures);
        }
        assert_eq!(a, b, "{kind:?}: exact counts differ for one seed");
        assert_ne!(
            a.stream, c.stream,
            "{kind:?}: two seeds sent the same requests"
        );
        assert_eq!(a.requests, c.requests);
        assert!(a.rows > 0 && a.sites > 0);
        match kind {
            Kind::Compile => assert!(
                a.misses * 100 < a.hits,
                "compile requests should hit: {a:?}"
            ),
            Kind::Feedback => {
                assert!(
                    a.hits * 4 < a.misses,
                    "feedback requests should miss: {a:?}"
                );
                assert_eq!(
                    a.profiled.0, a.profiled.1,
                    "every outcome joins a served site"
                );
                assert_eq!(a.profiled.0, a.rows);
            }
        }
    }
}

#[test]
fn catalogs_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let flat: String = json.split_whitespace().collect::<Vec<_>>().join(" ");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        flat.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}
