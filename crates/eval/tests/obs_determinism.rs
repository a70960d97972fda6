//! Telemetry is observation-only: enabling `esp-obs` span tracing must not
//! change a single byte of the evaluation output. This runs a miniature
//! Table 4 (two C programs, two leave-one-out folds, tiny learner) with
//! tracing off and again with tracing on, and compares the rendered tables
//! bit for bit — and, below printed precision, the weights of one
//! multi-threaded training run.

use esp_core::{EspConfig, Learner};
use esp_eval::{table4, SuiteData, Table4Config};
use esp_lang::CompilerConfig;
use esp_nnet::{Mlp, MlpConfig, TrainExample};

fn mini_cfg() -> Table4Config {
    Table4Config {
        esp: EspConfig {
            learner: Learner::Net(MlpConfig {
                hidden: 3,
                max_epochs: 12,
                patience: 6,
                restarts: 1,
                ..MlpConfig::default()
            }),
            threads: 2,
            ..EspConfig::default()
        },
        model_cache: None,
        quant: None,
    }
}

/// Train a small network (two restarts, two threads) on a fixed synthetic
/// set and return its weights' bit patterns.
fn trained_weight_bits() -> Vec<u64> {
    let data: Vec<TrainExample> = (0..300)
        .map(|i| TrainExample {
            x: (0..12)
                .map(|j| ((i * 31 + j * 7) % 17) as f64 / 8.0 - 1.0)
                .collect(),
            target: ((i * 11) % 10) as f64 / 9.0,
            weight: 1.0,
        })
        .collect();
    let cfg = MlpConfig {
        hidden: 6,
        max_epochs: 30,
        restarts: 2,
        threads: 2,
        ..MlpConfig::default()
    };
    let (m, _) = Mlp::train(&data, &cfg);
    m.flat_weights().iter().map(|w| w.to_bits()).collect()
}

#[test]
fn table4_is_byte_identical_with_tracing_on_and_off() {
    let suite = SuiteData::build_subset(&["sort", "grep"], &CompilerConfig::default());
    let cfg = mini_cfg();

    assert!(!esp_obs::trace::enabled(), "tracing must start disabled");
    let untraced = table4(&suite, &cfg);
    let untraced_weights = trained_weight_bits();

    esp_obs::trace::enable();
    let traced = table4(&suite, &cfg);
    let traced_weights = trained_weight_bits();
    esp_obs::trace::disable();
    let events = esp_obs::trace::drain();

    assert_eq!(
        untraced.as_bytes(),
        traced.as_bytes(),
        "tracing changed the rendered table"
    );
    assert_eq!(
        untraced_weights, traced_weights,
        "tracing changed the trained weights"
    );
    assert!(
        !events.is_empty(),
        "the traced run must actually have recorded spans"
    );
    // The traced run covered the interesting layers: evaluation folds,
    // network training epochs and the runtime pool all show up.
    for cat in ["eval", "train", "runtime"] {
        assert!(
            events.iter().any(|e| e.cat == cat),
            "no `{cat}` spans in the trace"
        );
    }
    // And the trace renders to loadable JSON with complete spans inside.
    let json = esp_obs::trace::render_json(&events);
    assert!(json.starts_with('['));
    assert!(json.contains("\"ph\": \"X\"") || json.contains("\"ph\":\"X\""));
    assert!(json.contains("table4_fold"));
}
