//! The `table4-cold` workload: regenerate the paper's Table 4 from nothing.
//!
//! One op generates, compiles, analyzes and profiles all 43 programs,
//! computes the heuristic columns and the 43 leave-one-out ESP folds with
//! `repro_tables`' full learner, and renders the table. The untraced op
//! calls the public pipeline (`SuiteData::build_with_threads` and
//! `table4::compute`); the traced op calls each layer's public function
//! itself so it can time them, and must produce the same bytes.

use std::collections::HashMap;
use std::time::Instant;

use esp_core::{build_training_set, leave_one_out, EspConfig, EspModel, Learner, TrainingProgram};
use esp_corpus::suite;
use esp_eval::table4::{compute, render_rows, Table4Config, Table4Row};
use esp_eval::{miss_rate, BenchData, Prediction, SuiteData};
use esp_heur::{measure_rates, perfect_predict, Aphc, BranchCtx, Btfnt, Dshc, HeuristicRates};
use esp_ir::{BranchId, Lang, ProgramAnalysis};
use esp_lang::CompilerConfig;
use esp_nnet::{coalesce_examples, Mlp, MlpConfig};

use crate::report::{fnv1a, median, Report};

/// The pinned digest of the rendered table: `fnv1a64 <hex> bytes <len>`.
const PINNED_DIGEST: &str = include_str!("../table4.digest");

/// The learner `repro_tables table4` uses (hidden 10, 200 epochs,
/// patience 25, 2 restarts, coalescing on), on one thread: outputs are
/// bitwise identical at any thread count, and one thread keeps a 2-core
/// shared machine from adding scheduling noise.
pub(crate) fn esp_config() -> EspConfig {
    EspConfig {
        learner: Learner::Net(MlpConfig {
            hidden: 10,
            max_epochs: 200,
            patience: 25,
            restarts: 2,
            threads: 1,
            ..MlpConfig::default()
        }),
        threads: 1,
        coalesce: true,
        ..EspConfig::default()
    }
}

/// The digest line of a rendered table, in the pinned file's format.
fn digest(table: &str) -> String {
    format!(
        "fnv1a64 {:016x} bytes {}",
        fnv1a(table.as_bytes()),
        table.len()
    )
}

/// Check one op's output: the bytes match the pinned digest, and perfect
/// static prediction is a lower bound on every other column of every row.
pub fn check(table: &str, rows: &[Table4Row]) -> Result<(), String> {
    let got = digest(table);
    if got != PINNED_DIGEST.trim() {
        return Err(format!(
            "Table 4 digest {got} differs from the pinned {}:\n{table}",
            PINNED_DIGEST.trim()
        ));
    }
    if rows.len() != 43 {
        return Err(format!(
            "Table 4 has {} program rows, expected 43",
            rows.len()
        ));
    }
    for r in rows {
        let others = [r.btfnt, r.aphc, r.dshc_bl, r.dshc_ours, r.esp];
        if others.iter().any(|&o| r.perfect > o) {
            return Err(format!(
                "{}: perfect {} exceeds another column {others:?}",
                r.name, r.perfect
            ));
        }
    }
    Ok(())
}

/// One untraced op: the table's rows and rendered bytes.
pub fn untraced_op() -> (Vec<Table4Row>, String) {
    let suite = SuiteData::build_with_threads(&CompilerConfig::default(), 1);
    let cfg = Table4Config {
        esp: esp_config(),
        ..Table4Config::default()
    };
    let rows = compute(&suite, &cfg);
    let table = render_rows(&suite, &rows);
    (rows, table)
}

/// Wall time and call count spent in one layer during a traced op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Total seconds inside the layer's calls.
    pub secs: f64,
    /// Calls timed.
    pub calls: u64,
}

impl Layer {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.secs += t0.elapsed().as_secs_f64();
        self.calls += 1;
        r
    }
}

/// Per-layer times and exact counts of one traced op.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// `Benchmark::source`.
    pub gen: Layer,
    /// `esp_lang::compile_source`.
    pub compile: Layer,
    /// `ProgramAnalysis::analyze`.
    pub analyze: Layer,
    /// `esp_corpus::profile`.
    pub profile: Layer,
    /// `build_training_set` (coalescing off; it is timed on its own).
    pub encode: Layer,
    /// `coalesce_examples`.
    pub coalesce: Layer,
    /// `Mlp::train`.
    pub train: Layer,
    /// `EspModel::predict_prob_sites`.
    pub score: Layer,
    /// Rate measurement and the BTFNT, APHC and DSHC columns.
    pub heur: Layer,
    /// Wall seconds of the whole op.
    pub op_secs: f64,
    /// Σ `Profile::dyn_insns` over the corpus.
    pub dyn_insns: u64,
    /// Σ `TrainReport::epochs` over the folds.
    pub epochs: u64,
    /// Σ training examples before and after coalescing.
    pub examples_in: u64,
    /// See `examples_in`.
    pub examples_out: u64,
    /// Each fold's network weights as bits, in fold order (C folds, then
    /// Fortran folds).
    pub fold_weights: Vec<Vec<u64>>,
    /// The table's rows.
    pub rows: Vec<Table4Row>,
    /// The rendered table.
    pub table: String,
    /// Why the unrolled folds failed to reproduce `leave_one_out`'s
    /// networks bitwise, if they did (checked outside the op's clock).
    pub fold_error: Option<String>,
}

impl Traced {
    /// The layers timed inside the op, with their metric names.
    pub fn layers(&self) -> [(&'static str, Layer); 9] {
        [
            ("corpus.gen_ms", self.gen),
            ("lang.compile_ms", self.compile),
            ("ir.analyze_ms", self.analyze),
            ("exec.profile_ms", self.profile),
            ("esp.encode_ms", self.encode),
            ("nnet.coalesce_ms", self.coalesce),
            ("nnet.train_ms", self.train),
            ("esp.score_ms", self.score),
            ("heur.score_ms", self.heur),
        ]
    }

    /// Op time not inside any timed layer: table assembly, the ESP and
    /// perfect miss accounting, and rendering.
    pub fn other_secs(&self) -> f64 {
        self.op_secs - self.layers().iter().map(|(_, l)| l.secs).sum::<f64>()
    }
}

/// One traced op: the same computation as [`untraced_op`], with every
/// layer called (and timed) here. `leave_one_out` is unrolled into
/// encode → coalesce → train so each step has its own timer.
pub fn traced_op() -> Traced {
    let mut t = Traced::default();
    let op_start = Instant::now();
    let cfg = CompilerConfig::default();
    let mut benches = Vec::new();
    for b in suite() {
        let src = t.gen.time(|| b.source());
        let prog = t
            .compile
            .time(|| esp_lang::compile_source(b.name, &src, b.lang, &cfg))
            .unwrap_or_else(|e| panic!("benchmark `{}` failed to compile: {e}", b.name));
        let analysis = t.analyze.time(|| ProgramAnalysis::analyze(&prog));
        let profile = t
            .profile
            .time(|| esp_corpus::profile(&prog))
            .unwrap_or_else(|e| panic!("benchmark `{}` failed to run: {e}", b.name));
        t.dyn_insns += profile.dyn_insns;
        benches.push(BenchData {
            bench: b,
            prog,
            analysis,
            profile,
        });
    }
    let suite = SuiteData {
        benches,
        config: cfg,
    };

    let (aphc, dshc_bl, dshc_ours) = t.heur.time(|| {
        let measured = measure_rates(
            suite
                .benches
                .iter()
                .map(|b| (&b.prog, &b.analysis, &b.profile)),
        );
        (
            Aphc::table1_order(),
            Dshc::new(HeuristicRates::ball_larus_mips()),
            Dshc::new(measured),
        )
    });

    let esp = esp_config();
    let Learner::Net(mlp_cfg) = &esp.learner else {
        unreachable!("esp_config trains a network")
    };
    let encode_cfg = EspConfig {
        coalesce: false,
        ..esp.clone()
    };
    let mut esp_miss: Vec<f64> = suite
        .benches
        .iter()
        .map(|b| miss_rate(b, |_| Prediction::Uncovered))
        .collect();
    for lang in [Lang::C, Lang::Fort] {
        let idx = suite.lang_indices(lang);
        for (fold, &bench_i) in idx.iter().enumerate() {
            let corpus: Vec<TrainingProgram<'_>> = idx
                .iter()
                .filter(|&&i| i != bench_i)
                .map(|&i| TrainingProgram {
                    prog: &suite.benches[i].prog,
                    analysis: &suite.benches[i].analysis,
                    profile: &suite.benches[i].profile,
                })
                .collect();
            let (encoder, raw) = t.encode.time(|| build_training_set(&corpus, &encode_cfg));
            let (merged, stats) = t.coalesce.time(|| coalesce_examples(&raw));
            t.examples_in += stats.examples_in as u64;
            t.examples_out += stats.examples_out as u64;
            let fold_cfg = MlpConfig {
                seed: mlp_cfg.seed.wrapping_add(fold as u64),
                ..mlp_cfg.clone()
            };
            let (mlp, report) = t.train.time(|| Mlp::train(&merged, &fold_cfg));
            t.epochs += report.epochs as u64;
            let model = EspModel::from_net_parts(encoder, mlp, merged.len());
            let b = &suite.benches[bench_i];
            let sites = b.prog.branch_sites();
            let probs = t
                .score
                .time(|| model.predict_prob_sites(&b.prog, &b.analysis, &sites));
            let taken: HashMap<BranchId, bool> = sites
                .iter()
                .zip(&probs)
                .map(|(&s, &p)| (s, p > 0.5))
                .collect();
            esp_miss[bench_i] = miss_rate(b, |s| Prediction::from(taken.get(&s).copied()));
            t.fold_weights.push(weight_bits(&model));
        }
    }

    let mut rows = Vec::with_capacity(suite.benches.len());
    for (i, b) in suite.benches.iter().enumerate() {
        let ctx_of = |s| BranchCtx::new(&b.prog, &b.analysis, s);
        let (btfnt, aphc_r, bl, ours) = t.heur.time(|| {
            (
                miss_rate(b, |s| Prediction::from(Some(Btfnt.predict(&ctx_of(s))))),
                miss_rate(b, |s| Prediction::from(aphc.predict(&ctx_of(s)))),
                miss_rate(b, |s| Prediction::from(dshc_bl.predict(&ctx_of(s)))),
                miss_rate(b, |s| Prediction::from(dshc_ours.predict(&ctx_of(s)))),
            )
        });
        rows.push(Table4Row {
            name: b.bench.name.to_string(),
            group: b.bench.group,
            btfnt,
            aphc: aphc_r,
            dshc_bl: bl,
            dshc_ours: ours,
            esp: esp_miss[i],
            perfect: miss_rate(b, |s| Prediction::from(perfect_predict(&b.profile, s))),
        });
    }
    t.table = render_rows(&suite, &rows);
    t.rows = rows;
    t.op_secs = op_start.elapsed().as_secs_f64();
    t.fold_error = check_folds(&suite, &t.fold_weights).err();
    t
}

fn weight_bits(model: &EspModel) -> Vec<u64> {
    model
        .net_weights()
        .expect("network model")
        .iter()
        .map(|w| w.to_bits())
        .collect()
}

/// The unrolled folds must reproduce `leave_one_out`'s networks bitwise.
fn check_folds(suite: &SuiteData, traced: &[Vec<u64>]) -> Result<(), String> {
    let esp = esp_config();
    let mut k = 0;
    for lang in [Lang::C, Lang::Fort] {
        let group: Vec<TrainingProgram<'_>> = suite
            .lang_indices(lang)
            .into_iter()
            .map(|i| TrainingProgram {
                prog: &suite.benches[i].prog,
                analysis: &suite.benches[i].analysis,
                profile: &suite.benches[i].profile,
            })
            .collect();
        for fold in 0..group.len() {
            let reference = weight_bits(&leave_one_out(&group, fold, &esp));
            if traced.get(k) != Some(&reference) {
                return Err(format!(
                    "traced fold {k} differs from leave_one_out's weights"
                ));
            }
            k += 1;
        }
    }
    if k != traced.len() {
        return Err(format!("traced {} folds, leave_one_out {k}", traced.len()));
    }
    Ok(())
}

/// Rows of Table 4: one per corpus program.
const TABLE_ROWS: f64 = 43.0;

/// The untraced run: one untimed warm-up op, then ops for `seconds`.
pub(crate) fn run(seconds: f64, report: &mut Report) {
    let (rows, table) = untraced_op();
    report.op(check(&table, &rows));
    let mut op_ms = Vec::new();
    let start = Instant::now();
    while op_ms.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let (rows, table) = untraced_op();
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        report.op(check(&table, &rows));
    }
    let phase_s = start.elapsed().as_secs_f64();
    let n = op_ms.len() as u64;
    report.metric("latency_p50_ms", median(&op_ms), "ms", n);
    report.metric("rows_per_s", TABLE_ROWS * n as f64 / phase_s, "1/s", n);
}

/// The traced run: one untimed warm-up op, then pairs of an untraced and a
/// traced op for `seconds`. Every traced op must reproduce the untraced
/// table's bytes, `leave_one_out`'s networks, and the first traced op's
/// exact counts. Adds the per-layer metrics to `report`.
pub(crate) fn run_traced(seconds: f64, report: &mut Report) {
    let (rows, table) = untraced_op();
    report.op(check(&table, &rows));
    let mut plain_ms = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let (rows, table) = untraced_op();
        plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        report.op(check(&table, &rows));
        let t = traced_op();
        report.op(check_traced(&t, &table, traced.first()));
        traced.push(t);
    }
    let ops = traced.len() as f64;
    let per_op_ms = |f: &dyn Fn(&Traced) -> f64| traced.iter().map(f).sum::<f64>() * 1e3 / ops;
    let first = &traced[0];
    for (k, (name, _)) in first.layers().iter().enumerate() {
        let calls: u64 = traced.iter().map(|t| t.layers()[k].1.calls).sum();
        report.metric(
            name,
            per_op_ms(&|t: &Traced| t.layers()[k].1.secs),
            "ms",
            calls,
        );
    }
    let n = traced.len() as u64;
    report.metric(
        "eval.other_ms",
        per_op_ms(&|t: &Traced| t.other_secs()),
        "ms",
        n,
    );
    let op_ms: Vec<f64> = traced.iter().map(|t| t.op_secs * 1e3).collect();
    report.metric("trace.op_ms", per_op_ms(&|t: &Traced| t.op_secs), "ms", n);
    report.metric(
        "trace.overhead_us",
        (median(&op_ms) - median(&plain_ms)) * 1e3,
        "us",
        n,
    );
    report.metric("exec.dyn_insns", first.dyn_insns as f64, "count", n);
    let profile_us: f64 = traced.iter().map(|t| t.profile.secs).sum::<f64>() * 1e6;
    report.metric(
        "exec.insns_per_us",
        first.dyn_insns as f64 * ops / profile_us,
        "1/us",
        n,
    );
    report.metric(
        "nnet.coalesce_ratio",
        first.examples_out as f64 / first.examples_in as f64,
        "ratio",
        n,
    );
    report.metric("nnet.epochs", first.epochs as f64, "count", n);
}

/// A traced op's checks: the pinned digest and lower bound, the untraced
/// op's bytes, the fold networks, and the first traced op's exact counts.
fn check_traced(t: &Traced, untraced_table: &str, first: Option<&Traced>) -> Result<(), String> {
    check(&t.table, &t.rows)?;
    if t.table != untraced_table {
        return Err("traced Table 4 differs from the untraced table".into());
    }
    if let Some(e) = &t.fold_error {
        return Err(e.clone());
    }
    if let Some(f) = first {
        let counts = |t: &Traced| (t.dyn_insns, t.epochs, t.examples_in, t.examples_out);
        if counts(t) != counts(f) {
            return Err(format!(
                "exact counts {:?} differ from the first op's {:?}",
                counts(t),
                counts(f)
            ));
        }
    }
    Ok(())
}
