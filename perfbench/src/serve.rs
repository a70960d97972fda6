//! The `serve-compile` and `serve-feedback` workloads: one client thread on
//! one connection drives an `esp_serve::serve` server with one shard in a
//! closed loop (each request is sent when the previous reply has arrived).
//!
//! Requests are generated here, from the seed, and built from a fixed pool
//! of rows when they are sent; the server receives only frames. Every
//! served probability is checked bitwise against the in-process model.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::Instant;

use esp_artifact::{ModelArtifact, ModelMeta};
use esp_core::{encode, extract, EspModel, FeatureSet, Learner, TrainingProgram};
use esp_eval::table4::train_config_stamp;
use esp_eval::SuiteData;
use esp_lang::CompilerConfig;
use esp_obs::{Ledger, OutcomeRecord};
use esp_runtime::Pcg32;
use esp_serve::cache::{cache_key_into, LruCache};
use esp_serve::loadgen::gauge_value;
use esp_serve::protocol::{read_frame, write_frame};
use esp_serve::{
    key_pool, serve, LoadGenConfig, PredictRow, ProfileRecord, Request, Response, ServeConfig,
    ServerHandle,
};

use crate::report::{fnv1a, mean, median, quantile, Report};
use crate::table4::esp_config;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Each request is one corpus program's branch sites; nearly every row
    /// is a cache hit.
    Compile,
    /// Each request is 32 rows drawn from a pool far larger than the cache,
    /// followed by a PROFILE of their outcomes; nearly every row misses.
    Feedback,
}

/// Rows in the `serve-feedback` pool: 8× the server's 4096-entry cache, so
/// about one row in eight hits.
const FEEDBACK_POOL: usize = 32_768;
/// Rows per `serve-feedback` PREDICT.
const FEEDBACK_BATCH: usize = 32;
/// Untimed ops after the server starts. `serve-compile` sends enough
/// programs to cache every distinct row; `serve-feedback` sends every pool
/// row once, in order, so the ledger holds all its sites before timing.
fn warmup_ops(kind: Kind) -> usize {
    match kind {
        Kind::Compile => 200,
        Kind::Feedback => FEEDBACK_POOL / FEEDBACK_BATCH,
    }
}

/// The model a serving workload serves and the rows its clients send.
struct Fixture {
    /// Which workload.
    kind: Kind,
    /// The served model: one full-learner network trained on all 43 programs.
    artifact: ModelArtifact,
    /// Raw encoded rows requests are built from.
    pool: Vec<PredictRow>,
    /// `serve-compile`: each program's rows, as a range of `pool`.
    programs: Vec<Range<usize>>,
    /// `serve-feedback`: each pool row's taken-probability, which outcomes
    /// are drawn against.
    truth: Vec<f64>,
    /// `ModelArtifact::to_model().predict_prob_encoded` of each pool row:
    /// the bits every served probability must equal.
    expected: Vec<f64>,
}

impl Fixture {
    /// Build the corpus, train the model and make the pool.
    fn build(kind: Kind, seed: u64) -> Fixture {
        let suite = SuiteData::build_with_threads(&CompilerConfig::default(), 1);
        let corpus: Vec<TrainingProgram<'_>> = suite
            .benches
            .iter()
            .map(|b| TrainingProgram {
                prog: &b.prog,
                analysis: &b.analysis,
                profile: &b.profile,
            })
            .collect();
        let cfg = esp_config();
        let model = EspModel::train(&corpus, &cfg);
        let Learner::Net(mlp) = &cfg.learner else {
            unreachable!("esp_config trains a network")
        };
        let meta = ModelMeta {
            corpus_id: suite.config.name.to_string(),
            seed: mlp.seed,
            fold: None,
            examples: model.num_examples() as u64,
            train_config: train_config_stamp(&cfg),
        };
        let artifact = ModelArtifact::from_model(&model, meta, None).expect("network model");
        let mut pool = Vec::new();
        let mut programs = Vec::new();
        let mut truth = Vec::new();
        match kind {
            Kind::Compile => {
                let features = FeatureSet::default();
                for b in &suite.benches {
                    let start = pool.len();
                    for site in b.prog.branch_sites() {
                        let (row, mask) = encode(&extract(&b.prog, &b.analysis, site), &features);
                        pool.push(PredictRow { row, mask });
                    }
                    programs.push(start..pool.len());
                }
            }
            Kind::Feedback => {
                let cfg = LoadGenConfig {
                    keys: FEEDBACK_POOL,
                    seed,
                    ..LoadGenConfig::default()
                };
                pool = key_pool(artifact.dim(), &cfg);
                let mut rng = Pcg32::seed_from_u64(seed.wrapping_add(2));
                truth = (0..pool.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
            }
        }
        let reference = artifact.to_model();
        let expected = pool
            .iter()
            .map(|r| reference.predict_prob_encoded(&r.row, &r.mask))
            .collect();
        Fixture {
            kind,
            artifact,
            pool,
            programs,
            truth,
            expected,
        }
    }
}

/// The seeded request stream: which pool rows each PREDICT carries and the
/// outcome reported for each of them.
struct Stream {
    picks: Pcg32,
    outcomes: Pcg32,
    /// PREDICTs sent so far.
    sent: usize,
}

impl Stream {
    /// The stream for `seed`.
    fn new(seed: u64) -> Stream {
        Stream {
            picks: Pcg32::seed_from_u64(seed.wrapping_add(1)),
            outcomes: Pcg32::seed_from_u64(seed.wrapping_add(3)),
            sent: 0,
        }
    }

    /// Pool indices of the next PREDICT's rows: a seeded program on
    /// `serve-compile`; on `serve-feedback`, the next slice of the pool
    /// during the warm-up and seeded rows after it.
    fn next_picks(&mut self, fx: &Fixture) -> Vec<usize> {
        let k = self.sent;
        self.sent += 1;
        match fx.kind {
            Kind::Compile => {
                let p = self.picks.gen_range(0..fx.programs.len());
                fx.programs[p].clone().collect()
            }
            Kind::Feedback if k < warmup_ops(Kind::Feedback) => {
                (k * FEEDBACK_BATCH..(k + 1) * FEEDBACK_BATCH).collect()
            }
            Kind::Feedback => (0..FEEDBACK_BATCH)
                .map(|_| self.picks.gen_range(0..fx.pool.len()))
                .collect(),
        }
    }

    /// The PROFILE records reporting one outcome for each picked row.
    fn outcomes(&mut self, fx: &Fixture, picks: &[usize]) -> Vec<ProfileRecord> {
        let mut key = Vec::new();
        picks
            .iter()
            .map(|&i| {
                cache_key_into(&mut key, &fx.pool[i].row, &fx.pool[i].mask);
                ProfileRecord {
                    site_key: key.clone(),
                    taken: self.outcomes.gen_bool(fx.truth[i]),
                    weight: 1.0,
                }
            })
            .collect()
    }
}

/// Build a PREDICT for `picks` from the pool.
fn predict_request(fx: &Fixture, picks: &[usize]) -> Request {
    Request::Predict {
        model: String::new(),
        rows: picks.iter().map(|&i| fx.pool[i].clone()).collect(),
    }
}

/// One client connection speaking the frame protocol directly.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl Conn {
    /// Connect to a server.
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_id: 1,
        })
    }

    /// Encode, send, receive and decode one request. With `marks`, record
    /// the instants after `Request::encode` and after `read_frame`.
    fn round_trip(
        &mut self,
        req: &Request,
        mut marks: Option<&mut [Instant; 2]>,
    ) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = req.encode_with_id(id).map_err(|e| e.to_string())?;
        if let Some(m) = marks.as_deref_mut() {
            m[0] = Instant::now();
        }
        write_frame(&mut self.writer, &payload).map_err(|e| e.to_string())?;
        let reply = read_frame(&mut self.reader)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        if let Some(m) = marks {
            m[1] = Instant::now();
        }
        let (echo, resp) = Response::decode_with_id(&reply).map_err(|e| e.to_string())?;
        if echo != id {
            return Err(format!("reply echoes request id {echo}, expected {id}"));
        }
        Ok(resp)
    }

    /// The server's STATS snapshot.
    fn stats(&mut self) -> Result<esp_serve::StatsSnapshot, String> {
        match self.round_trip(&Request::Stats, None)? {
            Response::Stats(s) => Ok(s),
            other => Err(format!("expected stats, got {other:?}")),
        }
    }
}

/// One op's timings (seconds) and check result.
#[derive(Debug)]
struct Op {
    /// PREDICT round trip.
    predict_s: f64,
    /// `Request::encode`, send-to-reply, and `Response::decode` within the
    /// PREDICT round trip (traced ops only).
    split_s: Option<[f64; 3]>,
    /// PROFILE round trip (`serve-feedback` only).
    profile_s: Option<f64>,
    /// Rows predicted.
    rows: usize,
    /// PROFILE records sent and applied.
    profiled: (u64, u64),
    /// Why the op failed its checks, if it did.
    error: Option<String>,
}

/// A running server with its client, fixture and request stream.
struct Session {
    fx: Fixture,
    server: ServerHandle,
    conn: Conn,
    stream: Stream,
    /// Outcomes sent over the server's life, and how many disagree with
    /// the served direction: the benchmark's own observed miss rate.
    observed: u64,
    mispredicted: u64,
    /// FNV-1a over every pool index sent, in order.
    stream_hash: u64,
}

impl Session {
    /// Set up a workload: build the fixture, start the server, connect,
    /// and run the warm-up ops. Returns the session and the warm-up ops'
    /// check results.
    fn start(kind: Kind, seed: u64) -> (Session, Vec<Result<(), String>>) {
        let fx = Fixture::build(kind, seed);
        let cfg = ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        };
        let server = serve(&fx.artifact, "127.0.0.1:0", &cfg).expect("start the server");
        let conn = Conn::connect(server.addr()).expect("connect to the server");
        let mut s = Session {
            fx,
            server,
            conn,
            stream: Stream::new(seed),
            observed: 0,
            mispredicted: 0,
            stream_hash: fnv1a(&[]),
        };
        let warm = (0..warmup_ops(kind))
            .map(|_| s.op(false).error.map_or(Ok(()), Err))
            .collect();
        (s, warm)
    }

    /// Run one op: a PREDICT and, on `serve-feedback`, the PROFILE of its
    /// outcomes. Requests are built before, and replies checked after,
    /// each round trip's clock.
    fn op(&mut self, traced: bool) -> Op {
        let picks = self.stream.next_picks(&self.fx);
        for &i in &picks {
            self.stream_hash = (self.stream_hash ^ i as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let req = predict_request(&self.fx, &picks);
        let mut marks = [Instant::now(); 2];
        let t0 = Instant::now();
        let resp = self.conn.round_trip(&req, traced.then_some(&mut marks));
        let t3 = Instant::now();
        let mut op = Op {
            predict_s: (t3 - t0).as_secs_f64(),
            split_s: traced.then(|| {
                [marks[0] - t0, marks[1] - marks[0], t3 - marks[1]].map(|d| d.as_secs_f64())
            }),
            profile_s: None,
            rows: picks.len(),
            profiled: (0, 0),
            error: None,
        };
        if let Err(e) = resp.and_then(|r| self.check_predictions(&picks, r)) {
            op.error = Some(e);
            return op;
        }
        if self.fx.kind == Kind::Feedback {
            let records = self.stream.outcomes(&self.fx, &picks);
            let mispredicted = records
                .iter()
                .zip(&picks)
                .filter(|(r, &i)| r.taken != (self.fx.expected[i] > 0.5))
                .count() as u64;
            let sent = records.len() as u64;
            let t0 = Instant::now();
            let resp = self.conn.round_trip(&Request::Profile(records), None);
            op.profile_s = Some(t0.elapsed().as_secs_f64());
            match resp {
                Ok(Response::Profiled(ack)) if ack.applied == sent && ack.unmatched == 0 => {
                    self.observed += sent;
                    self.mispredicted += mispredicted;
                    op.profiled = (sent, ack.applied);
                }
                Ok(other) => op.error = Some(format!("PROFILE of {sent} records got {other:?}")),
                Err(e) => op.error = Some(e),
            }
        }
        op
    }

    fn check_predictions(&self, picks: &[usize], resp: Response) -> Result<(), String> {
        let Response::Predictions(preds) = resp else {
            return Err(format!("expected predictions, got {resp:?}"));
        };
        if preds.len() != picks.len() {
            return Err(format!(
                "{} predictions for {} rows",
                preds.len(),
                picks.len()
            ));
        }
        for (p, &i) in preds.iter().zip(picks) {
            let want = self.fx.expected[i];
            if p.prob.to_bits() != want.to_bits() || p.taken != (want > 0.5) {
                return Err(format!(
                    "pool row {i}: served {:?}, in-process model gives {want}",
                    p
                ));
            }
        }
        Ok(())
    }

    /// The STATS check closing a `serve-feedback` run: the server ledger's
    /// observed miss rate equals the one computed here from the served
    /// probabilities and the outcomes sent.
    fn check_ledger(&mut self) -> Result<(), String> {
        let stats = self.conn.stats()?;
        let served = gauge_value(&stats.exposition, "esp_ledger_observed_miss_rate")
            .ok_or("STATS lacks esp_ledger_observed_miss_rate")?;
        let own = if self.observed == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.observed as f64
        };
        if (served - own).abs() > 1e-12 {
            return Err(format!(
                "ledger miss rate {served}, benchmark computes {own}"
            ));
        }
        Ok(())
    }

    /// Stop the server, wait for its threads, and hand back the fixture.
    fn shutdown(self) -> Fixture {
        self.server.shutdown();
        self.fx
    }
}

/// Set up once, check the warm-up ops, and shut down: the body of a
/// set-up probe.
pub(crate) fn setup_check(kind: Kind, seed: u64) -> Result<(), String> {
    let (session, warm) = Session::start(kind, seed);
    session.shutdown();
    warm.into_iter().collect()
}

/// The untimed op checks of the warm-up, counted into `report`.
fn count_warmup(report: &mut Report, warm: Vec<Result<(), String>>) {
    for w in warm {
        report.op(w);
    }
}

/// The untraced run: set up, then ops for `seconds`.
pub(crate) fn run(kind: Kind, seed: u64, seconds: f64, report: &mut Report) {
    let (mut s, warm) = Session::start(kind, seed);
    count_warmup(report, warm);
    let mut predict_ms = Vec::new();
    let mut rows = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let op = s.op(false);
        predict_ms.push(op.predict_s * 1e3);
        rows += op.rows;
        let failed = op.error.is_some();
        report.op(op.error.map_or(Ok(()), Err));
        if failed {
            break;
        }
    }
    let phase_s = start.elapsed().as_secs_f64();
    if kind == Kind::Feedback {
        let check = s.check_ledger();
        report.op(check);
    }
    s.shutdown();
    let n = predict_ms.len() as u64;
    report.metric("latency_p50_ms", median(&predict_ms), "ms", n);
    report.metric("rows_per_s", rows as f64 / phase_s, "1/s", n);
}

/// Server-side layer times replayed in-process (seconds) and their counts.
#[derive(Debug, Default, Clone)]
struct Replay {
    /// `Request::decode` of PREDICT payloads.
    decode_s: f64,
    /// `cache_key_into`.
    key_s: f64,
    /// `LruCache::get` and `LruCache::insert`.
    lookup_s: f64,
    /// `EspModel::predict_prob_encoded_batch` on the missed rows.
    predict_s: f64,
    /// `Ledger::record_served`.
    served_s: f64,
    /// `Ledger::record_outcome`.
    outcome_s: f64,
    /// `Response::encode`.
    encode_s: f64,
    /// PREDICT requests, rows, cache hits, cache misses and PROFILE
    /// records replayed in the timed window.
    requests: u64,
    /// See `requests`.
    rows: u64,
    /// See `requests`.
    hits: u64,
    /// See `requests`.
    misses: u64,
    /// See `requests`.
    records: u64,
}

impl Replay {
    /// Server-side seconds of the PREDICT path.
    fn predict_path_s(&self) -> f64 {
        self.decode_s + self.key_s + self.lookup_s + self.predict_s + self.served_s + self.encode_s
    }
}

/// An in-process copy of one shard's PREDICT and PROFILE handling: the
/// server's cache capacity and chunk size, and a ledger of its own.
struct Replica {
    model: EspModel,
    cache: LruCache,
    ledger: Ledger,
    chunk: usize,
    keys: Vec<Vec<u8>>,
}

impl Replica {
    fn new(fx: &Fixture) -> Replica {
        let cfg = ServeConfig::default();
        Replica {
            model: fx.artifact.to_model(),
            cache: LruCache::new(cfg.cache_capacity),
            ledger: Ledger::new(true),
            chunk: cfg.predict_chunk,
            keys: Vec::new(),
        }
    }

    /// Handle one PREDICT payload the way a shard does (all lookups, then
    /// the misses in `chunk`-row batches, then their inserts), timing each
    /// layer once per request. Returns the probabilities.
    fn predict(&mut self, payload: &[u8], t: &mut Replay) -> Result<Vec<f64>, String> {
        let t0 = Instant::now();
        let decoded = Request::decode(payload).map_err(|e| e.to_string())?;
        t.decode_s += t0.elapsed().as_secs_f64();
        let Request::Predict { rows, .. } = decoded else {
            return Err("replayed payload is not a PREDICT".into());
        };
        if self.keys.len() < rows.len() {
            self.keys.resize_with(rows.len(), Vec::new);
        }
        let t0 = Instant::now();
        for (key, r) in self.keys.iter_mut().zip(&rows) {
            cache_key_into(key, &r.row, &r.mask);
        }
        t.key_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut probs: Vec<f64> = Vec::with_capacity(rows.len());
        let mut missed: Vec<usize> = Vec::new();
        for (i, key) in self.keys[..rows.len()].iter().enumerate() {
            match self.cache.get(key) {
                Some(p) => probs.push(p),
                None => {
                    probs.push(f64::NAN);
                    missed.push(i);
                }
            }
        }
        t.lookup_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut computed = Vec::with_capacity(missed.len());
        for chunk in missed.chunks(self.chunk) {
            computed.extend(self.model.predict_prob_encoded_batch(
                chunk.iter().map(|&i| (&rows[i].row[..], &rows[i].mask[..])),
            ));
        }
        t.predict_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for (&i, &p) in missed.iter().zip(&computed) {
            self.cache.insert(&self.keys[i], p);
            probs[i] = p;
        }
        t.lookup_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for (key, &p) in self.keys.iter().zip(&probs) {
            self.ledger.record_served(key, p);
        }
        t.served_s += t0.elapsed().as_secs_f64();
        let preds = probs
            .iter()
            .map(|&prob| esp_serve::Prediction {
                prob,
                taken: prob > 0.5,
            })
            .collect();
        let t0 = Instant::now();
        let reply = Response::Predictions(preds).encode_with_id(0);
        t.encode_s += t0.elapsed().as_secs_f64();
        std::hint::black_box(reply);
        t.requests += 1;
        t.rows += rows.len() as u64;
        t.hits += (rows.len() - missed.len()) as u64;
        t.misses += missed.len() as u64;
        Ok(probs)
    }

    /// Apply one PROFILE batch to the ledger, timing `record_outcome`.
    fn profile(&mut self, records: &[ProfileRecord], t: &mut Replay) -> Result<(), String> {
        let t0 = Instant::now();
        let mut unmatched = 0;
        for r in records {
            if self.ledger.record_outcome(&r.site_key, r.taken, r.weight)
                == OutcomeRecord::Unmatched
            {
                unmatched += 1;
            }
        }
        t.outcome_s += t0.elapsed().as_secs_f64();
        t.records += records.len() as u64;
        if unmatched > 0 {
            return Err(format!(
                "{unmatched} replayed outcomes matched no served site"
            ));
        }
        Ok(())
    }
}

/// Replay the whole request stream of a traced run (warm-up, plain and
/// traced phases) through a [`Replica`], timing only the last `timed` ops.
/// Fails if a replayed probability differs from the in-process model's.
fn replay(fx: &Fixture, seed: u64, total: usize, timed: usize) -> Result<Replay, String> {
    let mut replica = Replica::new(fx);
    let mut stream = Stream::new(seed);
    let mut t = Replay::default();
    let mut scratch = Replay::default();
    for k in 0..total {
        let layer = if k + timed >= total {
            &mut t
        } else {
            &mut scratch
        };
        let picks = stream.next_picks(fx);
        let payload = predict_request(fx, &picks)
            .encode_with_id(k as u64 + 1)
            .map_err(|e| e.to_string())?;
        let probs = replica.predict(&payload, layer)?;
        for (p, &i) in probs.iter().zip(&picks) {
            if p.to_bits() != fx.expected[i].to_bits() {
                return Err(format!(
                    "replayed pool row {i}: {p}, in-process model gives {}",
                    fx.expected[i]
                ));
            }
        }
        if fx.kind == Kind::Feedback {
            let records = stream.outcomes(fx, &picks);
            replica.profile(&records, layer)?;
        }
    }
    Ok(t)
}

/// Ops per phase of a traced run: fixed by `seconds`, so exact counts
/// repeat for a given seed and run length.
fn traced_ops(kind: Kind, seconds: f64) -> usize {
    let per_s = match kind {
        Kind::Compile => 150.0,
        Kind::Feedback => 100.0,
    };
    ((seconds * per_s) as usize).max(50)
}

/// Exact counts of a traced run, which must repeat for a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// PREDICT requests, rows, cache hits and misses in the traced phase
    /// (STATS deltas).
    pub requests: u64,
    /// See `requests`.
    pub rows: u64,
    /// See `requests`.
    pub hits: u64,
    /// See `requests`.
    pub misses: u64,
    /// Distinct ledger sites at the end of the traced phase.
    pub sites: u64,
    /// PROFILE records sent and applied in the traced phase.
    pub profiled: (u64, u64),
    /// FNV-1a of every pool index the run's PREDICTs carried: tells
    /// request streams apart.
    pub stream: u64,
}

/// The traced run: warm-up, a plain phase and a traced phase of
/// [`traced_ops`] ops each, then the in-process replay of the server-side
/// layers. Adds the per-layer metrics to `report` and returns the exact
/// counts.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, report: &mut Report) -> Counts {
    let n = traced_ops(kind, seconds);
    let (mut s, warm) = Session::start(kind, seed);
    count_warmup(report, warm);
    let mut plain_ms = Vec::with_capacity(n);
    for _ in 0..n {
        let op = s.op(false);
        plain_ms.push(op.predict_s * 1e3);
        report.op(op.error.map_or(Ok(()), Err));
    }
    let before = s.conn.stats();
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(s.op(true));
    }
    let after = s.conn.stats();
    let errors = ops.iter().filter(|op| op.error.is_some()).count();
    for op in &ops {
        report.op(op.error.clone().map_or(Ok(()), Err));
    }
    if kind == Kind::Feedback {
        let check = s.check_ledger();
        report.op(check);
    }
    let stream = s.stream_hash;
    let fx = s.shutdown();
    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            report.op(Err(e));
            Default::default()
        }
    };
    let counts = Counts {
        requests: after.predict_requests - before.predict_requests,
        rows: after.predictions - before.predictions,
        hits: after.cache_hits - before.cache_hits,
        misses: after.cache_misses - before.cache_misses,
        sites: gauge_value(&after.exposition, "esp_ledger_sites").unwrap_or(0.0) as u64,
        profiled: ops
            .iter()
            .fold((0, 0), |(s, a), op| (s + op.profiled.0, a + op.profiled.1)),
        stream,
    };
    let replayed = replay(&fx, seed, warmup_ops(kind) + 2 * n, n).and_then(|r| {
        if (r.hits, r.misses) == (counts.hits, counts.misses) {
            Ok(r)
        } else {
            Err(format!(
                "replayed cache {} hits / {} misses, server {} / {}",
                r.hits, r.misses, counts.hits, counts.misses
            ))
        }
    });
    let r = match replayed {
        Ok(r) => {
            report.op(Ok(()));
            r
        }
        Err(e) => {
            report.op(Err(e));
            Replay::default()
        }
    };

    let split_us = |k: usize| -> Vec<f64> {
        ops.iter()
            .filter_map(|op| op.split_s.map(|s| s[k] * 1e6))
            .collect()
    };
    let (encode_us, wait_us, decode_us) = (split_us(0), split_us(1), split_us(2));
    let traced_ms: Vec<f64> = ops.iter().map(|op| op.predict_s * 1e3).collect();
    let profile_ms: Vec<f64> = ops
        .iter()
        .filter_map(|op| op.profile_s.map(|x| x * 1e3))
        .collect();
    let per = |secs: f64, n: u64, scale: f64| if n == 0 { 0.0 } else { secs * scale / n as f64 };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let nops = ops.len() as u64;
    let lookups = counts.hits + counts.misses;
    let overhead_us = (median(&traced_ms) - median(&plain_ms)) * 1e3;
    let residual_us = mean(&wait_us) - per(r.predict_path_s(), r.requests, 1e6);
    for (name, value, unit, samples) in [
        ("client.encode_us", median(&encode_us), "us", nops),
        ("client.wait_us", median(&wait_us), "us", nops),
        ("client.decode_us", median(&decode_us), "us", nops),
        ("client.p90_ms", quantile(&traced_ms, 0.90), "ms", nops),
        ("client.p99_ms", quantile(&traced_ms, 0.99), "ms", nops),
        (
            "client.profile_p50_ms",
            median(&profile_ms),
            "ms",
            profile_ms.len() as u64,
        ),
        ("trace.overhead_us", overhead_us, "us", nops),
        (
            "serve.protocol.decode_ns_per_row",
            per(r.decode_s, r.rows, 1e9),
            "ns",
            r.requests,
        ),
        (
            "serve.cache.key_ns_per_row",
            per(r.key_s, r.rows, 1e9),
            "ns",
            r.rows,
        ),
        (
            "serve.cache.lookup_ns_per_row",
            per(r.lookup_s, r.rows, 1e9),
            "ns",
            r.rows + r.misses,
        ),
        (
            "nnet.predict_ns_per_row",
            per(r.predict_s, r.misses, 1e9),
            "ns",
            r.misses,
        ),
        (
            "obs.ledger.served_ns_per_row",
            per(r.served_s, r.rows, 1e9),
            "ns",
            r.rows,
        ),
        (
            "obs.ledger.outcome_ns_per_record",
            per(r.outcome_s, r.records, 1e9),
            "ns",
            r.records,
        ),
        (
            "serve.protocol.encode_ns_per_row",
            per(r.encode_s, r.rows, 1e9),
            "ns",
            r.requests,
        ),
        (
            "serve.server.residual_us_per_req",
            residual_us,
            "us",
            r.requests,
        ),
        ("serve.requests", counts.requests as f64, "count", 1),
        ("serve.rows", counts.rows as f64, "count", 1),
        ("serve.errors", errors as f64, "count", nops),
        ("serve.cache.hits", counts.hits as f64, "count", 1),
        ("serve.cache.misses", counts.misses as f64, "count", 1),
        (
            "serve.cache.hit_ratio",
            ratio(counts.hits, lookups),
            "ratio",
            lookups,
        ),
        (
            "obs.ledger.join_ratio",
            ratio(counts.profiled.1, counts.profiled.0),
            "ratio",
            counts.profiled.0,
        ),
        ("obs.ledger.sites", counts.sites as f64, "count", 1),
    ] {
        report.metric(name, value, unit, samples);
    }
    counts
}
