//! Shard workers: a plain compute pool behind channels.
//!
//! The reactor answers cache hits itself and hands only the misses of a
//! predict batch here, split into contiguous runs of at most
//! `predict_chunk` rows. Each run is one job, queued on the worker with the
//! fewest jobs outstanding. A worker runs the batched kernel over its run
//! and fills that job's own slot of the request's [`PredictJoin`]; the
//! reactor completes the response once every slot is filled. Runs are
//! concatenated in slot order, so results come back in miss order however
//! the workers interleave — and because the batched kernel is bitwise
//! deterministic per row, neither the worker count nor the chunk size can
//! change a served probability.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Instant;

use crate::models::ModelEntry;
use crate::protocol::PredictRow;
use crate::server::Shared;

/// Join state for one in-flight predict request: one slot per compute job,
/// each filled exactly once by the worker that ran it.
pub(crate) struct PredictJoin {
    slots: Vec<OnceLock<Vec<f64>>>,
}

impl PredictJoin {
    /// True once every job has filled its slot.
    pub fn complete(&self) -> bool {
        self.slots.iter().all(|s| s.get().is_some())
    }

    /// The computed probabilities in miss order. Only meaningful once
    /// [`PredictJoin::complete`] holds.
    pub fn probs(&self) -> impl Iterator<Item = f64> + '_ {
        self.slots
            .iter()
            .flat_map(|s| s.get().expect("predict join complete"))
            .copied()
    }
}

/// One contiguous run of a request's cache misses.
struct Job {
    entry: Arc<ModelEntry>,
    rows: Vec<PredictRow>,
    join: Arc<PredictJoin>,
    slot: usize,
}

/// The compute workers. Owned by the reactor thread: senders never cross
/// threads, and the reactor stops and joins the workers when it drains.
pub(crate) struct ShardPool {
    senders: Vec<mpsc::Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ShardPool {
    /// Spawn one worker per entry of `shared.queue_depth`.
    pub fn spawn(shared: &Arc<Shared>) -> ShardPool {
        let workers = shared.queue_depth.len();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::channel();
            let worker_shared = Arc::clone(shared);
            let handle = std::thread::Builder::new()
                .name(format!("esp-serve-shard-{i}"))
                .spawn(move || worker_loop(&worker_shared, rx, i))
                .expect("spawn shard worker");
            senders.push(tx);
            handles.push(handle);
        }
        ShardPool { senders, handles }
    }

    /// Queue a request's cache misses (in miss order) as runs of at most
    /// `predict_chunk` rows and return the join the reactor polls.
    pub fn dispatch(
        &self,
        shared: &Shared,
        entry: &Arc<ModelEntry>,
        rows: Vec<PredictRow>,
    ) -> Arc<PredictJoin> {
        let jobs = rows.len().div_ceil(shared.predict_chunk);
        let join = Arc::new(PredictJoin {
            slots: (0..jobs).map(|_| OnceLock::new()).collect(),
        });
        let mut rows = rows.into_iter();
        for slot in 0..jobs {
            let worker = (0..self.senders.len())
                .min_by_key(|&w| shared.queue_depth[w].load(Ordering::Relaxed))
                .expect("at least one worker");
            shared.queue_depth[worker].fetch_add(1, Ordering::Relaxed);
            let _ = self.senders[worker].send(Job {
                entry: Arc::clone(entry),
                rows: rows.by_ref().take(shared.predict_chunk).collect(),
                join: Arc::clone(&join),
                slot,
            });
        }
        join
    }

    /// Close every channel and join the workers. Each worker finishes the
    /// jobs already queued before its `recv` reports the hang-up, so
    /// pending requests complete before the pool dies.
    pub fn stop(self) {
        drop(self.senders);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, rx: mpsc::Receiver<Job>, index: usize) {
    while let Ok(job) = rx.recv() {
        let start = Instant::now();
        let mut sp = esp_obs::span!("serve", "predict_shard", rows = job.rows.len());
        let probs = job
            .entry
            .model
            .predict_prob_encoded_batch(job.rows.iter().map(|r| (&r.row[..], &r.mask[..])));
        shared
            .metrics
            .record_predict_compute_us(start.elapsed().as_micros() as u64);
        if sp.is_enabled() {
            sp.arg("shard", index);
        }
        let _ = job.join.slots[job.slot].set(probs);
        shared.queue_depth[index].fetch_sub(1, Ordering::Relaxed);
    }
}
