//! Trace-driven dynamic-branch-predictor arena.
//!
//! The paper's headline numbers compare *static* schemes (heuristics, ESP)
//! against each other; the natural follow-up question is how far any static
//! scheme sits from cheap *dynamic* hardware prediction, and whether the
//! corpus-learned prior still helps once hardware is in play. This crate
//! answers both with a deterministic trace-driven simulation:
//!
//! 1. [`collect_trace`] runs a program through the `esp-exec` interpreter
//!    with a streaming [`esp_exec::BranchSink`] attached, recording every
//!    dynamic conditional-branch outcome in execution order into a
//!    run-length-packed [`Trace`] (cacheable on disk as `.esptrace`,
//!    checksummed and versioned like `esp-artifact` models).
//! 2. [`replay_arena`] steps the trace through an arena of predictors —
//!    static per-site schemes plus [`Bimodal`], [`Gshare`], [`Tage`] and
//!    the ESP-seeded TAGE hybrid ([`Tage::with_seeded_base`]), whose base
//!    table starts from the trained network's per-site taken-probabilities
//!    instead of cold counters — and tallies whole-trace and
//!    warmup-window misses per scheme.
//!
//! Everything is std-only, `forbid(unsafe_code)`, and deterministic: no
//! clocks, no RNG (TAGE allocation is first-fit), so two replays of the
//! same trace are bitwise identical (`replay_arena_is_deterministic`
//! pins exactly that).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bimodal;
mod gshare;
mod predictor;
mod tage;
mod trace;

pub use arena::{replay_arena, ArenaConfig, ArenaResult, SchemeResult, StaticScheme};
pub use bimodal::Bimodal;
pub use gshare::Gshare;
pub use predictor::Predictor;
pub use tage::{Tage, TageConfig};
pub use trace::{
    collect_trace, Trace, TraceBuilder, TraceError, TRACE_FORMAT_VERSION, TRACE_HEADER_LEN,
    TRACE_MAGIC,
};
