//! The repository benchmark.
//!
//! It drives the simulator library from outside, through its public
//! API (`Scenario` builders, `runner::{prepare, run_prepared,
//! run_prepared_observed, run_sweep}`, `RankSource::best_set`,
//! `bootstrap_views`, `Scenario::build_model`), on three workloads (see
//! [`workload::Workload`]). One run of the binary measures one workload
//! for `--seconds`, checks every run's simulated outputs and prints one
//! JSON result line; `--workload all` runs every workload, each in its
//! own process so peak RSS stays per workload.
//!
//! * Untraced (`--trace 0`): the end-to-end metrics `setup_s`, `run_s`,
//!   `events_per_s` and `peak_rss_mb` ([`metrics::END_TO_END`]).
//! * Traced (`--trace 1`): the same timed runs, then the set-up
//!   functions timed alone, one `shard1k` run on the threaded window
//!   driver, and one run observed through a recording progress sink,
//!   reporting the per-layer metrics ([`metrics::PER_LAYER`]) and the
//!   tracing overhead.
//!
//! Every timed run is single-threaded (see [`host::pin_process_env`]).
//! `--describe` lists every metric with its unit, its direction and the
//! end-to-end metric it should move on which workload.

pub mod bench;
pub mod check;
pub mod host;
pub mod metrics;
pub mod refs;
pub mod trace;
pub mod workload;
