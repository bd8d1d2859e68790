//! The three benchmark workloads: what each runs, and how its set-up and
//! its run are driven through the library's public API.
//!
//! Every scenario pins its engine, partition and event queue through
//! `Scenario::with_shards` / `with_partition` / `with_event_queue`, so no
//! host default (core count, node-count thresholds) chooses them.

use crate::refs::DEFAULT_SEED;
use egm_core::StrategySpec;
use egm_simnet::{PartitionStrategy, QueueKind};
use egm_topology::{RoutedModel, TransitStubConfig};
use egm_workload::experiments::fig5a::RADIUS_MS;
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::experiments::{base_scenario, Scale};
use egm_workload::runner::{self, RunOutcome, RunSetup};
use egm_workload::{Scenario, TopologySource};
use std::sync::Arc;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 5(a) strategy sweep at paper scale through `run_sweep`.
    PaperSweep,
    /// The 1k preset on the sharded engine, W=2 domain-aligned, with the
    /// single-threaded window driver (see `host::pin_process_env`).
    Shard1k,
    /// The 100k preset on the sequential engine.
    Scale100k,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::PaperSweep, Workload::Shard1k, Workload::Scale100k];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::Shard1k => "shard1k",
            Workload::Scale100k => "scale100k",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-up repetitions per benchmark run, about 0.3 s, 1 s and 13 s of
    /// set-up. A fixed count rather than a time budget keeps the heap's
    /// history, and with it peak RSS, the same from run to run.
    pub fn setups(self) -> usize {
        match self {
            Workload::PaperSweep => 100,
            Workload::Shard1k => 50,
            Workload::Scale100k => 3,
        }
    }

    /// Why the workload is in the benchmark (one line, for the manifest).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSweep => {
                "the cost of reproducing Fig. 5(a): 13 cache-resident 100-node runs with the \
                 heap queue, where protocol dispatch and fixed per-run costs dominate"
            }
            Workload::Shard1k => {
                "1k preset at W=2 domain-aligned, single-threaded window driver: the smallest \
                 size the default engine shards, so window planning, lane exchange and shard \
                 merge weigh most"
            }
            Workload::Scale100k => {
                "100k preset, sequential: set-up and teardown dominate, and only here do the \
                 traffic spool and collect's per-node passes run at scale"
            }
        }
    }
}

/// How large a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few hundred nodes with the same engine, queue and layers; for
    /// the benchmark's self-test.
    Tiny,
}

/// Multicasts per run of the 1k workload.
const MESSAGES_1K: usize = 30;
/// Multicasts per run of the 100k workload.
const MESSAGES_100K: usize = 5;
/// Nodes of every preset workload at [`Size::Tiny`].
const TINY_NODES: usize = 300;
/// Multicasts of every preset workload at [`Size::Tiny`].
const TINY_MESSAGES: usize = 3;
/// Worker shards of `shard1k`.
const SHARD1K_WIDTH: usize = 2;
/// Seed of every workload's network model, whatever `--seed` is. The
/// topology is part of the workload: measured on the 10k preset at W=2,
/// the topologies of different seeds differ by 7 % in events and 15 % in
/// peak RSS, which would read as run-to-run spread. `--seed` still
/// drives everything that runs on the model (ranking, views, node and
/// network randomness, multicast sources).
pub const TOPOLOGY_SEED: u64 = DEFAULT_SEED;

/// The scenarios one workload runs, all over one network model.
#[derive(Debug, Clone)]
pub struct Plan {
    /// One scenario per run, in sweep order.
    pub scenarios: Vec<Scenario>,
}

/// The state a plan builds before its first event: the network model
/// and one prepared setup per distinct rank configuration.
#[derive(Debug)]
pub struct Prepared {
    model: Arc<RoutedModel>,
    setups: Vec<RunSetup>,
}

impl Plan {
    /// The plan of `workload` at `size`, seeded with `seed`.
    pub fn new(workload: Workload, size: Size, seed: u64) -> Plan {
        let scenarios = match workload {
            Workload::PaperSweep => {
                let scale = match size {
                    Size::Full => Scale::paper(),
                    Size::Tiny => Scale {
                        nodes: 20,
                        messages: 20,
                        seed,
                    },
                };
                paper_sweep(&Scale { seed, ..scale })
            }
            Workload::Shard1k => vec![preset(
                ScalePreset::N1k,
                MESSAGES_1K,
                seed,
                size,
                SHARD1K_WIDTH,
            )],
            Workload::Scale100k => vec![preset(ScalePreset::N100k, MESSAGES_100K, seed, size, 0)],
        };
        Plan { scenarios }
    }

    /// This plan with every scenario moved to the sequential engine,
    /// whose report `shard1k` must reproduce byte for byte.
    pub fn sequential(&self) -> Plan {
        Plan {
            scenarios: self
                .scenarios
                .iter()
                .map(|s| s.clone().with_shards(Some(0)))
                .collect(),
        }
    }

    /// Builds the model and prepares one setup per distinct rank
    /// configuration (ranking plus view bootstrap), as `run_sweep` shares
    /// them. This is everything the benchmark times as `setup_s`.
    pub fn setup(&self) -> Prepared {
        self.prepare(Arc::new(self.build_model()))
    }

    /// The network model every scenario of the plan runs on, built from
    /// [`TOPOLOGY_SEED`].
    pub fn build_model(&self) -> RoutedModel {
        self.scenarios[0]
            .clone()
            .with_seed(TOPOLOGY_SEED)
            .build_model()
    }

    /// The `runner::prepare` half of [`Plan::setup`], over a built model.
    pub fn prepare(&self, model: Arc<RoutedModel>) -> Prepared {
        let mut seen = Vec::new();
        let mut setups = Vec::new();
        for scenario in &self.scenarios {
            let rank = scenario.strategy.best_fraction().map(f64::to_bits);
            if !seen.contains(&rank) {
                seen.push(rank);
                setups.push(runner::prepare(scenario, Some(model.clone())));
            }
        }
        Prepared { model, setups }
    }

    /// One run after set-up: `run_prepared` for a single scenario, the
    /// whole `run_sweep` call for a sweep (which shares its setups
    /// internally, so the prepared ones serve only the single-scenario
    /// workloads).
    pub fn run(&self, prepared: &Prepared) -> Vec<RunOutcome> {
        match self.scenarios.as_slice() {
            [scenario] => vec![runner::run_prepared(scenario, &prepared.setups[0])],
            _ => runner::run_sweep(self.scenarios.clone(), Some(prepared.model.clone())),
        }
    }

    /// The prepared setup of `scenario` (the one with its rank
    /// configuration).
    pub fn setup_for<'a>(&self, prepared: &'a Prepared, scenario: &Scenario) -> &'a RunSetup {
        let has_best = scenario.strategy.best_fraction().is_some();
        prepared
            .setups
            .iter()
            .find(|s| s.best().is_some() == has_best)
            .expect("a setup was prepared for every rank configuration")
    }
}

/// The Fig. 5(a) sweep: Flat π, TTL u, Radius ρ and Ranked best=20 %,
/// sequential engine and heap queue (the size-based default below 512
/// nodes, pinned here).
fn paper_sweep(scale: &Scale) -> Vec<Scenario> {
    let mut strategies: Vec<StrategySpec> = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .map(|pi| StrategySpec::Flat { pi })
        .collect();
    strategies.extend([2, 3, 4].map(|u| StrategySpec::Ttl { u }));
    strategies.extend(RADIUS_MS.map(|rho| StrategySpec::Radius { rho, t0_ms: rho }));
    strategies.push(StrategySpec::Ranked { best_fraction: 0.2 });
    strategies
        .into_iter()
        .map(|strategy| {
            pin(
                base_scenario(scale).with_strategy(strategy),
                0,
                QueueKind::Heap,
            )
        })
        .collect()
}

/// A scale preset's scenario on `shards` workers (0 = sequential) with
/// the calendar queue; [`Size::Tiny`] swaps in a small topology and
/// spill threshold but keeps every other preset setting.
fn preset(p: ScalePreset, messages: usize, seed: u64, size: Size, shards: usize) -> Scenario {
    let mut s = p.scenario(messages, seed);
    if size == Size::Tiny {
        s.topology = TopologySource::TransitStub(TransitStubConfig::scaled(TINY_NODES));
        s.link_spill_threshold = s.link_spill_threshold.map(|_| TINY_NODES * 256);
        s.messages = TINY_MESSAGES;
    }
    pin(s, shards, QueueKind::Calendar)
}

fn pin(s: Scenario, shards: usize, queue: QueueKind) -> Scenario {
    s.with_shards(Some(shards))
        .with_partition(Some(PartitionStrategy::DomainAligned))
        .with_event_queue(Some(queue))
}
