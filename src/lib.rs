//! # triad — coordinated core-configuration + DVFS + cache-partitioning RM
//!
//! A from-scratch Rust reproduction of **Nejat, Manivannan, Pericàs,
//! Stenström, "Coordinated Management of Processor Configuration and Cache
//! Partitioning to Optimize Energy under QoS Constraints" (IPDPS 2020)**:
//! an online resource manager that jointly tunes, per core, the
//! micro-architecture size (S/M/L), the voltage/frequency point and the
//! share of a way-partitioned shared LLC, minimizing system energy while
//! keeping every application at least as fast as a fixed baseline.
//!
//! This crate re-exports the subsystem crates:
//!
//! * [`arch`] — Table I architecture description;
//! * [`trace`] — the 27 synthetic SPEC CPU2006 stand-ins;
//! * [`cache`] — LRU caches, the ATD, and the leading-miss MLP monitor
//!   (the paper's hardware contribution, Fig. 4);
//! * [`mem`] — the DRAM latency/bandwidth/contention model;
//! * [`uarch`] — the mechanistic out-of-order timing model;
//! * [`energy`] — McPAT-style power models;
//! * [`phasedb`] — the detailed-simulation database over all
//!   configurations;
//! * [`rm`] — the RM itself (package `triad-rm`): Models 1/2/3, QoS,
//!   local + global optimizers, controllers RM1/RM2/RM3;
//! * [`workload`] — workloads as time-varying programs: the §IV-C mix
//!   generator plus phased/bursty/churn/scaled [`workload::WorkloadSpec`]s
//!   materialized into replayable [`workload::WorkloadTrace`]s;
//! * [`sim`] — the interval-event RM simulator, the parallel
//!   [`sim::campaign`] orchestration layer, and every experiment of §V.
//!
//! ## Quickstart
//!
//! ```no_run
//! use triad::phasedb::{DbConfig, DbStore};
//! use triad::rm::RmKind;
//! use triad::sim::{Campaign, ExperimentSpec};
//!
//! // Detailed simulation of two applications over every configuration,
//! // resolved through the content-addressed store: built and persisted
//! // once, then loaded from the cache (the full 27-app artifact loads in
//! // about 25 ms against a 1.3 s build on a 2-core x86-64 Xeon).
//! // `suite()` borrows the process-wide table; clone the subset to own it.
//! let apps: Vec<_> = triad::trace::suite()
//!     .iter()
//!     .filter(|a| ["mcf", "povray"].contains(&a.name))
//!     .cloned()
//!     .collect();
//! let db = DbStore::default_cache().resolve(&apps, &DbConfig::default()).db;
//!
//! // Replay them on a 2-core system under each controller; the campaign
//! // runs the specs in parallel against one shared idle baseline.
//! let specs = [RmKind::Rm1, RmKind::Rm2, RmKind::Rm3]
//!     .map(|rm| ExperimentSpec::new(rm.label(), &["mcf", "povray"]).rm(Some(rm)).perfect());
//! for row in Campaign::new(specs.to_vec()).run(&db) {
//!     println!("{}: energy savings {:.1}%", row.spec.name, 100.0 * row.savings);
//! }
//! ```
//!
//! The `triad-bench` binary drives the same machinery from the command
//! line (`triad-bench --experiment fig6 --cores 8 --json out.json`).

pub use triad_arch as arch;
pub use triad_cache as cache;
pub use triad_energy as energy;
pub use triad_mem as mem;
pub use triad_phasedb as phasedb;
pub use triad_rm as rm;
pub use triad_sim as sim;
pub use triad_trace as trace;
pub use triad_uarch as uarch;
pub use triad_workload as workload;
