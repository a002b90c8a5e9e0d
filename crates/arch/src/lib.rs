//! # triad-arch — architecture description (Table I of the paper)
//!
//! This crate is the single source of truth for the hardware platform that
//! every other `triad` crate simulates or manages:
//!
//! * the three adaptive core sizes **S / M / L** (issue width, ROB,
//!   reservation stations, load/store queue) — [`CoreSize`];
//! * the per-core **DVFS** operating-point grid (1.0–3.25 GHz, 0.8–1.25 V)
//!   — [`DvfsGrid`] / [`VfPoint`];
//! * the **cache geometry** (private L1I/L1D and L2, shared way-partitioned
//!   LLC) — [`CacheGeometry`];
//! * the per-core **resource setting** tuple `(c, f, w)` managed by the
//!   resource manager — [`Setting`];
//! * the **system configuration** (core count, grid, geometry, baseline
//!   setting) — [`SystemConfig`] — next to the paper's fixed QoS slack
//!   [`QOS_ALPHA`] and interval length [`INTERVAL_INSTRUCTIONS`].
//!
//! All values default to Table I of Nejat et al. (IPDPS 2020). The paper's
//! baseline is a mid-range setting: M-sized cores at 2 GHz / 1 V with an even
//! LLC distribution of 8 ways (2 MB) per core.

pub mod core_size;
pub mod dvfs;
pub mod geometry;
pub mod setting;
pub mod system;

pub use core_size::{CoreParams, CoreSize};
pub use dvfs::{DvfsGrid, VfIndex, VfPoint, DVFS_TRANSITION_ENERGY_J, DVFS_TRANSITION_TIME_S};
pub use geometry::{CacheGeometry, CacheLevelGeometry, BLOCK_BYTES};
pub use setting::Setting;
pub use system::{CoreId, SystemConfig, INTERVAL_INSTRUCTIONS, QOS_ALPHA};
