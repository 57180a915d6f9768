//! # joss-platform — simulated asymmetric multicore platform ("SimTX2")
//!
//! The JOSS paper evaluates on an NVIDIA Jetson TX2: an asymmetric CPU with a
//! dual-core high-performance ("Denver") cluster and a quad-core
//! lower-performance ("A57") cluster, cluster-wide CPU DVFS, memory (EMC/DRAM)
//! DVFS, and an INA3221 power sensor sampled every 5 ms.
//!
//! This crate is the hardware substitute: a deterministic, analytic model of
//! such a platform that exposes exactly the knobs the paper's runtime tunes:
//!
//! * **TC** — core type (cluster) a task runs on,
//! * **NC** — number of cores used by a moldable task,
//! * **fC** — per-cluster CPU frequency (all cores of a cluster share it),
//! * **fM** — memory frequency.
//!
//! The ground-truth machine model ([`machine`]) maps a task's computational
//! shape (operation count, DRAM traffic, scalability) and a knob configuration
//! to an execution time and CPU/memory power draw, with deterministic
//! measurement noise ([`noise`]) so that regression models trained against it
//! exhibit realistic (non-perfect) accuracy, mirroring the paper's reported
//! 97% / 90% / 80% model accuracies.
//!
//! Virtual time ([`time`]), DVFS controllers ([`dvfs`]), power rails and the
//! sampling sensor ([`power`]) complete the substrate that the `joss-core`
//! runtime schedules against.

pub mod config;
pub mod dvfs;
pub mod energy;
pub mod machine;
pub mod noise;
pub mod power;
pub mod tables;
pub mod time;
pub mod topology;

pub use config::{ConfigSpace, CoreType, FreqIndex, KnobConfig, NcIndex};
pub use dvfs::{DvfsController, DvfsDomain, DvfsRequest};
pub use energy::EnergyAccount;
pub use machine::{ExecContext, ExecSample, MachineModel, MachineParams, OpPoint, TaskShape};
pub use noise::NoiseModel;
pub use power::{PowerSensor, PowerTrace, RailSample};
pub use tables::PowerTables;
pub use time::{Duration, SimTime};
pub use topology::{ClusterSpec, PlatformSpec};

/// Crate version, re-exported for reports.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
