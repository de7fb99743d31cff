//! End-to-end and per-layer benchmark of the HMC fabric simulator.
//!
//! The benchmark drives the simulator only through its public API: the
//! end-to-end pass times `FabricSim::run_gups` calls, and the traced pass
//! times loops over each layer crate's public functions. See
//! `README.md` for the workloads, the metrics and how to run it.

pub mod e2e;
pub mod layers;
pub mod machine;
pub mod report;
pub mod run;
pub mod suite;
pub mod traced;
