//! The pnp benchmark: end-to-end and per-layer measurements of the
//! checker, driven only through its public entry points. See `README.md`
//! for the workloads, the metrics and what each should move.

pub mod report;
pub mod specs;
pub mod stats;
pub mod storage;
pub mod trace;
pub mod workloads;
