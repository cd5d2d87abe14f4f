//! End-to-end and per-layer benchmark for the adhoc-radio workspace.
//!
//! The binary (`src/main.rs`) times three workloads through the public
//! API only and checks their outputs; see `README.md` beside this crate
//! for the workloads, the metric glossary and how to run it.

pub mod broadcast;
pub mod campaign;
pub mod host;
pub mod layers;
pub mod measure;
pub mod probe;
