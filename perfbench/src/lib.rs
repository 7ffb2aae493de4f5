//! Seeded benchmark of the amsfi fault-injection engine and fleet.
//!
//! One invocation runs one workload ([`workloads::Workload`]) generated
//! from a seed, checks every verdict against the scalar from-scratch
//! reference ([`oracle`]), and reports either the end-to-end metrics or,
//! in a traced run, the per-layer metrics ([`run`]). See `README.md` in
//! this directory for the workloads, metrics and findings.

pub mod host;
pub mod oracle;
pub mod probe;
pub mod run;
pub mod spans;
pub mod workloads;
