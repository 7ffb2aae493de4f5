//! The global SEU fault-injection flow for digital, analog and mixed-signal
//! circuits — the primary contribution of *Leveugle & Ammari, DATE 2004*.
//!
//! The flow (the paper's Fig. 3):
//!
//! 1. **Instrumentation** — digital blocks expose mutants (state-bit flips,
//!    [`amsfi_digital`]); analog blocks take saboteurs (current-pulse
//!    summation on interconnect nodes, [`amsfi_analog`]).
//! 2. **Fault-injection set-up** — [`plan`] builds the fault list: targets ×
//!    injection times × pulse parameter ranges.
//! 3. **Mixed-mode simulation** — each case runs in a fresh instance of the
//!    circuit (built by a caller-supplied closure); the `amsfi-engine` crate
//!    runs the golden run and the fault cases in parallel.
//! 4. **Results analysis** — traces are compared against the golden run with
//!    an analog tolerance and classified ([`classify`], [`FaultClass`]).
//! 5. **Outputs** — failure reports ([`report`]) and the error-propagation
//!    behavioural model ([`PropagationModel`]).
//!
//! # Example
//!
//! Classifying a miniature digital campaign over a toy circuit by hand: one
//! golden run, one faulty run per mutant target (`amsfi-engine` runs this
//! loop in parallel; see `amsfi-bench` for the full PLL campaigns of the
//! paper's figures):
//!
//! ```
//! use amsfi_core::{classify, report, CampaignResult, CaseResult, ClassifySpec, FaultCase, FaultClass};
//! use amsfi_digital::{cells, Netlist, Simulator};
//! use amsfi_waves::{Logic, Time};
//!
//! fn build() -> (Simulator, Vec<amsfi_digital::MutantTarget>) {
//!     let mut net = Netlist::new();
//!     let clk = net.signal("clk", 1);
//!     let rst = net.signal("rst", 1);
//!     let en = net.signal("en", 1);
//!     let q = net.signal("q", 4);
//!     net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
//!     net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
//!     net.add("e", cells::ConstVector::bit(Logic::One), &[], &[en]);
//!     net.add("ctr", cells::Counter::new(4, Time::ZERO), &[clk, rst, en], &[q]);
//!     let targets = net.mutant_targets();
//!     let mut sim = Simulator::new(net);
//!     sim.monitor_name("q");
//!     (sim, targets)
//! }
//!
//! let (at, t_end) = (Time::from_ns(55), Time::from_us(1));
//! let spec = ClassifySpec::new((Time::ZERO, t_end), (0..4).map(|i| format!("q[{i}]")).collect());
//! let (mut sim, targets) = build();
//! sim.run_until(t_end)?;
//! let golden = sim.into_trace();
//! let mut cases = Vec::new();
//! for target in &targets {
//!     let (mut sim, _) = build();
//!     sim.run_until(at)?;
//!     sim.flip_state(target.component, target.bit);
//!     sim.run_until(t_end)?;
//!     let outcome = classify(&spec, &golden, &sim.into_trace());
//!     cases.push(CaseResult { case: FaultCase::new(target.to_string(), at), outcome });
//! }
//! let result = CampaignResult { golden, cases };
//! // A counter never heals a flipped bit: every SEU is a failure.
//! assert_eq!(result.summary()[3], (FaultClass::Failure, 4));
//! println!("{}", report::summary_table(&result));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod classify;
mod failure;
pub mod identity;
mod online;
pub mod plan;
mod propagation;
pub mod report;

pub use campaign::{CampaignResult, CaseResult, FaultCase};
pub use classify::{classify, CaseOutcome, ClassifySpec, FaultClass, ParseFaultClassError};
pub use failure::{ParseSimFailureError, SimFailure};
pub use identity::{fingerprint, CampaignTag};
pub use online::OnlineClassifier;
pub use propagation::{PropagationEdge, PropagationModel};
