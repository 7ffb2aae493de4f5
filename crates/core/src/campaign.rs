//! Fault cases and campaign results.
//!
//! A campaign is the paper's "fault injection set-up" plus the run loop:
//! a golden run, then one instrumented run per fault case, each compared
//! against the golden trace and classified. The run loop itself lives in
//! `amsfi-engine`; this module holds what it consumes and produces.

use crate::classify::{CaseOutcome, FaultClass};
use amsfi_waves::{Time, Trace};
use std::fmt;

/// One fault case of a campaign: an opaque index interpreted by the caller's
/// run closure, plus presentation metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCase {
    /// Human-readable target/fault description (appears in reports).
    pub label: String,
    /// Injection instant, used for latency statistics.
    pub injected_at: Time,
}

impl FaultCase {
    /// Creates a case.
    pub fn new(label: impl Into<String>, injected_at: Time) -> Self {
        FaultCase {
            label: label.into(),
            injected_at,
        }
    }
}

impl fmt::Display for FaultCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.label, self.injected_at)
    }
}

/// The result of one classified fault case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// The case that was injected.
    pub case: FaultCase,
    /// Measurement and verdict.
    pub outcome: CaseOutcome,
}

/// The result of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The golden (fault-free) trace.
    pub golden: Trace,
    /// Per-case results, in case order.
    pub cases: Vec<CaseResult>,
}

impl CampaignResult {
    /// Counts of cases per class, in [`FaultClass::ALL`] order (no-effect,
    /// latent, transient, failure, sim-failure).
    pub fn summary(&self) -> [(FaultClass, usize); FaultClass::ALL.len()] {
        let mut counts = FaultClass::ALL.map(|class| (class, 0));
        for c in &self.cases {
            let idx = FaultClass::ALL
                .iter()
                .position(|&k| k == c.outcome.class)
                .expect("every class is in ALL");
            counts[idx].1 += 1;
        }
        counts
    }

    /// Cases with a given verdict.
    pub fn with_class(&self, class: FaultClass) -> impl Iterator<Item = &CaseResult> {
        self.cases.iter().filter(move |c| c.outcome.class == class)
    }

    /// Appends another result's cases to this one (keeping this golden
    /// trace), e.g. to combine the shards of a distributed campaign.
    ///
    /// The caller is responsible for merge order; for a deterministic merge
    /// of interleaved shards, append in shard order and then restore the
    /// original case order (the `amsfi-engine` journal does this by case
    /// index).
    pub fn merge(&mut self, other: CampaignResult) {
        self.cases.extend(other.cases);
    }

    /// Mean error latency over cases whose outputs diverged.
    pub fn mean_latency(&self) -> Option<Time> {
        let latencies: Vec<Time> = self
            .cases
            .iter()
            .filter_map(|c| c.outcome.latency_from(c.case.injected_at))
            .collect();
        if latencies.is_empty() {
            return None;
        }
        Some(latencies.iter().copied().sum::<Time>() / latencies.len() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ClassifySpec};
    use amsfi_waves::Logic;

    /// A toy "circuit": case i corrupts the output iff i is odd; case 4
    /// corrupts permanently.
    fn toy_trace(case: Option<usize>) -> Trace {
        let mut t = Trace::new();
        t.record_digital("out", Time::ZERO, Logic::Zero).unwrap();
        match case {
            Some(4) => {
                t.record_digital("out", Time::from_ns(100), Logic::One)
                    .unwrap();
            }
            Some(i) if i % 2 == 1 => {
                t.record_digital("out", Time::from_ns(100), Logic::One)
                    .unwrap();
                t.record_digital("out", Time::from_ns(200), Logic::Zero)
                    .unwrap();
            }
            _ => {}
        }
        t
    }

    /// The toy campaign's result over `n` cases injected at 50 ns, built
    /// the way a runner does: golden trace, then `classify` per case.
    fn toy_result(n: usize) -> CampaignResult {
        let spec = ClassifySpec::new((Time::ZERO, Time::from_us(1)), vec!["out".to_owned()]);
        let golden = toy_trace(None);
        let cases = (0..n)
            .map(|i| CaseResult {
                case: FaultCase::new(format!("bit{i}"), Time::from_ns(50)),
                outcome: classify(&spec, &golden, &toy_trace(Some(i))),
            })
            .collect();
        CampaignResult { golden, cases }
    }

    #[test]
    fn sequential_campaign_classifies_all_cases() {
        let result = toy_result(5);
        assert_eq!(result.cases.len(), 5);
        let summary = result.summary();
        assert_eq!(summary[0], (FaultClass::NoEffect, 2)); // 0, 2
        assert_eq!(summary[2], (FaultClass::Transient, 2)); // 1, 3
        assert_eq!(summary[3], (FaultClass::Failure, 1)); // 4
    }

    #[test]
    fn latency_statistics() {
        let result = toy_result(5);
        // Divergence at 100 ns, injected at 50 ns: latency 50 ns.
        assert_eq!(result.mean_latency(), Some(Time::from_ns(50)));
        let failures: Vec<_> = result.with_class(FaultClass::Failure).collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].case.label, "bit4");
    }

    #[test]
    fn merge_appends_cases() {
        let mut a = toy_result(3);
        a.merge(toy_result(2));
        assert_eq!(a.cases.len(), 5);
        // 0..3 then 0..2 again: three no-effect (0, 2, 0), two transient (1, 1).
        assert_eq!(a.summary()[0], (FaultClass::NoEffect, 3));
        assert_eq!(a.summary()[2], (FaultClass::Transient, 2));
    }

    #[test]
    fn empty_campaign_is_fine() {
        let result = toy_result(0);
        assert!(result.cases.is_empty());
        assert_eq!(result.mean_latency(), None);
        assert_eq!(result.summary().iter().map(|c| c.1).sum::<usize>(), 0);
    }

    #[test]
    fn case_display() {
        let c = FaultCase::new("pfd.up", Time::from_us(170));
        assert_eq!(c.to_string(), "pfd.up @ 170 us");
    }
}
