//! What a campaign is: the fault list, how verdicts are drawn, and the
//! closures that produce one case's trace — from scratch ([`CaseRunner`]),
//! forked from a golden checkpoint ([`ForkSpec`]) or lock-step in a
//! bit-parallel group ([`BatchSpec`]). The [`Engine`](crate::Engine) runs
//! it; the named case studies live in [`campaigns`](crate::campaigns).

use crate::executor::CaseCtx;
use crate::fork::ForkSpec;
use crate::journal::JournalMeta;
use crate::BoxError;
use amsfi_core::{ClassifySpec, FaultCase};
use amsfi_waves::{SimBudget, SimObserver, Time, Trace};
use std::fmt;
use std::sync::Arc;

/// Shared simulation callback: produces the trace for `ctx.index()`
/// (golden when `None`).
///
/// `Arc` + `'static` because a timed-out attempt keeps running on its
/// (abandoned) thread and must not borrow from the engine's stack.
pub type CaseRunner = Arc<dyn Fn(&CaseCtx) -> Result<Trace, BoxError> + Send + Sync>;

/// One case's outcome inside a bit-parallel group run (see [`BatchSpec`]).
#[derive(Debug)]
pub enum BatchCaseOutcome {
    /// The lane produced a full-horizon trace, byte-identical to what a
    /// scalar run of the same case would record. `sealed_at` is the
    /// reconvergence-seal instant when the lane was retired early because
    /// its machine state rejoined the golden machine's.
    Done {
        /// The lane's full-length trace.
        trace: Trace,
        /// Reconvergence-seal instant, `None` if the lane ran to the end.
        sealed_at: Option<Time>,
    },
    /// The lane failed in isolation (guard trip, cooperative cancellation,
    /// injection error). The engine consults the lane's online classifier
    /// and otherwise falls back to the scalar path for this case alone.
    Error(String),
}

/// Installs per-lane plumbing on a freshly cloned lane simulator: called
/// with the lane's position in the group, returns the [`SimBudget`] (guards,
/// cancellation token, metrics) and optional [`SimObserver`] (streaming
/// classification) for that lane.
pub type LaneHooks<'a> = &'a mut dyn FnMut(usize) -> (SimBudget, Option<SimObserver>);

/// How a campaign supports bit-parallel group execution (enabled per run
/// with [`EngineConfig::with_batch`](crate::EngineConfig::with_batch)).
///
/// `run(ctx, group, hooks)` simulates all cases in `group` (at most
/// [`amsfi_waves::LANES`] indices into [`Campaign::cases`]) lock-step
/// against one golden machine and returns one [`BatchCaseOutcome`] per
/// index, in order. Campaigns should not build this by hand:
/// [`Campaign::forked_batch`](crate::campaigns) derives it from the same
/// build/inject closures as the scalar paths, which is what guarantees
/// batch and scalar traces are byte-identical.
#[derive(Clone)]
pub struct BatchSpec {
    /// Runs one case group lock-step; see [`BatchSpec`].
    #[allow(clippy::type_complexity)]
    pub run: Arc<
        dyn Fn(&CaseCtx, &[usize], LaneHooks<'_>) -> Result<Vec<BatchCaseOutcome>, BoxError>
            + Send
            + Sync,
    >,
}

impl fmt::Debug for BatchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BatchSpec(..)")
    }
}

/// A runnable campaign: the fault list, how to classify, and how to
/// produce a trace for one case.
#[derive(Clone)]
pub struct Campaign {
    /// Name, recorded in the journal header.
    pub name: String,
    /// How traces are compared and verdicts drawn.
    pub spec: ClassifySpec,
    /// The full (unsharded) case list.
    pub cases: Vec<FaultCase>,
    /// Produces the trace for one case; see [`CaseRunner`].
    pub runner: CaseRunner,
    /// Checkpoint & fork support; `None` means `--checkpoint` falls back
    /// to the from-scratch runner.
    pub fork: Option<ForkSpec>,
    /// Bit-parallel group support; `None` means `--batch` falls back to
    /// the scalar runner.
    pub batch: Option<BatchSpec>,
    /// Word-parallel group support (one event wheel, plane-valued
    /// signals); `None` means `--batch --word` falls back to the
    /// lane-cloned [`Campaign::batch`] spec. Same contract as
    /// [`BatchSpec`], but groups hold at most [`amsfi_waves::LANES`]` - 1`
    /// cases (one in-word lane is the golden machine).
    pub word: Option<BatchSpec>,
}

impl fmt::Debug for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("name", &self.name)
            .field("cases", &self.cases.len())
            .finish_non_exhaustive()
    }
}

impl Campaign {
    /// The journal-header identity of this campaign.
    pub fn meta(&self) -> JournalMeta {
        JournalMeta::of(&self.name, &self.cases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Engine, EngineConfig, EngineError, ErrorPolicy};
    use amsfi_waves::Time;

    #[test]
    fn worker_panic_is_surfaced_as_run_error() {
        // A runner that panics on case 3 of 8: under fail-fast the panic is
        // caught on its worker and reported as that case's error.
        let window = (Time::ZERO, Time::from_ns(100));
        let campaign = Campaign {
            name: "toy-panic".to_owned(),
            spec: ClassifySpec::new(window, vec!["out".to_owned()]),
            cases: (0..8)
                .map(|i| FaultCase::new(format!("bit{i}"), Time::from_ns(10)))
                .collect(),
            runner: Arc::new(|ctx: &CaseCtx| {
                if ctx.index() == Some(3) {
                    panic!("simulated diverging solver");
                }
                Ok(Trace::new())
            }),
            fork: None,
            batch: None,
            word: None,
        };
        let err = Engine::new(
            EngineConfig::default()
                .with_workers(4)
                .with_error_policy(ErrorPolicy::FailFast),
        )
        .run(&campaign)
        .unwrap_err();
        match err {
            EngineError::Case { index, error, .. } => {
                assert_eq!(index, 3);
                assert!(error.contains("simulated diverging solver"), "{error}");
            }
            other => panic!("expected a case error, got {other}"),
        }
    }
}
