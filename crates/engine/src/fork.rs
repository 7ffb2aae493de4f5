//! Golden-prefix checkpoint & fork: the golden run snapshots the
//! simulator at every distinct injection instant, and each faulty run
//! resumes from the snapshot at its own instant instead of re-simulating
//! the prefix. [`Campaign::forked`] derives the from-scratch runner and the
//! [`ForkSpec`] from one pair of build/inject closures, so both paths
//! produce byte-identical traces.

use crate::campaign::{Campaign, CaseRunner};
use crate::executor::CaseCtx;
use crate::stats::Stage;
use crate::BoxError;
use amsfi_core::{ClassifySpec, FaultCase};
use amsfi_waves::{Checkpoint, ForkableSim, Time, Trace};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// A type-erased simulator checkpoint held by the engine's per-worker
/// caches. Snapshots are `Send` (they move between threads) but not
/// `Sync` — simulator component trait objects are `Send`-only — so the
/// engine deep-clones them instead of sharing references.
pub trait AnySnapshot: Send {
    /// Deep-clones the snapshot.
    fn clone_snapshot(&self) -> Snapshot;
    /// Downcast access for the campaign's fork closure.
    fn as_any(&self) -> &dyn Any;
}

impl<T: Any + Clone + Send> AnySnapshot for T {
    fn clone_snapshot(&self) -> Snapshot {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// An owned, type-erased checkpoint (see [`AnySnapshot`]).
pub type Snapshot = Box<dyn AnySnapshot>;

/// Emits `(time, snapshot)` pairs during the checkpointed golden run.
pub type SnapshotSink<'a> = dyn FnMut(Time, Snapshot) + 'a;

/// How a campaign supports golden-prefix checkpoint & fork execution
/// (enabled per run with
/// [`EngineConfig::with_checkpoint`](crate::EngineConfig::with_checkpoint)).
///
/// Most campaigns should not build this by hand: [`Campaign::forked`]
/// derives both the from-scratch runner and this spec from one pair of
/// build/inject closures, which is what guarantees forked and from-scratch
/// traces are byte-identical (they share the `advance_to` stop sequence,
/// so adaptive-step solvers take identical step grids).
#[derive(Clone)]
pub struct ForkSpec {
    /// The distinct injection instants the golden run snapshots at,
    /// ascending and clamped to `t_end`.
    pub stops: Vec<Time>,
    /// The simulation horizon every run advances to.
    pub t_end: Time,
    /// Runs the golden simulation, handing a snapshot to the sink at every
    /// stop, and returns the golden trace.
    #[allow(clippy::type_complexity)]
    pub golden: Arc<
        dyn for<'a> Fn(&CaseCtx, &mut SnapshotSink<'a>) -> Result<Trace, BoxError> + Send + Sync,
    >,
    /// Forks one faulty run from a snapshot taken at the case's injection
    /// instant and returns its full-length trace.
    #[allow(clippy::type_complexity)]
    pub fork: Arc<dyn Fn(&CaseCtx, &Snapshot) -> Result<Trace, BoxError> + Send + Sync>,
}

impl fmt::Debug for ForkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForkSpec")
            .field("stops", &self.stops.len())
            .field("t_end", &self.t_end)
            .finish_non_exhaustive()
    }
}

impl Campaign {
    /// Builds a campaign whose from-scratch runner and [`ForkSpec`] are
    /// derived from one pair of closures, so `--checkpoint` runs are
    /// byte-identical to plain runs by construction.
    ///
    /// * `build` constructs the fault-free simulator with monitoring
    ///   already attached.
    /// * `inject(sim, i)` arms fault case `i` on a simulator positioned
    ///   exactly at that case's injection instant.
    ///
    /// Both execution paths advance the simulator through every distinct
    /// injection stop up to the case's own injection time (the golden run
    /// through all of them), then to `t_end`. Sharing the stop sequence is
    /// what keeps adaptive-step analog/mixed kernels on identical step
    /// grids in both paths; see [`amsfi_waves::ForkableSim`].
    pub fn forked<S, B, I>(
        name: impl Into<String>,
        spec: ClassifySpec,
        cases: Vec<FaultCase>,
        t_end: Time,
        build: B,
        inject: I,
    ) -> Campaign
    where
        S: ForkableSim + 'static,
        B: Fn(&CaseCtx) -> Result<S, BoxError> + Send + Sync + 'static,
        I: Fn(&mut S, usize) -> Result<(), BoxError> + Send + Sync + 'static,
    {
        fn sim_err<E: std::error::Error + Send + Sync + 'static>(e: E) -> BoxError {
            Box::new(e)
        }
        let stops = injection_stops(&cases, t_end);
        let case_stops: Arc<Vec<Time>> =
            Arc::new(cases.iter().map(|c| c.injected_at.min(t_end)).collect());
        let build = Arc::new(build);
        let inject = Arc::new(inject);
        let stops_shared = Arc::new(stops.clone());

        let runner: CaseRunner = {
            let (build, inject) = (Arc::clone(&build), Arc::clone(&inject));
            let (stops, case_stops) = (Arc::clone(&stops_shared), Arc::clone(&case_stops));
            Arc::new(move |ctx: &CaseCtx| {
                let mut sim = build(ctx)?;
                sim.install_budget(ctx.budget().clone());
                if let Some(observer) = ctx.take_observer() {
                    sim.install_observer(observer);
                }
                ctx.stage(Stage::Simulate);
                match ctx.index() {
                    None => {
                        for &stop in stops.iter() {
                            sim.advance_to(stop).map_err(sim_err)?;
                        }
                    }
                    Some(i) => {
                        let at = case_stops[i];
                        for &stop in stops.iter().take_while(|&&s| s <= at) {
                            sim.advance_to(stop).map_err(sim_err)?;
                        }
                        inject(&mut sim, i)?;
                    }
                }
                sim.advance_to(t_end).map_err(sim_err)?;
                Ok(sim.snapshot_trace())
            })
        };

        let golden = {
            let build = Arc::clone(&build);
            let stops = Arc::clone(&stops_shared);
            Arc::new(
                move |ctx: &CaseCtx, sink: &mut SnapshotSink<'_>| -> Result<Trace, BoxError> {
                    let mut sim = build(ctx)?;
                    sim.install_budget(ctx.budget().clone());
                    ctx.stage(Stage::Simulate);
                    for &stop in stops.iter() {
                        sim.advance_to(stop).map_err(sim_err)?;
                        sink(stop, Box::new(Checkpoint::capture(&sim)));
                    }
                    sim.advance_to(t_end).map_err(sim_err)?;
                    Ok(sim.snapshot_trace())
                },
            )
        };

        let fork = {
            let inject = Arc::clone(&inject);
            Arc::new(
                move |ctx: &CaseCtx, snap: &Snapshot| -> Result<Trace, BoxError> {
                    let cp = snap
                        .as_any()
                        .downcast_ref::<Checkpoint<S>>()
                        .ok_or_else(|| {
                            Box::new(SnapshotRestoreError(
                                "snapshot does not hold this campaign's simulator type".to_owned(),
                            )) as BoxError
                        })?;
                    let i = ctx
                        .index()
                        .ok_or("the golden run is never forked from a snapshot")?;
                    ctx.stage(Stage::Simulate);
                    let mut sim = cp.fork();
                    sim.install_budget(ctx.budget().clone());
                    if let Some(observer) = ctx.take_observer() {
                        sim.install_observer(observer);
                    }
                    inject(&mut sim, i)?;
                    sim.advance_to(t_end).map_err(sim_err)?;
                    Ok(sim.snapshot_trace())
                },
            )
        };

        Campaign {
            name: name.into(),
            spec,
            cases,
            runner,
            fork: Some(ForkSpec {
                stops,
                t_end,
                golden,
                fork,
            }),
            batch: None,
            word: None,
        }
    }
}

/// The sorted, distinct injection instants of a case list, clamped to the
/// horizon: the stop sequence the golden run snapshots at, and the one a
/// scratch run must share to reproduce a fork byte-for-byte.
fn injection_stops(cases: &[FaultCase], t_end: Time) -> Vec<Time> {
    let mut stops: Vec<Time> = cases.iter().map(|c| c.injected_at.min(t_end)).collect();
    stops.sort();
    stops.dedup();
    stops
}

/// A checkpoint snapshot could not be restored for this campaign (wrong
/// simulator type or structural drift). The engine treats this as
/// non-retryable — restoring the same snapshot again is deterministic —
/// and degrades gracefully by re-running the case from scratch.
#[derive(Debug, Clone)]
pub struct SnapshotRestoreError(pub String);

impl fmt::Display for SnapshotRestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot restore failed: {}", self.0)
    }
}

impl std::error::Error for SnapshotRestoreError {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::executor::{Engine, EngineConfig, EngineError, EngineReport, ErrorPolicy};
    use amsfi_waves::Logic;

    /// A `Campaign::forked` toy over a tick-per-nanosecond counter: even
    /// case indices stick "out" high (failure), odd ones flip one tick
    /// (transient).
    #[derive(Debug, Clone)]
    pub(crate) struct TickSim {
        now: Time,
        ticks: u64,
        stuck: bool,
        invert_next: bool,
        trace: Trace,
    }

    impl TickSim {
        pub(crate) fn new() -> Self {
            TickSim {
                now: Time::ZERO,
                ticks: 0,
                stuck: false,
                invert_next: false,
                trace: Trace::new(),
            }
        }
    }

    impl ForkableSim for TickSim {
        type Error = std::convert::Infallible;

        fn advance_to(&mut self, t: Time) -> Result<(), Self::Error> {
            while self.now + Time::from_ns(1) <= t {
                self.now += Time::from_ns(1);
                self.ticks += 1;
                let mut bit = if self.stuck {
                    true
                } else {
                    self.ticks % 2 == 1
                };
                if std::mem::take(&mut self.invert_next) {
                    bit = !bit;
                }
                self.trace
                    .record_digital("out", self.now, Logic::from_bool(bit))
                    .unwrap();
            }
            Ok(())
        }

        fn current_time(&self) -> Time {
            self.now
        }

        fn snapshot_trace(&self) -> Trace {
            self.trace.clone()
        }

        fn structural_fingerprint(&self) -> u64 {
            0x71C5
        }
    }

    pub(crate) fn forked_campaign(name: &str, n: usize) -> Campaign {
        let t_end = Time::from_ns(40);
        let spec = ClassifySpec::new((Time::ZERO, t_end), vec!["out".to_owned()]);
        let cases = (0..n)
            .map(|i| FaultCase::new(format!("tick{i}"), Time::from_ns(5 + (i as i64 % 3) * 9)))
            .collect();
        Campaign::forked(
            name,
            spec,
            cases,
            t_end,
            |_ctx: &CaseCtx| Ok(TickSim::new()),
            inject,
        )
    }

    /// Even case indices stick "out" high, odd ones invert a single tick.
    fn inject(sim: &mut TickSim, i: usize) -> Result<(), BoxError> {
        if i.is_multiple_of(2) {
            sim.stuck = true;
        } else {
            sim.invert_next = true;
        }
        Ok(())
    }

    /// Runs `campaign` from scratch, then in checkpoint mode, under `config`.
    pub(crate) fn both_modes(
        campaign: &Campaign,
        config: EngineConfig,
    ) -> [Result<EngineReport, EngineError>; 2] {
        [false, true]
            .map(|checkpoint| Engine::new(config.clone().with_checkpoint(checkpoint)).run(campaign))
    }

    /// A four-case toy whose `inject` misbehaves on case `bad` alone.
    fn campaign_failing_at(
        bad: usize,
        inject: impl Fn(&mut TickSim, usize) -> Result<(), BoxError> + Send + Sync + 'static,
    ) -> Campaign {
        let t_end = Time::from_ns(10);
        Campaign::forked(
            format!("toy-fork-fail-{bad}"),
            ClassifySpec::new((Time::ZERO, t_end), vec!["out".to_owned()]),
            (0..4)
                .map(|i| FaultCase::new(format!("case{i}"), Time::from_ns(3 + 2 * i)))
                .collect(),
            t_end,
            |_ctx: &CaseCtx| Ok(TickSim::new()),
            inject,
        )
    }

    /// Under fail-fast, both execution paths stop on case `bad` and report
    /// its error, which must mention `want`.
    fn assert_fails_at(campaign: &Campaign, bad: usize, want: &str) {
        let config = EngineConfig::default()
            .with_workers(2)
            .with_error_policy(ErrorPolicy::FailFast);
        for result in both_modes(campaign, config) {
            match result.unwrap_err() {
                EngineError::Case { index, error, .. } => {
                    assert_eq!(index, bad);
                    assert!(error.contains(want), "{error}");
                }
                other => panic!("expected a case error, got {other}"),
            }
        }
    }

    #[test]
    fn injection_stops_are_sorted_distinct_and_clamped() {
        let cases = vec![
            FaultCase::new("a", Time::from_ns(30)),
            FaultCase::new("b", Time::from_ns(10)),
            FaultCase::new("c", Time::from_ns(30)),
            FaultCase::new("d", Time::from_ns(99)),
        ];
        assert_eq!(
            injection_stops(&cases, Time::from_ns(40)),
            vec![Time::from_ns(10), Time::from_ns(30), Time::from_ns(40)]
        );
    }

    #[test]
    fn forked_campaign_matches_scratch_campaign() {
        let forked = forked_campaign("toy-fork-vs-scratch", 12);
        // Reference: a hand-written from-scratch runner over the same cases,
        // independent of the one `Campaign::forked` derives. The toy ticks
        // on a fixed grid, so it needs no shared stop sequence.
        let cases = forked.cases.clone();
        let t_end = Time::from_ns(40);
        let scratch = Campaign {
            runner: Arc::new(move |ctx: &CaseCtx| {
                let mut sim = TickSim::new();
                if let Some(i) = ctx.index() {
                    sim.advance_to(cases[i].injected_at)?;
                    inject(&mut sim, i)?;
                }
                sim.advance_to(t_end)?;
                Ok(sim.snapshot_trace())
            }),
            fork: None,
            ..forked.clone()
        };
        let config = EngineConfig::default().with_workers(4);
        let scratch = Engine::new(config.clone()).run(&scratch).unwrap().result;
        let forked = Engine::new(config.with_checkpoint(true))
            .run(&forked)
            .unwrap()
            .result;
        assert_eq!(forked.golden, scratch.golden);
        assert_eq!(forked.cases.len(), scratch.cases.len());
        for (a, b) in forked.cases.iter().zip(&scratch.cases) {
            assert_eq!(a, b, "case {}", a.case);
        }
    }

    #[test]
    fn injection_past_the_horizon_is_clamped_to_no_effect() {
        let t_end = Time::from_ns(10);
        let campaign = Campaign::forked(
            "toy-late",
            ClassifySpec::new((Time::ZERO, t_end), vec!["out".to_owned()]),
            vec![FaultCase::new("late", Time::from_ns(50))],
            t_end,
            |_ctx: &CaseCtx| Ok(TickSim::new()),
            |sim: &mut TickSim, _i| {
                sim.stuck = true;
                Ok(())
            },
        );
        let [scratch, forked] =
            both_modes(&campaign, EngineConfig::default().with_workers(1)).map(Result::unwrap);
        // Both paths inject at the horizon, where no further tick runs.
        assert_eq!(
            scratch.result.cases[0].outcome.class,
            amsfi_core::FaultClass::NoEffect
        );
        assert_eq!(scratch.result.cases, forked.result.cases);
    }

    #[test]
    fn golden_build_failure_is_reported_without_a_case() {
        // Fatal in checkpoint mode too, where the golden run also fills the
        // snapshot cache.
        let t_end = Time::from_ns(10);
        let campaign = Campaign::forked(
            "toy-golden-fork",
            ClassifySpec::new((Time::ZERO, t_end), vec!["out".to_owned()]),
            vec![FaultCase::new("a", Time::from_ns(5))],
            t_end,
            |_ctx: &CaseCtx| Err::<TickSim, BoxError>("no netlist".into()),
            |_sim: &mut TickSim, _i| Ok(()),
        );
        for result in both_modes(&campaign, EngineConfig::default()) {
            let err = result.unwrap_err();
            assert!(
                matches!(&err, EngineError::Golden(e) if e.contains("no netlist")),
                "{err}"
            );
        }
    }

    #[test]
    fn inject_failure_carries_the_case_index() {
        let campaign = campaign_failing_at(2, |sim, i| {
            if i == 2 {
                return Err("bad target".into());
            }
            sim.stuck = true;
            Ok(())
        });
        assert_fails_at(&campaign, 2, "bad target");
    }

    #[test]
    fn worker_panic_is_surfaced_as_a_run_error() {
        let campaign = campaign_failing_at(3, |sim, i| {
            if i == 3 {
                panic!("simulated diverging fork");
            }
            sim.stuck = true;
            Ok(())
        });
        assert_fails_at(&campaign, 3, "simulated diverging fork");
    }
}
