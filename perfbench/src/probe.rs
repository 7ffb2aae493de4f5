//! Traced-run instrumentation: wraps the closures a [`Campaign`] hands to
//! the engine in spans, and keeps a sample of (golden, faulty) trace
//! pairs for replaying classification off the clock.

use crate::spans::{Kind, Spans, NO_CASE};
use amsfi_engine::{BatchCaseOutcome, Campaign, CaseCtx, Snapshot, SnapshotSink};
use amsfi_serve::CampaignSource;
use amsfi_waves::Trace;
use std::sync::{Arc, Mutex};

/// Faulty traces kept for the classification replay.
const PAIR_SAMPLE: usize = 256;

/// Spans plus captured traces of one traced run.
#[derive(Debug, Default)]
pub struct Probe {
    /// Every closure call of the run.
    pub spans: Arc<Spans>,
    golden: Mutex<Option<Trace>>,
    faulty: Mutex<Vec<Trace>>,
}

impl Probe {
    /// The first golden trace seen and the sampled faulty traces.
    pub fn pairs(&self) -> (Option<Trace>, Vec<Trace>) {
        (
            self.golden.lock().expect("capture poisoned").clone(),
            self.faulty.lock().expect("capture poisoned").clone(),
        )
    }

    fn keep(&self, index: Option<usize>, trace: &Trace) {
        if index.is_none() {
            let mut golden = self.golden.lock().expect("capture poisoned");
            if golden.is_none() {
                *golden = Some(trace.clone());
            }
            return;
        }
        let mut faulty = self.faulty.lock().expect("capture poisoned");
        if faulty.len() < PAIR_SAMPLE {
            faulty.push(trace.clone());
        }
    }

    /// Wraps the runner, fork and batch closures of `campaign` in spans.
    pub fn wrap(self: &Arc<Self>, mut campaign: Campaign) -> Campaign {
        let runner = Arc::clone(&campaign.runner);
        let probe = Arc::clone(self);
        campaign.runner = Arc::new(move |ctx: &CaseCtx| {
            let out = probe
                .spans
                .record(Kind::Runner, case_id(ctx), || runner(ctx));
            if let Ok(trace) = &out {
                probe.keep(ctx.index(), trace);
            }
            out
        });
        if let Some(fork) = &mut campaign.fork {
            let golden = Arc::clone(&fork.golden);
            let probe = Arc::clone(self);
            fork.golden = Arc::new(move |ctx: &CaseCtx, sink: &mut SnapshotSink<'_>| {
                let out = probe
                    .spans
                    .record(Kind::Golden, NO_CASE, || golden(ctx, sink));
                if let Ok(trace) = &out {
                    probe.keep(None, trace);
                }
                out
            });
            let case = Arc::clone(&fork.fork);
            let probe = Arc::clone(self);
            fork.fork = Arc::new(move |ctx: &CaseCtx, snap: &Snapshot| {
                let out = probe
                    .spans
                    .record(Kind::Fork, case_id(ctx), || case(ctx, snap));
                if let Ok(trace) = &out {
                    probe.keep(ctx.index(), trace);
                }
                out
            });
        }
        for spec in [&mut campaign.batch, &mut campaign.word]
            .into_iter()
            .flatten()
        {
            let run = Arc::clone(&spec.run);
            let probe = Arc::clone(self);
            spec.run = Arc::new(move |ctx, group, hooks| {
                let first = group.first().map_or(NO_CASE, |&i| i as u64);
                let out = probe
                    .spans
                    .record(Kind::Group, first, || run(ctx, group, hooks));
                if let Ok(outcomes) = &out {
                    for (&i, outcome) in group.iter().zip(outcomes) {
                        if let BatchCaseOutcome::Done { trace, .. } = outcome {
                            probe.keep(Some(i), trace);
                        }
                    }
                }
                out
            });
        }
        campaign
    }

    /// Wraps a campaign source so each call records a span.
    pub fn wrap_source(self: &Arc<Self>, source: CampaignSource) -> CampaignSource {
        let probe = Arc::clone(self);
        Arc::new(move |name: &str, limit: Option<usize>| {
            probe
                .spans
                .record(Kind::Source, NO_CASE, || source(name, limit))
        })
    }
}

/// The span id of a call: its case index, or [`NO_CASE`] for the golden run.
pub(crate) fn case_id(ctx: &CaseCtx) -> u64 {
    ctx.index().map_or(NO_CASE, |i| i as u64)
}
