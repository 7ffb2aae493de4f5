//! The measurement loop: repeated executions ("reps") of one workload
//! for the requested time, each checked against the reference verdicts,
//! reduced to the end-to-end metrics (untraced) or the per-layer metrics
//! (traced).

use crate::host;
use crate::oracle::work_dir;
use crate::probe::Probe;
use crate::spans::{Kind, Span};
use crate::workloads::{ExecPath, Size, Workload};
use amsfi_core::{classify, report, CampaignResult, ClassifySpec};
use amsfi_engine::journal::{self, Journal, JournalMeta};
use amsfi_engine::{Campaign, Engine, EngineConfig, KernelMetrics, Telemetry};
use amsfi_serve::proto::{read_frame, write_frame};
use amsfi_serve::{CampaignSource, Coordinator, CoordinatorConfig, Frame, WorkerConfig};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics, `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("cases_per_s", "cases/s"),
    ("setup_s", "s"),
    ("cpu_s_per_kcase", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, printed by traced runs. Times
/// without a `per record` or percentile meaning are seconds per rep.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("digital.word.self_s", "s"),
    ("digital.word.groups", "count"),
    ("digital.seal_share", "ratio"),
    ("digital.events_per_case", "count"),
    ("digital.fork.case_s.p50", "s"),
    ("digital.fork.case_s.p99", "s"),
    ("circuits.build.self_s", "s"),
    ("circuits.builds", "count"),
    ("faults.inject.self_s", "s"),
    ("mixed.golden_s", "s"),
    ("mixed.fork.case_s.p50", "s"),
    ("mixed.fork.case_s.p99", "s"),
    ("analog.solver_steps_per_case", "count"),
    ("mixed.sync_steps_per_case", "count"),
    ("engine.snapshot_hit_share", "ratio"),
    ("core.classify.case_s.p50", "s"),
    ("core.classify.case_s.p99", "s"),
    ("engine.residual_s", "s"),
    ("engine.journal.append_s", "s"),
    ("engine.journal.load_s", "s"),
    ("serve.idle_s", "s"),
    ("serve.frame.roundtrip_s", "s"),
    ("serve.frames_rx_per_case", "count"),
    ("serve.shards_leased", "count"),
    ("serve.lease_timeouts", "count"),
    ("serve.records_rejected", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.reps", "count"),
    ("trace.spans", "count"),
    ("trace.classify_pairs", "count"),
    ("trace.journal_records", "count"),
];

/// Setup samples per untraced run, at least: each rep contributes one,
/// dry set-ups (everything up to `Engine::run`, nothing run) the rest.
const SETUP_SAMPLES: usize = 31;

/// Dry set-ups after each untraced rep.
const DRY_SETUPS_PER_REP: usize = 2;

/// Workers of the fleet workload, each running one engine thread.
pub const FLEET_WORKERS: usize = 2;

/// No single wait inside a rep may exceed this.
const WAIT_LIMIT: Duration = Duration::from_secs(120);

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measure for at least this long (at least one rep).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Campaign size.
    pub size: Size,
}

/// What one invocation reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every rep's `cases.csv` matched the reference.
    pub correct: bool,
    /// Cases attempted over all reps.
    pub attempted: u64,
    /// Skipped, quarantined or rejected records over all reps.
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Reps measured (untraced plus traced).
    pub reps: usize,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counters read from the program's own metric registries.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    digital_events: u64,
    solver_steps: u64,
    sync_steps: u64,
    snapshot_hits: u64,
    snapshot_misses: u64,
    lane_seals: u64,
    frames_rx: u64,
    shards_leased: u64,
    lease_timeouts: u64,
    records_rejected: u64,
}

impl Counters {
    fn add_kernel(&mut self, m: &KernelMetrics) {
        self.digital_events += m.digital_events.get();
        self.solver_steps += m.solver_steps.get();
        self.sync_steps += m.sync_steps.get();
        self.snapshot_hits += m.snapshot_hits.get();
        self.snapshot_misses += m.snapshot_misses.get();
        self.lane_seals += m.lane_seals.get();
    }
}

/// One execution of the workload.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    cases: usize,
    failed: usize,
    /// Engine threads busy on the workload (for idle-time accounting).
    threads: usize,
    result: CampaignResult,
    spec: ClassifySpec,
    meta: JournalMeta,
    counters: Counters,
    /// Span clock at the start of the timed section.
    run_start_ns: u64,
}

impl Rep {
    fn cases_per_s(&self) -> f64 {
        self.cases as f64 / self.wall_s
    }
}

/// Runs the benchmark and reduces it to metrics.
///
/// # Errors
///
/// Any engine, fleet or file failure (a wrong verdict is not an error:
/// it makes [`Outcome::correct`] false).
pub fn run(cfg: &Config, reference: &str) -> Result<Outcome, String> {
    std::fs::create_dir_all(work_dir()).map_err(|e| format!("creating work dir: {e}"))?;
    let start = Instant::now();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut tally = |rep: &Rep| {
        correct &= report::cases_csv(&rep.result) == reference;
        attempted += rep.cases as u64;
        failed += rep.failed as u64;
    };
    // (wall_s, cpu_s, cases) of every untraced rep.
    let mut plain: Vec<(f64, f64, usize)> = Vec::new();
    let mut setups = Vec::new();
    let mut stopping = Vec::new();
    let mut layers = Layers::default();
    let mut traced_cps = Vec::new();
    let mut spans = Vec::new();
    loop {
        let lap = Instant::now();
        reap(&mut stopping, false)?;
        let rep = execute(cfg, None, &mut stopping)?;
        tally(&rep);
        setups.push(rep.setup_s);
        plain.push((rep.wall_s, rep.cpu_s, rep.cases));
        if cfg.trace {
            let probe = Arc::new(Probe::default());
            let rep = execute(cfg, Some(&probe), &mut stopping)?;
            tally(&rep);
            traced_cps.push(rep.cases_per_s());
            layers.add(cfg, &rep, &probe)?;
            spans.push(Arc::clone(&probe.spans));
        } else {
            // Spread over the run, so set-up sees the same host as the reps.
            for _ in 0..DRY_SETUPS_PER_REP {
                setups.push(dry_setup(cfg, &mut stopping)?);
            }
        }
        // Stop before a lap like this one would end past the deadline.
        if (start.elapsed() + lap.elapsed()).as_secs_f64() > cfg.seconds {
            break;
        }
    }
    for (i, rep_spans) in spans.iter().enumerate() {
        let path = work_dir().join(format!(
            "spans-{}-{}-rep{}.csv",
            cfg.workload.name(),
            cfg.seed,
            i + 1
        ));
        rep_spans
            .write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let reps = plain.len() + traced_cps.len();
    let plain_cps = median(plain.iter().map(|&(wall, _, n)| n as f64 / wall).collect());
    let metrics = if cfg.trace {
        let overhead = 1.0 - median(traced_cps.clone()) / plain_cps;
        layers.finish(cfg.workload, overhead)
    } else {
        // Read before the last dry set-ups, whose fleets linger until reaped.
        let peak_rss_mb = host::peak_rss_mib();
        while setups.len() < SETUP_SAMPLES {
            setups.push(dry_setup(cfg, &mut stopping)?);
        }
        let values = [
            plain_cps,
            median(setups),
            median(
                plain
                    .iter()
                    .map(|&(_, cpu, n)| cpu / n as f64 * 1000.0)
                    .collect(),
            ),
            peak_rss_mb,
            1.0 - failed as f64 / attempted as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    };
    reap(&mut stopping, true)?;
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        reps,
    })
}

fn execute(
    cfg: &Config,
    probe: Option<&Arc<Probe>>,
    stopping: &mut Vec<Fleet>,
) -> Result<Rep, String> {
    match cfg.workload {
        Workload::FleetCpuSeu => fleet_rep(cfg, probe, stopping),
        _ => local_rep(cfg, probe),
    }
}

/// The workload's campaign, wrapped in spans when traced.
fn campaign(cfg: &Config, probe: Option<&Arc<Probe>>) -> Campaign {
    let campaign = cfg
        .workload
        .campaign(cfg.seed, cfg.size, probe.map(|p| &p.spans));
    match probe {
        Some(probe) => probe.wrap(campaign),
        None => campaign,
    }
}

/// A metrics-enabled telemetry handle for traced runs.
fn kernel_telemetry() -> Result<(Telemetry, Arc<KernelMetrics>), String> {
    let telemetry = Telemetry::builder()
        .build()
        .map_err(|e| format!("telemetry: {e}"))?;
    let metrics = Arc::clone(telemetry.metrics().expect("an enabled handle has metrics"));
    Ok((telemetry, metrics))
}

fn local_engine(cfg: &Config, telemetry: Option<Telemetry>) -> Engine {
    let mut engine_cfg = cfg
        .workload
        .path()
        .apply(EngineConfig::default().with_workers(host::nproc()));
    if let Some(telemetry) = telemetry {
        engine_cfg = engine_cfg.with_telemetry(telemetry);
    }
    Engine::new(engine_cfg)
}

fn local_rep(cfg: &Config, probe: Option<&Arc<Probe>>) -> Result<Rep, String> {
    let t0 = Instant::now();
    let campaign = campaign(cfg, probe);
    let (telemetry, kernel) = match probe {
        Some(_) => {
            let (t, m) = kernel_telemetry()?;
            (Some(t), Some(m))
        }
        None => (None, None),
    };
    let engine = local_engine(cfg, telemetry);
    let setup_s = t0.elapsed().as_secs_f64();

    let run_start_ns = probe.map_or(0, |p| p.spans.now_ns());
    let cpu0 = host::cpu_seconds();
    let t1 = Instant::now();
    let report = engine.run(&campaign).map_err(|e| e.to_string())?;
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;

    let mut counters = Counters::default();
    if let Some(kernel) = &kernel {
        counters.add_kernel(kernel);
    }
    Ok(Rep {
        setup_s,
        wall_s,
        cpu_s,
        cases: campaign.cases.len(),
        failed: report.skipped.len() + report.quarantined.len(),
        threads: host::nproc().min(campaign.cases.len()),
        result: report.result,
        spec: campaign.spec.clone(),
        meta: campaign.meta(),
        counters,
        run_start_ns,
    })
}

/// A coordinator with submitted campaign and connected workers.
struct Fleet {
    coordinator: Arc<Coordinator>,
    serve: std::thread::JoinHandle<std::io::Result<()>>,
    workers:
        Vec<std::thread::JoinHandle<Result<amsfi_serve::WorkerReport, amsfi_serve::WorkerError>>>,
    kernels: Vec<Arc<KernelMetrics>>,
    journal: PathBuf,
    dir: PathBuf,
    campaign: Campaign,
}

impl Fleet {
    /// Waits for every worker to end and asks the coordinator to stop.
    fn shut_down(&mut self) -> Result<(), String> {
        let mut first_error = None;
        for worker in self.workers.drain(..) {
            match worker.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => first_error = first_error.or(Some(format!("worker failed: {e}"))),
                Err(_) => first_error = first_error.or(Some("worker panicked".to_owned())),
            }
        }
        self.coordinator.request_shutdown();
        first_error.map_or(Ok(()), Err)
    }

    /// Waits for the coordinator to end (its reaper finishes a sleep of
    /// up to one reap interval first) and removes the journal directory.
    fn finish(self) -> Result<(), String> {
        self.coordinator.request_shutdown();
        let joined = match self.serve.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("coordinator failed: {e}")),
            Err(_) => Err("coordinator panicked".to_owned()),
        };
        std::fs::remove_dir_all(&self.dir).ok();
        joined
    }
}

/// Finishes the fleets in `stopping` whose coordinator has ended, or all
/// of them with `wait`. A coordinator ends up to one reaper sleep after
/// shutdown, so fleets are finished later instead of waited on in a rep.
fn reap(stopping: &mut Vec<Fleet>, wait: bool) -> Result<(), String> {
    let (done, pending): (Vec<Fleet>, Vec<Fleet>) = stopping
        .drain(..)
        .partition(|fleet| wait || fleet.serve.is_finished());
    *stopping = pending;
    done.into_iter().try_for_each(Fleet::finish)
}

/// Binds a coordinator, submits the workload and connects the workers;
/// returns once both workers completed their handshake. A `dry` fleet's
/// workers leave right after the handshake, without leasing work.
fn fleet_setup(
    cfg: &Config,
    probe: Option<&Arc<Probe>>,
    dry: bool,
) -> Result<(Fleet, f64), String> {
    static FLEETS: AtomicUsize = AtomicUsize::new(0);
    let t0 = Instant::now();
    let campaign = campaign(cfg, probe);
    let name = campaign.name.clone();
    let served = campaign.clone();
    let mut source: CampaignSource = Arc::new(move |n: &str, limit: Option<usize>| {
        (n == served.name && limit.is_none()).then(|| served.clone())
    });
    if let Some(probe) = probe {
        source = probe.wrap_source(source);
    }
    let dir = work_dir().join(format!(
        "fleet-{}-{}",
        std::process::id(),
        FLEETS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    let coordinator = Arc::new(
        Coordinator::bind(
            "127.0.0.1:0",
            CoordinatorConfig::new(&dir, Arc::clone(&source)),
        )
        .map_err(|e| format!("coordinator bind: {e}"))?,
    );
    let addr = coordinator
        .local_addr()
        .map_err(|e| format!("coordinator address: {e}"))?
        .to_string();
    let checkpoint = cfg.workload.path() == ExecPath::Checkpoint;
    let info = coordinator.submit(
        &name,
        cfg.workload.shards(cfg.size),
        None,
        checkpoint,
        false,
    )?;
    let serve = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || coordinator.run())
    };
    let mut kernels = Vec::new();
    let mut workers = Vec::new();
    for i in 0..FLEET_WORKERS {
        let mut worker = WorkerConfig::new(addr.clone(), Arc::clone(&source));
        worker.name = format!("bench-{i}");
        worker.threads = 1;
        if dry {
            worker.max_shards = Some(0);
        }
        if probe.is_some() {
            let (telemetry, metrics) = kernel_telemetry()?;
            worker.telemetry = telemetry;
            kernels.push(metrics);
        }
        workers.push(std::thread::spawn(move || amsfi_serve::worker::run(worker)));
    }
    let fleet = Fleet {
        coordinator,
        serve,
        workers,
        kernels,
        journal: info.journal,
        dir,
        campaign,
    };
    let metrics = fleet.coordinator.metrics();
    let connected = wait_for(Duration::from_micros(200), || {
        metrics.workers_total.get() >= FLEET_WORKERS as u64
    });
    if let Err(e) = connected {
        fleet.coordinator.request_shutdown();
        return Err(format!("workers did not connect: {e}"));
    }
    Ok((fleet, t0.elapsed().as_secs_f64()))
}

/// Polls `done` every `poll` for at most [`WAIT_LIMIT`].
fn wait_for(poll: Duration, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let t0 = Instant::now();
    while !done() {
        if t0.elapsed() > WAIT_LIMIT {
            return Err(format!("gave up after {WAIT_LIMIT:?}"));
        }
        std::thread::sleep(poll);
    }
    Ok(())
}

fn fleet_rep(
    cfg: &Config,
    probe: Option<&Arc<Probe>>,
    stopping: &mut Vec<Fleet>,
) -> Result<Rep, String> {
    let (mut fleet, setup_s) = fleet_setup(cfg, probe, false)?;
    let run_start_ns = probe.map_or(0, |p| p.spans.now_ns());
    let cpu0 = host::cpu_seconds();
    let t1 = Instant::now();
    // A coarse poll: the main thread must not compete with the workers.
    let drained = wait_for(Duration::from_millis(2), || fleet.coordinator.drained());
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    if let Err(e) = drained {
        fleet.coordinator.request_shutdown();
        return Err(format!("fleet did not drain: {e}"));
    }

    let serve = fleet.coordinator.metrics();
    let mut counters = Counters {
        frames_rx: serve.frames_rx.get(),
        shards_leased: serve.shards_leased.get(),
        lease_timeouts: serve.lease_timeouts.get(),
        records_rejected: serve.records_rejected.get(),
        ..Counters::default()
    };
    for kernel in &fleet.kernels {
        counters.add_kernel(kernel);
    }
    let (_, entries) = journal::load(&fleet.journal).map_err(|e| e.to_string())?;
    let (result, skipped, quarantined) = journal::assemble(&entries);
    let campaign = fleet.campaign.clone();
    fleet.shut_down()?;
    stopping.push(fleet);
    Ok(Rep {
        setup_s,
        wall_s,
        cpu_s,
        cases: campaign.cases.len(),
        failed: skipped.len() + quarantined.len() + counters.records_rejected as usize,
        threads: FLEET_WORKERS,
        result,
        spec: campaign.spec.clone(),
        meta: campaign.meta(),
        counters,
        run_start_ns,
    })
}

/// One set-up with nothing run after it; returns its seconds. A fleet is
/// shut down and left in `stopping` for [`reap`].
fn dry_setup(cfg: &Config, stopping: &mut Vec<Fleet>) -> Result<f64, String> {
    match cfg.workload {
        Workload::FleetCpuSeu => {
            let (mut fleet, setup_s) = fleet_setup(cfg, None, true)?;
            fleet.shut_down()?;
            stopping.push(fleet);
            Ok(setup_s)
        }
        _ => {
            let t0 = Instant::now();
            let campaign = campaign(cfg, None);
            let engine = local_engine(cfg, None);
            let setup_s = t0.elapsed().as_secs_f64();
            black_box((campaign, engine));
            Ok(setup_s)
        }
    }
}

/// Per-layer values accumulated over traced reps.
#[derive(Default)]
struct Layers {
    /// Per-rep values, summed; divided by the rep count at the end.
    sums: BTreeMap<&'static str, f64>,
    reps: usize,
    fork_case_s: Vec<f64>,
    classify_s: Vec<f64>,
}

impl Layers {
    fn add(&mut self, cfg: &Config, rep: &Rep, probe: &Probe) -> Result<(), String> {
        let spans = probe.spans.snapshot();
        let of = |kind: Kind| spans.iter().filter(move |s| s.kind == kind);
        let self_s = |kind: Kind| of(kind).map(Span::self_ns).sum::<u64>() as f64 / 1e9;
        let groups: HashSet<u64> = of(Kind::Group).map(|s| s.seq).collect();
        let lanes = of(Kind::Inject)
            .filter(|s| s.parent.is_some_and(|p| groups.contains(&p)))
            .count();
        let busy_s = spans
            .iter()
            .filter(|s| s.kind.top_level() && s.start_ns >= rep.run_start_ns)
            .map(Span::dur_ns)
            .sum::<u64>() as f64
            / 1e9;
        let idle_s = rep.threads as f64 * rep.wall_s - busy_s;
        let cases = rep.cases as f64;
        let c = rep.counters;
        let fleet = cfg.workload == Workload::FleetCpuSeu;
        let mixed = cfg.workload == Workload::PllStrike;

        let (append_s, load_s, lines) = journal_replay(&rep.result, &rep.meta, &work_dir())?;
        let records = lines.len() as f64;
        let mut values = vec![
            ("digital.word.self_s", self_s(Kind::Group)),
            ("digital.word.groups", groups.len() as f64),
            (
                "digital.seal_share",
                ratio(c.lane_seals as f64, lanes as f64),
            ),
            ("digital.events_per_case", c.digital_events as f64 / cases),
            ("circuits.build.self_s", self_s(Kind::Build)),
            ("circuits.builds", of(Kind::Build).count() as f64),
            ("faults.inject.self_s", self_s(Kind::Inject)),
            (
                "mixed.golden_s",
                if mixed {
                    of(Kind::Golden).map(Span::dur_ns).sum::<u64>() as f64 / 1e9
                } else {
                    0.0
                },
            ),
            (
                "analog.solver_steps_per_case",
                c.solver_steps as f64 / cases,
            ),
            ("mixed.sync_steps_per_case", c.sync_steps as f64 / cases),
            (
                "engine.snapshot_hit_share",
                ratio(
                    c.snapshot_hits as f64,
                    (c.snapshot_hits + c.snapshot_misses) as f64,
                ),
            ),
            ("engine.journal.append_s", append_s),
            ("engine.journal.load_s", load_s),
            ("trace.spans", spans.len() as f64),
            ("trace.journal_records", records),
        ];
        if fleet {
            values.extend([
                ("serve.idle_s", idle_s),
                ("serve.frame.roundtrip_s", frame_roundtrip(&lines)?),
                ("serve.frames_rx_per_case", c.frames_rx as f64 / cases),
                ("serve.shards_leased", c.shards_leased as f64),
                ("serve.lease_timeouts", c.lease_timeouts as f64),
                ("serve.records_rejected", c.records_rejected as f64),
            ]);
        } else {
            values.push(("engine.residual_s", idle_s));
        }
        for (name, value) in values {
            *self.sums.entry(name).or_default() += value;
        }
        self.reps += 1;

        self.fork_case_s
            .extend(of(Kind::Fork).map(|s| s.dur_ns() as f64 / 1e9));
        let (golden, faulty) = probe.pairs();
        if let Some(golden) = golden {
            for trace in &faulty {
                let t0 = Instant::now();
                black_box(classify(&rep.spec, &golden, black_box(trace)));
                self.classify_s.push(t0.elapsed().as_secs_f64());
            }
        }
        Ok(())
    }

    fn finish(self, workload: Workload, overhead: f64) -> Vec<(&'static str, &'static str, f64)> {
        let mut classify_s = self.classify_s;
        let mut fork_case_s = self.fork_case_s;
        let pairs = classify_s.len() as f64;
        let mut values: BTreeMap<&str, f64> = self
            .sums
            .iter()
            .map(|(&name, &sum)| (name, sum / self.reps.max(1) as f64))
            .collect();
        values.insert(
            "core.classify.case_s.p50",
            percentile(&mut classify_s, 0.50),
        );
        values.insert(
            "core.classify.case_s.p99",
            percentile(&mut classify_s, 0.99),
        );
        let p50 = percentile(&mut fork_case_s, 0.50);
        let p99 = percentile(&mut fork_case_s, 0.99);
        // Only the PLL forks mixed-signal cases; the fleet forks digital ones.
        let fork = if workload == Workload::PllStrike {
            ["mixed.fork.case_s.p50", "mixed.fork.case_s.p99"]
        } else {
            ["digital.fork.case_s.p50", "digital.fork.case_s.p99"]
        };
        values.insert(fork[0], p50);
        values.insert(fork[1], p99);
        values.insert("trace.overhead_share", overhead);
        values.insert("trace.reps", self.reps as f64);
        values.insert("trace.classify_pairs", pairs);
        // Layers a workload does not exercise report 0.
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Replays a rep's record lines through `Journal::append_line`, then
/// `journal::load` + `assemble`; returns seconds per record for each,
/// and the lines.
fn journal_replay(
    result: &CampaignResult,
    meta: &JournalMeta,
    dir: &Path,
) -> Result<(f64, f64, Vec<String>), String> {
    let lines: Vec<String> = result
        .cases
        .iter()
        .enumerate()
        .map(|(i, case)| journal::case_line(i, case, None))
        .collect();
    let path = dir.join(format!("replay-{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();
    let n = lines.len().max(1) as f64;
    let (journal, _) = Journal::open(&path, meta, false).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for line in &lines {
        journal.append_line(line).map_err(|e| e.to_string())?;
    }
    let append_s = t0.elapsed().as_secs_f64() / n;
    drop(journal);
    let t0 = Instant::now();
    let (_, entries) = journal::load(&path).map_err(|e| e.to_string())?;
    black_box(journal::assemble(&entries));
    let load_s = t0.elapsed().as_secs_f64() / n;
    std::fs::remove_file(&path).ok();
    Ok((append_s, load_s, lines))
}

/// `write_frame` + `read_frame` of one `Record` frame per line, in
/// memory; returns seconds per record.
fn frame_roundtrip(lines: &[String]) -> Result<f64, String> {
    let frames: Vec<Frame> = lines
        .iter()
        .map(|line| Frame::Record {
            lease: 1,
            line: line.clone(),
        })
        .collect();
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for frame in &frames {
        buf.clear();
        write_frame(&mut buf, frame).map_err(|e| e.to_string())?;
        black_box(read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())?);
    }
    Ok(t0.elapsed().as_secs_f64() / frames.len().max(1) as f64)
}

/// Nearest-rank percentile; 0 for no samples.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
