//! The four seeded workloads and the execution path each one runs.
//!
//! Every campaign is generated here from the seed, with
//! `amsfi_core::plan` samplers and the public circuit builders; the
//! program under test receives only the finished [`Campaign`].

use crate::probe::case_id;
use crate::spans::{Kind, Spans};
use amsfi_circuits::cpu::{checksum_program, TinyCpu};
use amsfi_circuits::pll::{self, names};
use amsfi_core::{plan, ClassifySpec, FaultCase};
use amsfi_digital::{cells, DigitalSaboteur, InjectTarget, Netlist, Simulator};
use amsfi_engine::{BoxError, Campaign, CaseCtx, EngineConfig, Stage};
use amsfi_faults::{DigitalFault, DigitalFaultKind};
use amsfi_waves::{Logic, Time, Tolerance};
use std::sync::Arc;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SEUs in every TinyCpu state bit at seeded instants.
    CpuSeu,
    /// Seeded SET pulses on the TinyCpu reset line.
    CpuSet,
    /// Seeded current strikes on the PLL charge-pump output.
    PllStrike,
    /// `CpuSeu` served by an in-process coordinator to two workers.
    FleetCpuSeu,
}

/// How the engine executes a workload's cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// `--batch --word`: word-parallel lane groups.
    Word,
    /// `--checkpoint`: one golden prefix, cases forked from snapshots.
    Checkpoint,
}

impl ExecPath {
    /// The CLI flags that select this path.
    pub fn label(self) -> &'static str {
        match self {
            ExecPath::Word => "--batch --word",
            ExecPath::Checkpoint => "--checkpoint",
        }
    }

    /// Applies the path to a local engine configuration.
    pub fn apply(self, cfg: EngineConfig) -> EngineConfig {
        match self {
            ExecPath::Word => cfg.with_batch(true).with_word(true),
            ExecPath::Checkpoint => cfg.with_checkpoint(true),
        }
    }
}

/// Campaign size: the measured size, or a small one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// A few cases per workload, for tests.
    Smoke,
}

impl Workload {
    /// Every workload, in output order.
    pub const ALL: [Workload; 4] = [
        Workload::CpuSeu,
        Workload::CpuSet,
        Workload::PllStrike,
        Workload::FleetCpuSeu,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CpuSeu => "cpu-seu",
            Workload::CpuSet => "cpu-set",
            Workload::PllStrike => "pll-strike",
            Workload::FleetCpuSeu => "fleet-cpu-seu",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The execution path of this workload. This is the one place a
    /// workload's fast path is chosen.
    pub fn path(self) -> ExecPath {
        match self {
            Workload::CpuSeu | Workload::CpuSet => ExecPath::Word,
            Workload::PllStrike | Workload::FleetCpuSeu => ExecPath::Checkpoint,
        }
    }

    /// Simulation horizon.
    pub fn horizon(self) -> Time {
        match self {
            Workload::PllStrike => PLL_END,
            _ => CPU_END,
        }
    }

    /// Shards the fleet workload is submitted as.
    pub fn shards(self, size: Size) -> usize {
        match size {
            Size::Full => 16,
            Size::Smoke => 2,
        }
    }

    /// Generates the workload's campaign from `seed`. With `spans`, the
    /// build and inject closures record a span per call.
    pub fn campaign(self, seed: u64, size: Size, spans: Option<&Arc<Spans>>) -> Campaign {
        let spans = spans.cloned();
        let full = size == Size::Full;
        match self {
            Workload::CpuSeu => cpu_seu(self.name(), seed, if full { 20 } else { 1 }, spans),
            Workload::FleetCpuSeu => cpu_seu(self.name(), seed, if full { 25 } else { 1 }, spans),
            Workload::CpuSet => cpu_set(seed, if full { 800 } else { 8 }, spans),
            Workload::PllStrike => pll_strike(seed, if full { 24 } else { 1 }, spans),
        }
    }
}

const CPU_END: Time = Time::from_us(20);
const PLL_END: Time = Time::from_us(200);

/// Runs `f` inside a span when tracing, plainly otherwise.
fn traced<T>(spans: &Option<Arc<Spans>>, kind: Kind, id: u64, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(spans) => spans.record(kind, id, f),
        None => f(),
    }
}

/// The TinyCpu checksum bench, optionally with a saboteur on `rst`.
fn cpu_sim(set_saboteur: bool) -> Simulator {
    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let rst = net.signal("rst", 1);
    let out = net.signal("out", 8);
    let pc = net.signal("pc", 6);
    net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
    net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
    net.add(
        "cpu",
        TinyCpu::new(checksum_program(), Time::ZERO),
        &[clk, rst],
        &[out, pc],
    );
    if set_saboteur {
        net.insert_saboteur(rst, Box::new(DigitalSaboteur::new(1)));
    }
    let mut sim = Simulator::new(net);
    sim.monitor_name("out");
    sim
}

fn cpu_outputs() -> Vec<String> {
    (0..8).map(|i| format!("out[{i}]")).collect()
}

/// Every mutant state bit flipped at each of `instants` seeded instants
/// in [2, 18] us.
fn cpu_seu(name: &str, seed: u64, instants: usize, spans: Option<Arc<Spans>>) -> Campaign {
    let targets = cpu_sim(false).mutant_targets();
    let times = plan::random_times(Time::from_us(2), Time::from_us(18), instants, seed);
    let mut cases = Vec::with_capacity(times.len() * targets.len());
    let mut bits = Vec::with_capacity(cases.capacity());
    for &at in &times {
        for target in &targets {
            cases.push(FaultCase::new(format!("{target} @ {at}"), at));
            bits.push((target.component, target.bit));
        }
    }
    let spec = ClassifySpec::new((Time::from_us(2), CPU_END), cpu_outputs());
    let build_spans = spans.clone();
    Campaign::forked_batch(
        name,
        spec,
        cases,
        CPU_END,
        move |ctx: &CaseCtx| {
            traced(&build_spans, Kind::Build, case_id(ctx), || {
                ctx.stage(Stage::Build);
                Ok(cpu_sim(false))
            })
        },
        move |sim: &mut dyn InjectTarget, i| {
            traced(&spans, Kind::Inject, i as u64, || {
                let (component, bit) = bits[i];
                sim.flip_state(component, bit);
                Ok(())
            })
        },
    )
}

/// SET pulses of 1, 2, 3 and 4 ns on `rst` at each of `instants` seeded
/// instants in [12.5, 19] us.
fn cpu_set(seed: u64, instants: usize, spans: Option<Arc<Spans>>) -> Campaign {
    let times = plan::random_times(Time::from_ns(12_500), Time::from_ns(19_000), instants, seed);
    let mut cases = Vec::with_capacity(times.len() * 4);
    let mut faults = Vec::with_capacity(cases.capacity());
    for &at in &times {
        for width in (1..=4).map(Time::from_ns) {
            cases.push(FaultCase::new(format!("rst SET {width} @ {at}"), at));
            faults.push(DigitalFault::new(DigitalFaultKind::SetPulse { width }, at));
        }
    }
    let spec = ClassifySpec::new((Time::from_us(12), CPU_END), cpu_outputs());
    let build_spans = spans.clone();
    Campaign::forked_batch(
        Workload::CpuSet.name(),
        spec,
        cases,
        CPU_END,
        move |ctx: &CaseCtx| {
            traced(&build_spans, Kind::Build, case_id(ctx), || {
                ctx.stage(Stage::Build);
                Ok(cpu_sim(true))
            })
        },
        move |sim: &mut dyn InjectTarget, i| {
            traced(
                &spans,
                Kind::Inject,
                i as u64,
                || -> Result<(), BoxError> {
                    let fault = faults[i].clone();
                    let at = fault.at;
                    let sab = sim
                        .component_id("saboteur(rst)")
                        .ok_or("saboteur(rst) not instrumented")?;
                    sim.component_mut(sab)
                        .as_any_mut()
                        .downcast_mut::<DigitalSaboteur>()
                        .ok_or("saboteur(rst) has an unexpected component type")?
                        .arm(fault);
                    sim.wake_component(sab, at);
                    Ok(())
                },
            )
        },
    )
}

/// `pulses` seeded trapezoid strikes on `icp` (PA 1–20 mA log-uniform,
/// RT and FT 40–180 ps, PW/RT 1.5–6), each injected at the same 8 seeded
/// instants in [168, 176] us of the paper's PLL.
fn pll_strike(seed: u64, pulses: usize, spans: Option<Arc<Spans>>) -> Campaign {
    let times = plan::random_times(Time::from_us(168), Time::from_us(176), 8, seed);
    let pulses = plan::random_pulses(
        (1.0, 20.0),
        (40, 180),
        (40, 180),
        (1.5, 6.0),
        pulses,
        seed ^ 0x9e37_79b9_7f4a_7c15,
    )
    .expect("pulse ranges are valid");
    let mut cases = Vec::with_capacity(times.len() * pulses.len());
    let mut strikes = Vec::with_capacity(cases.capacity());
    for &at in &times {
        for pulse in &pulses {
            cases.push(FaultCase::new(format!("icp {pulse} @ {at}"), at));
            strikes.push((Arc::new(*pulse), at));
        }
    }
    let spec = ClassifySpec::new((Time::from_us(165), PLL_END), vec![names::F_OUT.to_owned()])
        .with_internals(vec![names::VCTRL.to_owned(), names::FB.to_owned()])
        .with_tolerance(Tolerance::new(0.05, 0.01))
        .with_digital_skew(Time::from_ns(2))
        .with_settle(Time::from_us(8));
    let build_spans = spans.clone();
    Campaign::forked(
        Workload::PllStrike.name(),
        spec,
        cases,
        PLL_END,
        move |ctx: &CaseCtx| {
            traced(&build_spans, Kind::Build, case_id(ctx), || {
                ctx.stage(Stage::Build);
                let mut bench = pll::build(&pll::PllConfig::default());
                bench.monitor_standard();
                Ok(bench)
            })
        },
        move |bench: &mut pll::PllBench, i| {
            traced(&spans, Kind::Inject, i as u64, || {
                let (pulse, at) = &strikes[i];
                bench.arm_saboteur(Arc::clone(pulse) as _, *at);
                Ok(())
            })
        },
    )
}
