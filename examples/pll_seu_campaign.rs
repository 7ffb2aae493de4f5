//! A complete mixed-signal fault-injection campaign on the PLL: current
//! pulses of varying charge on the analog filter input *and* SEU bit-flips
//! in the digital blocks, classified against a golden run — the "global
//! flow" of the paper end to end.
//!
//! ```text
//! cargo run --release -p amsfi-examples --bin pll_seu_campaign
//! ```

use amsfi_circuits::pll::{self, names};
use amsfi_core::{plan, report, ClassifySpec, FaultCase};
use amsfi_engine::{Campaign, CaseCtx, Engine, EngineConfig, ErrorPolicy};
use amsfi_waves::{Time, Tolerance};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = pll::PllConfig::fast();
    config.payload = true;
    let t_end = Time::from_us(30);

    // --- fault list -------------------------------------------------------
    // Analog: a pulse-parameter grid on the filter input (Section 4.1: the
    // designer gives "the range of the parameters for the pulse
    // specification and the injection times").
    let pulses = plan::pulse_grid(&[2.0, 10.0], &[100], &[300], &[500, 1_500]);
    let times = plan::random_times(Time::from_us(12), Time::from_us(16), 3, 2004);
    // Digital: every memorised bit of the PFD, divider and payload.
    let targets = pll::build(&config).mixed.digital().mutant_targets();

    #[derive(Clone)]
    enum Plan {
        Pulse(usize, usize),
        Seu(usize, usize),
    }
    let mut cases = Vec::new();
    let mut plans = Vec::new();
    for (pi, p) in pulses.iter().enumerate() {
        for (ti, &at) in times.iter().enumerate() {
            cases.push(FaultCase::new(format!("analog: icp {p}"), at));
            plans.push(Plan::Pulse(pi, ti));
        }
    }
    for (gi, t) in targets.iter().enumerate() {
        for (ti, &at) in times.iter().enumerate() {
            cases.push(FaultCase::new(format!("digital: {t}"), at));
            plans.push(Plan::Seu(gi, ti));
        }
    }
    println!(
        "campaign: {} analog + {} digital = {} fault cases",
        pulses.len() * times.len(),
        targets.len() * times.len(),
        cases.len()
    );

    // --- classification spec ----------------------------------------------
    let mut outputs: Vec<String> = (0..8).map(|i| format!("{}[{i}]", names::COUNT)).collect();
    outputs.push(names::SHIFT_OUT.to_owned());
    let spec = ClassifySpec::new((Time::from_us(12), t_end), outputs)
        .with_internals(vec![names::VCTRL.to_owned(), names::FB.to_owned()])
        .with_tolerance(Tolerance::new(0.05, 0.01))
        // Sub-2-ns edge displacement on the 20 ns payload clock is residual
        // phase skew, not an error; a genuinely lost or gained count cycle
        // displaces edges by a full period and still registers.
        .with_digital_skew(Time::from_ns(2));

    // --- run (on the engine, one worker per core) ---------------------------
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let started = std::time::Instant::now();
    let campaign = Campaign {
        name: "pll-seu".to_owned(),
        spec,
        cases,
        runner: Arc::new(move |ctx: &CaseCtx| {
            let mut cfg = config.clone();
            let mut seu = None;
            if let Some(i) = ctx.index() {
                match plans[i] {
                    Plan::Pulse(pi, ti) => cfg = cfg.with_fault(pulses[pi], times[ti]),
                    Plan::Seu(gi, ti) => seu = Some((gi, ti)),
                }
            }
            let mut bench = pll::build(&cfg);
            bench.monitor_standard();
            if let Some((gi, ti)) = seu {
                bench.run_until(times[ti])?;
                let t = &targets[gi];
                bench.mixed.digital_mut().flip_state(t.component, t.bit);
            }
            bench.run_until(t_end)?;
            Ok(bench.trace())
        }),
        fork: None,
        batch: None,
        word: None,
    };
    let engine = Engine::new(
        EngineConfig::default()
            .with_workers(workers)
            .with_error_policy(ErrorPolicy::FailFast),
    );
    let result = engine.run(&campaign)?.result;
    println!(
        "completed on {workers} workers in {:?}\n",
        started.elapsed()
    );

    // --- reports ------------------------------------------------------------
    println!("{}", report::summary_table(&result));
    println!("{}", report::per_target_table(&result));
    Ok(())
}
