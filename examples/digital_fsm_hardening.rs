//! Evaluate an FSM hardening decision with the digital flow: compare the
//! SEU sensitivity of a plain sequence-detector FSM against a variant with
//! a self-recovering (safe-state) transition table — the "validate the
//! efficiency of the implemented mechanisms" use case of the paper's
//! introduction.
//!
//! ```text
//! cargo run --release -p amsfi-examples --bin digital_fsm_hardening
//! ```

use amsfi_core::{plan, ClassifySpec, FaultCase, FaultClass};
use amsfi_digital::{cells, Netlist, Simulator};
use amsfi_engine::{Campaign, CaseCtx, Engine, EngineConfig, EngineError, ErrorPolicy};
use amsfi_waves::{Logic, Time};
use std::sync::Arc;

/// A 4-state "detect three ones in a row" Moore machine.
///
/// With `recovering = false`, unreachable (corrupted) states are absorbing:
/// state 3 loops on itself whatever the input — a design whose encoding
/// wastes the fourth state. With `recovering = true`, every state (including
/// the spare one) routes back into the live set on a zero input.
fn detector(recovering: bool) -> cells::Fsm {
    // States: 0 = idle, 1 = one seen, 2 = two seen, 3 = spare.
    // Transitions indexed [state][input].
    let spare_on_zero = if recovering { 0 } else { 3 };
    let spare_on_one = if recovering { 1 } else { 3 };
    cells::Fsm::new(
        4,
        1,
        1,
        vec![
            0,
            1, // state 0
            0,
            2, // state 1
            0,
            2, // state 2 (output fires here)
            spare_on_zero,
            spare_on_one, // state 3: absorbing or recovering
        ],
        vec![0, 0, 1, 0],
        Time::ZERO,
    )
    .expect("valid table")
}

fn build(recovering: bool) -> (Simulator, amsfi_digital::ComponentId) {
    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let rst = net.signal("rst", 1);
    let din = net.signal("din", 1);
    let out = net.signal("out", 1);
    let state = net.signal("state", 2);
    net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
    net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
    // Stimulus pattern with plenty of zeros, so a recovering FSM can heal.
    net.add(
        "lfsr",
        cells::Lfsr::new(1, 1, 1, Time::ZERO),
        &[clk],
        &[din],
    );
    let fsm = net.add("fsm", detector(recovering), &[clk, rst, din], &[out, state]);
    let mut sim = Simulator::new(net);
    sim.monitor_name("out");
    (sim, fsm)
}

fn campaign(recovering: bool) -> Result<[usize; 4], EngineError> {
    let t_end = Time::from_us(2);
    let spec = ClassifySpec::new((Time::ZERO, t_end), vec!["out".to_owned()]);
    // Flip each state bit at each of 20 injection instants, plus force the
    // spare state directly (the erroneous-transition model of [11]).
    let times = plan::uniform_times(Time::from_ns(100), Time::from_us(1), 20);
    let mut cases = Vec::new();
    for (ti, at) in times.iter().enumerate() {
        for bit in 0..2 {
            cases.push(FaultCase::new(format!("state[{bit}] t{ti}"), *at));
        }
        cases.push(FaultCase::new(format!("force-spare t{ti}"), *at));
    }
    let campaign = Campaign {
        name: format!("fsm recovering={recovering}"),
        spec,
        cases,
        runner: Arc::new(move |ctx: &CaseCtx| {
            let (mut sim, fsm) = build(recovering);
            if let Some(i) = ctx.index() {
                let (ti, kind) = (i / 3, i % 3);
                sim.run_until(times[ti])?;
                match kind {
                    0 | 1 => sim.flip_state(fsm, kind),
                    _ => sim.force_state(fsm, 3),
                }
            }
            sim.run_until(t_end)?;
            Ok(sim.into_trace())
        }),
        fork: None,
        batch: None,
        word: None,
    };
    let result = Engine::new(EngineConfig::default().with_error_policy(ErrorPolicy::FailFast))
        .run(&campaign)?
        .result;
    let summary = result.summary();
    Ok([summary[0].1, summary[1].1, summary[2].1, summary[3].1])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("SEU campaign over the detector FSM, 60 faults per variant:\n");
    println!(
        "{:<22} {:>10} {:>8} {:>10} {:>9}",
        "variant", "no-effect", "latent", "transient", "failure"
    );
    let plain = campaign(false)?;
    let hardened = campaign(true)?;
    for (name, s) in [
        ("absorbing spare state", plain),
        ("recovering spare state", hardened),
    ] {
        println!(
            "{:<22} {:>10} {:>8} {:>10} {:>9}",
            name, s[0], s[1], s[2], s[3]
        );
    }
    let _ = FaultClass::Failure; // (class order documented in amsfi-core)
    println!(
        "\nThe recovering transition table turns the absorbing-state failures\n\
         into transients: the early analysis quantifies the benefit of the\n\
         hardening before any gate-level design exists."
    );
    assert!(
        hardened[3] < plain[3],
        "hardening must reduce failures ({} vs {})",
        hardened[3],
        plain[3]
    );
    Ok(())
}
