//! **Extension I** — a wire-level SET campaign: saboteurs spliced into
//! every interconnect of a datapath (the Section 3.2 saboteur style, which
//! "can only inject faults on these interconnections"), sweeping SET pulse
//! widths and sub-cycle phases.
//!
//! The circuit is the 4-bit accumulator (`q <= q + 1`); its interconnects
//! are the clock, the register output `q`, the adder output `next`, and the
//! constant wires. The per-wire table shows the expected asymmetry: data
//! wires follow the latching-window law, the clock wire is far more
//! dangerous (a SET there *creates* edges), and constant wires are only
//! vulnerable while their value is actually consumed.
//!
//! ```text
//! cargo run --release -p amsfi-bench --bin ext_wire_set_campaign
//! ```

use amsfi_bench::{banner, run_cases, write_result};
use amsfi_core::{report, ClassifySpec, FaultCase, FaultClass};
use amsfi_digital::{cells, DigitalSaboteur, Netlist, Simulator};
use amsfi_engine::CaseCtx;
use amsfi_faults::{DigitalFault, DigitalFaultKind};
use amsfi_waves::{Logic, LogicVector, Time};
use std::sync::Arc;

const T_END: Time = Time::from_us(4);
const PERIOD: Time = Time::from_ns(20);
const PHASES: i64 = 10;

fn build(fault_on: Option<(&str, DigitalFault)>) -> Simulator {
    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let rst = net.signal("rst", 1);
    let cin = net.signal("cin", 1);
    let one = net.signal("one", 4);
    let q = net.signal("q", 4);
    let next = net.signal("next", 4);
    let cout = net.signal("cout", 1);
    net.add("ck", cells::ClockGen::new(PERIOD), &[], &[clk]);
    net.add(
        "r",
        cells::Stimulus::bits([(Time::ZERO, true), (Time::from_ns(15), false)]),
        &[],
        &[rst],
    );
    net.add("c0", cells::ConstVector::bit(Logic::Zero), &[], &[cin]);
    net.add(
        "inc",
        cells::ConstVector::new(LogicVector::from_u64(1, 4)),
        &[],
        &[one],
    );
    net.add(
        "add",
        cells::Adder::new(4, Time::ZERO),
        &[q, one, cin],
        &[next, cout],
    );
    net.add(
        "store",
        cells::Register::new(4, Time::ZERO),
        &[clk, rst, next],
        &[q],
    );
    if let Some((wire, fault)) = fault_on {
        let target = net.signal_id(wire).expect("interconnect exists");
        let width = net.signal_width(target);
        net.insert_saboteur(
            target,
            Box::new(DigitalSaboteur::new(width).with_fault(fault)),
        );
    }
    let mut sim = Simulator::new(net);
    sim.monitor_name("q");
    sim
}

fn main() {
    banner("Extension I — SET saboteurs on every interconnect of a datapath");
    // Enumerate the interconnects from a pristine build.
    let wires: Vec<(String, usize)> = {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let cin = net.signal("cin", 1);
        let one = net.signal("one", 4);
        let q = net.signal("q", 4);
        let next = net.signal("next", 4);
        let cout = net.signal("cout", 1);
        net.add("ck", cells::ClockGen::new(PERIOD), &[], &[clk]);
        net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add("c0", cells::ConstVector::bit(Logic::Zero), &[], &[cin]);
        net.add(
            "inc",
            cells::ConstVector::new(LogicVector::from_u64(1, 4)),
            &[],
            &[one],
        );
        net.add(
            "add",
            cells::Adder::new(4, Time::ZERO),
            &[q, one, cin],
            &[next, cout],
        );
        net.add(
            "store",
            cells::Register::new(4, Time::ZERO),
            &[clk, rst, next],
            &[q],
        );
        net.interconnects()
            .into_iter()
            .map(|id| (net.signal_name(id).to_owned(), net.signal_width(id)))
            .collect()
    };
    println!(
        "  interconnects: {}",
        wires
            .iter()
            .map(|(n, w)| format!("{n}[{w}]"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let set_width = Time::from_ns(4); // 20 % of the clock period
    let mut cases = Vec::new();
    let mut setup = Vec::new();
    for (wi, (name, _)) in wires.iter().enumerate() {
        for phase in 0..PHASES {
            let at = Time::from_us(1) + PERIOD * phase / PHASES;
            cases.push(FaultCase::new(format!("{name} @ phase {phase}"), at));
            setup.push((wi, at));
        }
    }
    println!(
        "  campaign: {} wires x {PHASES} phases, 4 ns SETs\n",
        wires.len()
    );

    let spec = ClassifySpec::new(
        (Time::from_us(1), T_END),
        (0..4).map(|i| format!("q[{i}]")).collect(),
    );
    let runner = Arc::new(move |ctx: &CaseCtx| {
        let fault_on = ctx.index().map(|i| {
            let (wi, at) = setup[i];
            (
                wires[wi].0.as_str(),
                DigitalFault::new(DigitalFaultKind::SetPulse { width: set_width }, at),
            )
        });
        let mut sim = build(fault_on);
        sim.run_until(T_END)?;
        Ok(sim.into_trace())
    });
    let result = run_cases("campaign", &spec, cases, runner);

    banner("Per-wire vulnerability (10 phases each)");
    print!("{}", report::per_target_table(&result));
    write_result("ext_wire_set_campaign.csv", &report::cases_csv(&result));

    banner("Reading");
    println!(
        "  The data wires (q, next) fail only when the 4 ns SET overlaps the\n\
         \x20 capture edge — the 20 % latching window of Extension E — while a\n\
         \x20 SET on the clock wire creates a spurious capture edge at *any*\n\
         \x20 phase, and the constant wires (one, cin) are consumed through\n\
         \x20 the adder, so their window matches the data wires'. This is the\n\
         \x20 interconnect-sensitivity map the saboteur style produces."
    );
    // Shape: the clock wire must be at least as vulnerable as any data wire.
    let rate = |prefix: &str| {
        let (mut bad, mut total) = (0usize, 0usize);
        for c in &result.cases {
            if c.case.label.starts_with(prefix) {
                total += 1;
                if c.outcome.class != FaultClass::NoEffect {
                    bad += 1;
                }
            }
        }
        bad as f64 / total.max(1) as f64
    };
    assert!(
        rate("clk") >= rate("next"),
        "clock SETs should dominate: clk {} vs next {}",
        rate("clk"),
        rate("next")
    );
    assert!(rate("next") > 0.0, "data-wire SETs must sometimes latch");
    assert!(rate("next") < 1.0, "data-wire SETs must sometimes miss");
}
