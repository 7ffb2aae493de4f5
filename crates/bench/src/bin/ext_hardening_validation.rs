//! **Extension D** — "validate the efficiency of the implemented
//! mechanisms" (the second goal of the paper's introduction): exhaustive SEU
//! and double-upset campaigns over three implementations of the same 4-bit
//! accumulator, differing only in the storage element:
//!
//! * **plain** — an ordinary register (every stored upset persists);
//! * **TMR** — a triple-modular-redundant register with a bitwise voter;
//! * **Hamming** — the count stored as a Hamming(7,4) codeword, corrected
//!   on every read.
//!
//! ```text
//! cargo run --release -p amsfi-bench --bin ext_hardening_validation
//! ```

use amsfi_bench::{banner, run_cases, write_result};
use amsfi_core::{plan, CampaignResult, ClassifySpec, FaultCase};
use amsfi_digital::{cells, ComponentId, Netlist, Simulator};
use amsfi_engine::CaseCtx;
use amsfi_waves::{Logic, LogicVector, Time};
use std::fmt::Write as _;
use std::sync::Arc;

const T_END: Time = Time::from_us(2);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    Plain,
    Tmr,
    Hamming,
}

/// Builds `q <= q + 1` accumulators: register flavor differs per variant.
fn build(variant: Variant) -> (Simulator, ComponentId) {
    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let rst = net.signal("rst", 1);
    let cin = net.signal("cin", 1);
    let one = net.signal("one", 4);
    let q = net.signal("q", 4);
    let next = net.signal("next", 4);
    let cout = net.signal("cout", 1);
    net.add("ck", cells::ClockGen::new(Time::from_ns(20)), &[], &[clk]);
    // Reset pulse covering the first clock edge breaks the U fixed point of
    // the accumulator loop.
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
    let storage = match variant {
        Variant::Plain => net.add(
            "store",
            cells::Register::new(4, Time::ZERO),
            &[clk, rst, next],
            &[q],
        ),
        Variant::Tmr => net.add(
            "store",
            cells::TmrRegister::new(4, Time::ZERO),
            &[clk, rst, next],
            &[q],
        ),
        Variant::Hamming => {
            let code = net.signal("code", 7);
            let stored = net.signal("stored", 7);
            let corrected = net.signal("corrected", 1);
            net.add(
                "enc",
                cells::HammingEncoder::new(Time::ZERO),
                &[next],
                &[code],
            );
            let reg = net.add(
                "store",
                cells::Register::new(7, Time::ZERO),
                &[clk, rst, code],
                &[stored],
            );
            net.add(
                "dec",
                cells::HammingDecoder::new(Time::ZERO),
                &[stored],
                &[q, corrected],
            );
            reg
        }
    };
    let mut sim = Simulator::new(net);
    sim.monitor_name("q");
    (sim, storage)
}

fn campaign(variant: Variant, double_upset: bool) -> CampaignResult {
    let spec = ClassifySpec::new(
        (Time::ZERO, T_END),
        (0..4).map(|i| format!("q[{i}]")).collect(),
    );
    let (probe, _) = build(variant);
    let bits = probe.mutant_targets().len();
    let times = plan::uniform_times(Time::from_ns(100), Time::from_us(1), 5);
    let mut cases = Vec::new();
    let mut setups = Vec::new();
    for (ti, &at) in times.iter().enumerate() {
        for bit in 0..bits {
            if double_upset {
                // Pair each bit with its "worst partner": the same bit
                // position in the next replica (TMR) / the adjacent stored
                // bit (plain, Hamming).
                let partner = match variant {
                    Variant::Tmr => (bit + 4) % bits,
                    _ => (bit + 1) % bits,
                };
                cases.push(FaultCase::new(format!("bits {bit}+{partner}"), at));
                setups.push((ti, bit, Some(partner)));
            } else {
                cases.push(FaultCase::new(format!("bit {bit}"), at));
                setups.push((ti, bit, None));
            }
        }
    }
    let runner = Arc::new(move |ctx: &CaseCtx| {
        let (mut sim, storage) = build(variant);
        if let Some(i) = ctx.index() {
            let (ti, bit, partner) = setups[i];
            sim.run_until(times[ti])?;
            sim.flip_state(storage, bit);
            if let Some(p) = partner {
                sim.flip_state(storage, p);
            }
        }
        sim.run_until(T_END)?;
        Ok(sim.into_trace())
    });
    run_cases("hardening campaign", &spec, cases, runner)
}

fn main() {
    banner("Extension D — hardening validation by fault injection");
    println!(
        "  circuit: q <= q + 1 accumulator at 50 MHz, storage element varied;\n\
         \x20 faults: exhaustive stored-bit SEUs (and targeted double upsets)\n\
         \x20 at 5 injection times, outputs compared over a 2 us window.\n"
    );

    let mut csv = String::from("variant,upset,cases,no_effect,latent,transient,failure\n");
    println!(
        "  {:<10} {:<8} {:>6} {:>10} {:>8} {:>10} {:>9}",
        "storage", "upset", "cases", "no-effect", "latent", "transient", "failure"
    );
    let mut single_failures = Vec::new();
    for variant in [Variant::Plain, Variant::Tmr, Variant::Hamming] {
        for double in [false, true] {
            let result = campaign(variant, double);
            let s = result.summary();
            let name = match variant {
                Variant::Plain => "plain",
                Variant::Tmr => "TMR",
                Variant::Hamming => "Hamming",
            };
            let upset = if double { "double" } else { "single" };
            println!(
                "  {:<10} {:<8} {:>6} {:>10} {:>8} {:>10} {:>9}",
                name,
                upset,
                result.cases.len(),
                s[0].1,
                s[1].1,
                s[2].1,
                s[3].1
            );
            let _ = writeln!(
                csv,
                "{name},{upset},{},{},{},{},{}",
                result.cases.len(),
                s[0].1,
                s[1].1,
                s[2].1,
                s[3].1
            );
            if !double {
                single_failures.push((name, s[3].1, result.cases.len()));
            }
        }
    }
    write_result("ext_hardening_validation.csv", &csv);

    banner("Reading");
    println!(
        "  Single upsets: the plain accumulator turns every stored-bit SEU\n\
         \x20 into a persistent count offset (failure); TMR masks all of them\n\
         \x20 at the voter; Hamming corrects all of them at read-out — the\n\
         \x20 protection mechanisms are *validated by injection*, before any\n\
         \x20 gate-level design exists (the paper's second stated goal).\n\
         \x20 Double upsets show the residual exposure: same-position replica\n\
         \x20 pairs defeat TMR's 2-of-3 vote, and two errors in one Hamming\n\
         \x20 codeword exceed the code's correction radius."
    );
    // Shape assertions for EXPERIMENTS.md.
    let plain = single_failures
        .iter()
        .find(|f| f.0 == "plain")
        .expect("ran");
    let tmr = single_failures.iter().find(|f| f.0 == "TMR").expect("ran");
    let hamming = single_failures
        .iter()
        .find(|f| f.0 == "Hamming")
        .expect("ran");
    assert!(plain.1 > 0, "plain storage must fail under SEU");
    assert_eq!(tmr.1, 0, "TMR must mask every single upset");
    assert_eq!(hamming.1, 0, "Hamming must correct every single upset");
}
