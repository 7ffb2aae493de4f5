//! Compact integration versions of the extension experiments' headline
//! claims, so `cargo test` guards what the `amsfi-bench` binaries
//! demonstrate.

use amsfi_circuits::adc::AdcInput;
use amsfi_circuits::cpu::{checksum_program, TinyCpu};
use amsfi_circuits::sdm::{self, SdmConfig, SDM_CODE};
use amsfi_core::{ClassifySpec, FaultCase, FaultClass};
use amsfi_digital::{cells, DigitalSaboteur, Netlist, Simulator};
use amsfi_engine::CaseCtx;
use amsfi_faults::{DigitalFault, DigitalFaultKind, TrapezoidPulse};
use amsfi_integration::run_cases;
use amsfi_waves::{Logic, LogicVector, Time};
use std::sync::Arc;

/// Ext. D in miniature: a TMR accumulator masks every single stored-bit SEU
/// that the plain accumulator turns into a failure.
#[test]
fn tmr_masks_what_plain_storage_fails() {
    fn build(tmr: bool) -> (Simulator, amsfi_digital::ComponentId) {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let cin = net.signal("cin", 1);
        let one = net.signal("one", 4);
        let q = net.signal("q", 4);
        let next = net.signal("next", 4);
        let cout = net.signal("cout", 1);
        net.add("ck", cells::ClockGen::new(Time::from_ns(20)), &[], &[clk]);
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
        let store = if tmr {
            net.add(
                "store",
                cells::TmrRegister::new(4, Time::ZERO),
                &[clk, rst, next],
                &[q],
            )
        } else {
            net.add(
                "store",
                cells::Register::new(4, Time::ZERO),
                &[clk, rst, next],
                &[q],
            )
        };
        let mut sim = Simulator::new(net);
        sim.monitor_name("q");
        (sim, store)
    }
    let spec = ClassifySpec::new(
        (Time::ZERO, Time::from_us(1)),
        (0..4).map(|i| format!("q[{i}]")).collect(),
    );
    for (tmr, expect) in [(false, FaultClass::Failure), (true, FaultClass::NoEffect)] {
        let bits = if tmr { 12 } else { 4 };
        let cases = (0..bits)
            .map(|b| FaultCase::new(format!("bit{b}"), Time::from_ns(333)))
            .collect();
        let runner = Arc::new(move |ctx: &CaseCtx| {
            let (mut sim, store) = build(tmr);
            if let Some(b) = ctx.index() {
                sim.run_until(Time::from_ns(333))?;
                sim.flip_state(store, b);
            }
            sim.run_until(Time::from_us(1))?;
            Ok(sim.into_trace())
        });
        let result = run_cases(&spec, cases, 0, runner).unwrap();
        for c in &result.cases {
            assert_eq!(c.outcome.class, expect, "tmr={tmr}, case {}", c.case);
        }
    }
}

/// Ext. G in miniature: an analog strike corrupts exactly one Σ-Δ word.
#[test]
fn sdm_strike_is_bounded_to_one_word() {
    let cfg = SdmConfig {
        input: AdcInput::Dc(2.5),
        ..SdmConfig::default()
    };
    let word = cfg.word_time();
    let pulse = TrapezoidPulse::from_ma_ps(20.0, 100, 100, 1_000_000).unwrap();
    let faulty_cfg = cfg.clone().with_fault(pulse, word * 3 + Time::from_ns(200));
    let read = |cfg: &SdmConfig, w: i64| {
        let mut bench = sdm::build(cfg);
        bench
            .mixed
            .run_until(word * w + cfg.clk_period)
            .expect("run");
        let sig = bench.mixed.digital().signal_id(SDM_CODE).unwrap();
        bench.mixed.digital().value(sig).to_u64().unwrap_or(0)
    };
    assert_ne!(read(&cfg, 4), read(&faulty_cfg, 4), "struck word differs");
    let g6 = read(&cfg, 6) as i64;
    let f6 = read(&faulty_cfg, 6) as i64;
    assert!((g6 - f6).abs() <= 1, "later word clean: {g6} vs {f6}");
}

/// Ext. H in miniature: dead-memory SEUs mask, live-table SEUs fail.
#[test]
fn cpu_masking_follows_dataflow() {
    fn build() -> (Simulator, amsfi_digital::ComponentId) {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let out = net.signal("out", 8);
        let pc = net.signal("pc", 6);
        net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
        let cpu = net.add(
            "cpu",
            TinyCpu::new(checksum_program(), Time::ZERO),
            &[clk, rst],
            &[out, pc],
        );
        let mut sim = Simulator::new(net);
        sim.monitor_name("out");
        (sim, cpu)
    }
    let spec = ClassifySpec::new(
        (Time::from_us(2), Time::from_us(10)),
        (0..8).map(|i| format!("out[{i}]")).collect(),
    );
    // Dead word 9 bit 0 vs live table word 1 bit 0.
    let dead_bit = 8 + 6 + 1 + 9 * 8;
    let live_bit = 8 + 6 + 1 + 8;
    let cases = vec![
        FaultCase::new("ram[9][0]", Time::from_us(3)),
        FaultCase::new("ram[1][0]", Time::from_us(3)),
    ];
    let runner = Arc::new(move |ctx: &CaseCtx| {
        let (mut sim, cpu) = build();
        if let Some(i) = ctx.index() {
            sim.run_until(Time::from_us(3))?;
            sim.flip_state(cpu, if i == 0 { dead_bit } else { live_bit });
        }
        sim.run_until(Time::from_us(10))?;
        Ok(sim.into_trace())
    });
    let result = run_cases(&spec, cases, 0, runner).unwrap();
    assert_eq!(result.cases[0].outcome.class, FaultClass::NoEffect);
    assert_eq!(result.cases[1].outcome.class, FaultClass::Failure);
}

/// Ext. I in miniature: clock-wire SETs are far more dangerous than
/// data-wire SETs.
#[test]
fn clock_wire_sets_dominate_data_wire_sets() {
    fn run_with_set(wire: &str, at: Time) -> amsfi_waves::Trace {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q = net.signal("q", 8);
        net.add("ck", cells::ClockGen::new(Time::from_ns(20)), &[], &[clk]);
        net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add("e", cells::ConstVector::bit(Logic::One), &[], &[en]);
        net.add(
            "ctr",
            cells::Counter::new(8, Time::ZERO),
            &[clk, rst, en],
            &[q],
        );
        if !wire.is_empty() {
            let target = net.signal_id(wire).unwrap();
            let fault = DigitalFault::new(
                DigitalFaultKind::SetPulse {
                    width: Time::from_ns(4),
                },
                at,
            );
            net.insert_saboteur(target, Box::new(DigitalSaboteur::new(1).with_fault(fault)));
        }
        let mut sim = Simulator::new(net);
        sim.monitor_name("q");
        sim.run_until(Time::from_us(2)).expect("run");
        sim.into_trace()
    }
    let spec = ClassifySpec::new(
        (Time::ZERO, Time::from_us(2)),
        (0..8).map(|i| format!("q[{i}]")).collect(),
    );
    let golden = run_with_set("", Time::ZERO);
    let mut clk_hits = 0;
    let mut en_hits = 0;
    for phase in 0..10i64 {
        let at = Time::from_us(1) + Time::from_ns(2 * phase);
        let c = amsfi_core::classify(&spec, &golden, &run_with_set("clk", at));
        if c.class != FaultClass::NoEffect {
            clk_hits += 1;
        }
        let c = amsfi_core::classify(&spec, &golden, &run_with_set("en", at));
        if c.class != FaultClass::NoEffect {
            en_hits += 1;
        }
    }
    assert!(clk_hits > en_hits, "clk {clk_hits} vs en {en_hits}");
    assert!(clk_hits >= 8, "clock SETs nearly always count: {clk_hits}");
}
