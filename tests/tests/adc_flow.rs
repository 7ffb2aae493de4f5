//! Integration: the ADC case studies under the campaign engine — the
//! paper's future-work scenario exercised end to end.

use amsfi_circuits::adc::{self, AdcInput};
use amsfi_core::{ClassifySpec, FaultCase, FaultClass};
use amsfi_engine::CaseCtx;
use amsfi_faults::TrapezoidPulse;
use amsfi_integration::run_cases;
use amsfi_waves::Time;
use std::sync::Arc;

const T_END: Time = Time::from_us(5);

#[test]
fn flash_and_sar_agree_on_dc_codes() {
    // Both converters digitise the same DC level; their codes must agree
    // once rescaled (3-bit vs 4-bit).
    for vin in [0.4, 1.3, 2.2, 3.6, 4.6] {
        let mut flash = adc::build_flash(&adc::FlashAdcConfig {
            input: AdcInput::Dc(vin),
            ..adc::FlashAdcConfig::default()
        });
        flash.mixed.run_until(T_END).unwrap();
        let fsig = flash.mixed.digital().signal_id(adc::FLASH_CODE).unwrap();
        let fcode = flash.mixed.digital().value(fsig).to_u64().unwrap();

        let mut sar = adc::build_sar(&adc::SarAdcConfig {
            input: AdcInput::Dc(vin),
            ..adc::SarAdcConfig::default()
        });
        sar.mixed.run_until(T_END).unwrap();
        let ssig = sar.mixed.digital().signal_id(adc::SAR_RESULT).unwrap();
        let scode = sar.mixed.digital().value(ssig).to_u64().unwrap();

        // flash: floor(vin/5*8) clamped to 7; sar: floor(vin/5*16).
        let expect_flash = ((vin / 5.0 * 8.0) as u64).min(7);
        let expect_sar = ((vin / 5.0 * 16.0) as u64).min(15);
        assert_eq!(fcode, expect_flash, "flash at {vin} V");
        assert_eq!(scode, expect_sar, "sar at {vin} V");
        // Cross-check: the SAR's top 3 bits equal the flash code.
        assert_eq!(scode >> 1, fcode, "converters disagree at {vin} V");
    }
}

#[test]
fn flash_campaign_classifies_strike_amplitudes() {
    let base = adc::FlashAdcConfig {
        input: AdcInput::Dc(2.2),
        ..adc::FlashAdcConfig::default()
    };
    // 1 mA (0.1 V across 100 ohm, below the 0.3 V margin to the next level)
    // must be a no-effect; 10 mA (1 V) must disturb.
    let amplitudes = [1.0, 10.0];
    let at = Time::from_ns(2_960); // straddles the 3.05 us sampling edge
    let spec = ClassifySpec::new(
        (Time::from_us(1), T_END),
        (0..3)
            .map(|i| format!("{}[{i}]", adc::FLASH_CODE))
            .collect(),
    );
    let cases = amplitudes
        .iter()
        .map(|pa| FaultCase::new(format!("{pa} mA"), at))
        .collect();
    let runner = Arc::new(move |ctx: &CaseCtx| {
        let mut cfg = base.clone();
        if let Some(i) = ctx.index() {
            let pulse = TrapezoidPulse::from_ma_ps(amplitudes[i], 100, 100, 200_000)?;
            cfg = cfg.with_fault(pulse, at);
        }
        let mut bench = adc::build_flash(&cfg);
        bench.mixed.digital_mut().monitor_name(adc::FLASH_CODE);
        bench.mixed.run_until(T_END)?;
        Ok(bench.mixed.merged_trace())
    });
    let result = run_cases(&spec, cases, 0, runner).unwrap();
    assert_eq!(result.cases[0].outcome.class, FaultClass::NoEffect);
    assert_eq!(result.cases[1].outcome.class, FaultClass::Transient);
}

#[test]
fn sar_digital_seu_campaign_is_mostly_transient() {
    let base = adc::SarAdcConfig {
        input: AdcInput::Dc(2.2),
        ..adc::SarAdcConfig::default()
    };
    let probe = adc::build_sar(&base);
    let targets = probe.mixed.digital().mutant_targets();
    assert_eq!(targets.len(), 8, "4 acc + 4 result bits");
    let at = Time::from_ns(2_580); // mid-conversion
    let spec = ClassifySpec::new(
        (Time::from_us(1), T_END),
        (0..4)
            .map(|i| format!("{}[{i}]", adc::SAR_RESULT))
            .collect(),
    );
    let cases = targets
        .iter()
        .map(|t| FaultCase::new(t.to_string(), at))
        .collect();
    let runner = Arc::new(move |ctx: &CaseCtx| {
        let mut bench = adc::build_sar(&base);
        bench.mixed.digital_mut().monitor_name(adc::SAR_RESULT);
        if let Some(i) = ctx.index() {
            bench.mixed.run_until(at)?;
            let t = &targets[i];
            bench.mixed.digital_mut().flip_state(t.component, t.bit);
        }
        bench.mixed.run_until(T_END)?;
        Ok(bench.mixed.merged_trace())
    });
    let result = run_cases(&spec, cases, 0, runner).unwrap();
    let summary = result.summary();
    // No SEU in the SAR registers survives to the end of the window: the
    // next conversion overwrites everything (transient or masked).
    assert_eq!(summary[3], (FaultClass::Failure, 0), "{summary:?}");
    let transient = summary[2].1;
    assert!(
        transient >= 4,
        "expected several transients, got {transient}"
    );
}
