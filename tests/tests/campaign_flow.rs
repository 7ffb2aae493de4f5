//! Integration of the campaign engine with real mixed-signal circuits:
//! parallel equals sequential, reports render, and the propagation model
//! reflects the physical error path.

use amsfi_circuits::pll::{self, names};
use amsfi_core::{plan, report, ClassifySpec, FaultCase, FaultClass, PropagationModel};
use amsfi_engine::{CaseCtx, CaseRunner, EngineError};
use amsfi_faults::TrapezoidPulse;
use amsfi_integration::{fast_pll, run_cases};
use amsfi_waves::{Time, Tolerance, Trace};
use std::sync::{Arc, Mutex};

const T_END: Time = Time::from_us(25);

fn spec() -> ClassifySpec {
    ClassifySpec::new((Time::from_us(10), T_END), vec![names::FB.to_owned()])
        .with_internals(vec![names::VCTRL.to_owned(), names::F_OUT.to_owned()])
        // The tolerance sits above the residual charge-pump ripple on vctrl
        // (the paper's Section 4.1: "avoid non significant error
        // identifications").
        .with_tolerance(Tolerance::new(0.05, 0.0))
        // The loop nulls phase error asymptotically; sub-5-ns residual skew on
        // the 200 ns feedback clock is not an error.
        .with_digital_skew(Time::from_ns(5))
}

fn runner(pulses: &[TrapezoidPulse], times: &[Time]) -> CaseRunner {
    let (pulses, times) = (pulses.to_vec(), times.to_vec());
    Arc::new(move |ctx: &CaseCtx| {
        let cfg = match ctx.index() {
            Some(i) => {
                let pulse = pulses[i / times.len()];
                let at = times[i % times.len()];
                fast_pll().with_fault(pulse, at)
            }
            None => fast_pll(),
        };
        let mut bench = pll::build(&cfg);
        bench.monitor_standard();
        bench.run_until(T_END)?;
        Ok(bench.trace())
    })
}

fn cases(pulses: &[TrapezoidPulse], times: &[Time]) -> Vec<FaultCase> {
    let mut out = Vec::new();
    for p in pulses {
        for &at in times {
            out.push(FaultCase::new(format!("icp {p}"), at));
        }
    }
    out
}

#[test]
fn parallel_campaign_equals_sequential_on_real_circuit() {
    let pulses = plan::pulse_grid(&[2.0, 10.0], &[100], &[300], &[500]);
    let times = plan::uniform_times(Time::from_us(12), Time::from_us(14), 2);
    let spec = spec();
    let seq = run_cases(&spec, cases(&pulses, &times), 1, runner(&pulses, &times)).unwrap();
    let par = run_cases(&spec, cases(&pulses, &times), 4, runner(&pulses, &times)).unwrap();
    assert_eq!(seq.summary(), par.summary());
    for (a, b) in seq.cases.iter().zip(&par.cases) {
        assert_eq!(a.outcome, b.outcome, "case {}", a.case);
    }
}

#[test]
fn small_pulse_is_no_effect_big_pulse_disturbs() {
    // 0.05 mA barely moves the 200 pF loop; 10 mA clearly does.
    let pulses = plan::pulse_grid(&[0.05, 10.0], &[100], &[300], &[500]);
    let times = vec![Time::from_us(13)];
    let spec = spec();
    let result = run_cases(&spec, cases(&pulses, &times), 0, runner(&pulses, &times)).unwrap();
    assert_eq!(
        result.cases[0].outcome.class,
        FaultClass::NoEffect,
        "small-pulse outcome: {:?}",
        result.cases[0].outcome
    );

    assert_ne!(result.cases[1].outcome.class, FaultClass::NoEffect);
}

#[test]
fn reports_render_for_real_campaign() {
    let pulses = plan::pulse_grid(&[10.0], &[100], &[300], &[500]);
    let times = vec![Time::from_us(13)];
    let spec = spec();
    let result = run_cases(&spec, cases(&pulses, &times), 0, runner(&pulses, &times)).unwrap();
    let table = report::summary_table(&result);
    assert!(table.contains("total"));
    let csv = report::cases_csv(&result);
    assert_eq!(csv.lines().count(), 2);
    let targets = report::per_target_table(&result);
    assert!(targets.contains("icp"));
}

#[test]
fn propagation_model_shows_analog_to_digital_path() {
    let pulses = plan::pulse_grid(&[10.0, 20.0], &[100], &[300], &[1_000]);
    let times = plan::uniform_times(Time::from_us(12), Time::from_us(14), 2);
    let spec = spec();
    // The engine keeps no faulty traces: capture one per case index.
    let slots: Arc<Vec<Mutex<Option<Trace>>>> = Arc::new(
        (0..pulses.len() * times.len())
            .map(|_| Mutex::new(None))
            .collect(),
    );
    let run = runner(&pulses, &times);
    let capture = {
        let slots = Arc::clone(&slots);
        Arc::new(move |ctx: &CaseCtx| {
            let trace = run(ctx)?;
            if let Some(i) = ctx.index() {
                *slots[i].lock().unwrap() = Some(trace.clone());
            }
            Ok(trace)
        })
    };
    let result = run_cases(&spec, cases(&pulses, &times), 0, capture).unwrap();
    let faulty_traces: Vec<Trace> = slots
        .iter()
        .map(|slot| slot.lock().unwrap().take().unwrap())
        .collect();
    let model = PropagationModel::from_traces(&spec, &result, &faulty_traces);
    assert!(model.cases > 0);
    // The strike lands on the analog node first; it must lead the orderings.
    assert!(model.node_hits.contains_key(names::VCTRL));
    let vctrl_to_fout = model
        .edges
        .iter()
        .find(|e| e.from == names::VCTRL && e.to == names::F_OUT);
    assert!(
        vctrl_to_fout.is_some(),
        "expected vctrl -> f_out ordering, edges: {:?}",
        model.edges
    );
    let dot = model.to_dot();
    assert!(dot.contains(names::VCTRL));
}

#[test]
fn campaign_error_propagates_from_failed_run() {
    let spec = spec();
    let runner = Arc::new(|ctx: &CaseCtx| match ctx.index() {
        None => {
            let mut bench = pll::build(&fast_pll());
            bench.monitor_standard();
            bench.run_until(Time::from_us(1))?;
            Ok(bench.trace())
        }
        Some(_) => Err("injection machinery exploded".into()),
    });
    let err = run_cases(&spec, vec![FaultCase::new("x", Time::ZERO)], 0, runner).unwrap_err();
    assert!(matches!(err, EngineError::Case { index: 0, .. }), "{err}");
    assert!(err.to_string().contains("exploded"));
}
