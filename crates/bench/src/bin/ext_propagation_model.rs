//! **Extension C** — the "Behavioural model generation" output of the
//! paper's Figs. 2 and 3: instead of only classifying faults, the flow
//! aggregates the injection traces into an error-propagation model showing
//! how an analog strike on the PLL's filter input travels through the loop
//! and into the digital payload.
//!
//! ```text
//! cargo run --release -p amsfi-bench --bin ext_propagation_model
//! ```

use amsfi_bench::{banner, run_cases, write_result};
use amsfi_circuits::pll::{self, names};
use amsfi_core::{plan, ClassifySpec, FaultCase, PropagationModel};
use amsfi_engine::CaseCtx;
use amsfi_waves::{Time, Tolerance, Trace};
use std::sync::{Arc, Mutex};

const T_END: Time = Time::from_us(30);

fn main() {
    banner("Extension C — error-propagation behavioural model (PLL + payload)");
    let mut config = pll::PllConfig::fast();
    config.payload = true;

    // Monitored chain, from the strike point outward:
    // vctrl (analog) -> f_out (clock) -> fb, count bits, shift_out (digital).
    let mut outputs: Vec<String> = (0..8).map(|i| format!("{}[{i}]", names::COUNT)).collect();
    outputs.push(names::SHIFT_OUT.to_owned());
    let spec = ClassifySpec::new((Time::from_us(10), T_END), outputs)
        .with_internals(vec![
            names::VCTRL.to_owned(),
            names::F_OUT.to_owned(),
            names::FB.to_owned(),
        ])
        .with_tolerance(Tolerance::new(0.02, 0.0));

    let pulses = plan::pulse_grid(&[5.0, 10.0, 20.0], &[100], &[300], &[500, 1_000]);
    let times = plan::uniform_times(Time::from_us(12), Time::from_us(15), 3);
    let mut cases = Vec::new();
    let mut setup = Vec::new();
    for (pi, p) in pulses.iter().enumerate() {
        for (ti, &at) in times.iter().enumerate() {
            cases.push(FaultCase::new(format!("icp {p}"), at));
            setup.push((pi, ti));
        }
    }
    println!("  {} strikes on the loop-filter input node", cases.len());

    // Capture the faulty traces alongside classification (the engine does
    // not retain them), one slot per case index.
    let slots: Arc<Vec<Mutex<Option<Trace>>>> =
        Arc::new(cases.iter().map(|_| Mutex::new(None)).collect());
    let runner = {
        let slots = Arc::clone(&slots);
        Arc::new(move |ctx: &CaseCtx| {
            let cfg = match ctx.index() {
                Some(i) => {
                    let (pi, ti) = setup[i];
                    config.clone().with_fault(pulses[pi], times[ti])
                }
                None => config.clone(),
            };
            let mut bench = pll::build(&cfg);
            bench.monitor_standard();
            bench.mixed.analog_mut().monitor_name(names::VCTRL);
            bench.run_until(T_END)?;
            let trace = bench.trace();
            if let Some(i) = ctx.index() {
                *slots[i].lock().expect("trace slot poisoned") = Some(trace.clone());
            }
            Ok(trace)
        })
    };
    let result = run_cases("campaign", &spec, cases, runner);
    let faulty_traces: Vec<Trace> = slots
        .iter()
        .map(|slot| {
            slot.lock()
                .expect("trace slot poisoned")
                .take()
                .expect("case ran")
        })
        .collect();

    let model = PropagationModel::from_traces(&spec, &result, &faulty_traces);

    banner("Signal hit counts (how often each monitored signal diverged)");
    for (node, hits) in &model.node_hits {
        println!("  {node:<16} {hits:>4} / {} cases", model.cases);
    }

    banner("Propagation orderings (first-divergence sequences)");
    println!(
        "  {:<16} -> {:<16} {:>6} {:>16}",
        "from", "to", "cases", "mean delay"
    );
    for e in &model.edges {
        println!(
            "  {:<16} -> {:<16} {:>6} {:>16}",
            e.from,
            e.to,
            e.count,
            e.mean_delay.to_string()
        );
    }

    println!();
    println!("  dominant path: {}", model.dominant_path().join(" -> "));

    let dot = model.to_dot();
    write_result("ext_propagation_model.dot", &dot);

    banner("Reading");
    println!(
        "  The dominant chain starts at the strike point (vctrl), reaches the\n\
         \x20 generated clock (f_out) within the loop's response time, and then\n\
         \x20 fans out into the payload (count bits, shift_out) and the feedback\n\
         \x20 divider — the error-propagation view the paper's flow generates to\n\
         \x20 'refine the dependability analysis in the digital part, taking\n\
         \x20 into account multiple errors when necessary'."
    );
    assert!(model.cases > 0, "at least one strike must propagate");
}
