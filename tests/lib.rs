//! Shared helpers for the `amsfi` integration test suite.

use amsfi_circuits::pll;
use amsfi_core::{CampaignResult, ClassifySpec, FaultCase};
use amsfi_engine::{Campaign, CaseRunner, Engine, EngineConfig, EngineError, ErrorPolicy};
use amsfi_waves::{Time, Trace};

/// Builds, monitors and runs a PLL bench to `t_end`, returning its trace.
///
/// # Panics
///
/// Panics if the simulation reports an error.
pub fn run_pll(config: &pll::PllConfig, t_end: Time) -> Trace {
    let mut bench = pll::build(config);
    bench.monitor_standard();
    bench.run_until(t_end).expect("pll simulation");
    bench.trace()
}

/// The fast-locking PLL configuration used throughout the integration tests.
pub fn fast_pll() -> pll::PllConfig {
    pll::PllConfig::fast()
}

/// Runs a from-scratch campaign over `cases` on `workers` engine threads
/// (`0`: one per core). The first failing case fails the whole run
/// ([`ErrorPolicy::FailFast`]).
///
/// # Errors
///
/// The engine's error for a failed golden run or the first failed case.
pub fn run_cases(
    spec: &ClassifySpec,
    cases: Vec<FaultCase>,
    workers: usize,
    runner: CaseRunner,
) -> Result<CampaignResult, EngineError> {
    let campaign = Campaign {
        name: "integration".to_owned(),
        spec: spec.clone(),
        cases,
        runner,
        fork: None,
        batch: None,
        word: None,
    };
    let config = EngineConfig::default()
        .with_workers(workers)
        .with_error_policy(ErrorPolicy::FailFast);
    Ok(Engine::new(config).run(&campaign)?.result)
}
