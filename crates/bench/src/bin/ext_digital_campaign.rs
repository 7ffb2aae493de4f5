//! **Extension A** — the digital-flow results implied by the paper's
//! Section 3: an exhaustive SEU (bit-flip) campaign over every memorised bit
//! of the PLL's digital blocks and its payload, with the classification
//! table the flow's "Failure report / Classification" box produces.
//!
//! ```text
//! cargo run --release -p amsfi-bench --bin ext_digital_campaign
//! ```

use amsfi_bench::{banner, write_result};
use amsfi_core::report;
use amsfi_engine::{campaigns, Engine, EngineConfig, ErrorPolicy};

fn main() {
    banner("Extension A — exhaustive digital SEU campaign (PLL + payload)");
    // The catalog campaign: every mutant bit of the fast PLL with payload,
    // at 4 instants after lock; outputs are the payload's visible buses,
    // internals the loop state signals. Its runs pause at every distinct
    // injection instant, so the from-scratch and checkpointed paths take
    // the same adaptive analog step grid.
    let campaign = campaigns::build("pll-digital", None).expect("pll-digital is a named campaign");
    let first_at = campaign.cases[0].injected_at;
    let targets: Vec<&str> = campaign
        .cases
        .iter()
        .take_while(|c| c.injected_at == first_at)
        .map(|c| c.label.split(" @").next().unwrap_or(&c.label))
        .collect();
    println!("  mutant targets: {}", targets.len());
    for t in &targets {
        println!("    {t}");
    }
    println!(
        "\n  campaign: {} targets x {} injection times = {} runs",
        targets.len(),
        campaign.cases.len() / targets.len(),
        campaign.cases.len()
    );

    let scratch = EngineConfig::default().with_error_policy(ErrorPolicy::FailFast);
    let start = std::time::Instant::now();
    let run = Engine::new(scratch.clone())
        .run(&campaign)
        .expect("campaign");
    let elapsed = start.elapsed();
    let result = &run.result;
    println!(
        "  completed in {elapsed:?} ({:.1} cases/s)\n",
        run.stats.rate()
    );
    print!("{}", run.stats.stage_table());

    banner("Classification summary");
    print!("{}", report::summary_table(result));

    banner("Per-target sensitivity (which nodes need protection)");
    print!("{}", report::per_target_table(result));

    write_result("ext_digital_campaign.csv", &report::cases_csv(result));

    banner("Checkpoint & fork path (amsfi run pll-digital --checkpoint)");
    let ckpt_start = std::time::Instant::now();
    let ckpt_report = Engine::new(scratch.with_checkpoint(true))
        .run(&campaign)
        .expect("checkpointed campaign");
    let ckpt_elapsed = ckpt_start.elapsed();
    assert_eq!(
        ckpt_report.result.golden, result.golden,
        "checkpointed golden trace must be byte-identical to from-scratch"
    );
    assert_eq!(
        ckpt_report.result.cases, result.cases,
        "checkpoint-forked cases must be byte-identical to from-scratch"
    );
    println!(
        "  from-scratch: {elapsed:?}; checkpointed: {ckpt_elapsed:?} \
         ({:.2}x, {:.1} cases/s), traces byte-identical",
        elapsed.as_secs_f64() / ckpt_elapsed.as_secs_f64(),
        ckpt_report.stats.rate()
    );

    banner("Reading");
    println!(
        "  Shift-register bits heal within 8 clock cycles (transient): the\n\
         \x20 corrupted bit is shifted out. Counter bits never heal (failure):\n\
         \x20 the count offset persists. PFD flags and divider state perturb\n\
         \x20 the generated clock's phase, permanently skewing the payload\n\
         \x20 relative to the golden timeline. This per-target table is the\n\
         \x20 paper's 'identify the significant nodes that should be protected,\n\
         \x20 so that overheads are kept to a minimum' output."
    );
}
