//! PR 7 acceptance properties for bit-parallel (`--batch`) execution:
//!
//! * a batch engine run produces case results **byte-identical** to the
//!   scalar run of the same campaign — same classes, onsets, affected
//!   lists, same golden trace;
//! * a lane that fails deterministically mid-batch is quarantined (under
//!   `--quarantine`) *alone*: every other lane's verdict still matches
//!   the scalar run;
//! * batch + `--early-abort` seals the same verdict classes the full
//!   post-hoc run derives.

use amsfi_core::{plan, ClassifySpec, FaultCase};
use amsfi_digital::{cells, InjectTarget, Netlist, Simulator};
use amsfi_engine::{campaigns, Campaign, CaseCtx, Engine, EngineConfig, Event, Telemetry};
use amsfi_waves::{Logic, Time};
use std::sync::Arc;

const T_END: Time = Time::from_us(2);

fn build_counter() -> Simulator {
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
    let mut sim = Simulator::new(net);
    sim.monitor_name("q");
    sim
}

/// A counter SEU campaign over `bits x times`, built through
/// [`Campaign::forked_batch`]. `poison` makes that case's inject closure
/// fail deterministically (chaos lane).
fn counter_campaign(bits: &[usize], times: &[Time], poison: Option<usize>) -> Campaign {
    let targets = build_counter().mutant_targets();
    let ctr = targets
        .iter()
        .find(|t| t.component_name == "ctr")
        .expect("counter target")
        .component;
    let mut cases = Vec::new();
    let mut setup = Vec::new();
    for &at in times {
        for &bit in bits {
            cases.push(FaultCase::new(format!("ctr bit{bit} @ {at}"), at));
            setup.push(bit);
        }
    }
    let spec = ClassifySpec::new(
        (Time::ZERO, T_END),
        (0..8).map(|i| format!("q[{i}]")).collect(),
    );
    let setup = Arc::new(setup);
    Campaign::forked_batch(
        "batch-equivalence",
        spec,
        cases,
        T_END,
        |_ctx: &CaseCtx| Ok(build_counter()),
        move |sim: &mut dyn InjectTarget, i| {
            if poison == Some(i) {
                return Err("chaos: injector wiring fault".into());
            }
            sim.flip_state(ctr, setup[i]);
            Ok(())
        },
    )
}

fn times() -> Vec<Time> {
    plan::uniform_times(Time::from_ns(100), Time::from_ns(900), 3)
}

#[test]
fn batch_run_equals_scalar_run_byte_for_byte() {
    let campaign = counter_campaign(&[0, 3, 7], &times(), None);
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .expect("scalar run");
    let batch = Engine::new(EngineConfig::default().with_workers(2).with_batch(true))
        .run(&campaign)
        .expect("batch run");
    assert_eq!(scalar.result.golden, batch.result.golden);
    assert_eq!(scalar.result.cases.len(), batch.result.cases.len());
    for (a, b) in scalar.result.cases.iter().zip(&batch.result.cases) {
        assert_eq!(a, b, "case {} diverged between paths", a.case);
    }
}

#[test]
fn batch_flag_without_batch_spec_falls_back_to_scalar() {
    // A plain `forked` campaign carries no batch spec; `--batch` must be a
    // no-op rather than an error.
    let with_spec = counter_campaign(&[1], &times(), None);
    let campaign = Campaign {
        batch: None,
        ..with_spec.clone()
    };
    let scalar = Engine::new(EngineConfig::default())
        .run(&with_spec)
        .expect("scalar run");
    let fallback = Engine::new(EngineConfig::default().with_batch(true))
        .run(&campaign)
        .expect("fallback run");
    for (a, b) in scalar.result.cases.iter().zip(&fallback.result.cases) {
        assert_eq!(a, b);
    }
}

#[test]
fn chaos_lane_is_quarantined_alone() {
    let poison = 4;
    let clean = counter_campaign(&[0, 3, 7], &times(), None);
    let chaotic = counter_campaign(&[0, 3, 7], &times(), Some(poison));
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&clean)
        .expect("scalar reference");

    let dir = std::env::temp_dir().join(format!("amsfi-batch-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("chaos.journal");
    let _ = std::fs::remove_file(&journal);
    let report = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_batch(true)
            .with_quarantine(true)
            .with_journal(&journal),
    )
    .run(&chaotic)
    .expect("chaotic batch run");

    // The poison lane alone is quarantined, with a journal poison marker.
    assert_eq!(report.quarantined.len(), 1, "exactly one poison case");
    assert_eq!(report.quarantined[0].index, poison);
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    assert!(
        text.contains("quarantine="),
        "journal lacks quarantine= marker:\n{text}"
    );

    // Every other lane's verdict is identical to the scalar reference.
    assert_eq!(report.result.cases.len(), scalar.result.cases.len() - 1);
    let surviving: Vec<_> = scalar
        .result
        .cases
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != poison)
        .map(|(_, c)| c)
        .collect();
    for (a, b) in surviving.iter().zip(&report.result.cases) {
        assert_eq!(*a, b, "case {} diverged around the chaos lane", a.case);
    }
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn batch_early_abort_seals_scalar_classes() {
    let campaign = counter_campaign(&[0, 3, 7], &times(), None);
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .expect("scalar run");
    let batch = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_batch(true)
            .with_early_abort(true),
    )
    .run(&campaign)
    .expect("batch early-abort run");
    assert_eq!(scalar.result.cases.len(), batch.result.cases.len());
    for (a, b) in scalar.result.cases.iter().zip(&batch.result.cases) {
        assert_eq!(
            a.outcome.class, b.outcome.class,
            "case {} class diverged under batch early abort",
            a.case
        );
    }
}

#[test]
fn cpu_campaign_batches_byte_identically() {
    let campaign = campaigns::build("cpu", Some(8)).expect("cpu campaign");
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .expect("scalar run");
    let batch = Engine::new(EngineConfig::default().with_workers(2).with_batch(true))
        .run(&campaign)
        .expect("batch run");
    assert_eq!(scalar.result.golden, batch.result.golden);
    for (a, b) in scalar.result.cases.iter().zip(&batch.result.cases) {
        assert_eq!(a, b, "cpu case {} diverged between paths", a.case);
    }
}

#[test]
fn word_run_equals_scalar_run_byte_for_byte() {
    let campaign = counter_campaign(&[0, 3, 7], &times(), None);
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .expect("scalar run");
    let word = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_batch(true)
            .with_word(true),
    )
    .run(&campaign)
    .expect("word run");
    assert_eq!(scalar.result.golden, word.result.golden);
    assert_eq!(scalar.result.cases.len(), word.result.cases.len());
    for (a, b) in scalar.result.cases.iter().zip(&word.result.cases) {
        assert_eq!(a, b, "case {} diverged between scalar and word", a.case);
    }
}

#[test]
fn word_flag_without_word_spec_falls_back_to_batch() {
    // Dropping the word spec must degrade to the lane-cloned batch path,
    // not error out.
    let with_spec = counter_campaign(&[1, 5], &times(), None);
    let campaign = Campaign {
        word: None,
        ..with_spec.clone()
    };
    let scalar = Engine::new(EngineConfig::default())
        .run(&with_spec)
        .expect("scalar run");
    let fallback = Engine::new(EngineConfig::default().with_batch(true).with_word(true))
        .run(&campaign)
        .expect("fallback run");
    for (a, b) in scalar.result.cases.iter().zip(&fallback.result.cases) {
        assert_eq!(a, b);
    }
}

#[test]
fn word_chaos_lane_is_quarantined_alone() {
    let poison = 4;
    let clean = counter_campaign(&[0, 3, 7], &times(), None);
    let chaotic = counter_campaign(&[0, 3, 7], &times(), Some(poison));
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&clean)
        .expect("scalar reference");
    let report = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_batch(true)
            .with_word(true)
            .with_quarantine(true),
    )
    .run(&chaotic)
    .expect("chaotic word run");
    assert_eq!(report.quarantined.len(), 1, "exactly one poison case");
    assert_eq!(report.quarantined[0].index, poison);
    let surviving: Vec<_> = scalar
        .result
        .cases
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != poison)
        .map(|(_, c)| c)
        .collect();
    for (a, b) in surviving.iter().zip(&report.result.cases) {
        assert_eq!(*a, b, "case {} diverged around the word chaos lane", a.case);
    }
}

#[test]
fn word_early_abort_seals_scalar_classes() {
    let campaign = counter_campaign(&[0, 3, 7], &times(), None);
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .expect("scalar run");
    let word = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_batch(true)
            .with_word(true)
            .with_early_abort(true),
    )
    .run(&campaign)
    .expect("word early-abort run");
    assert_eq!(scalar.result.cases.len(), word.result.cases.len());
    for (a, b) in scalar.result.cases.iter().zip(&word.result.cases) {
        assert_eq!(
            a.outcome.class, b.outcome.class,
            "case {} class diverged under word early abort",
            a.case
        );
    }
}

#[test]
fn cpu_campaign_word_runs_byte_identically() {
    let campaign = campaigns::build("cpu", Some(8)).expect("cpu campaign");
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .expect("scalar run");
    let word = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_batch(true)
            .with_word(true),
    )
    .run(&campaign)
    .expect("word run");
    assert_eq!(scalar.result.golden, word.result.golden);
    for (a, b) in scalar.result.cases.iter().zip(&word.result.cases) {
        assert_eq!(a, b, "cpu case {} diverged between scalar and word", a.case);
    }
}

#[test]
fn cpu_set_campaign_word_runs_byte_identically() {
    // The saboteur has no native word cell, so this exercises the
    // lane-farm fallback plus `component_mut` lane access end to end.
    let campaign = campaigns::build("cpu-set", Some(6)).expect("cpu-set campaign");
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .expect("scalar run");
    let word = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_batch(true)
            .with_word(true),
    )
    .run(&campaign)
    .expect("word run");
    assert_eq!(scalar.result.golden, word.result.golden);
    for (a, b) in scalar.result.cases.iter().zip(&word.result.cases) {
        assert_eq!(a, b, "cpu-set case {} diverged between paths", a.case);
    }
}

#[test]
fn checkpoint_with_word_batch_captures_no_snapshots() {
    // Word groups never fork and their scalar fallbacks run from scratch,
    // so `--checkpoint --batch --word` must not take the snapshotting
    // golden run: same journal as `--batch --word`, zero snapshots.
    let campaign = campaigns::build("cpu", Some(8)).expect("cpu campaign");
    assert!(campaign.fork.is_some() && campaign.word.is_some());
    let dir = std::env::temp_dir().join(format!("amsfi-ckpt-word-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |checkpoint: bool| {
        let tag = if checkpoint { "ckpt" } else { "plain" };
        let journal = dir.join(format!("{tag}.journal"));
        let events = dir.join(format!("{tag}.jsonl"));
        let _ = std::fs::remove_file(&journal);
        let tele = Telemetry::builder()
            .events_path(&events)
            .build()
            .expect("telemetry");
        Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_batch(true)
                .with_word(true)
                .with_checkpoint(checkpoint)
                .with_journal(&journal)
                .with_telemetry(tele.clone()),
        )
        .run(&campaign)
        .expect("word run");
        tele.close();
        let mut lines: Vec<String> = std::fs::read_to_string(&journal)
            .expect("journal readable")
            .lines()
            .map(str::to_owned)
            .collect();
        lines.sort();
        let golden = std::fs::read_to_string(&events)
            .expect("events readable")
            .lines()
            .map(|l| Event::parse(l).expect("event parses"))
            .find(|e| e.kind == "span" && e.name == "golden")
            .expect("golden span");
        (lines, golden)
    };
    let (plain, _) = run(false);
    let (checkpointed, golden) = run(true);
    assert_eq!(plain, checkpointed);
    let snapshots = golden
        .fields
        .iter()
        .find(|(k, _)| k == "snapshots")
        .map(|(_, v)| v.as_str());
    assert_eq!(snapshots, Some("0"));
    let _ = std::fs::remove_dir_all(&dir);
}
