//! Determinism of the workload generators, and a smoke run of every
//! workload through the real command line.

use amsfi_perfbench::run::{END_TO_END, PER_LAYER};
use amsfi_perfbench::workloads::{Size, Workload};
use std::process::Command;

#[test]
fn the_seed_alone_fixes_the_campaign() {
    for size in [Size::Smoke, Size::Full] {
        for workload in Workload::ALL {
            let a = workload.campaign(7, size, None).meta();
            let b = workload.campaign(7, size, None).meta();
            let c = workload.campaign(8, size, None).meta();
            assert_eq!(
                a,
                b,
                "{} {size:?}: same seed, different campaign",
                workload.name()
            );
            assert_ne!(
                a.fingerprint,
                c.fingerprint,
                "{} {size:?}: different seeds, same campaign",
                workload.name()
            );
        }
    }
}

/// Checks that `line` carries exactly the metrics of `table`, each with
/// its unit.
fn assert_metrics(line: &str, table: &[(&str, &str)], what: &str) {
    for (name, unit) in table {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{what}: metric {name} missing from {line}"));
        let rest = &line[at + key.len()..];
        let entry = &rest[..rest.find('}').expect("metric object closes")];
        assert!(
            entry.ends_with(&format!(", \"unit\": \"{unit}\"")),
            "{what}: metric {name} has no unit {unit}: {entry}"
        );
    }
    assert_eq!(
        line.matches("\"unit\": ").count(),
        table.len(),
        "{what}: unexpected metrics in {line}"
    );
}

#[test]
fn every_workload_prints_every_metric_and_matches_the_reference() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    for workload in Workload::ALL {
        for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let what = format!("{} --trace {trace}", workload.name());
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(dir)
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    "3",
                    "--seconds",
                    "0",
                ])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("benchmark starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{what}: exit {}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{what}: {line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{what}: {line}");
            assert_metrics(line, table, &what);
        }
    }
}

#[test]
fn benchmark_json_declares_the_printed_metrics_and_workloads() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    for workload in Workload::ALL {
        assert!(manifest.contains(&format!("\"name\": \"{}\", \"why\": ", workload.name())));
    }
    assert_eq!(
        manifest.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len(),
        "BENCHMARK.json declares metrics or workloads the benchmark does not print"
    );
}
