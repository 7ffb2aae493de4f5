//! The verdict oracle: each workload's `cases.csv` from the scalar
//! from-scratch path (no checkpoint, no batch), the repository's
//! reference. It is computed untimed in a child process, so its memory
//! never counts toward the measured process, and cached per seed.

use crate::workloads::{Size, Workload};
use amsfi_core::report;
use amsfi_engine::{Engine, EngineConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where the benchmark keeps its working files, relative to the directory
/// it runs in.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench")
}

/// Runs the scalar reference in this process and returns its `cases.csv`.
///
/// # Errors
///
/// Engine failure, or any skipped or quarantined case (the reference
/// must classify every case).
pub fn reference_csv(workload: Workload, seed: u64, size: Size) -> Result<String, String> {
    let campaign = workload.campaign(seed, size, None);
    let report = Engine::new(EngineConfig::default().with_workers(crate::host::nproc()))
        .run(&campaign)
        .map_err(|e| format!("reference run failed: {e}"))?;
    if !report.skipped.is_empty() || !report.quarantined.is_empty() {
        return Err(format!(
            "reference run left {} skipped and {} quarantined case(s)",
            report.skipped.len(),
            report.quarantined.len()
        ));
    }
    Ok(report::cases_csv(&report.result))
}

/// Writes the reference `cases.csv` to `path` (via a temporary file, so a
/// cache entry is never half written).
///
/// # Errors
///
/// See [`reference_csv`]; also file write failure.
pub fn write_reference(
    workload: Workload,
    seed: u64,
    size: Size,
    path: &Path,
) -> Result<(), String> {
    let csv = reference_csv(workload, seed, size)?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, csv)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The reference `cases.csv`, from the cache or from a child process
/// running this executable with `--oracle-to`. Cache entries are keyed by
/// workload, seed, size and the executable's size and modification time,
/// so a rebuilt program never reads a stale reference.
///
/// # Errors
///
/// Child-process or file failure.
pub fn cached_reference(workload: Workload, seed: u64, size: Size) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let stamp = std::fs::metadata(&exe)
        .ok()
        .and_then(|m| {
            let modified = m
                .modified()
                .ok()?
                .duration_since(std::time::UNIX_EPOCH)
                .ok()?;
            Some(format!("{}-{}", m.len(), modified.as_nanos()))
        })
        .unwrap_or_else(|| "unstamped".to_owned());
    let dir = work_dir().join("oracle");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let smoke = size == Size::Smoke;
    let path = dir.join(format!(
        "{}-{seed}-{}-{stamp}.csv",
        workload.name(),
        if smoke { "smoke" } else { "full" }
    ));
    if !path.exists() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name(), "--seed", &seed.to_string()])
            .arg("--oracle-to")
            .arg(&path);
        if smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("starting the reference run: {e}"))?;
        if !status.success() {
            return Err(format!("reference run exited with {status}"));
        }
    }
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}
