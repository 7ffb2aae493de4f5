//! Textual and CSV campaign reports (the "Failure report" flow output).

use crate::campaign::CampaignResult;
use crate::classify::FaultClass;
use std::fmt::Write as _;

/// Renders a fixed-width summary table: one row per class plus totals.
///
/// # Examples
///
/// ```
/// use amsfi_core::{classify, report, CampaignResult, CaseResult, ClassifySpec, FaultCase};
/// use amsfi_waves::{Time, Trace};
///
/// let spec = ClassifySpec::new((Time::ZERO, Time::from_us(1)), vec![]);
/// let golden = Trace::new();
/// let outcome = classify(&spec, &golden, &Trace::new());
/// let case = FaultCase::new("x", Time::ZERO);
/// let result = CampaignResult { golden, cases: vec![CaseResult { case, outcome }] };
/// let table = report::summary_table(&result);
/// assert!(table.contains("no-effect"));
/// ```
pub fn summary_table(result: &CampaignResult) -> String {
    let summary = result.summary();
    let total: usize = summary.iter().map(|&(_, n)| n).sum();
    let mut out = String::new();
    let _ = writeln!(out, "{:<12} {:>8} {:>8}", "class", "count", "share");
    let _ = writeln!(out, "{:-<12} {:->8} {:->8}", "", "", "");
    for (class, count) in summary {
        let share = if total == 0 {
            0.0
        } else {
            100.0 * count as f64 / total as f64
        };
        let _ = writeln!(out, "{:<12} {count:>8} {share:>7.1}%", class.to_string());
    }
    let _ = writeln!(out, "{:-<12} {:->8} {:->8}", "", "", "");
    let _ = writeln!(out, "{:<12} {total:>8}", "total");
    if let Some(latency) = result.mean_latency() {
        let _ = writeln!(out, "mean error latency: {latency}");
    }
    out
}

/// Renders one CSV row per case: label, injection time, class, onset, end,
/// total mismatch, affected signals.
pub fn cases_csv(result: &CampaignResult) -> String {
    let mut out =
        String::from("label,injected_at_s,class,onset_s,end_s,total_mismatch_s,affected\n");
    for c in &result.cases {
        let fmt_opt =
            |t: Option<amsfi_waves::Time>| t.map_or(String::new(), |t| t.as_secs_f64().to_string());
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            c.case.label.replace(',', ";"),
            c.case.injected_at.as_secs_f64(),
            c.outcome.class,
            fmt_opt(c.outcome.error_onset),
            fmt_opt(c.outcome.error_end),
            c.outcome.total_mismatch.as_secs_f64(),
            c.outcome.affected.join("|"),
        );
    }
    out
}

/// Renders a per-target breakdown: groups case labels by the part before
/// `" @"` or the whole label, and tabulates class counts per target —
/// the "identify the significant nodes that should be protected" view of
/// the paper's introduction.
pub fn per_target_table(result: &CampaignResult) -> String {
    use std::collections::BTreeMap;
    let mut per: BTreeMap<&str, [usize; FaultClass::ALL.len()]> = BTreeMap::new();
    for c in &result.cases {
        let target = c.case.label.split(" @").next().unwrap_or(&c.case.label);
        let counts = per.entry(target).or_default();
        let idx = FaultClass::ALL
            .iter()
            .position(|&k| k == c.outcome.class)
            .expect("every class is in ALL");
        counts[idx] += 1;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>9} {:>8} {:>10} {:>8} {:>11}",
        "target", "no-effect", "latent", "transient", "failure", "sim-failure"
    );
    let _ = writeln!(out, "{:-<82}", "");
    for (target, [ne, la, tr, fa, sf]) in per {
        let _ = writeln!(
            out,
            "{target:<32} {ne:>9} {la:>8} {tr:>10} {fa:>8} {sf:>11}"
        );
    }
    out
}

/// The 95 % Wilson score interval for an observed proportion
/// `hits / trials` — the standard way to quote a sampled campaign's failure
/// rate with its statistical confidence.
///
/// Returns `(low, high)`; `(0, 0)` when `trials` is zero.
///
/// # Examples
///
/// ```
/// use amsfi_core::report::wilson_interval;
///
/// let (lo, hi) = wilson_interval(10, 100);
/// assert!(lo > 0.04 && lo < 0.1);
/// assert!(hi > 0.1 && hi < 0.18);
/// ```
pub fn wilson_interval(hits: usize, trials: usize) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 0.0);
    }
    let n = trials as f64;
    let p = hits as f64 / n;
    let z = 1.959_963_985; // 95 %
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = p + z2 / (2.0 * n);
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((centre - margin) / denom).max(0.0),
        ((centre + margin) / denom).min(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CaseResult, FaultCase};
    use crate::classify::{classify, ClassifySpec};
    use amsfi_waves::{Logic, Time, Trace};

    fn sample_result() -> CampaignResult {
        let spec = ClassifySpec::new((Time::ZERO, Time::from_us(1)), vec!["out".to_owned()]);
        let cases = vec![
            FaultCase::new("ff0.q[0] @ 100 ns", Time::from_ns(100)),
            FaultCase::new("ff0.q[1] @ 100 ns", Time::from_ns(100)),
            FaultCase::new("ff1.q[0] @ 100 ns", Time::from_ns(100)),
        ];
        let trace = |case: Option<usize>| {
            let mut t = Trace::new();
            t.record_digital("out", Time::ZERO, Logic::Zero).unwrap();
            if case == Some(1) {
                t.record_digital("out", Time::from_ns(200), Logic::One)
                    .unwrap();
            }
            t
        };
        let golden = trace(None);
        let cases = cases
            .into_iter()
            .enumerate()
            .map(|(i, case)| CaseResult {
                case,
                outcome: classify(&spec, &golden, &trace(Some(i))),
            })
            .collect();
        CampaignResult { golden, cases }
    }

    #[test]
    fn summary_table_shows_counts_and_shares() {
        let table = summary_table(&sample_result());
        assert!(table.contains("no-effect"));
        assert!(table.contains("failure"));
        assert!(table.contains("total"));
        // Two no-effect of three = 66.7 %.
        assert!(table.contains("66.7%"), "{table}");
    }

    #[test]
    fn csv_has_one_row_per_case() {
        let csv = cases_csv(&sample_result());
        assert_eq!(csv.lines().count(), 4); // header + 3 cases
        assert!(csv.lines().nth(2).unwrap().contains("failure"));
    }

    #[test]
    fn wilson_interval_brackets_the_point_estimate() {
        let (lo, hi) = wilson_interval(5, 50);
        assert!(lo < 0.1 && hi > 0.1);
        assert!(lo >= 0.0 && hi <= 1.0);
        // Zero hits still has a nonzero upper bound (rule of three).
        let (lo0, hi0) = wilson_interval(0, 50);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 0.12);
        // Degenerate inputs.
        assert_eq!(wilson_interval(0, 0), (0.0, 0.0));
        let (_, hi_all) = wilson_interval(50, 50);
        assert!(hi_all <= 1.0);
    }

    #[test]
    fn per_target_groups_by_label_prefix() {
        let table = per_target_table(&sample_result());
        assert!(table.contains("ff0.q[0]"));
        assert!(table.contains("ff0.q[1]"));
        assert!(table.contains("ff1.q[0]"));
    }
}
