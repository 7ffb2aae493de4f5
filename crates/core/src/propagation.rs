//! Error-propagation behavioural model generation.
//!
//! The "Behavioural model generation" output of the paper's Figs. 2 and 3:
//! instead of only classifying each fault, the flow can build "a more
//! complete model showing the error propagations in the circuit". This
//! module aggregates, over every case of a campaign, the order in which
//! monitored signals first diverged, into a weighted propagation graph.

use crate::campaign::CampaignResult;
use crate::classify::ClassifySpec;
use amsfi_waves::{compare_analog, compare_digital_with_skew, Time, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A directed edge `from → to`: in `count` cases, signal `from` diverged
/// and signal `to` diverged next (within the propagation window).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationEdge {
    /// Earlier-diverging signal.
    pub from: String,
    /// Next signal to diverge.
    pub to: String,
    /// Number of cases exhibiting this ordering.
    pub count: usize,
    /// Mean delay between the two first-divergences.
    pub mean_delay: Time,
}

/// An aggregated error-propagation model.
#[derive(Debug, Clone, Default)]
pub struct PropagationModel {
    /// Per-signal: in how many cases it diverged at all.
    pub node_hits: BTreeMap<String, usize>,
    /// Observed propagation orderings.
    pub edges: Vec<PropagationEdge>,
    /// Number of cases contributing (those with at least one divergence).
    pub cases: usize,
}

impl PropagationModel {
    /// Builds the model from per-case first-divergence sequences.
    ///
    /// `faulty_traces` must be in the same order as `result.cases` (the
    /// campaign engine does not retain faulty traces, so callers that want a
    /// propagation model re-run or capture them).
    pub fn from_traces(
        spec: &ClassifySpec,
        result: &CampaignResult,
        faulty_traces: &[Trace],
    ) -> Self {
        assert_eq!(
            result.cases.len(),
            faulty_traces.len(),
            "one faulty trace per case required"
        );
        let mut model = PropagationModel::default();
        let mut edge_acc: BTreeMap<(String, String), (usize, Time)> = BTreeMap::new();
        for faulty in faulty_traces {
            let mut firsts: Vec<(Time, String)> = Vec::new();
            for name in spec.outputs.iter().chain(&spec.internals) {
                let (from, to) = spec.window;
                let first = if let (Some(g), Some(f)) =
                    (result.golden.digital(name), faulty.digital(name))
                {
                    compare_digital_with_skew(g, f, from, to, spec.merge_gap, spec.digital_skew)
                        .first_divergence()
                } else if let (Some(g), Some(f)) = (result.golden.analog(name), faulty.analog(name))
                {
                    compare_analog(g, f, from, to, spec.analog_tolerance, spec.merge_gap)
                        .first_divergence()
                } else {
                    None
                };
                if let Some(t) = first {
                    firsts.push((t, name.clone()));
                }
            }
            if firsts.is_empty() {
                continue;
            }
            model.cases += 1;
            firsts.sort();
            for (_, name) in &firsts {
                *model.node_hits.entry(name.clone()).or_default() += 1;
            }
            for pair in firsts.windows(2) {
                let key = (pair[0].1.clone(), pair[1].1.clone());
                let entry = edge_acc.entry(key).or_insert((0, Time::ZERO));
                entry.0 += 1;
                entry.1 += pair[1].0 - pair[0].0;
            }
        }
        model.edges = edge_acc
            .into_iter()
            .map(|((from, to), (count, total))| PropagationEdge {
                from,
                to,
                count,
                mean_delay: total / count as i64,
            })
            .collect();
        model
    }

    /// The dominant propagation path: starting from the signal that most
    /// often diverged *first*, greedily follows the highest-count outgoing
    /// edge until no unvisited successor remains. Returns the signal names
    /// in propagation order (empty for an empty model).
    pub fn dominant_path(&self) -> Vec<String> {
        // The most frequent path head: a node that appears as `from` more
        // often than as `to`.
        let mut head_score: BTreeMap<&str, i64> = BTreeMap::new();
        for e in &self.edges {
            *head_score.entry(&e.from).or_default() += e.count as i64;
            *head_score.entry(&e.to).or_default() -= e.count as i64;
        }
        let Some((start, _)) = head_score
            .iter()
            .max_by_key(|&(name, score)| (*score, std::cmp::Reverse(name.to_owned())))
        else {
            return Vec::new();
        };
        let mut path = vec![(*start).to_owned()];
        let mut current = (*start).to_owned();
        loop {
            let next = self
                .edges
                .iter()
                .filter(|e| e.from == current && !path.contains(&e.to))
                .max_by_key(|e| e.count);
            match next {
                Some(e) => {
                    path.push(e.to.clone());
                    current = e.to.clone();
                }
                None => return path,
            }
        }
    }

    /// Renders the model as a Graphviz DOT digraph (edge labels: case count
    /// and mean propagation delay).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph error_propagation {\n  rankdir=LR;\n");
        for (node, hits) in &self.node_hits {
            let _ = writeln!(out, "  \"{node}\" [label=\"{node}\\n{hits} hits\"];");
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{} cases, {}\"];",
                e.from, e.to, e.count, e.mean_delay
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CaseResult, FaultCase};
    use crate::classify::classify;
    use amsfi_waves::Logic;

    fn spec() -> ClassifySpec {
        ClassifySpec::new((Time::ZERO, Time::from_us(1)), vec!["out".to_owned()])
            .with_internals(vec!["mid".to_owned()])
    }

    /// mid diverges at 100 ns, out at 150 ns: a clean mid -> out propagation.
    fn faulty_trace() -> Trace {
        let mut t = Trace::new();
        t.record_digital("mid", Time::ZERO, Logic::Zero).unwrap();
        t.record_digital("out", Time::ZERO, Logic::Zero).unwrap();
        t.record_digital("mid", Time::from_ns(100), Logic::One)
            .unwrap();
        t.record_digital("out", Time::from_ns(150), Logic::One)
            .unwrap();
        t
    }

    fn golden_trace() -> Trace {
        let mut t = Trace::new();
        t.record_digital("mid", Time::ZERO, Logic::Zero).unwrap();
        t.record_digital("out", Time::ZERO, Logic::Zero).unwrap();
        t
    }

    /// A campaign result over `faulty`, one case per trace, classified
    /// against [`golden_trace`].
    fn result(spec: &ClassifySpec, injected_at: Time, faulty: &[Trace]) -> CampaignResult {
        let golden = golden_trace();
        let cases = faulty
            .iter()
            .map(|trace| CaseResult {
                case: FaultCase::new("t0", injected_at),
                outcome: classify(spec, &golden, trace),
            })
            .collect();
        CampaignResult { golden, cases }
    }

    #[test]
    fn model_captures_ordering_and_delay() {
        let spec = spec();
        let traces = vec![faulty_trace(); 3];
        let result = result(&spec, Time::from_ns(50), &traces);
        let model = PropagationModel::from_traces(&spec, &result, &traces);
        assert_eq!(model.cases, 3);
        assert_eq!(model.node_hits["mid"], 3);
        assert_eq!(model.node_hits["out"], 3);
        assert_eq!(model.edges.len(), 1);
        let e = &model.edges[0];
        assert_eq!((e.from.as_str(), e.to.as_str()), ("mid", "out"));
        assert_eq!(e.count, 3);
        assert_eq!(e.mean_delay, Time::from_ns(50));
    }

    #[test]
    fn dot_output_is_well_formed() {
        let spec = spec();
        let traces = [faulty_trace()];
        let result = result(&spec, Time::ZERO, &traces);
        let model = PropagationModel::from_traces(&spec, &result, &traces);
        let dot = model.to_dot();
        assert!(dot.starts_with("digraph error_propagation {"));
        assert!(dot.contains("\"mid\" -> \"out\""));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dominant_path_follows_heaviest_edges() {
        let spec = spec();
        let traces = [faulty_trace(), faulty_trace()];
        let result = result(&spec, Time::ZERO, &traces);
        let model = PropagationModel::from_traces(&spec, &result, &traces);
        assert_eq!(
            model.dominant_path(),
            vec!["mid".to_owned(), "out".to_owned()]
        );
    }

    #[test]
    fn no_divergence_means_empty_model() {
        let spec = spec();
        let traces = [golden_trace()];
        let result = result(&spec, Time::ZERO, &traces);
        let model = PropagationModel::from_traces(&spec, &result, &traces);
        assert_eq!(model.cases, 0);
        assert!(model.edges.is_empty());
        assert!(model.node_hits.is_empty());
    }
}
