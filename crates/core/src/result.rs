//! Alignment run results.

use crate::objective::ObjectiveValue;
use crate::trace::{Json, RunTrace};
use netalign_matching::Matching;

/// Per-iteration record (kept when `record_history` is set).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (1-based, matching the paper's pseudo-code).
    pub iteration: usize,
    /// Objective of the rounded solution at this iteration (best of the
    /// iterates rounded here).
    pub objective: f64,
    /// Matching weight `wᵀx` of that solution.
    pub weight: f64,
    /// Overlap `xᵀSx/2` of that solution.
    pub overlap: f64,
    /// MR only: the Lagrangian upper bound `w̄ᵀx`.
    pub upper_bound: Option<f64>,
}

/// One step of every aligner's incumbent fold over its roundings: record
/// the rounding of `iteration` in `history` if `record_history`, and make
/// it the incumbent `best = (objective, iteration)` if its objective is
/// strictly above (a tie keeps the earlier). Returns whether it did; the
/// caller keeps the incumbent's vector.
pub(crate) fn fold_incumbent(
    history: &mut Vec<IterationRecord>,
    record_history: bool,
    best: &mut Option<(f64, usize)>,
    iteration: usize,
    value: ObjectiveValue,
    upper_bound: Option<f64>,
) -> bool {
    if record_history {
        history.push(IterationRecord {
            iteration,
            objective: value.total,
            weight: value.weight,
            overlap: value.overlap,
            upper_bound,
        });
    }
    let better = best.is_none_or(|(b, _)| value.total > b);
    if better {
        *best = Some((value.total, iteration));
    }
    better
}

/// The outcome of a BP or MR run.
#[derive(Clone, Debug)]
pub struct AlignmentResult {
    /// The best rounded matching found.
    pub matching: Matching,
    /// Its objective `α·weight + β·overlap`.
    pub objective: f64,
    /// Its matching weight `wᵀx`.
    pub weight: f64,
    /// Its overlap count `xᵀSx/2`.
    pub overlap: f64,
    /// Iteration at which the best solution appeared.
    pub best_iteration: usize,
    /// MR only: best (smallest) upper bound seen; `objective /
    /// upper_bound` is an a-posteriori approximation guarantee.
    pub upper_bound: Option<f64>,
    /// Per-iteration history (empty unless requested).
    pub history: Vec<IterationRecord>,
    /// Per-step timing spans, matcher counters, and aligner counters.
    pub trace: RunTrace,
}

impl AlignmentResult {
    /// MR's a-posteriori approximation ratio `objective / upper_bound`,
    /// when an upper bound is available and positive.
    pub fn approximation_ratio(&self) -> Option<f64> {
        self.upper_bound
            .filter(|&u| u > 0.0)
            .map(|u| self.objective / u)
    }

    /// Machine-readable run report: solution quality plus the full
    /// observability trace (step spans, matcher counters, aligner
    /// counters). Render with [`Json::render`] /
    /// [`Json::render_line`].
    pub fn report_json(&self) -> Json {
        Json::obj(vec![
            ("objective", Json::F64(self.objective)),
            ("weight", Json::F64(self.weight)),
            ("overlap", Json::F64(self.overlap)),
            ("best_iteration", Json::U64(self.best_iteration as u64)),
            (
                "upper_bound",
                self.upper_bound.map_or(Json::Null, Json::F64),
            ),
            (
                "approximation_ratio",
                self.approximation_ratio().map_or(Json::Null, Json::F64),
            ),
            (
                "matching_cardinality",
                Json::U64(self.matching.cardinality() as u64),
            ),
            ("trace", self.trace.to_json()),
        ])
    }

    /// Human-readable run report: quality line plus the trace's table.
    pub fn report_table(&self) -> String {
        let mut out = format!(
            "objective {:.3} (weight {:.3}, overlap {:.0}), best at iteration {}\n",
            self.objective, self.weight, self.overlap, self.best_iteration
        );
        if let Some(ratio) = self.approximation_ratio() {
            out.push_str(&format!("approximation ratio {ratio:.4}\n"));
        }
        out.push_str(&self.trace.report_table());
        out
    }

    /// Write the per-iteration history as CSV
    /// (`iteration,objective,weight,overlap,upper_bound`), for external
    /// plotting of the convergence traces behind Figures 2–3.
    pub fn write_history_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "iteration,objective,weight,overlap,upper_bound")?;
        for rec in &self.history {
            match rec.upper_bound {
                Some(ub) => writeln!(
                    w,
                    "{},{},{},{},{}",
                    rec.iteration, rec.objective, rec.weight, rec.overlap, ub
                )?,
                None => writeln!(
                    w,
                    "{},{},{},{},",
                    rec.iteration, rec.objective, rec.weight, rec.overlap
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_csv_roundtrips_fields() {
        let r = AlignmentResult {
            matching: Matching::empty(1, 1),
            objective: 8.0,
            weight: 2.0,
            overlap: 3.0,
            best_iteration: 2,
            upper_bound: None,
            history: vec![
                IterationRecord {
                    iteration: 1,
                    objective: 5.0,
                    weight: 1.0,
                    overlap: 2.0,
                    upper_bound: Some(9.5),
                },
                IterationRecord {
                    iteration: 2,
                    objective: 8.0,
                    weight: 2.0,
                    overlap: 3.0,
                    upper_bound: None,
                },
            ],
            trace: RunTrace::new(),
        };
        let mut buf = Vec::new();
        r.write_history_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "iteration,objective,weight,overlap,upper_bound");
        assert_eq!(lines[1], "1,5,1,2,9.5");
        assert_eq!(lines[2], "2,8,2,3,");
    }

    #[test]
    fn approximation_ratio() {
        let r = AlignmentResult {
            matching: Matching::empty(1, 1),
            objective: 8.0,
            weight: 2.0,
            overlap: 3.0,
            best_iteration: 5,
            upper_bound: Some(10.0),
            history: Vec::new(),
            trace: RunTrace::new(),
        };
        assert_eq!(r.approximation_ratio(), Some(0.8));
        let r2 = AlignmentResult {
            upper_bound: None,
            ..r
        };
        assert_eq!(r2.approximation_ratio(), None);
    }

    #[test]
    fn report_json_has_quality_and_trace() {
        let r = AlignmentResult {
            matching: Matching::empty(2, 2),
            objective: 4.0,
            weight: 2.0,
            overlap: 1.0,
            best_iteration: 3,
            upper_bound: Some(5.0),
            history: Vec::new(),
            trace: RunTrace::new(),
        };
        let text = r.report_json().render();
        assert!(text.contains("\"objective\":4.0"));
        assert!(text.contains("\"upper_bound\":5.0"));
        assert!(text.contains("\"approximation_ratio\":0.8"));
        assert!(text.contains("\"steps\""));
        assert!(text.contains("\"matcher\""));
        // No upper bound renders as null, not a missing key.
        let r2 = AlignmentResult {
            upper_bound: None,
            ..r
        };
        assert!(r2.report_json().render().contains("\"upper_bound\":null"));
    }
}
