//! Table/series output for the figure harnesses.
//!
//! Each of the paper's sub-figures is one "series table": an x-axis
//! (sweep points), one row per policy, one value per cell. The fig
//! binaries print these as aligned markdown (for humans) and CSV (for
//! plotting).

use crate::sweep::SweepCell;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One metric extracted from a sweep, as a plottable table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesTable {
    /// Table title, e.g. "Fig. 8(a) delivery ratio vs initial copies".
    pub title: String,
    /// X-axis name.
    pub xlabel: String,
    /// X tick labels, in order.
    pub x: Vec<String>,
    /// `(legend label, one value per x tick)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
}

/// The metric to extract from sweep cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Paper metric 1.
    DeliveryRatio,
    /// Paper metric 2.
    AvgHopcount,
    /// Paper metric 3.
    OverheadRatio,
    /// Supplementary: mean delivery latency.
    AvgLatency,
}

impl Metric {
    /// Human name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::DeliveryRatio => "delivery ratio",
            Metric::AvgHopcount => "average hopcounts",
            Metric::OverheadRatio => "overhead ratio",
            Metric::AvgLatency => "average latency (s)",
        }
    }

    /// Extracts the metric from a cell. A cell with no latency data
    /// (zero deliveries in every run) yields NaN, which the renderers
    /// print as `—` / empty rather than a fake `0.0`.
    pub fn of(self, cell: &SweepCell) -> f64 {
        match self {
            Metric::DeliveryRatio => cell.delivery_ratio,
            Metric::AvgHopcount => cell.avg_hopcount,
            Metric::OverheadRatio => cell.overhead_ratio,
            Metric::AvgLatency => cell.avg_latency.unwrap_or(f64::NAN),
        }
    }
}

impl SeriesTable {
    /// Builds a table from sweep cells (which arrive axis-major, policy
    /// within axis — the order `run_sweep_hardened` produces).
    pub fn from_cells(title: &str, xlabel: &str, cells: &[SweepCell], metric: Metric) -> Self {
        let mut x: Vec<String> = Vec::new();
        let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
        for cell in cells {
            if cell.axis_index == 0 {
                rows.push((cell.policy.clone(), Vec::new()));
            }
            if x.last() != Some(&cell.axis_label) && cell.axis_index == x.len() {
                x.push(cell.axis_label.clone());
            }
            let row = rows
                .iter_mut()
                .find(|(p, _)| *p == cell.policy)
                .expect("policy row exists");
            row.1.push(metric.of(cell));
        }
        SeriesTable {
            title: title.to_string(),
            xlabel: xlabel.to_string(),
            x,
            rows,
        }
    }

    /// Aligned markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}", self.title);
        let _ = writeln!(out);
        let _ = write!(out, "| {} |", self.xlabel);
        for x in &self.x {
            let _ = write!(out, " {x} |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.x {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for (label, vals) in &self.rows {
            let _ = write!(out, "| {label} |");
            for v in vals {
                if v.is_nan() {
                    // No data (e.g. latency with zero deliveries).
                    let _ = write!(out, " — |");
                } else {
                    let _ = write!(out, " {v:.4} |");
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// CSV rendering: header `x,<policy...>`, one line per x tick.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", csv_escape(&self.xlabel));
        for (label, _) in &self.rows {
            let _ = write!(out, ",{}", csv_escape(label));
        }
        let _ = writeln!(out);
        for (i, x) in self.x.iter().enumerate() {
            let _ = write!(out, "{}", csv_escape(x));
            for (_, vals) in &self.rows {
                let _ = write!(out, ",{}", vals.get(i).copied().unwrap_or(f64::NAN));
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<SweepCell> {
        let mut v = Vec::new();
        for (ai, label) in [(0usize, "16"), (1, "32")] {
            for (policy, dr) in [("SprayAndWait", 0.4), ("SDSRP", 0.6)] {
                v.push(SweepCell {
                    axis_index: ai,
                    axis_label: label.to_string(),
                    axis_value: label.parse().unwrap(),
                    policy: policy.to_string(),
                    delivery_ratio: dr + ai as f64 * 0.01,
                    delivery_ratio_std: 0.0,
                    avg_hopcount: 2.0,
                    overhead_ratio: 5.0,
                    avg_latency: Some(100.0),
                    created: 600.0,
                    runs: 3,
                    violations: 0,
                    faults: "none".to_string(),
                });
            }
        }
        v
    }

    #[test]
    fn builds_series_table() {
        let t = SeriesTable::from_cells("T", "L", &cells(), Metric::DeliveryRatio);
        assert_eq!(t.x, vec!["16", "32"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].0, "SprayAndWait");
        assert_eq!(t.rows[0].1, vec![0.4, 0.4 + 0.01]);
        assert_eq!(t.rows[1].1, vec![0.6, 0.6 + 0.01]);
    }

    #[test]
    fn metric_extraction() {
        let c = &cells()[0];
        assert_eq!(Metric::DeliveryRatio.of(c), 0.4);
        assert_eq!(Metric::AvgHopcount.of(c), 2.0);
        assert_eq!(Metric::OverheadRatio.of(c), 5.0);
        assert_eq!(Metric::AvgLatency.of(c), 100.0);
        assert_eq!(Metric::DeliveryRatio.name(), "delivery ratio");
    }

    #[test]
    fn missing_latency_renders_as_dash() {
        let mut cs = cells();
        for c in &mut cs {
            c.avg_latency = None;
        }
        assert!(Metric::AvgLatency.of(&cs[0]).is_nan());
        let t = SeriesTable::from_cells("Fig X", "L", &cs, Metric::AvgLatency);
        let md = t.to_markdown();
        assert!(md.contains("| SDSRP | — | — |"));
        assert!(!md.contains("0.0000"));
    }

    #[test]
    fn markdown_shape() {
        let t = SeriesTable::from_cells("Fig X", "L", &cells(), Metric::DeliveryRatio);
        let md = t.to_markdown();
        assert!(md.contains("### Fig X"));
        assert!(md.contains("| L | 16 | 32 |"));
        assert!(md.contains("| SDSRP | 0.6000 | 0.6100 |"));
    }

    #[test]
    fn csv_shape() {
        let t = SeriesTable::from_cells("Fig X", "L", &cells(), Metric::OverheadRatio);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("L,SprayAndWait,SDSRP"));
        assert_eq!(lines.next(), Some("16,5,5"));
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }
}
