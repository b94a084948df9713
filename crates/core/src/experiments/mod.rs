//! The experiment runner: one function per table and figure of the
//! reproduction (see DESIGN.md §3 for the index).
//!
//! Every experiment is deterministic given its seeds and comes in two
//! effort levels: `quick` (used by the test suite: shorter runs, fewer
//! sweep points) and full (used by `cargo bench` and the `report` command).

pub mod ablations;
pub mod campaign;
pub mod common;
pub mod corridor;
pub mod figures;
pub mod privacy;
pub mod regimes;
pub mod robustness;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod trace;

/// One plotted series of an experiment figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// (x, y) sample points.
    pub points: Vec<(f64, f64)>,
}

/// A reproduced "figure": a parameter sweep with one or more series.
#[derive(Clone, Debug, PartialEq)]
pub struct Figure {
    /// Experiment id from DESIGN.md (e.g. "F2").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
    /// Expected qualitative shape, asserted by the harness and recorded in
    /// EXPERIMENTS.md.
    pub expected_shape: String,
}

impl Figure {
    /// Renders the figure as an aligned text table (x column + one column
    /// per series).
    pub fn render(&self) -> String {
        let mut cols: Vec<String> = vec![self.x_label.clone()];
        cols.extend(self.series.iter().map(|s| s.name.clone()));
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let mut t = crate::tables::TextTable::new(
            format!("{} — {} [y: {}]", self.id, self.title, self.y_label),
            &col_refs,
        );
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let mut row = vec![crate::tables::num(*x, 2)];
            for s in &self.series {
                row.push(
                    s.points
                        .get(i)
                        .map(|p| crate::tables::num(p.1, 3))
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            t.row(row);
        }
        let mut out = t.render();
        out.push_str(&format!("expected shape: {}\n", self.expected_shape));
        out
    }

    /// The series with the given name, if present.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_renders_all_series() {
        let fig = Figure {
            id: "F0".into(),
            title: "demo".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![
                Series {
                    name: "a".into(),
                    points: vec![(1.0, 2.0), (2.0, 4.0)],
                },
                Series {
                    name: "b".into(),
                    points: vec![(1.0, 3.0), (2.0, 6.0)],
                },
            ],
            expected_shape: "b above a".into(),
        };
        let s = fig.render();
        assert!(s.contains("F0"));
        assert!(s.contains("expected shape"));
        assert!(fig.series_named("b").is_some());
        assert!(fig.series_named("c").is_none());
    }
}
