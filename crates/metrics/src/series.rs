//! Experiment series: one named curve of (x, aggregated-y) points — the
//! in-memory form of every figure in the paper.

use crate::stats::{summarize, Summary};

/// One aggregated point of a curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Independent variable (graph size n for most figures).
    pub x: f64,
    /// Mean over trials.
    pub mean: f64,
    /// Sample standard deviation over trials.
    pub std_dev: f64,
    /// Minimum over trials.
    pub min: f64,
    /// Maximum over trials.
    pub max: f64,
    /// Number of trials aggregated.
    pub trials: u64,
}

impl SeriesPoint {
    /// Aggregate raw per-trial observations at `x`.
    pub fn from_trials(x: f64, values: &[f64]) -> Self {
        let Summary {
            count,
            mean,
            std_dev,
            min,
            max,
        } = summarize(values.iter().copied());
        SeriesPoint {
            x,
            mean,
            std_dev,
            min,
            max,
            trials: count,
        }
    }
}

/// A named curve (one line of a figure).
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Curve label (healing strategy name, usually).
    pub name: String,
    /// Points in increasing `x`.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append an aggregated point.
    pub fn push(&mut self, point: SeriesPoint) {
        self.points.push(point);
    }

    /// y-mean at a given x, if present.
    pub fn mean_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.mean)
    }

    /// Whether this curve lies (weakly) below `other` at every shared x —
    /// the ordinal "who wins" comparisons the figures make.
    pub fn dominated_by(&self, other: &Series) -> bool {
        self.points.iter().all(|p| match other.mean_at(p.x) {
            Some(o) => p.mean <= o + 1e-12,
            None => true,
        })
    }
}

/// A whole figure: several curves over a common x-axis.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Figure {
    /// Figure title (e.g. "Fig 8: maximum degree increase").
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// New empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a curve.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Find a curve by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_point() {
        let p = SeriesPoint::from_trials(100.0, &[1.0, 2.0, 3.0]);
        assert_eq!(p.x, 100.0);
        assert_eq!(p.mean, 2.0);
        assert_eq!(p.min, 1.0);
        assert_eq!(p.max, 3.0);
        assert_eq!(p.trials, 3);
    }

    #[test]
    fn series_queries() {
        let mut s = Series::new("dash");
        s.push(SeriesPoint::from_trials(10.0, &[1.0]));
        s.push(SeriesPoint::from_trials(20.0, &[2.0, 4.0]));
        assert_eq!(s.mean_at(10.0), Some(1.0));
        assert_eq!(s.mean_at(20.0), Some(3.0));
        assert_eq!(s.mean_at(30.0), None);
    }

    #[test]
    fn dominance_comparison() {
        let mut lo = Series::new("dash");
        let mut hi = Series::new("graph-heal");
        for x in [10.0, 20.0] {
            lo.push(SeriesPoint::from_trials(x, &[1.0]));
            hi.push(SeriesPoint::from_trials(x, &[5.0]));
        }
        assert!(lo.dominated_by(&hi));
        assert!(!hi.dominated_by(&lo));
    }

    #[test]
    fn figure_lookup() {
        let mut f = Figure::new("t", "x", "y");
        f.push(Series::new("a"));
        assert!(f.series_named("a").is_some());
        assert!(f.series_named("b").is_none());
    }
}
