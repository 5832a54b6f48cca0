//! Tree introspection: decision paths and structure export.
//!
//! A core reason the paper picks decision trees is interpretability:
//! "they are highly interpretable as the decision tree describes how the
//! prediction is made which can easily be followed". This module makes
//! that concrete: [`DecisionTreeRegressor::decision_path`] returns the
//! exact sequence of comparisons that produced a prediction, and
//! [`DecisionTreeRegressor::explain`] spells it out with feature names.

use crate::tree::DecisionTreeRegressor;

/// One step of a decision path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PathStep {
    /// Feature index compared at this node.
    pub feature: usize,
    /// Split threshold.
    pub threshold: f64,
    /// The row's value for the feature.
    pub value: f64,
    /// Whether the row went left (`value <= threshold`).
    pub went_left: bool,
}

impl DecisionTreeRegressor {
    /// The sequence of comparisons evaluated when predicting `row`,
    /// ending at a leaf whose mean is the prediction.
    pub(crate) fn decision_path(&self, row: &[f64]) -> (Vec<PathStep>, f64) {
        let mut steps = Vec::new();
        let mut i = 0u32;
        loop {
            match self.node(i) {
                ExplainNode::Leaf { value } => return (steps, value),
                ExplainNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let value = row[feature];
                    let went_left = value <= threshold;
                    steps.push(PathStep {
                        feature,
                        threshold,
                        value,
                        went_left,
                    });
                    i = if went_left { left } else { right };
                }
            }
        }
    }

    /// Human-readable decision path with feature names.
    pub fn explain(&self, row: &[f64], names: &[String]) -> String {
        let (steps, value) = self.decision_path(row);
        let mut out = String::new();
        for s in &steps {
            let name = names.get(s.feature).map_or("?", |n| n.as_str());
            out.push_str(&format!(
                "{name} = {} {} {}\n",
                trim(s.value),
                if s.went_left { "<=" } else { ">" },
                trim(s.threshold),
            ));
        }
        out.push_str(&format!("=> predict {} cycles\n", trim(value)));
        out
    }

    /// Render the whole tree as indented text (capped at `max_depth`
    /// levels to keep deep trees readable).
    #[cfg(test)]
    fn to_text(&self, names: &[String], max_depth: u32) -> String {
        let mut out = String::new();
        self.render(0, 0, max_depth, names, &mut out);
        out
    }

    #[cfg(test)]
    fn render(&self, i: u32, depth: u32, max_depth: u32, names: &[String], out: &mut String) {
        let pad = "  ".repeat(depth as usize);
        match self.node(i) {
            ExplainNode::Leaf { value } => {
                out.push_str(&format!("{pad}leaf: {}\n", trim(value)));
            }
            ExplainNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if depth >= max_depth {
                    out.push_str(&format!("{pad}...\n"));
                    return;
                }
                let name = names.get(feature).map_or("?", |n| n.as_str());
                out.push_str(&format!("{pad}{name} <= {}\n", trim(threshold)));
                self.render(left, depth + 1, max_depth, names, out);
                out.push_str(&format!("{pad}{name} > {}\n", trim(threshold)));
                self.render(right, depth + 1, max_depth, names, out);
            }
        }
    }
}

/// Trim trailing zeros from a float rendering.
fn trim(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Internal view of a node for explanation purposes.
pub(crate) enum ExplainNode {
    /// Terminal prediction.
    Leaf {
        /// Leaf mean.
        value: f64,
    },
    /// Internal comparison.
    Split {
        /// Feature index.
        feature: usize,
        /// Threshold.
        threshold: f64,
        /// Left child.
        left: u32,
        /// Right child.
        right: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::Regressor;

    fn step_tree() -> DecisionTreeRegressor {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 9.0 }).collect();
        DecisionTreeRegressor::fit(&Matrix::from_rows(&rows), &y)
    }

    #[test]
    fn decision_path_matches_prediction() {
        let t = step_tree();
        let (steps, v) = t.decision_path(&[3.0]);
        assert_eq!(v, t.predict_one(&[3.0]));
        assert_eq!(steps.len(), 1);
        assert!(steps[0].went_left);
        let (steps_r, v_r) = t.decision_path(&[15.0]);
        assert!(!steps_r[0].went_left);
        assert_eq!(v_r, 9.0);
    }

    #[test]
    fn explain_names_features() {
        let t = step_tree();
        let e = t.explain(&[3.0], &["ROB-Size".to_string()]);
        assert!(e.contains("ROB-Size"), "{e}");
        assert!(e.contains("predict 1 cycles"), "{e}");
    }

    #[test]
    fn to_text_renders_both_branches() {
        let t = step_tree();
        let s = t.to_text(&["x".to_string()], 5);
        assert!(s.contains("x <= 9.5") || s.contains("x <= 9.500"), "{s}");
        assert!(s.contains("leaf: 1"));
        assert!(s.contains("leaf: 9"));
    }

    #[test]
    fn depth_cap_elides() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| (i * i) as f64).collect();
        let t = DecisionTreeRegressor::fit(&Matrix::from_rows(&rows), &y);
        let s = t.to_text(&["x".to_string()], 2);
        assert!(s.contains("..."));
    }
}
