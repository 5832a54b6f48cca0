//! Dense row-major matrix and labelled dataset containers.

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// An empty matrix with `cols` columns.
    pub fn new(cols: usize) -> Matrix {
        assert!(cols > 0, "matrix needs at least one column");
        Matrix {
            data: Vec::new(),
            rows: 0,
            cols,
        }
    }

    /// Build from row slices.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut m = Matrix::new(cols);
        for r in rows {
            m.push_row(r);
        }
        m
    }

    /// Append a row.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at (`r`, `c`).
    #[inline]
    pub(crate) fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Set element at (`r`, `c`).
    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Copy of column `c`.
    pub(crate) fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// New matrix containing the given rows, in order.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut m = Matrix::new(self.cols);
        for &r in idx {
            m.push_row(self.row(r));
        }
        m
    }
}

/// A labelled dataset: features, target, and feature names.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature matrix (one row per sample).
    pub x: Matrix,
    /// Target vector (the paper's: simulated execution cycles).
    pub y: Vec<f64>,
    /// Column names, used in importance reports.
    pub feature_names: Vec<String>,
}

impl Dataset {
    /// Build a dataset, checking shape consistency.
    pub fn new(x: Matrix, y: Vec<f64>, feature_names: Vec<String>) -> Dataset {
        assert_eq!(x.rows(), y.len(), "x/y length mismatch");
        assert_eq!(x.cols(), feature_names.len(), "x/name width mismatch");
        Dataset {
            x,
            y,
            feature_names,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Sub-dataset with the given row indices.
    pub(crate) fn select(&self, idx: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(idx),
            y: idx.iter().map(|&i| self.y[i]).collect(),
            feature_names: self.feature_names.clone(),
        }
    }

    /// Rows satisfying a predicate on (features, target).
    #[cfg(test)]
    fn filter(&self, mut pred: impl FnMut(&[f64], f64) -> bool) -> Dataset {
        let idx: Vec<usize> = (0..self.len())
            .filter(|&i| pred(self.x.row(i), self.y[i]))
            .collect();
        self.select(&idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])
    }

    #[test]
    fn shape_and_access() {
        let m = m();
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(2), &[5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn set_mutates() {
        let mut m = m();
        m.set(0, 1, 9.0);
        assert_eq!(m.get(0, 1), 9.0);
    }

    #[test]
    fn select_rows_reorders() {
        let s = m().select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_row_checks_width() {
        let mut m = Matrix::new(2);
        m.push_row(&[1.0]);
    }

    #[test]
    fn dataset_filter_and_select() {
        let d = Dataset::new(m(), vec![10.0, 20.0, 30.0], vec!["a".into(), "b".into()]);
        let f = d.filter(|row, _| row[0] > 2.0);
        assert_eq!(f.len(), 2);
        assert_eq!(f.y, vec![20.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "x/y length mismatch")]
    fn dataset_checks_shape() {
        Dataset::new(m(), vec![1.0], vec!["a".into(), "b".into()]);
    }
}
