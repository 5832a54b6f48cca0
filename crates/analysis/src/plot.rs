//! ASCII chart rendering — the stand-in for the artifact's
//! `graph-generation.py`.
//!
//! The paper's line charts are rendered as terminal plots so `repro`
//! output is visually comparable with the paper without a plotting
//! stack.

/// Render one or more line series over a shared integer x-axis as an
/// ASCII grid (`height` rows tall). Series are marked `a`, `b`, `c`, …
pub(crate) fn line_chart(
    title: &str,
    series: &[(String, Vec<(f64, f64)>)],
    width: usize,
    height: usize,
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let all: Vec<(f64, f64)> = series.iter().flat_map(|(_, p)| p.iter().copied()).collect();
    if all.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let (xmin, xmax) = all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(x, _)| {
        (lo.min(x), hi.max(x))
    });
    let (ymin, ymax) = all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(_, y)| {
        (lo.min(y), hi.max(y))
    });
    let xspan = (xmax - xmin).max(1e-12);
    let yspan = (ymax - ymin).max(1e-12);

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = (b'a' + (si % 26) as u8) as char;
        for &(x, y) in pts {
            let cx = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
            let cy = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = mark;
        }
    }
    for (i, row) in grid.iter().enumerate() {
        let ylabel = if i == 0 {
            format!("{ymax:>8.2}")
        } else if i == height - 1 {
            format!("{ymin:>8.2}")
        } else {
            " ".repeat(8)
        };
        out.push_str(&format!("{ylabel} |{}\n", row.iter().collect::<String>()));
    }
    out.push_str(&format!("{} +{}\n", " ".repeat(8), "-".repeat(width)));
    out.push_str(&format!(
        "{}  {xmin:<10.0}{:>w$.0}\n",
        " ".repeat(8),
        xmax,
        w = width - 10
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        let mark = (b'a' + (si % 26) as u8) as char;
        out.push_str(&format!("  {mark} = {name}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_places_extremes() {
        let c = line_chart("t", &[("s".into(), vec![(0.0, 0.0), (10.0, 5.0)])], 21, 5);
        // Max value row carries the max label; the mark appears.
        assert!(c.contains("5.00"));
        assert!(c.contains("0.00"));
        assert!(c.contains("a = s"));
        assert!(c.matches('a').count() >= 2);
    }

    #[test]
    fn line_chart_multiple_series_marks() {
        let c = line_chart(
            "t",
            &[
                ("one".into(), vec![(0.0, 1.0), (1.0, 2.0)]),
                ("two".into(), vec![(0.0, 2.0), (1.0, 1.0)]),
            ],
            10,
            4,
        );
        assert!(c.contains("a = one") && c.contains("b = two"));
    }
}
