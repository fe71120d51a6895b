//! Output helpers for the experiment binaries: a minimal CSV writer and
//! ASCII scatter/line plots, so every figure can be rendered in a terminal
//! and archived as data.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Writes a CSV file with a header row; each row must have one value per
/// header.
///
/// # Panics
/// Panics when a row's length differs from the header's.
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<f64>]) -> io::Result<()> {
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width must match header");
        let cells: Vec<String> = row.iter().map(|x| format_num(*x)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn format_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.6}")
    }
}

/// Marker glyphs assigned to series, in order.
pub const MARKERS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];

/// Renders an ASCII plot of one or more `(x, y)` series on a shared grid.
///
/// Later series overdraw earlier ones where they collide. Returns a string
/// ending in an x-axis and a legend.
pub fn ascii_plot(
    title: &str,
    series: &[(&str, &[(f64, f64)])],
    width: usize,
    height: usize,
    x_bounds: (f64, f64),
    y_bounds: (f64, f64),
) -> String {
    assert!(width >= 8 && height >= 4, "plot too small");
    let (x_lo, x_hi) = x_bounds;
    let (y_lo, y_hi) = y_bounds;
    assert!(x_hi > x_lo && y_hi > y_lo, "degenerate bounds");

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let marker = MARKERS[si % MARKERS.len()];
        for &(x, y) in *pts {
            if x < x_lo || x > x_hi || y < y_lo || y > y_hi {
                continue;
            }
            let cx = ((x - x_lo) / (x_hi - x_lo) * (width - 1) as f64).round() as usize;
            let cy = ((y - y_lo) / (y_hi - y_lo) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = marker;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let label_w = 8;
    for (row_idx, row) in grid.iter().enumerate() {
        let y_val = y_hi - (y_hi - y_lo) * row_idx as f64 / (height - 1) as f64;
        let label = if row_idx == 0 || row_idx == height - 1 || row_idx == height / 2 {
            format!("{y_val:>7.1}")
        } else {
            " ".repeat(7)
        };
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{label} |{line}");
    }
    let _ = writeln!(out, "{}+{}", " ".repeat(label_w), "-".repeat(width));
    let _ = writeln!(
        out,
        "{}{:<10.1}{:>width$.1}",
        " ".repeat(label_w + 1),
        x_lo,
        x_hi,
        width = width - 10
    );
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "      {} {}", MARKERS[si % MARKERS.len()], name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("skp_csv_test");
        let path = dir.join("out.csv");
        write_csv(&path, &["a", "b"], &[vec![1.0, 2.5], vec![3.0, 4.0]]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,2.500000");
        assert_eq!(lines[2], "3,4");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn csv_rejects_ragged_rows() {
        let path = std::env::temp_dir().join("skp_csv_ragged.csv");
        let _ = write_csv(&path, &["a", "b"], &[vec![1.0]]);
    }

    #[test]
    fn plot_contains_markers_and_legend() {
        let s1: Vec<(f64, f64)> = vec![(0.0, 0.0), (5.0, 5.0), (10.0, 10.0)];
        let s2: Vec<(f64, f64)> = vec![(0.0, 10.0), (10.0, 0.0)];
        let p = ascii_plot(
            "test",
            &[("up", &s1), ("down", &s2)],
            40,
            10,
            (0.0, 10.0),
            (0.0, 10.0),
        );
        assert!(p.contains('*'));
        assert!(p.contains('+'));
        assert!(p.contains("up"));
        assert!(p.contains("down"));
        assert!(p.contains("test"));
    }

    #[test]
    fn plot_clips_out_of_bounds_points() {
        let s: Vec<(f64, f64)> = vec![(50.0, 50.0)];
        let p = ascii_plot("clip", &[("s", &s)], 20, 5, (0.0, 10.0), (0.0, 10.0));
        assert!(!p.lines().any(|l| l.contains('*')
            && l.starts_with(' ')
            && l.contains('|')
            && l.split('|').nth(1).is_some_and(|g| g.contains('*'))));
    }
}
