//! Shared machinery for the figure-regeneration harness.
//!
//! The `figures` binary runs every experiment of the paper at paper scale
//! (multiple seeds fanned out across OS threads by [`parallel_map`]),
//! aggregates the runs, prints the tables and writes `results/<id>.json`.
//! This library holds the aggregation and formatting so integration tests
//! can exercise it.

use serde::{Deserialize, Serialize};
use sphinx_workloads::experiments::SeriesPoint;
use std::path::Path;

pub mod sweep;

/// Map `f` over `items` on `available_parallelism` scoped worker threads,
/// returning results in **input order** regardless of which worker finished
/// first or in what interleaving.
///
/// Determinism argument: workers pull indices from a shared atomic counter
/// and tag each result with the index it came from; the merge places
/// results by tag. Thread scheduling decides only *who* computes an item,
/// never *what* is computed (each `f(&items[i])` sees the same immutable
/// input) nor *where* the result lands. So the output is byte-identical to
/// `items.iter().map(f).collect()` whenever `f` itself is deterministic —
/// which every scenario run is (seeded, no wall-clock in the trace).
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

/// One row of an aggregated comparison table: the across-trial mean of the
/// metrics the paper's figures plot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Configuration label.
    pub label: String,
    /// Number of trials aggregated.
    pub trials: usize,
    /// Mean of average DAG completion times, seconds.
    pub avg_dag_secs: f64,
    /// Mean of average job execution times, seconds.
    pub avg_exec_secs: f64,
    /// Mean of average job idle (queue) times, seconds.
    pub avg_idle_secs: f64,
    /// Mean timeout count.
    pub timeouts: f64,
    /// Mean held/killed reschedule count.
    pub holds: f64,
    /// Mean completed job count.
    pub jobs_completed: f64,
    /// True if every trial finished before its horizon.
    pub all_finished: bool,
}

/// Run `runner` once per seed (in parallel) and aggregate matching labels.
pub fn run_trials(
    seeds: &[u64],
    runner: impl Fn(u64) -> Vec<SeriesPoint> + Sync,
) -> Vec<Aggregate> {
    let trials: Vec<Vec<SeriesPoint>> = parallel_map(seeds, |&s| runner(s));
    aggregate(&trials)
}

/// Fold per-trial series into per-label aggregates. Labels are taken from
/// the first trial; every trial must produce the same label sequence.
pub fn aggregate(trials: &[Vec<SeriesPoint>]) -> Vec<Aggregate> {
    let Some(first) = trials.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let runs: Vec<&SeriesPoint> = trials
                .iter()
                .map(|t| {
                    let p = &t[i];
                    assert_eq!(
                        p.label, point.label,
                        "trials must produce identical label sequences"
                    );
                    p
                })
                .collect();
            let n = runs.len() as f64;
            let mean = |f: &dyn Fn(&SeriesPoint) -> f64| -> f64 {
                runs.iter().map(|p| f(p)).sum::<f64>() / n
            };
            Aggregate {
                label: point.label.clone(),
                trials: runs.len(),
                avg_dag_secs: mean(&|p| p.report.avg_dag_completion_secs),
                avg_exec_secs: mean(&|p| p.report.avg_exec_secs),
                avg_idle_secs: mean(&|p| p.report.avg_idle_secs),
                timeouts: mean(&|p| p.report.timeouts as f64),
                holds: mean(&|p| p.report.holds as f64),
                jobs_completed: mean(&|p| p.report.jobs_completed as f64),
                all_finished: runs.iter().all(|p| p.report.finished),
            }
        })
        .collect()
}

/// Render an aggregate table, figure-style.
pub fn render_table(title: &str, rows: &[Aggregate]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title}\n"));
    out.push_str(&format!(
        "{:<34} {:>12} {:>10} {:>10} {:>9} {:>7} {:>6}\n",
        "configuration", "avg dag (s)", "exec (s)", "idle (s)", "timeouts", "holds", "done"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>12.0} {:>10.1} {:>10.1} {:>9.1} {:>7.1} {:>6}\n",
            r.label,
            r.avg_dag_secs,
            r.avg_exec_secs,
            r.avg_idle_secs,
            r.timeouts,
            r.holds,
            if r.all_finished { "yes" } else { "NO" },
        ));
    }
    out
}

/// Render the Figure 6 per-site table for one strategy's (single-trial)
/// report.
pub fn render_site_table(title: &str, point: &SeriesPoint) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} — site-wise distribution\n"));
    out.push_str(&format!(
        "{:<14} {:>10} {:>10} {:>14}\n",
        "site", "completed", "cancelled", "avg comp (s)"
    ));
    for s in &point.report.sites {
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>14}\n",
            s.name,
            s.completed,
            s.cancelled,
            s.avg_completion_secs
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".to_owned()),
        ));
    }
    out
}

/// Write any serialisable value as pretty JSON under `results/`.
pub fn write_json<T: Serialize>(dir: &Path, id: &str, value: &T) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}.json"));
    let json = serde_json::to_string_pretty(value).expect("results serialize");
    std::fs::write(path, json)
}

/// Render a horizontal bar chart (SVG) of one metric across
/// configurations — the visual twin of the paper's bar figures.
pub fn render_svg_bars(
    title: &str,
    rows: &[Aggregate],
    metric: impl Fn(&Aggregate) -> f64,
) -> String {
    let pairs: Vec<(String, f64)> = rows.iter().map(|r| (r.label.clone(), metric(r))).collect();
    render_svg_value_bars(title, &pairs)
}

/// Render a horizontal bar chart from pre-computed `(label, value)` pairs
/// — used for telemetry metrics that are not per-configuration aggregates.
pub fn render_svg_value_bars(title: &str, rows: &[(String, f64)]) -> String {
    let width = 760.0;
    let bar_h = 26.0;
    let gap = 10.0;
    let left = 250.0;
    let top = 48.0;
    let height = top + rows.len() as f64 * (bar_h + gap) + 20.0;
    let max = rows.iter().map(|r| r.1).fold(1e-9, f64::max);
    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\"          font-family=\"sans-serif\" font-size=\"13\">\n"
    ));
    svg.push_str(&format!(
        "<text x=\"16\" y=\"26\" font-size=\"16\" font-weight=\"bold\">{}</text>\n",
        title.replace('&', "&amp;").replace('<', "&lt;")
    ));
    for (i, (label, v)) in rows.iter().enumerate() {
        let y = top + i as f64 * (bar_h + gap);
        let v = *v;
        let w = (v / max) * (width - left - 90.0);
        let label = label.replace('&', "&amp;").replace('<', "&lt;");
        svg.push_str(&format!(
            "<text x=\"{:.0}\" y=\"{:.0}\" text-anchor=\"end\">{label}</text>\n",
            left - 8.0,
            y + bar_h * 0.7
        ));
        svg.push_str(&format!(
            "<rect x=\"{left}\" y=\"{y:.0}\" width=\"{w:.1}\" height=\"{bar_h}\"              fill=\"#4878a8\" />\n"
        ));
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.0}\">{v:.0}</text>\n",
            left + w + 6.0,
            y + bar_h * 0.7
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

/// Write an SVG bar chart of average DAG completion (and a second one of
/// timeout counts) for one experiment id.
pub fn write_svg(dir: &Path, id: &str, title: &str, rows: &[Aggregate]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let svg = render_svg_bars(&format!("{title} — avg DAG completion (s)"), rows, |r| {
        r.avg_dag_secs
    });
    std::fs::write(dir.join(format!("{id}_avg_dag.svg")), svg)?;
    let svg = render_svg_bars(&format!("{title} — timeouts"), rows, |r| r.timeouts);
    std::fs::write(dir.join(format!("{id}_timeouts.svg")), svg)
}

/// Weighted rank correlation between a site's completed-job count and its
/// average completion time — the statistic behind Figure 6's claim that
/// the completion-time strategy sends more jobs to faster sites
/// (noticeably negative) while number-of-CPUs does not.
pub fn jobs_vs_speed_correlation(point: &SeriesPoint) -> Option<f64> {
    let pairs: Vec<(f64, f64)> = point
        .report
        .sites
        .iter()
        .filter_map(|s| s.avg_completion_secs.map(|avg| (s.completed as f64, avg)))
        .collect();
    if pairs.len() < 3 {
        return None;
    }
    let n = pairs.len() as f64;
    let mean_x = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = pairs
        .iter()
        .map(|p| (p.0 - mean_x) * (p.1 - mean_y))
        .sum::<f64>();
    let var_x: f64 = pairs.iter().map(|p| (p.0 - mean_x).powi(2)).sum::<f64>();
    let var_y: f64 = pairs.iter().map(|p| (p.1 - mean_y).powi(2)).sum::<f64>();
    if var_x == 0.0 || var_y == 0.0 {
        return None;
    }
    Some(cov / (var_x.sqrt() * var_y.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sphinx_core::report::{RunReport, SiteOutcome};
    use sphinx_data::SiteId;

    fn report(avg_dag: f64, timeouts: u64) -> RunReport {
        RunReport {
            strategy: "x".into(),
            feedback: true,
            policy: false,
            seed: 0,
            finished: true,
            makespan_secs: 100.0,
            dags: 1,
            avg_dag_completion_secs: avg_dag,
            dag_completion_secs: vec![avg_dag],
            jobs_completed: 10,
            jobs_eliminated: 0,
            avg_exec_secs: 60.0,
            avg_idle_secs: 30.0,
            plans: 10,
            timeouts,
            holds: 0,
            deadlines_met: 0,
            deadlines_missed: 0,
            sites: vec![],
            telemetry: Default::default(),
            analysis: Default::default(),
        }
    }

    fn point(label: &str, avg_dag: f64, timeouts: u64) -> SeriesPoint {
        SeriesPoint {
            label: label.into(),
            report: report(avg_dag, timeouts),
        }
    }

    #[test]
    fn aggregate_means_across_trials() {
        let trials = vec![
            vec![point("a", 100.0, 2), point("b", 300.0, 10)],
            vec![point("a", 200.0, 4), point("b", 500.0, 20)],
        ];
        let agg = aggregate(&trials);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].label, "a");
        assert_eq!(agg[0].trials, 2);
        assert!((agg[0].avg_dag_secs - 150.0).abs() < 1e-9);
        assert!((agg[1].timeouts - 15.0).abs() < 1e-9);
        assert!(agg[0].all_finished);
    }

    #[test]
    fn aggregate_empty_is_empty() {
        assert!(aggregate(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "identical label sequences")]
    fn aggregate_rejects_mismatched_labels() {
        let trials = vec![vec![point("a", 1.0, 0)], vec![point("b", 1.0, 0)]];
        aggregate(&trials);
    }

    #[test]
    fn table_renders_every_row() {
        let rows = aggregate(&[vec![point("alpha", 100.0, 1), point("beta", 200.0, 2)]]);
        let table = render_table("demo", &rows);
        assert!(table.contains("alpha"));
        assert!(table.contains("beta"));
        assert!(table.contains("demo"));
    }

    #[test]
    fn correlation_sign_detects_inverse_relation() {
        // More jobs at faster (lower avg) sites → negative correlation.
        let mut p = point("inv", 0.0, 0);
        p.report.sites = vec![
            SiteOutcome {
                site: SiteId(0),
                name: "fast".into(),
                completed: 100,
                cancelled: 0,
                avg_completion_secs: Some(50.0),
            },
            SiteOutcome {
                site: SiteId(1),
                name: "mid".into(),
                completed: 50,
                cancelled: 0,
                avg_completion_secs: Some(100.0),
            },
            SiteOutcome {
                site: SiteId(2),
                name: "slow".into(),
                completed: 10,
                cancelled: 0,
                avg_completion_secs: Some(200.0),
            },
        ];
        let r = jobs_vs_speed_correlation(&p).unwrap();
        assert!(r < -0.8, "expected strongly negative, got {r}");
    }

    #[test]
    fn correlation_needs_three_sites() {
        let p = point("few", 0.0, 0);
        assert_eq!(jobs_vs_speed_correlation(&p), None);
    }

    #[test]
    fn svg_renders_every_row_and_scales() {
        let rows = aggregate(&[vec![point("alpha", 100.0, 1), point("beta", 200.0, 2)]]);
        let svg = render_svg_bars("demo", &rows, |r| r.avg_dag_secs);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("alpha"));
        assert!(svg.contains("beta"));
        // Longest bar belongs to the max value.
        assert!(
            svg.contains("width=\"420.0\""),
            "max bar spans the plot: {svg}"
        );
    }

    #[test]
    fn svg_escapes_markup() {
        let rows = aggregate(&[vec![point("a<b & c", 10.0, 0)]]);
        let svg = render_svg_bars("t<&", &rows, |r| r.avg_dag_secs);
        assert!(svg.contains("a&lt;b &amp; c"));
        assert!(!svg.contains("a<b"));
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let parallel = parallel_map(&items, |&x| x * x + 1);
        assert_eq!(parallel, serial);
        assert!(parallel_map::<u64, u64>(&[], |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn run_trials_parallel_matches_serial() {
        let runner = |seed: u64| vec![point("a", seed as f64, seed)];
        let par = run_trials(&[1, 2, 3, 4], runner);
        assert_eq!(par[0].trials, 4);
        assert!((par[0].avg_dag_secs - 2.5).abs() < 1e-9);
    }
}
