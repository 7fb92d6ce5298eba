//! `benchmark compare <parent-runs> <change-runs>`: the verdict on a
//! change from alternating runs of it and its parent.
//!
//! Each argument is a directory holding `<workload>.jsonl`, one result
//! line (the last stdout line of a run) per run; line `i` of the parent
//! and line `i` of the change form pair `i`. Bounds and directions come
//! from `BENCHMARK.json` in the working directory.

use crate::measure::{median, quartiles};
use crate::metrics;
use crate::workloads::Workload;
use bmf_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Fewest pairs a verdict rests on.
pub const MIN_PAIRS: usize = 10;

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine pairs in ten and its median is
    /// better by more than the parent's interquartile range.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// bound (for a metric without a bound: the mirror of `Improved`).
    Worse,
    /// The runs spread wider than the bound, so "unchanged" cannot be
    /// told apart from a regression within it.
    Unresolved,
    /// None of the above.
    Unchanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Applies the pairwise rule to `parent[i]` vs `change[i]`; `bound` is
/// the share of the parent's median a metric may worsen by (`None` for
/// per-layer metrics). Both slices hold at least [`MIN_PAIRS`] values.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: Option<f64>,
) -> Verdict {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let pairs = parent.len().min(change.len());
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**p, **c))
        .count();
    let (mp, mc) = (median(parent).unwrap(), median(change).unwrap());
    let iqr = |xs: &[f64]| quartiles(xs).map_or(0.0, |(q1, q3)| q3 - q1);
    let gap_clear = (mc - mp).abs() > iqr(parent);
    if 10 * wins >= 9 * pairs && better(mc, mp) && gap_clear {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        return if 10 * losses >= 9 * pairs && better(mp, mc) && gap_clear {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        };
    };
    let worse_by = if higher_is_better { mp - mc } else { mc - mp } / mp.abs();
    if worse_by > bound {
        return Verdict::Worse;
    }
    let spread = (iqr(parent) / mp.abs()).max(iqr(change) / mc.abs());
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// One run's result line.
struct Run {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn read_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(k, line)| {
            let bad = |why: &str| format!("{} line {}: {why}", path.display(), k + 1);
            let v = json::parse(line).map_err(|e| bad(&e.to_string()))?;
            let metrics = match v.get("metrics") {
                Some(Value::Object(m)) => m
                    .iter()
                    .map(|(name, m)| {
                        let value = m.get("value").and_then(Value::as_f64);
                        value
                            .map(|x| (name.clone(), x))
                            .ok_or_else(|| bad("metric without a value"))
                    })
                    .collect::<Result<_, _>>()?,
                _ => return Err(bad("no metrics object")),
            };
            Ok(Run {
                correct: v.get("correct").and_then(Value::as_bool) == Some(true),
                metrics,
            })
        })
        .collect()
}

/// `name → bound` for the end-to-end metrics of `BENCHMARK.json`.
fn bounds(spec_path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let spec = json::parse(&text).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    spec.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("end_to_end entry without name or bound".to_string()),
            }
        })
        .collect()
}

/// Entry point; returns the process exit code: 0 when nothing got worse
/// and every run was correct, 1 otherwise, 2 on bad arguments or input.
pub fn main(args: &[String]) -> i32 {
    let [parent_dir, change_dir] = args else {
        eprintln!("usage: benchmark compare <parent-runs-dir> <change-runs-dir>");
        return 2;
    };
    match run(Path::new(parent_dir), Path::new(change_dir)) {
        Ok(clean) => i32::from(!clean),
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn run(parent_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    let bounds = bounds(Path::new("BENCHMARK.json"))?;
    let mut clean = true;
    let mut compared = 0;
    println!(
        "{:<9} {:<28} {:>42} {:>42} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for w in Workload::ALL {
        let file = format!("{}.jsonl", w.name());
        let (pp, cp) = (parent_dir.join(&file), change_dir.join(&file));
        if !pp.exists() && !cp.exists() {
            continue;
        }
        let (parent, change) = (read_runs(&pp)?, read_runs(&cp)?);
        let pairs = parent.len().min(change.len());
        if pairs < MIN_PAIRS {
            return Err(format!(
                "{}: {pairs} pair(s), the rule needs at least {MIN_PAIRS}",
                w.name()
            ));
        }
        let failed = parent[..pairs]
            .iter()
            .chain(&change[..pairs])
            .filter(|r| !r.correct)
            .count();
        if failed > 0 {
            println!("{:<9} {failed} run(s) reported incorrect output", w.name());
            clean = false;
        }
        for name in parent[0].metrics.keys() {
            let Some(metric) = metrics::find(name) else {
                return Err(format!("{}: unknown metric {name}", w.name()));
            };
            let series = |runs: &[Run]| -> Result<Vec<f64>, String> {
                runs[..pairs]
                    .iter()
                    .map(|r| {
                        r.metrics
                            .get(name)
                            .copied()
                            .ok_or(format!("{name} missing from a run"))
                    })
                    .collect()
            };
            let (p, c) = (series(&parent)?, series(&change)?);
            let v = verdict(&p, &c, metric.higher_is_better, bounds.get(name).copied());
            clean &= v != Verdict::Worse;
            let better = |a: f64, b: f64| {
                if metric.higher_is_better {
                    a > b
                } else {
                    a < b
                }
            };
            let wins = p.iter().zip(&c).filter(|(p, c)| better(**c, **p)).count();
            let summary = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs).expect("at least ten runs");
                format!(
                    "{:.6} [{q1:.6}, {q3:.6}] {}",
                    median(xs).unwrap(),
                    metric.unit
                )
            };
            println!(
                "{:<9} {:<28} {:>42} {:>42} {:>3}/{:<2}  {}",
                w.name(),
                name,
                summary(&p),
                summary(&c),
                wins,
                pairs,
                v.label()
            );
            compared += 1;
        }
    }
    if compared == 0 {
        return Err("no <workload>.jsonl found in both directories".to_string());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + spread * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn clear_speedup_is_improved() {
        let parent = around(100.0, 1.0);
        let change = around(90.0, 1.0);
        assert_eq!(
            verdict(&parent, &change, false, Some(0.07)),
            Verdict::Improved
        );
        // Same numbers read as a throughput: the change lost.
        assert_eq!(verdict(&parent, &change, true, Some(0.07)), Verdict::Worse);
    }

    #[test]
    fn regression_beyond_bound_is_worse() {
        let parent = around(100.0, 1.0);
        let change = around(110.0, 1.0);
        assert_eq!(verdict(&parent, &change, false, Some(0.07)), Verdict::Worse);
    }

    #[test]
    fn small_shift_inside_bound_is_unchanged() {
        let parent = around(100.0, 1.0);
        let change = around(102.0, 1.0);
        assert_eq!(
            verdict(&parent, &change, false, Some(0.07)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        let parent = around(100.0, 30.0);
        let change = around(101.0, 30.0);
        assert_eq!(
            verdict(&parent, &change, false, Some(0.07)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn improvement_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread() {
        // Median 5% better, but the change wins only 8 of 10 pairs.
        let parent = around(100.0, 1.0);
        let mut change = around(95.0, 1.0);
        change[0] = 200.0;
        change[1] = 200.0;
        assert_ne!(
            verdict(&parent, &change, false, Some(0.25)),
            Verdict::Improved
        );
        // Wins every pair, but by less than the parent's own spread.
        let parent = around(100.0, 10.0);
        let change: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        assert_eq!(
            verdict(&parent, &change, false, Some(0.25)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn unbounded_metrics_use_the_pair_rule_both_ways() {
        let parent = around(100.0, 1.0);
        assert_eq!(
            verdict(&parent, &around(80.0, 1.0), false, None),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &around(120.0, 1.0), false, None),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &around(100.5, 1.0), false, None),
            Verdict::Unchanged
        );
    }
}
