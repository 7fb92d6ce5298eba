//! Shard-coverage vocabulary for sharded Monte Carlo studies.
//!
//! When a study is split into independently executed shards and merged
//! back from sufficient-statistic packets, the merge's view of *which*
//! shards actually arrived is itself a health signal: a missing or
//! corrupt shard means the merged estimate was built from fewer samples
//! than planned. [`ShardCoverage`] is the plain serializable record of
//! that view — planned versus observed shard indices and sample counts,
//! the quorum policy applied, and the variance-widening factor charged
//! for the shortfall. Like [`crate::health`], this module holds only
//! the vocabulary; the merge math lives in `bmf_circuits::shard` and
//! the estimate lives in `bmf_core`, which hand the finished record
//! back down for reports and the dashboard shard panel.

use crate::health::Severity;
use crate::json::{number, string};

/// Which shards a merge actually saw, and what that cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCoverage {
    /// Planned number of shards in the study partition.
    pub shard_count: usize,
    /// Distinct shard indices successfully merged.
    pub merged: usize,
    /// Shard indices that never arrived, as inclusive `(first, last)`
    /// ranges (ascending): their number is bounded by the packets held,
    /// not by the claimed `shard_count`.
    pub missing: Vec<(usize, usize)>,
    /// Shard indices whose packets failed validation (sorted).
    pub corrupt: Vec<usize>,
    /// Redundant packets dropped as exact duplicates.
    pub duplicates: usize,
    /// Quorum: the minimum number of merged shards the policy accepts.
    pub min_shards: usize,
    /// Late-stage samples the full partition would have contributed.
    pub planned_late: usize,
    /// Late-stage samples actually merged.
    pub observed_late: usize,
    /// Covariance widening factor `planned_late / observed_late` (≥ 1)
    /// charged to the fused covariance when coverage is incomplete, so
    /// a degraded merge reports honestly wider uncertainty.
    pub inflation: f64,
}

impl ShardCoverage {
    /// True when every planned shard merged cleanly.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.merged == self.shard_count && self.missing.is_empty() && self.corrupt.is_empty()
    }

    /// Fraction of planned shards that merged, in `[0, 1]`.
    #[must_use]
    pub fn coverage_fraction(&self) -> f64 {
        if self.shard_count == 0 {
            return 0.0;
        }
        self.merged as f64 / self.shard_count as f64
    }

    /// True when the merged shard count satisfies the quorum policy.
    #[must_use]
    pub fn quorum_met(&self) -> bool {
        self.merged >= self.min_shards
    }

    /// `Ok` for complete coverage, `Warn` for a degraded-but-quorate
    /// merge, `Critical` below quorum (strict mode refuses to produce
    /// an estimate at all in that case; the record still grades it).
    #[must_use]
    pub fn severity(&self) -> Severity {
        if !self.quorum_met() {
            Severity::Critical
        } else if !self.is_complete() {
            Severity::Warn
        } else {
            Severity::Ok
        }
    }

    /// The missing ranges for people: `[2]`, `[0-2, 5]`.
    #[must_use]
    pub fn missing_text(&self) -> String {
        let items: Vec<String> = self
            .missing
            .iter()
            .map(|&(first, last)| {
                if first == last {
                    first.to_string()
                } else {
                    format!("{first}-{last}")
                }
            })
            .collect();
        format!("[{}]", items.join(", "))
    }

    /// Serializes the record as a JSON object; `missing` is an array of
    /// `[first, last]` pairs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let list = |v: &[usize]| {
            let items: Vec<String> = v.iter().map(|i| i.to_string()).collect();
            format!("[{}]", items.join(","))
        };
        let ranges: Vec<String> = self
            .missing
            .iter()
            .map(|(first, last)| format!("[{first},{last}]"))
            .collect();
        let missing = ranges.join(",");
        let mut out = String::with_capacity(256);
        out.push_str("{\"severity\":");
        out.push_str(&string(self.severity().label()));
        out.push_str(&format!(
            ",\"shard_count\":{},\"merged\":{},\"missing\":[{}],\"corrupt\":{},\"duplicates\":{},\"min_shards\":{},\"planned_late\":{},\"observed_late\":{},\"inflation\":{}",
            self.shard_count,
            self.merged,
            missing,
            list(&self.corrupt),
            self.duplicates,
            self.min_shards,
            self.planned_late,
            self.observed_late,
            number(self.inflation),
        ));
        out.push('}');
        out
    }

    /// One-line human summary for reports and status lines.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = format!(
            "shards: {}/{} merged ({} late samples of {})",
            self.merged, self.shard_count, self.observed_late, self.planned_late
        );
        if !self.missing.is_empty() {
            line.push_str(&format!(" missing={}", self.missing_text()));
        }
        if !self.corrupt.is_empty() {
            line.push_str(&format!(" corrupt={:?}", self.corrupt));
        }
        if self.duplicates > 0 {
            line.push_str(&format!(" duplicates={}", self.duplicates));
        }
        if self.inflation > 1.0 {
            line.push_str(&format!(" inflation={:.4}", self.inflation));
        }
        line.push_str(&format!(" [{}]", self.severity().label()));
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete() -> ShardCoverage {
        ShardCoverage {
            shard_count: 4,
            merged: 4,
            missing: vec![],
            corrupt: vec![],
            duplicates: 0,
            min_shards: 3,
            planned_late: 200,
            observed_late: 200,
            inflation: 1.0,
        }
    }

    #[test]
    fn severity_ladder_complete_degraded_below_quorum() {
        let full = complete();
        assert!(full.is_complete());
        assert!(full.quorum_met());
        assert_eq!(full.severity(), Severity::Ok);
        assert_eq!(full.coverage_fraction(), 1.0);

        let degraded = ShardCoverage {
            merged: 3,
            missing: vec![(2, 2)],
            planned_late: 200,
            observed_late: 150,
            inflation: 200.0 / 150.0,
            ..complete()
        };
        assert!(!degraded.is_complete());
        assert!(degraded.quorum_met());
        assert_eq!(degraded.severity(), Severity::Warn);

        let starved = ShardCoverage {
            merged: 2,
            missing: vec![(1, 1)],
            corrupt: vec![3],
            observed_late: 100,
            inflation: 2.0,
            ..complete()
        };
        assert!(!starved.quorum_met());
        assert_eq!(starved.severity(), Severity::Critical);
    }

    #[test]
    fn json_is_parseable_and_carries_every_field() {
        let cov = ShardCoverage {
            merged: 3,
            missing: vec![(0, 1)],
            duplicates: 2,
            observed_late: 150,
            inflation: 4.0 / 3.0,
            ..complete()
        };
        let v = crate::json::parse(&cov.to_json()).expect("coverage JSON parses");
        assert_eq!(
            v.get("severity").and_then(crate::json::Value::as_str),
            Some("warn")
        );
        assert_eq!(
            v.get("merged").and_then(crate::json::Value::as_f64),
            Some(3.0)
        );
        let missing = v
            .get("missing")
            .and_then(crate::json::Value::as_array)
            .unwrap();
        assert_eq!(missing.len(), 1);
        let range = missing[0].as_array().unwrap();
        assert_eq!(range[0].as_f64(), Some(0.0));
        assert_eq!(range[1].as_f64(), Some(1.0));
        assert_eq!(
            v.get("duplicates").and_then(crate::json::Value::as_f64),
            Some(2.0)
        );
        assert!(
            v.get("inflation")
                .and_then(crate::json::Value::as_f64)
                .unwrap()
                > 1.3
        );
    }

    #[test]
    fn summary_mentions_gaps_and_severity() {
        let cov = ShardCoverage {
            merged: 3,
            missing: vec![(2, 2), (5, 7)],
            duplicates: 1,
            observed_late: 150,
            inflation: 4.0 / 3.0,
            ..complete()
        };
        let line = cov.summary();
        assert!(line.contains("3/4"), "{line}");
        assert!(line.contains("missing=[2, 5-7]"), "{line}");
        assert!(line.contains("duplicates=1"), "{line}");
        assert!(line.contains("inflation=1.3333"), "{line}");
        assert!(line.contains("[warn]"), "{line}");
        assert!(complete().summary().contains("[ok]"));
    }

    #[test]
    fn zero_shard_plan_has_zero_coverage() {
        let cov = ShardCoverage {
            shard_count: 0,
            merged: 0,
            min_shards: 0,
            planned_late: 0,
            observed_late: 0,
            ..complete()
        };
        assert_eq!(cov.coverage_fraction(), 0.0);
    }
}
