//! Order statistics, output digests and process memory.

/// Linear-interpolated percentile (`q` in `[0, 1]`) of `values`.
/// Returns `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The cost of an op from the fastest run of each of its parts: the sum
/// over `k` of the minimum of `ops[i][k]`. Every op must have the same
/// parts. Returns `None` without ops.
pub fn sum_of_fastest_parts(ops: &[Vec<f64>]) -> Option<f64> {
    let first = ops.first()?;
    let total = (0..first.len())
        .map(|k| {
            ops.iter()
                .map(|parts| parts[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    Some(total)
}

/// How many of `n` sorted samples lie above the position [`percentile`]
/// reads `q` at. A tail percentile is worth reporting only with at least
/// [`MIN_BEYOND`] samples beyond it; fewer, and one slow sample moves it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let last = n.saturating_sub(1);
    // The epsilon keeps 0.99 · 900 = 890.99… from flooring to 890.
    last - ((q * last as f64 + 1e-9).floor() as usize).min(last)
}

/// Samples a tail percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// First and third quartile with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads read the same here as
/// in any script that checks the runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// FNV-1a over 64-bit words: a digest of an op's output bits, equal
/// across runs exactly when every output bit is.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in, byte by byte.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in the bit patterns of `xs`.
    pub fn floats(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        assert_eq!(percentile(&xs, 0.9), Some(4.6));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn fastest_parts_are_taken_part_by_part() {
        let ops = vec![vec![3.0, 1.0], vec![2.0, 4.0], vec![5.0, 2.0]];
        assert_eq!(sum_of_fastest_parts(&ops), Some(3.0));
        assert_eq!(sum_of_fastest_parts(&ops[1..2]), Some(6.0));
        assert_eq!(sum_of_fastest_parts(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p90 is supported from 92 samples on, p99 from 902.
        assert_eq!(samples_beyond(91, 0.9), MIN_BEYOND - 1);
        assert_eq!(samples_beyond(92, 0.9), MIN_BEYOND);
        assert_eq!(samples_beyond(901, 0.99), MIN_BEYOND - 1);
        assert_eq!(samples_beyond(902, 0.99), MIN_BEYOND);
        assert_eq!(samples_beyond(10, 0.5), 5);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // Python extrapolates at the ends of short samples:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn digest_tracks_every_bit() {
        let mut a = Digest::default();
        a.floats(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.floats(&[1.0, f64::from_bits(2.0f64.to_bits() ^ 1)]);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.floats(&[1.0, 2.0]);
        assert_eq!(a.value(), c.value());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
