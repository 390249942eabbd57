//! Percentiles, the tail-percentile rule, and the order-insensitive
//! result digest.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` % of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at 9 990, not one above it.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `pct` percentile.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// A tail percentile is reported only with at least this many samples
/// beyond it; with fewer it is the reading of a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The highest of the candidate percentiles that `n` samples support,
/// if any. Each workload fixes its tail percentile up front (so runs
/// stay comparable); this is the rule that fixed choice is checked with.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method); needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the distance between the quartiles as a share of
/// the median. `None` with fewer than two values.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(&mut values.to_vec()).abs())
}

/// Order-insensitive digest of a result: the wrapping sum of one 64-bit
/// hash per row plus the row count, so a bag compares equal whatever
/// order the server returns it in, and a lost or duplicated row does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    /// Add one row given as its wire fields (`None` = SQL NULL).
    pub fn add_row<S: AsRef<str>>(&mut self, fields: &[Option<S>]) {
        // FNV-1a over the fields with a separator that no field can
        // contain unescaped, then a finalizer so that row hashes do not
        // cancel under addition.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for f in fields {
            match f {
                None => eat(0x00),
                Some(s) => {
                    eat(0x01);
                    s.as_ref().bytes().for_each(&mut eat);
                }
            }
            eat(0x1F);
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(crate::gen::mix(h));
    }

    /// Add one all-integer row (formatted as the wire formats it).
    pub fn add_ints(&mut self, row: &[i64]) {
        let fields: Vec<Option<String>> = row.iter().map(|v| Some(v.to_string())).collect();
        self.add_row(&fields);
    }

    pub fn of_rows<S: AsRef<str>>(rows: &[Vec<Option<S>>]) -> Digest {
        let mut d = Digest::default();
        rows.iter().for_each(|r| d.add_row(r));
        d
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{:016x}", self.rows, self.sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[3.0, 1.0, 2.0]), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(999), Some(90.0));
        assert_eq!(highest_supported_tail(1_000), Some(99.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
        assert_eq!(highest_supported_tail(0), None);
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = vec![vec![Some("1"), Some("x")], vec![None, Some("y")]];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(Digest::of_rows(&a), Digest::of_rows(&b));
        // A duplicated row, a lost row and a changed field all show.
        let dup = vec![a[0].clone(), a[0].clone(), a[1].clone()];
        assert_ne!(Digest::of_rows(&a), Digest::of_rows(&dup));
        assert_ne!(Digest::of_rows(&a), Digest::of_rows(&a[..1]));
        let changed = vec![vec![Some("1"), Some("z")], a[1].clone()];
        assert_ne!(Digest::of_rows(&a), Digest::of_rows(&changed));
        // NULL is not the empty string, and field boundaries matter.
        assert_ne!(
            Digest::of_rows(&[vec![None::<&str>]]),
            Digest::of_rows(&[vec![Some("")]])
        );
        assert_ne!(
            Digest::of_rows(&[vec![Some("ab"), Some("c")]]),
            Digest::of_rows(&[vec![Some("a"), Some("bc")]])
        );
    }

    #[test]
    fn int_rows_digest_like_their_wire_form() {
        let mut d = Digest::default();
        d.add_ints(&[12, -3]);
        assert_eq!(d, Digest::of_rows(&[vec![Some("12"), Some("-3")]]));
    }
}
