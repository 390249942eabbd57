//! Seeded input generators. The program under test only ever sees what
//! these produce (as CSV files and SQL text); the same seed gives the
//! same bytes.
//!
//! The Incumben-like relation follows the statistics the paper reports
//! for the real data set (Sec. 7.1): a 16-year domain at day
//! granularity, durations of at most 573 days with a mean near 180, and
//! employees/positions scaled from 49 195 / 1 500 per 83 857 rows.

use std::collections::HashMap;

/// splitmix64: small, seedable, and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// these ranges.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// The splitmix64 finalizer, also used as a stateless hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(ssn, pcn, ts, te)`.
pub type IncRow = [i64; 4];

pub const DAYS: i64 = 16 * 365;
const MAX_DURATION: i64 = 573;
const MEAN_DURATION: f64 = 180.0;

/// Exponential duration clamped to `[1, 573]` with a mean near 180 (the
/// scale is raised by 5 % to make up for what the clamp cuts off).
fn duration(rng: &mut Rng) -> i64 {
    let d = (-rng.unit().ln() * MEAN_DURATION * 1.05).round() as i64;
    d.clamp(1, MAX_DURATION)
}

/// An Incumben-like relation of `rows` job assignments in generation
/// order. Value-equivalent `(ssn, pcn)` rows never overlap in time (the
/// relation is duplicate free, Sec. 3.1): conflicting draws are retried.
pub fn incumben(rows: usize, seed: u64) -> Vec<IncRow> {
    let employees = (rows * 49_195 / 83_857).max(1) as u64;
    let positions = (rows * 1_500 / 83_857).max(1) as u64;
    let mut rng = Rng::new(seed);
    let mut taken: HashMap<(i64, i64), Vec<(i64, i64)>> = HashMap::new();
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows as u64 {
        // The first `employees` rows introduce distinct employees; the
        // rest are further assignments of existing ones.
        let ssn = if i < employees {
            i as i64
        } else {
            rng.below(employees) as i64
        };
        loop {
            let pcn = rng.below(positions) as i64;
            let dur = duration(&mut rng);
            let ts = rng.below((DAYS - dur) as u64) as i64;
            let te = ts + dur;
            let slot = taken.entry((ssn, pcn)).or_default();
            if slot.iter().all(|&(s, e)| te <= s || e <= ts) {
                slot.push((ts, te));
                out.push([ssn, pcn, ts, te]);
                break;
            }
        }
    }
    out
}

/// The `timeslice` history: Incumben-like rows in start-time order (how
/// a history table fills), with a seeded 5 % of rows swapped to random
/// positions (late corrections), so zone maps are good but not perfect.
pub fn history(rows: usize, seed: u64) -> Vec<IncRow> {
    let mut out = incumben(rows, seed);
    out.sort_by_key(|r| (r[2], r[0], r[1]));
    let mut rng = Rng::new(seed ^ 0x5EED_0001);
    for _ in 0..rows / 20 {
        let a = rng.below(rows as u64) as usize;
        let b = rng.below(rows as u64) as usize;
        out.swap(a, b);
    }
    out
}

/// `(id, ts, te)`.
pub type IdRow = [i64; 3];

/// `Ddisj` (Sec. 7.4): two relations of `n` tuples whose `2n` intervals
/// are pairwise disjoint — `r` lives in the first half of each 20-day
/// slot, `s` in the second, each 5 days long at a seeded offset.
pub fn ddisj(n: usize, seed: u64) -> (Vec<IdRow>, Vec<IdRow>) {
    let mut rng = Rng::new(seed ^ 0x5EED_0002);
    let mut r = Vec::with_capacity(n);
    let mut s = Vec::with_capacity(n);
    for i in 0..n as i64 {
        let a = 20 * i + rng.below(5) as i64;
        let b = 20 * i + 10 + rng.below(5) as i64;
        r.push([i, a, a + 5]);
        s.push([i, b, b + 5]);
    }
    (r, s)
}

/// `(k, v, ts, te)` — row `i` of the `oltp_mix` event table. A pure
/// function of `(seed, i)`, so the writer, the reader and the checker
/// agree on every row without sharing state.
pub fn event(seed: u64, i: i64) -> [i64; 4] {
    [
        (mix(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)) % EVENT_KEYS) as i64,
        i,
        i,
        i + EVENT_LIFETIME,
    ]
}

pub const EVENT_KEYS: u64 = 200;
/// Every event is valid for this many ticks after it starts.
pub const EVENT_LIFETIME: i64 = 50;

/// Rows as header-less CSV, the `COPY … FROM` input format.
pub fn csv<const N: usize>(rows: &[[i64; N]]) -> String {
    let mut out = String::with_capacity(rows.len() * N * 6);
    for row in rows {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_other_seed_other_rows() {
        assert_eq!(incumben(500, 7), incumben(500, 7));
        assert_ne!(incumben(500, 7), incumben(500, 8));
        assert_eq!(history(500, 7), history(500, 7));
        assert_eq!(ddisj(50, 3), ddisj(50, 3));
        assert_eq!(event(9, 1234), event(9, 1234));
        assert_eq!(csv(&incumben(20, 1)), csv(&incumben(20, 1)));
    }

    #[test]
    fn incumben_matches_the_paper_statistics() {
        let rows = incumben(20_000, 1);
        let mean = rows.iter().map(|r| (r[3] - r[2]) as f64).sum::<f64>() / rows.len() as f64;
        assert!((175.0..185.0).contains(&mean), "mean duration {mean}");
        assert!(rows
            .iter()
            .all(|r| r[2] >= 0 && r[3] <= DAYS && (1..=MAX_DURATION).contains(&(r[3] - r[2]))));
        let positions = rows.iter().map(|r| r[1]).max().unwrap() + 1;
        assert_eq!(positions as usize, 20_000 * 1_500 / 83_857);
    }

    #[test]
    fn incumben_is_duplicate_free() {
        let mut rows = incumben(5_000, 2);
        rows.sort();
        for w in rows.windows(2) {
            if w[0][0] == w[1][0] && w[0][1] == w[1][1] {
                assert!(w[0][3] <= w[1][2], "{:?} overlaps {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn history_is_mostly_in_start_order() {
        let rows = history(10_000, 5);
        let inversions = rows.windows(2).filter(|w| w[0][2] > w[1][2]).count();
        assert!(inversions > 0, "some rows must be displaced");
        assert!(inversions < rows.len() / 5, "{inversions} inversions");
    }

    #[test]
    fn ddisj_intervals_are_pairwise_disjoint() {
        let (r, s) = ddisj(200, 11);
        let mut all: Vec<(i64, i64)> = r.iter().chain(&s).map(|x| (x[1], x[2])).collect();
        all.sort();
        assert!(all.windows(2).all(|w| w[0].1 <= w[1].0));
    }
}
