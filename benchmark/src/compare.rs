//! `benchmark compare a.json b.json`: one row per workload × end-to-end
//! metric, judged against the bounds `BENCHMARK.json` fixes. This is the
//! table a later change quotes.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the runs cannot tell "unchanged" from "worse".
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` (the change) against `a` (the base) on one metric.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let spread = |v: &[f64]| stats::spread(v).unwrap_or(0.0);
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (
        stats::median(&mut a.to_vec()),
        stats::median(&mut b.to_vec()),
    );
    let worse_by = if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// What a result file holds, one entry per run.
#[derive(Default)]
struct Results {
    /// `workload → metric → values`.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// `(workload, seed, kind) → the distinct result digests seen`.
    digests: BTreeMap<(String, u64, String), BTreeSet<String>>,
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut out = Results::default();
    for run in Json::parse(&text)
        .map_err(|e| format!("{path}: {e}"))?
        .as_arr()
    {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: run without a workload"))?;
        if let Some(Json::Obj(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.values
                        .entry(workload.to_string())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
        let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(-1.0) as u64;
        if let Some(Json::Obj(digests)) = run.get("digests") {
            for (kind, d) in digests {
                out.digests
                    .entry((workload.to_string(), seed, kind.clone()))
                    .or_default()
                    .insert(d.as_str().unwrap_or("").to_string());
            }
        }
    }
    Ok(out)
}

/// The comparison table and how many rows came out `worse`.
pub fn compare(spec: &Json, a_path: &str, b_path: &str) -> Result<(String, usize), String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut out = format!(
        "{:<11} {:<12} {:>12} {:>12} {:>16} {:>6} {:>8} {:>8}  verdict\n",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "spread a", "spread b"
    );
    let mut worse = 0;
    for workload in spec.get("workloads").map_or(&[][..], Json::as_arr) {
        let workload = workload.get("name").and_then(Json::as_str).unwrap_or("");
        for metric in spec.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Json::as_str) != Some("higher");
            let values = |r: &Results| r.values.get(workload).and_then(|m| m.get(name)).cloned();
            let (Some(va), Some(vb)) = (values(&a), values(&b)) else {
                out.push_str(&format!(
                    "{workload:<11} {name:<12} missing from one side\n"
                ));
                continue;
            };
            let verdict = judge(&va, &vb, lower, bound);
            worse += usize::from(verdict == Verdict::Worse);
            let (ma, mb) = (
                stats::median(&mut va.clone()),
                stats::median(&mut vb.clone()),
            );
            let pct = |v: &[f64]| {
                stats::spread(v).map_or("n=1".to_string(), |s| format!("{:.1}%", 100.0 * s))
            };
            out.push_str(&format!(
                "{workload:<11} {name:<12} {ma:>12.4} {mb:>12.4} {:>7.3} of {ma:<5.4} {:>5.0}% {:>8} {:>8}  {}\n",
                mb / ma,
                100.0 * bound,
                pct(&va),
                pct(&vb),
                verdict.label(),
            ));
        }
    }
    // Same seed, same kind: the same bag, in either file.
    let mut digests = a.digests;
    for (key, seen) in b.digests {
        digests.entry(key).or_default().extend(seen);
    }
    let differing: Vec<_> = digests.iter().filter(|(_, d)| d.len() > 1).collect();
    out.push_str(&format!(
        "result_digest: {} (workload, seed, kind) triples, {} with differing digests\n",
        digests.len(),
        differing.len()
    ));
    for ((workload, seed, kind), digests) in &differing {
        out.push_str(&format!("  {workload} seed {seed} {kind}: {digests:?}\n"));
    }
    Ok((out, worse + differing.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0];
        // Within the bound either way.
        assert_eq!(
            judge(&base, &[10.5, 10.4, 10.6, 10.5], true, 0.1),
            Verdict::Ok
        );
        assert_eq!(judge(&base, &[5.0, 5.0, 5.1, 4.9], true, 0.1), Verdict::Ok);
        // Lower is better: 12 is 20 % worse than 10.
        assert_eq!(
            judge(&base, &[12.0, 12.1, 11.9, 12.0], true, 0.1),
            Verdict::Worse
        );
        // Higher is better: the same numbers are an improvement, 8 is worse.
        assert_eq!(
            judge(&base, &[12.0, 12.1, 11.9, 12.0], false, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &[8.0, 8.1, 7.9, 8.0], false, 0.1),
            Verdict::Worse
        );
        // A side whose own runs disagree by more than the bound decides nothing.
        assert_eq!(
            judge(&base, &[8.0, 12.0, 10.0, 14.0], true, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[8.0, 12.0, 10.0, 14.0], &base, true, 0.1),
            Verdict::Unresolved
        );
        // Single runs have no spread to object with.
        assert_eq!(judge(&[10.0], &[10.5], true, 0.1), Verdict::Ok);
        assert_eq!(judge(&[10.0], &[11.5], true, 0.1), Verdict::Worse);
    }
}
