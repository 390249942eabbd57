//! Wire-level benchmark with a per-layer trace for the temporal-alignment
//! repository. See README.md; `run.sh` builds `tsql` and this binary and
//! passes its arguments through.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; one JSON object on the last line
//! benchmark [--seed N] [--seconds S] [--repeat K] [--trace] [--out F]   every workload, K sets, results to F
//! benchmark compare a.json b.json                            judge b against a with BENCHMARK.json's bounds
//! ```

mod child;
mod compare;
mod gen;
mod json;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{Options, Outcome};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: bad number {v:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let seconds: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                parsed.seconds = Some(seconds).filter(|s| *s > 0.0);
            }
            "--repeat" => parsed.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                parsed.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn benchmark_spec() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn run_all(args: Args) -> Result<bool, String> {
    let spec = benchmark_spec()?;
    let seconds = match args.seconds {
        Some(s) => s,
        None => spec
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    };
    // `run.sh` builds `tsql` into the directory this binary is in.
    let tsql = std::env::current_exe()
        .map_err(|e| format!("current exe: {e}"))?
        .with_file_name("tsql");
    if !tsql.is_file() {
        return Err(format!(
            "{} is missing: start the benchmark through benchmark/run.sh",
            tsql.display()
        ));
    }
    // Relative to the repository root `run.sh` starts the benchmark in:
    // short enough for a Unix socket path wherever the checkout lives,
    // and the server child resolves it the same way.
    let out_dir = PathBuf::from("benchmark/out");
    let options = |workload: &str| Options {
        workload: workload.to_string(),
        seed: args.seed,
        seconds,
        trace: args.trace,
        tsql: tsql.clone(),
        scratch: out_dir.join(format!("run-{}", std::process::id())),
        out_dir: out_dir.clone(),
    };

    // The driver's form: one workload, the result object on the last line.
    if let Some(workload) = &args.workload {
        let outcome = run::run(&options(workload))?;
        println!("{}", outcome.json());
        return Ok(true);
    }

    let mut outcomes: Vec<(usize, Outcome)> = Vec::new();
    for set in 0..args.repeat.max(1) {
        for spec in &workloads::SPECS {
            println!("== set {set} workload {} ==", spec.name);
            let outcome = run::run(&options(spec.name))?;
            println!("{}", outcome.json());
            outcomes.push((set, outcome));
        }
    }
    let runs: Vec<String> = outcomes
        .iter()
        .map(|(set, o)| {
            let digests: Vec<String> = o
                .digests
                .iter()
                .map(|(kind, d)| format!("{}: {}", json::quote(kind), json::quote(d)))
                .collect();
            format!(
                "{{\"set\": {set}, \"workload\": {}, \"seed\": {}, \"digests\": {{{}}}, {}}}",
                json::quote(&o.workload),
                o.seed,
                digests.join(", "),
                o.json_fields()
            )
        })
        .collect();
    let out = args.out.unwrap_or_else(|| out_dir.join("result.json"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    std::fs::write(&out, format!("[\n{}\n]\n", runs.join(",\n")))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("results -> {}", out.display());
    Ok(outcomes.iter().all(|(_, o)| o.correct))
}

fn main() -> ExitCode {
    // The in-process layer probes must see the shipped defaults too.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TEMPORAL_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => benchmark_spec()
                .and_then(|spec| compare::compare(&spec, a, b))
                .map(|(table, worse)| {
                    print!("{table}");
                    worse == 0
                }),
            _ => Err("usage: benchmark compare a.json b.json".to_string()),
        },
        _ => parse_args(&args).and_then(run_all),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let a = parse_args(&strings(&[
            "--workload",
            "timeslice",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("timeslice"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20.0), false));
        assert!(parse_args(&strings(&["--trace", "1"])).unwrap().trace);
        let bare = parse_args(&strings(&["--trace", "--repeat", "2"])).unwrap();
        assert!(bare.trace && bare.repeat == 2);
        assert!(parse_args(&strings(&["--bogus"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }

    /// `BENCHMARK.json` and the code name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_code() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            spec.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get(field).unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let declared = |table: &[(&str, &str)], i: usize| -> Vec<String> {
            table.iter().map(|t| [t.0, t.1][i].to_string()).collect()
        };
        assert_eq!(names("end_to_end", "name"), declared(run::END_TO_END, 0));
        assert_eq!(names("end_to_end", "unit"), declared(run::END_TO_END, 1));
        assert_eq!(names("per_layer", "name"), declared(run::PER_LAYER, 0));
        assert_eq!(names("per_layer", "unit"), declared(run::PER_LAYER, 1));
        let specs: Vec<String> = workloads::SPECS
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(names("workloads", "name"), specs);
        for metric in spec.get("end_to_end").unwrap().as_arr() {
            let bound = metric.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
