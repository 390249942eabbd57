//! Golden-output gate for `examples/`: each example is run (in release,
//! so CI exercises the optimized pipeline) and its stdout is diffed
//! against the committed golden file under `tests/golden/` — API
//! refactors cannot silently change example behavior.
//!
//! To bless new output after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test examples_smoke
//! ```

use std::path::Path;
use std::process::Command;

/// The checked-in examples. Listing them explicitly (rather than globbing
/// `examples/`) makes a missing or renamed example fail loudly here.
const EXAMPLES: &[&str] = &[
    "quickstart",
    "employee_history",
    "hotel_reservations",
    "lineage_audit",
    "calendar_dates",
    "sql_interface",
];

#[test]
fn all_examples_match_their_golden_output() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let bless = std::env::var("UPDATE_GOLDENS").is_ok_and(|v| !v.is_empty() && v != "0");

    let listed: std::collections::BTreeSet<_> = EXAMPLES.iter().map(|e| e.to_string()).collect();
    let on_disk: std::collections::BTreeSet<_> = std::fs::read_dir(manifest_dir.join("examples"))
        .expect("examples/ directory exists")
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension()? == "rs").then(|| path.file_stem()?.to_str().map(str::to_string))?
        })
        .collect();
    assert_eq!(
        listed, on_disk,
        "EXAMPLES list out of sync with the examples/ directory"
    );

    let golden_dir = manifest_dir.join("tests").join("golden");
    if bless {
        std::fs::create_dir_all(&golden_dir).expect("create tests/golden");
    }

    let mut failures = Vec::new();
    for example in EXAMPLES {
        let output = Command::new(&cargo)
            .current_dir(manifest_dir)
            .args(["run", "--release", "--quiet", "--example", example])
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example {example}: {e}"));
        assert!(
            output.status.success(),
            "example {example} exited with {}\n--- stderr ---\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr),
        );
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();

        let golden_path = golden_dir.join(format!("{example}.txt"));
        if bless {
            std::fs::write(&golden_path, &stdout)
                .unwrap_or_else(|e| panic!("write {}: {e}", golden_path.display()));
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run UPDATE_GOLDENS=1 cargo test \
                 --test examples_smoke to create it",
                golden_path.display()
            )
        });
        if stdout != golden {
            failures.push(format!(
                "example {example} stdout diverged from {}:\n{}",
                golden_path.display(),
                first_diff(&golden, &stdout)
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n(if the change is intentional: UPDATE_GOLDENS=1 cargo test --test examples_smoke)",
        failures.join("\n\n")
    );
}

/// Render the first differing line with context, to keep failures readable.
fn first_diff(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e != a {
            return format!(
                "first difference at line {}:\n  expected: {}\n  actual:   {}",
                i + 1,
                e.unwrap_or("<eof>"),
                a.unwrap_or("<eof>"),
            );
        }
    }
    "outputs differ in trailing whitespace".to_string()
}
