//! The whole suite — every workload, untraced then traced, one child
//! process at a time — and the comparison of two suite results.

use serde_json::Value;
use sphinx_benchmark::cli::Args;
use sphinx_benchmark::{metrics, object, workloads};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Run one child (`--trace 0` or `1`) and return its result object and
/// schedule digest. The child inherits standard error; its standard
/// output is relayed after it ends.
fn child(args: &Args, workload: &str, trace: bool) -> Result<(Value, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("--workload")
        .arg(workload)
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .arg("--trace")
        .arg(if trace { "1" } else { "0" })
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit());
    if let Some(r) = args.repeats {
        cmd.arg("--repeats").arg(r.to_string());
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) failed: {}",
            u8::from(trace),
            output.status
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("schedule_digest "))
        .ok_or(format!("{workload}: no schedule digest"))?
        .to_owned();
    Ok((result, digest))
}

/// What produced the numbers: they mean nothing without it.
fn machine() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    object([
        ("nproc", serde_json::json!(nproc)),
        ("cpu", Value::String(cpu)),
        (
            "rustc",
            Value::String(std::env::var("SPHINX_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        ),
    ])
}

fn print_metrics(result: &Value) {
    for (name, m) in result
        .get("metrics")
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
    {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("?");
        println!("  {name:<44} {value:>16.6} {unit}");
    }
}

/// Run every workload and write the suite result.
pub fn run(args: &Args) -> Result<(), String> {
    let mut by_workload = Vec::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        let (end_to_end, digest) = child(args, name, false)?;
        let (per_layer, traced_digest) = child(args, name, true)?;
        if digest != traced_digest {
            return Err(format!(
                "{name}: untraced and traced processes disagree on the schedule digest"
            ));
        }
        println!("== {name} (seed {}, digest {digest})", args.seed);
        for key in ["attempted", "failed", "correct"] {
            println!(
                "  ops_{key:<40} {:>16}",
                end_to_end.get(key).map_or("?".into(), Value::to_string)
            );
        }
        print_metrics(&end_to_end);
        print_metrics(&per_layer);
        all_correct &= [&end_to_end, &per_layer]
            .iter()
            .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true));
        let field = |of: &Value, key: &str| of.get(key).cloned().unwrap_or(Value::Null);
        by_workload.push((
            name,
            object([
                ("digest", Value::String(digest)),
                ("attempted", field(&end_to_end, "attempted")),
                ("failed", field(&end_to_end, "failed")),
                ("end_to_end", field(&end_to_end, "metrics")),
                ("per_layer", field(&per_layer, "metrics")),
            ]),
        ));
    }
    let result = object([
        ("seed", serde_json::json!(args.seed)),
        ("machine", machine()),
        ("workloads", object(by_workload)),
    ]);
    let path = args
        .result
        .clone()
        .unwrap_or_else(|| args.out.join(format!("result-seed{}.json", args.seed)));
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let text = serde_json::to_string_pretty(&result).expect("result prints");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    if all_correct {
        Ok(())
    } else {
        Err("a workload's outputs failed verification".to_owned())
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric_values(workload: &Value, block: &str) -> BTreeMap<String, (f64, String)> {
    workload
        .get(block)
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_f64()?;
            let unit = m.get("unit")?.as_str()?.to_owned();
            Some((name.clone(), (value, unit)))
        })
        .collect()
}

/// `compare A B`: two suite results of the same code and seed must agree
/// — host times and memory within each metric's bound, simulated
/// statistics, exact counts, failures and digests identically. With
/// `--digests-differ` (two seeds), only that every digest changed.
pub fn compare(argv: &[String]) -> Result<(), String> {
    let (paths, flags): (Vec<&String>, Vec<&String>) =
        argv.iter().partition(|a| !a.starts_with("--"));
    let digests_differ = match flags.as_slice() {
        [] => false,
        [f] if *f == "--digests-differ" => true,
        _ => return Err("compare: unknown flag".to_owned()),
    };
    let [a, b] = paths.as_slice() else {
        return Err("compare takes two result files".to_owned());
    };
    let (a, b) = (load(a)?, load(b)?);
    let bounds: BTreeMap<String, f64> = metrics::end_to_end()
        .into_iter()
        .filter_map(|m| Some((m.name, m.bound?)))
        .collect();
    let mut problems = Vec::new();
    for name in workloads::NAMES {
        let pointer = format!("/workloads/{name}");
        let (Some(wa), Some(wb)) = (a.pointer(&pointer), b.pointer(&pointer)) else {
            problems.push(format!("{name}: missing from a result"));
            continue;
        };
        let same_digest = wa.get("digest") == wb.get("digest");
        if digests_differ {
            if same_digest {
                problems.push(format!("{name}: another seed left the digest unchanged"));
            }
            continue;
        }
        if !same_digest {
            problems.push(format!("{name}: schedule digests differ"));
        }
        if wa.get("failed") != wb.get("failed") {
            problems.push(format!("{name}: ops_failed differs"));
        }
        let (ea, eb) = (
            metric_values(wa, "end_to_end"),
            metric_values(wb, "end_to_end"),
        );
        for (metric, bound) in &bounds {
            let (Some((x, _)), Some((y, _))) = (ea.get(metric), eb.get(metric)) else {
                problems.push(format!("{name}: {metric} missing"));
                continue;
            };
            if metric.starts_with("sim_") {
                if x != y {
                    problems.push(format!("{name}: {metric} {x} vs {y}, must repeat exactly"));
                }
            } else if x.max(*y) / x.min(*y) - 1.0 > *bound {
                problems.push(format!("{name}: {metric} {x} vs {y}, beyond {bound}"));
            }
        }
        let (la, lb) = (
            metric_values(wa, "per_layer"),
            metric_values(wb, "per_layer"),
        );
        for (metric, (x, unit)) in &la {
            let exact = matches!(unit.as_str(), "count" | "bytes");
            match lb.get(metric) {
                None => problems.push(format!("{name}: {metric} missing")),
                Some((y, _)) if exact && x != y => {
                    problems.push(format!("{name}: {metric} {x} vs {y}, must repeat exactly"))
                }
                Some(_) => {}
            }
        }
    }
    if problems.is_empty() {
        println!("compare: ok");
        Ok(())
    } else {
        Err(format!("compare failed:\n  {}", problems.join("\n  ")))
    }
}
