//! The steadiness report: repeat a workload on consecutive seeds and
//! show how far each metric moves.

use crate::common::{median, Args, DROPPED, END_TO_END};
use reordd::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method), so the report matches an external
/// check made that way.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        return (data[0], data[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Runs `args.repeat` child runs and prints the report. Returns the exit
/// code: 0 when every run succeeded and checked correct.
pub fn report(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("own executable");
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    let mut bad_runs = 0;
    for i in 0..args.repeat as u64 {
        let seed = args.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("run the benchmark");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let Ok(result) = Json::parse(line) else {
            println!("seed {seed}: no result ({})", output.status);
            bad_runs += 1;
            continue;
        };
        let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "seed {seed}: correct={correct} attempted={} failed={failed}",
            result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        );
        if !correct || !output.status.success() {
            bad_runs += 1;
        }
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, metric) in metrics {
                if let Some(v) = metric.get("value").and_then(Json::as_f64) {
                    values.entry(name.clone()).or_default().push(v);
                }
                if let Some(u) = metric.get("unit").and_then(Json::as_str) {
                    units.insert(name.clone(), u.to_string());
                }
            }
        }
    }
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>12} {:>8} {:>9}",
        "metric", "unit", "median", "q1", "q3", "iqr/med", "range/med"
    );
    let mut names: Vec<&String> = values.keys().collect();
    // End-to-end metrics first, in their declared order.
    names.sort_by_key(|n| {
        END_TO_END
            .iter()
            .position(|(e, _)| e == n)
            .unwrap_or(usize::MAX)
    });
    for name in names {
        let v = &values[name];
        let mid = median(v);
        let (q1, q3) = quartiles(v);
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
        let share = |d: f64| if mid == 0.0 { 0.0 } else { d / mid.abs() };
        println!(
            "{:<28} {:>6} {:>12.4} {:>12.4} {:>12.4} {:>7.1}% {:>8.1}%",
            name,
            units.get(name).map_or("", String::as_str),
            mid,
            q1,
            q3,
            share(q3 - q1) * 100.0,
            share(hi - lo) * 100.0
        );
    }
    if !args.trace {
        println!("{DROPPED}");
    }
    i32::from(bad_runs > 0)
}
