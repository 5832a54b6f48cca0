//! `results.json`: written by the all-workloads command, read back by
//! `--compare` and `--aa`.

use super::api::Json;
use super::catalog::{MetricDecl, END_TO_END};

/// Member `key` of a JSON object (`None` on anything else).
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    value.as_object()?.get(key)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let m = n + 1;
    let mut q = [0.0; 3];
    for (k, slot) in q.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(q)
}

/// Interquartile distance as a share of the median (0 below 2 samples).
fn spread(samples: &[f64]) -> f64 {
    quartiles(samples).map_or(0.0, |q| (q[2] - q[0]) / q[1].abs())
}

struct Side {
    value: f64,
    samples: Vec<f64>,
}

fn side(results: &Json, workload: &str, metric: &str) -> Option<Side> {
    let mut m = results;
    for key in ["workloads", workload, "end_to_end", "metrics", metric] {
        m = get(m, key)?;
    }
    let samples = get(m, "samples")
        .and_then(Json::as_array)
        .map_or(Vec::new(), |a| a.iter().filter_map(Json::as_f64).collect());
    Some(Side {
        value: get(m, "value")?.as_f64()?,
        samples,
    })
}

fn verdict(decl: &MetricDecl, old: &Side, new: &Side) -> &'static str {
    let sign = if decl.higher { -1.0 } else { 1.0 };
    let worsening = sign * (new.value - old.value) / old.value;
    let own_spread = spread(&old.samples).max(spread(&new.samples));
    let all_new = |better: bool| {
        !old.samples.is_empty()
            && new.samples.iter().all(|n| {
                old.samples
                    .iter()
                    .all(|o| (sign * (n - o) < 0.0) == better && n != o)
            })
    };
    if own_spread > decl.bound && !all_new(true) && !all_new(false) {
        "unresolved"
    } else if worsening > decl.bound {
        "worse"
    } else if -worsening > decl.bound || (all_new(true) && old.samples.len() > 1) {
        "better"
    } else {
        "same"
    }
}

/// Print one row per (workload, end-to-end metric) and return whether
/// any verdict is `worse`.
pub fn compare(old: &Json, new: &Json) -> bool {
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "old", "new", "new/old (base old)", "bound"
    );
    let mut any_worse = false;
    let workloads = get(old, "workloads").and_then(Json::as_object);
    for workload in workloads.into_iter().flat_map(|w| w.keys()) {
        for decl in &END_TO_END {
            let (Some(o), Some(n)) = (
                side(old, workload, decl.name),
                side(new, workload, decl.name),
            ) else {
                println!("{workload:<18} {:<18} missing on one side", decl.name);
                continue;
            };
            let v = verdict(decl, &o, &n);
            any_worse |= v == "worse";
            println!(
                "{workload:<18} {:<18} {:>14.6} {:>14.6} {:>22.4} {:>5.0}%  {v}",
                decl.name,
                o.value,
                n.value,
                n.value / o.value,
                decl.bound * 100.0
            );
        }
    }
    any_worse
}
