//! The environment stamp printed with every result.

use crate::Config;
use std::path::Path;

/// The commit the benchmark was built from: `HEAD` of the enclosing git
/// checkout, or "unknown" outside one.
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU model from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// The stamp as a JSON object: commit, core count, CPU model, compiler,
/// workload, seed, run length and workload sizes.
pub fn stamp_json(cfg: &Config, sizes: &[(&str, u64)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sizes: Vec<String> = sizes
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
        .collect();
    format!(
        "{{\"commit\":\"{}\",\"nproc\":{nproc},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\
         \"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"sizes\":{{{}}}}}",
        escape(&commit()),
        escape(&cpu_model()),
        escape(env!("PERFBENCH_RUSTC_VERSION")),
        cfg.workload.name(),
        cfg.seed,
        cfg.measure.as_secs_f64(),
        u8::from(cfg.trace),
        sizes.join(",")
    )
}
