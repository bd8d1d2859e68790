//! The process environment: the guard against library knobs set from
//! outside, the host record printed with every result, and peak RSS.

/// Variables the library reads itself. Set from outside, they would
/// silently change the program being measured, so the benchmark refuses
/// to start.
pub const GUARDED_VARS: [&str; 7] = [
    "EGM_SHARDS",
    "EGM_PARTITION",
    "EGM_EVENT_QUEUE",
    "EGM_SHARD_THREADS",
    "EGM_SCALE",
    "EGM_SCALE_PRESET",
    "RAYON_NUM_THREADS",
];

/// The guarded variables that are set, or an empty list.
pub fn guarded_vars_set() -> Vec<&'static str> {
    GUARDED_VARS
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// Pins what the benchmark process would otherwise leave to the host.
/// Every timed run is then single-threaded, because with one thread per
/// core of a small shared host, wall time and peak RSS move with thread
/// scheduling and with load from outside the process (measured on a
/// 2-vCPU VM: the 10k preset at W=2 on the threaded driver spread 24 %
/// in run time and 12 % in peak RSS across ten runs, against 8 % and
/// 3 % for the same scenario on the sequential engine):
///
/// * the sharded engine uses its single-threaded window driver, which
///   runs the same windows, lanes and merge in the same order;
/// * `run_sweep` runs on one thread, so the sweep's wall time is not the
///   makespan of 13 runs over the cores and its peak RSS does not depend
///   on which runs overlap;
/// * the traffic spool writes under `spool_dir` (inside the checkout)
///   rather than the system temp directory.
///
/// Call once, before any thread starts, after [`guarded_vars_set`] came
/// back empty.
pub fn pin_process_env(spool_dir: &std::path::Path) {
    use_threaded_shards(false);
    std::env::set_var("RAYON_NUM_THREADS", "1");
    std::env::set_var("TMPDIR", spool_dir);
}

/// Selects the sharded engine's window driver for engines built from now
/// on. Call only while no other thread of the process runs.
pub fn use_threaded_shards(on: bool) {
    std::env::set_var("EGM_SHARD_THREADS", if on { "1" } else { "0" });
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The rustc that compiled the benchmark.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

/// The git revision the benchmark was built from ("unknown" outside a
/// git checkout).
pub const GIT_REV: &str = env!("PERFBENCH_GIT_REV");

/// FNV-1a digest of the library sources the benchmark was built from
/// (the workspace manifests, `src`, `crates` and `vendor`).
pub const SOURCE_DIGEST: &str = env!("PERFBENCH_SOURCE_DIGEST");

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
