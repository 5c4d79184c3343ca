//! Fleet smoke run: simulates a population of wearables through the parallel
//! fleet scheduler and verifies that the multi-threaded result is bit-identical
//! to the single-threaded one with the same base seed.
//!
//! Run with `cargo run --release -p adasense-bench --bin fleet_sim`
//! (add `--quick` for a reduced training set; `--devices N` and `--duration S`
//! to change the population; `--backend <f64|int8|cascade|mixed|mixed-cascade>`
//! selects the inference backend assignment).  Exits non-zero if the
//! determinism check fails.

use adasense::prelude::*;
use adasense_bench::{int_arg, string_arg, train_system, RunScale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = RunScale::from_args();
    let (spec, system) = train_system(scale)?;

    let mut fleet = FleetSpec::smoke();
    if let Some(devices) = int_arg("--devices")? {
        fleet.devices = devices;
    }
    if let Some(duration) = int_arg("--duration")? {
        fleet.duration_s = duration as f64;
    }
    if let Some(backend) = string_arg("--backend")? {
        fleet.population.backend = match backend.as_str() {
            "mixed" => BackendSpec::half_int8(),
            "mixed-cascade" => BackendSpec::half_cascade(),
            name => BackendSpec::Uniform(BackendKind::from_name(name).ok_or_else(|| {
                format!("unknown backend `{name}` (f64, int8, cascade, mixed or mixed-cascade)")
            })?),
        };
    }
    let (devices, duration_s) = (fleet.devices, fleet.duration_s);

    // Use at least 4 workers so the determinism check below always compares a
    // genuinely multi-threaded run against the serial one, even on 1-core CI.
    let scheduler = FleetScheduler::new(&spec, &system);
    let scheduler = scheduler.with_threads(scheduler.worker_threads().max(4));
    let threads = scheduler.worker_threads();
    eprintln!("[fleet_sim] running {devices} devices × {duration_s} s on {threads} workers…");
    let start = std::time::Instant::now();
    let parallel = scheduler.builder().spec(&fleet).run()?.report;
    let wall = start.elapsed();

    println!("Fleet simulation — {devices} devices × {duration_s} s\n");
    println!("{}", parallel.to_table_string());
    let simulated_s = parallel.total_duration_s();
    println!(
        "wall clock: {:.2} s on {threads} workers ({:.0}x realtime)",
        wall.as_secs_f64(),
        simulated_s / wall.as_secs_f64().max(1e-9)
    );

    eprintln!("[fleet_sim] verifying bit-identity against a single-threaded run…");
    let serial = scheduler.with_threads(1).builder().spec(&fleet).run()?.report;
    if serial != parallel {
        return Err("multi-threaded fleet run differs from the single-threaded run".into());
    }
    println!("determinism: {threads}-worker report is bit-identical to the 1-worker report");
    Ok(())
}
