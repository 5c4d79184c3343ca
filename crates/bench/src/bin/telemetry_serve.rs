//! `telemetry_serve`: exposes a simulated fleet as live telemetry sockets.
//!
//! Trains the HAR system, records one wire-format trace per fleet device,
//! then serves the whole cohort from ONE listening socket on one poll-driven
//! thread (`adasense::ingest::serve::TelemetryServe`) — TCP by default, or a
//! Unix-domain socket with `--uds PATH`.  Each connection asks for a device
//! with a RESUME frame and receives that device's stream (opened by a JOIN
//! handshake naming the device, its config and its fleet start-epoch);
//! `--kill-at BYTES` additionally tears first streams at a byte offset to
//! force clients through the RESUME reconnect path, and `--kill-below N`
//! restricts those kills to devices with id below `N`.
//!
//! With `--churn`, the cohort follows the deterministic churn schedule from
//! `adasense_bench::churn_plan`: half the devices join the fleet clock late
//! (their JOIN frames carry nonzero start-epochs) and a quarter stream only
//! part of the run (their traces end early).  The consuming `reactor_fleet
//! --churn` derives the same schedule and gates on report byte-identity.
//!
//! Pair it with `reactor_fleet` in another process for a production-like
//! soak test (the CI `serve-smoke` and `churn-smoke` jobs run exactly that
//! at ≥512 concurrent connections):
//!
//! ```text
//! telemetry_serve --quick --devices 512 --addr-file /tmp/serve.addr &
//! reactor_fleet   --quick --devices 512 --connect-file /tmp/serve.addr
//! ```
//!
//! Flags: `--quick` (reduced training set), `--devices N` (default 64),
//! `--duration S` (default 20), `--routine NAME` (default office_day),
//! `--seed N` (default 42), `--port P` (default 0 = ephemeral),
//! `--uds PATH` (serve a Unix-domain socket instead of TCP),
//! `--addr-file PATH` (write the bound address atomically for scripting),
//! `--kill-at BYTES` (chaos: tear first streams), `--kill-below N` (only
//! chaos-kill devices with id < N), `--churn` (per-lifetime cohort),
//! `--streams N` (serve exactly N completed streams then exit; default
//! `devices`).  The fleet-shaping flags must match the consuming
//! `reactor_fleet` run, or its byte-identity gate will (correctly) fail.

#[cfg(not(unix))]
fn main() {
    eprintln!("telemetry_serve needs poll(2) and is only built on Unix platforms");
    std::process::exit(2);
}

#[cfg(unix)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    use adasense::prelude::*;
    use adasense_bench::{
        churn_plan, int_arg, record_fleet_traces, string_arg, train_system, RunScale,
    };

    let scale = RunScale::from_args();
    let devices = int_arg("--devices")?.unwrap_or(64);
    let duration_s = int_arg("--duration")?.unwrap_or(20) as f64;
    let routine = string_arg("--routine")?.unwrap_or_else(|| "office_day".to_string());
    let seed = int_arg("--seed")?.unwrap_or(42);
    let port = int_arg("--port")?.unwrap_or(0);
    let uds = string_arg("--uds")?;
    let addr_file = string_arg("--addr-file")?;
    let kill_at = int_arg("--kill-at")?;
    let kill_below = int_arg("--kill-below")?;
    let churn = std::env::args().any(|a| a == "--churn");
    let preset =
        RoutinePreset::from_name(&routine).ok_or_else(|| format!("unknown routine `{routine}`"))?;
    // Each device's trace completes exactly once even under `--kill-at`: the
    // torn first stream counts as killed, only the resumed one as completed.
    let expected = int_arg("--streams")?.unwrap_or(devices);

    let (spec, system) = train_system(scale)?;
    let mut fleet = FleetSpec::new(devices, duration_s, seed);
    fleet.population = PopulationSpec::single(preset, FaultLevel::None);

    let plan = churn.then(|| churn_plan(devices, duration_s));
    let lengths: Vec<(u64, f64)> = match &plan {
        Some(plan) => {
            eprintln!("[telemetry_serve] recording {devices} per-lifetime churn traces…");
            plan.iter().map(|e| (e.device_id, e.lifetime_s)).collect()
        }
        None => {
            eprintln!("[telemetry_serve] recording {devices} device traces…");
            (0..devices).map(|id| (id, fleet.device_plan(id).scenario.duration_s())).collect()
        }
    };
    let traces = record_fleet_traces(&spec, &system, &fleet, lengths)?;
    let batches: usize = traces.iter().map(|(_, t)| t.len()).sum();

    let addr = match &uds {
        Some(path) => format!("unix:{path}"),
        None => format!("127.0.0.1:{port}"),
    };
    let mut serve = TelemetryServe::bind(&addr, traces)?;
    if let Some(plan) = &plan {
        for entry in plan {
            serve.set_start_epoch(entry.device_id, entry.start_epoch);
        }
    }
    if let Some(bytes) = kill_at {
        serve = serve.with_kill_at(bytes as usize);
    }
    if let Some(below) = kill_below {
        serve = serve.with_kill_below(below);
    }
    // A TCP bind may have picked an ephemeral port: report the real one.
    let addr = if uds.is_some() { addr } else { serve.local_addr().to_string() };
    println!("listening on {addr} ({devices} devices, {batches} batches)");
    use std::io::Write as _;
    std::io::stdout().flush()?;
    if let Some(path) = addr_file {
        // Write-then-rename so a polling client never reads a torn address.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{addr}\n"))?;
        std::fs::rename(&tmp, &path)?;
    }

    serve.serve_streams(expected, 200)?;
    let stats = serve.stats();
    println!(
        "served {} streams ({} resumed, {} killed, {} rejected, {} parked, {} dropped), \
         peak {} concurrent connections",
        stats.streams_completed,
        stats.resume_requests,
        stats.killed_streams,
        stats.rejected_requests,
        stats.parked,
        stats.dropped,
        stats.peak_open
    );
    Ok(())
}
