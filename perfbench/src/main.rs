//! The repository benchmark: drives the public API of each Two-Chains layer
//! from outside, in one process on one thread, and checks every result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small_injected --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run measures untraced and prints the end-to-end
//! metrics. With `--trace 1` it measures half the time untraced and half with
//! wall-clock spans around every call into a layer, prints the per-layer
//! metrics, and writes the spans to `perfbench/out/`. Either way the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it holds the run's metadata.
//! A run whose outputs disagree with the oracle exits with code 1.

mod calib;
mod closed;
mod report;
mod rng;
mod stream;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use report::{median, percentile, Phase, Shape};
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_msg_rate", "msg/s"),
    ("wall_msg_p50_ns", "ns"),
    ("model_msg_rate", "msg/s"),
    ("model_latency_p50_ns", "ns"),
    ("model_latency_p99_ns", "ns"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run; a layer the workload does
/// not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sender.send_wall_ns", "ns"),
    ("sender.pack_ns", "ns"),
    ("sender.template_hit_ratio", "ratio"),
    ("sender.self_share", "ratio"),
    ("fleet.fill_wall_ns_per_frame", "ns"),
    ("fleet.frames_per_put", "ratio"),
    ("fleet.credit_stall_events", "count"),
    ("fleet.self_share", "ratio"),
    ("fabric.post_ns", "ns"),
    ("fabric.wire_ns", "ns"),
    ("fabric.dma_ns", "ns"),
    ("fabric.bytes_per_msg", "B"),
    ("mailbox.wait_ns", "ns"),
    ("bank.frames_per_burst", "ratio"),
    ("host.receive_wall_ns", "ns"),
    ("host.dispatch_ns", "ns"),
    ("host.frames_rejected", "count"),
    ("host.self_share", "ratio"),
    ("injection_cache.code_hit_ratio", "ratio"),
    ("injection_cache.got_hit_ratio", "ratio"),
    ("injection_cache.resolved_hit_ratio", "ratio"),
    ("injection_cache.code_evictions_per_msg", "1/msg"),
    ("injection_cache.got_evictions_per_msg", "1/msg"),
    ("injection_cache.miss_wall_ns", "ns"),
    ("jamvm.lower_wall_ns", "ns"),
    ("jamvm.exec_ns", "ns"),
    ("jamvm.compute_ns", "ns"),
    ("jamvm.memory_ns", "ns"),
    ("jamvm.fetch_ns", "ns"),
    ("jamvm.instructions_per_msg", "count"),
    ("jamvm.superinstruction_share", "ratio"),
    ("memsim.l1_hit_ratio", "ratio"),
    ("memsim.llc_hit_ratio", "ratio"),
    ("memsim.prefetch_hit_ratio", "ratio"),
    ("memsim.dram_per_msg", "count"),
    ("memsim.stashed_lines_per_msg", "count"),
    ("memsim.dma_dram_lines_per_msg", "count"),
    ("credit.puts_per_frame", "ratio"),
    ("credit.time_share", "ratio"),
    ("chain.stage_dispatch_ns", "ns"),
    ("linker.install_wall_s", "s"),
    ("linker.connect_wall_s", "s"),
    ("bench.self_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

const WORKLOADS: &[&str] = &[
    "small_injected",
    "large_payload",
    "stream_burst",
    "many_functions",
];

/// Threads every workload runs on (the main thread only).
const THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Run `workload` for `seconds` of measurement.
fn run(workload: &str, seed: u64, seconds: f64, tr: &mut Tracer) -> twochains::AmResult<Phase> {
    match workload {
        "small_injected" => closed::small_injected(
            seed,
            seconds,
            &Shape {
                setups: 31,
                warmup: 2_000,
                model: 20_000,
            },
            tr,
        ),
        "large_payload" => closed::large_payload(
            seed,
            seconds,
            &Shape {
                setups: 31,
                warmup: 200,
                model: 5_000,
            },
            tr,
        ),
        "many_functions" => closed::many_functions(
            seed,
            seconds,
            &Shape {
                setups: 9,
                warmup: 4_000,
                model: 8_000,
            },
            tr,
        ),
        "stream_burst" => stream::stream_burst(
            seed,
            seconds,
            &Shape {
                setups: 31,
                warmup: 20,
                model: 300,
            },
            tr,
        ),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

fn end_to_end(phase: &mut Phase) -> Result<Vec<f64>, String> {
    let samples = phase.model_latency_ps.len();
    // The p99 needs at least ten samples beyond it.
    if (samples as f64) * 0.01 < 10.0 {
        return Err(format!(
            "{samples} modelled samples leave fewer than 10 beyond p99"
        ));
    }
    let p50 = percentile(&mut phase.model_latency_ps, 0.50).expect("samples") as f64 / 1e3;
    let p99 = percentile(&mut phase.model_latency_ps, 0.99).expect("samples") as f64 / 1e3;
    Ok(vec![
        median(&phase.setup_s),
        wall_rate(phase),
        phase.wall.p50_ns(),
        samples as f64 / phase.model_s,
        p50,
        p99,
        ok_share(phase),
        peak_rss_mb(),
    ])
}

/// Median calibrated block rate (see `report::WallClock`); the raw
/// whole-phase rate when the phase was too short for a single block.
fn wall_rate(phase: &Phase) -> f64 {
    if phase.wall.blocks() == 0 {
        phase.measured as f64 / phase.wall_s
    } else {
        phase.wall.rate()
    }
}

fn ok_share(phase: &Phase) -> f64 {
    phase.ok as f64 / phase.offered.max(1) as f64
}

/// Per-layer metrics of a traced phase, given the untraced wall rate.
fn per_layer(traced: &mut Phase, tr: &Tracer, untraced_rate: f64) -> Vec<f64> {
    let closed_loop = tr.total("sender.send_spec");
    if closed_loop.count > 0 {
        traced.set(
            "sender.send_wall_ns",
            closed_loop.total_ns as f64 / closed_loop.count as f64,
        );
        let recv = tr.total("host.receive");
        traced.set(
            "host.receive_wall_ns",
            recv.total_ns as f64 / recv.count as f64,
        );
    } else {
        let drain = tr.total("host.receive_burst");
        traced.set(
            "host.receive_wall_ns",
            drain.total_ns as f64 / traced.measured as f64,
        );
    }
    traced.set("linker.install_wall_s", median(&traced.install_s));
    traced.set("linker.connect_wall_s", median(&traced.connect_s));
    let lp = tr.total("bench.loop");
    let loop_ns = lp.total_ns as f64;
    for (layer, name) in [
        ("sender", "sender.self_share"),
        ("fleet", "fleet.self_share"),
        ("host", "host.self_share"),
    ] {
        traced.set(name, tr.layer_self_ns(layer) as f64 / loop_ns);
    }
    traced.set(
        "bench.self_share",
        tr.total("bench.oracle").self_ns as f64 / loop_ns,
    );
    traced.set("trace.unattributed_share", lp.self_ns as f64 / loop_ns);
    let traced_rate = wall_rate(traced);
    traced.set(
        "trace.overhead_share",
        (untraced_rate - traced_rate) / untraced_rate,
    );
    PER_LAYER
        .iter()
        .map(|(name, _)| traced.layers.get(name).copied().unwrap_or(0.0))
        .collect()
}

/// Peak resident memory of the process, less the calibration kernel's table,
/// which stays resident from the first set-up to the end.
fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| {
            (kb * 1024.0 - calib::TABLE_BYTES as f64) / (1024.0 * 1024.0)
        })
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => read(r).map(|c| c.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
        None => Some(head.to_string()),
    };
    commit
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metrics_json(names: &[(&str, &str)], values: &[f64]) -> String {
    let body: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                v,
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if THREADS > nproc {
        eprintln!("perfbench: {THREADS} threads requested, {nproc} available");
        return ExitCode::from(2);
    }
    let load_start = loadavg();

    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let result = if args.trace {
        let half = args.seconds / 2.0;
        run(&args.workload, args.seed, half, &mut off).and_then(|untraced| {
            let mut traced = run(&args.workload, args.seed, half, &mut on)?;
            let rate = wall_rate(&untraced);
            let values = per_layer(&mut traced, &on, rate);
            Ok((untraced, traced, values))
        })
    } else {
        run(&args.workload, args.seed, args.seconds, &mut off)
            .map(|p| (p, Phase::default(), Vec::new()))
    };
    let (mut untraced, traced, layer_values) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let meta = format!(
        concat!(
            "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"threads\": {}, \"nproc\": {}, \"cpu_model\": {}, \"loadavg_start\": {}, ",
            "\"loadavg_end\": {}, \"git_commit\": {}, \"messages\": {}, ",
            "\"split_violations\": {}, \"slowdown\": {}, \"raw_wall_msg_rate\": {}}}}}"
        ),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        THREADS,
        nproc,
        json_str(
            &proc_field("/proc/cpuinfo", "model name").map_or("unknown".into(), |m| {
                m.trim_start_matches(':').trim().to_string()
            })
        ),
        json_str(&load_start),
        json_str(&loadavg()),
        json_str(&git_commit()),
        untraced.measured + traced.measured,
        untraced.split_violations + traced.split_violations,
        untraced.wall.slowdown(),
        untraced.wall.raw_rate(),
    );
    println!("{meta}");

    let (metrics, phases) = if args.trace {
        let path = format!("perfbench/out/trace-{}-{}.jsonl", args.workload, args.seed);
        if let Err(e) = on.write(Path::new(&path), &meta) {
            eprintln!("perfbench: writing the trace failed: {e}");
            return ExitCode::from(1);
        }
        (
            metrics_json(PER_LAYER, &layer_values),
            vec![&untraced, &traced],
        )
    } else {
        match end_to_end(&mut untraced) {
            Ok(values) => (metrics_json(END_TO_END, &values), vec![&untraced]),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let attempted: u64 = phases.iter().map(|p| p.offered).sum();
    let failed: u64 = phases.iter().map(|p| p.offered - p.ok).sum();
    let violations: u64 = phases.iter().map(|p| p.split_violations).sum();
    let correct = failed == 0 && violations == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
