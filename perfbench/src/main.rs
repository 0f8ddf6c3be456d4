//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints every metric as a
//! `name value unit clock` line, then one JSON object as the last line
//! of standard output. `--trace 0` prints all thirteen end-to-end
//! metrics of an untraced run; its JSON carries the gated ones
//! ([`END_TO_END`]). `--trace 1` reports per-layer metrics from a
//! traced run, plus the tracing overhead and the host wall-clock
//! figures of an untraced run of the same prefix. Exits 1 on any wrong
//! answer, 2 on bad arguments.

use perfbench::stats::{median, peak_rss_mb, ratio};
use perfbench::trace::{layer_table, Tracer};
use perfbench::{
    install_quiet_panic_hook, metric, plan_us, select, serve, Clock, Metric, Tally, SIM_THREADS,
};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The end-to-end metrics `BENCHMARK.json` gates, in print order. The
/// host wall-clock throughput and latency figures (`host_qps`,
/// `host_drain_ms_*`, `*_melem_per_s`) are printed with them but not
/// gated: on a shared 2-core host their run-to-run spread is 10–26%,
/// the size of any bound (see `README.md`).
const END_TO_END: &[&str] = &[
    "setup_s",
    "success_ratio",
    "recall_mean",
    "peak_rss_mb",
    "sim_qps",
    "sim_latency_us_p50",
    "sim_latency_us_p99",
    "sim_us_geomean",
];

/// Every per-layer metric, with its unit and clock. A workload without
/// the layer reports 0 (e.g. `topk_engine.*` on `select-paper`).
const PER_LAYER: &[(&str, &str, Clock)] = &[
    ("host.qps", "1/s", Clock::Host),
    ("host.drain_ms_p50", "ms", Clock::Host),
    ("host.drain_ms_p90", "ms", Clock::Host),
    ("host.select_melem_per_s", "Melem/s", Clock::Host),
    ("host.verified_melem_per_s", "Melem/s", Clock::Host),
    ("topk_engine.submit_us_p50", "us", Clock::Host),
    ("topk_engine.drain_self_ms", "ms", Clock::Host),
    ("topk_engine.queries_per_batch", "count", Clock::None),
    ("topk_engine.retries", "count", Clock::None),
    ("topk_engine.failovers", "count", Clock::None),
    ("topk_engine.cpu_fallbacks", "count", Clock::None),
    ("topk_engine.approx_served", "count", Clock::None),
    ("topk_engine.deadline_misses", "count", Clock::None),
    ("topk_engine.caught_panics", "count", Clock::None),
    ("topk_engine.post_mortems", "count", Clock::None),
    ("topk_engine.sim_queue_wait_us", "us", Clock::Sim),
    ("topk_engine.sim_transfer_us", "us", Clock::Sim),
    ("topk_engine.sim_kernel_us", "us", Clock::Sim),
    ("topk_engine.sim_merge_us", "us", Clock::Sim),
    ("topk_engine.sim_retry_penalty_us", "us", Clock::Sim),
    ("topk_engine.sim_other_us", "us", Clock::Sim),
    ("tuner.plan_us_p50", "us", Clock::Host),
    ("tuner.plan_hit_ratio", "ratio", Clock::None),
    ("algo.air_topk.host_self_ms", "ms", Clock::Host),
    ("algo.air_topk.sim_us", "us", Clock::Sim),
    ("algo.gridselect.host_self_ms", "ms", Clock::Host),
    ("algo.gridselect.sim_us", "us", Clock::Sim),
    ("algo.radik.host_self_ms", "ms", Clock::Host),
    ("algo.radik.sim_us", "us", Clock::Sim),
    ("algo.selectk.host_self_ms", "ms", Clock::Host),
    ("algo.selectk.sim_us", "us", Clock::Sim),
    ("algo.radixselect.host_self_ms", "ms", Clock::Host),
    ("algo.radixselect.sim_us", "us", Clock::Sim),
    ("gpu_sim.launches", "count", Clock::None),
    ("gpu_sim.launch_host_us_p50", "us", Clock::Host),
    ("gpu_sim.host_ns_per_sim_byte", "ns/B", Clock::Host),
    ("gpu_sim.htod_host_ms", "ms", Clock::Host),
    ("gpu_sim.sim_bytes", "B", Clock::Sim),
    ("gpu_sim.sim_kernels", "count", Clock::Sim),
    ("gpu_sim.sim_pcie_us", "us", Clock::Sim),
    ("gpu_sim.mem_high_water_mb", "MB", Clock::Sim),
    ("datagen.gen_ms", "ms", Clock::Host),
    ("verify.host_ms", "ms", Clock::Host),
    ("trace.overhead_pct", "%", Clock::Host),
];

const USAGE: &str = "usage: perfbench --workload <serve-mixed|serve-chaos|select-paper> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    };
    if !(0.0..=600.0).contains(&args.seconds) {
        return Err(format!("--seconds out of range: {}", args.seconds));
    }
    Ok(args)
}

/// What a workload hands back to be printed.
struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
}

/// Run `setup` [`SETUP_REPS`] times, keeping the last product; returns
/// it with the median set-up seconds.
fn timed_setups<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), times)
}

fn common_e2e(tally: &Tally, setup_s: &[f64]) -> Vec<Metric> {
    vec![
        metric("setup_s", median(setup_s), "s", Clock::Host),
        metric(
            "success_ratio",
            ratio(tally.succeeded as f64, tally.attempted as f64),
            "ratio",
            Clock::None,
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB", Clock::Host),
    ]
}

/// The traced run's closing figures: tracing overhead over the prefix,
/// and the untraced run's host wall-clock figures as `host.*`.
fn untraced_figures(untraced_e2e: Vec<Metric>, traced_ns: f64, untraced_ns: f64) -> Vec<Metric> {
    let mut out: Vec<Metric> = untraced_e2e
        .into_iter()
        .filter(|m| m.clock == Clock::Host)
        .map(|m| Metric {
            name: format!("host.{}", m.name.trim_start_matches("host_")),
            ..m
        })
        .collect();
    out.push(metric(
        "trace.overhead_pct",
        ratio(traced_ns - untraced_ns, untraced_ns) * 100.0,
        "%",
        Clock::Host,
    ));
    out
}

fn run_serve(cfg: serve::ServeConfig, args: &Args) -> Report {
    let (mut setup, setup_s) = timed_setups(|| serve::setup(&cfg, args.seed, None));
    if !args.trace {
        let run = serve::run(&cfg, args.seed, &mut setup, args.seconds, None);
        let mut metrics = common_e2e(&run.tally, &setup_s);
        metrics.extend(serve::end_to_end(&run));
        println!(
            "# waves={} (prefix {}) drains={} queries_per_wave={}",
            run.waves,
            cfg.prefix_waves,
            run.drain_ns.len(),
            cfg.queries_per_wave
        );
        return Report {
            tally: run.tally,
            metrics,
        };
    }
    // Untraced prefix first (the overhead baseline and the digest the
    // traced run must reproduce), then the traced run on a fresh engine.
    let untraced = serve::run(&cfg, args.seed, &mut setup, 0.0, None);
    let tracer = Tracer::new();
    if !cfg.chaos {
        setup.engine = Some(serve::new_engine(&cfg, args.seed, 0, Some(&tracer)));
    }
    let traced = serve::run(&cfg, args.seed, &mut setup, args.seconds, Some(&tracer));
    let mut tally = traced.tally.clone();
    tally.add(&untraced.tally);
    if traced.sim != untraced.sim {
        tally
            .wrong
            .push("traced run diverged from the untraced run (digest or sim figures)".into());
    }
    print_layer_table(&tracer);
    let mut metrics = serve::per_layer(&traced, &tracer);
    metrics.extend([
        metric(
            "tuner.plan_us_p50",
            median(&plan_us(&serve::plan_shapes(&cfg, &setup))),
            "us",
            Clock::Host,
        ),
        metric(
            "datagen.gen_ms",
            setup.gen_ns as f64 * 1e-6,
            "ms",
            Clock::Host,
        ),
    ]);
    metrics.extend(untraced_figures(
        serve::end_to_end(&untraced),
        traced.prefix_ns,
        untraced.prefix_ns,
    ));
    println!("# prefix launches by kernel:");
    for (name, n) in &traced.sim.kernel_names {
        println!("#   {name:<40} {n:>8}");
    }
    if let Some(table) = setup.engine.as_ref().and_then(|e| e.plan_table_text()) {
        println!("# plan table after the run:\n{}", table.trim_end());
    }
    println!(
        "# chaos digests of the prefix waves:\n{}",
        traced.sim.digests.trim_end()
    );
    Report { tally, metrics }
}

fn run_select(cfg: select::SelectConfig, args: &Args) -> Report {
    let (mut setup, setup_s) = timed_setups(|| select::setup(&cfg, args.seed, None));
    if !args.trace {
        let run = select::run(&mut setup, args.seconds, None);
        let mut metrics = common_e2e(&run.tally, &setup_s);
        metrics.extend(select::end_to_end(&run));
        println!("# sweeps={} selections={}", run.sweeps, run.select_ns.len());
        for r in &run.prefix {
            println!(
                "# cell {} {:<12} sim_us={:.4}",
                r.cell,
                select::ALGOS[r.algo],
                r.sim_us
            );
        }
        return Report {
            tally: run.tally,
            metrics,
        };
    }
    let untraced = select::run(&mut setup, 0.0, None);
    let shapes = select::plan_shapes(&setup);
    drop(setup);
    let tracer = Tracer::new();
    let mut setup = select::setup(&cfg, args.seed, Some(&tracer));
    let traced = select::run(&mut setup, args.seconds, Some(&tracer));
    let mut tally = traced.tally.clone();
    tally.add(&untraced.tally);
    let same = traced.prefix == untraced.prefix
        && (traced.sim_bytes, traced.sim_kernels, traced.sim_pcie_us)
            == (
                untraced.sim_bytes,
                untraced.sim_kernels,
                untraced.sim_pcie_us,
            );
    if !same {
        tally
            .wrong
            .push("traced run diverged from the untraced run (sim figures)".into());
    }
    print_layer_table(&tracer);
    let mut metrics = select::per_layer(&traced, &tracer);
    metrics.extend([
        metric(
            "tuner.plan_us_p50",
            median(&plan_us(&shapes)),
            "us",
            Clock::Host,
        ),
        metric(
            "gpu_sim.htod_host_ms",
            setup.upload_ns as f64 * 1e-6,
            "ms",
            Clock::Host,
        ),
        metric(
            "datagen.gen_ms",
            setup.gen_ns as f64 * 1e-6,
            "ms",
            Clock::Host,
        ),
    ]);
    metrics.extend(untraced_figures(
        select::end_to_end(&untraced),
        traced.prefix_ns,
        untraced.prefix_ns,
    ));
    Report { tally, metrics }
}

/// The traced run's self-time table: one row per span name, over every
/// span recorded (set-up included).
fn print_layer_table(tracer: &Tracer) {
    let spans = tracer.spans_since(0);
    println!(
        "# {:<32} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, row) in layer_table(&spans, 0) {
        println!(
            "# {:<32} {:>9} {:>12.3} {:>12.3}",
            name,
            row.count,
            row.total_ns as f64 * 1e-6,
            row.self_ns as f64 * 1e-6
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    install_quiet_panic_hook();
    let report = match args.workload.as_str() {
        "serve-mixed" => run_serve(serve::ServeConfig::mixed(), &args),
        "serve-chaos" => run_serve(serve::ServeConfig::chaos(), &args),
        "select-paper" => run_select(select::SelectConfig { n_shift: 0 }, &args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let tally = &report.tally;
    println!(
        "# workload={} seed={} seconds={} trace={} gpu_sim_threads={SIM_THREADS}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# attempted={} succeeded={} failed={} fail_ratio={} wrong={}",
        tally.attempted,
        tally.succeeded,
        tally.failed,
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.wrong.len()
    );
    for w in tally.wrong.iter().take(20) {
        println!("# WRONG: {w}");
    }
    // The table shows every figure the run produced; the JSON carries
    // exactly the set the mode promises, in a stable order.
    let rows: Vec<(String, f64, &str, Clock)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, clock)| {
                let value = report
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                (name.to_string(), value, unit, clock)
            })
            .collect()
    } else {
        report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value, m.unit, m.clock))
            .collect()
    };
    let mut json = Vec::new();
    for (name, value, unit, clock) in &rows {
        let gated = args.trace || END_TO_END.contains(&name.as_str());
        println!(
            "{name:<36} {value:>16.4} {unit:<8} {:<5}{}",
            clock.label(),
            if gated { "" } else { " report-only" }
        );
        if gated {
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            ));
        }
    }
    let correct = tally.wrong.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
