//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--threads <t>]`
//!
//! Runs one workload from the root of a checkout and prints, as the last
//! line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero,
//! without a result line, when the workload cannot run.

use perfbench::broadcast::{ALG1_CSR, DECAY_SCATTER, DEFAULT_SEED};
use perfbench::measure::{print_result, Checks, EndToEnd, Opts};
use perfbench::{campaign, host};

const WORKLOADS: [&str; 3] = ["alg1_csr", "decay_scatter", "campaign_e16_e17"];

struct Args {
    workload: String,
    opts: Opts,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut threads = host::nproc();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--threads" => threads = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    if threads == 0 || threads > host::nproc() {
        return Err(format!(
            "--threads must lie in 1..={} (the available CPUs), got {threads}",
            host::nproc()
        ));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed,
            seconds,
            threads,
        },
        trace,
    })
}

fn run(a: &Args) -> Result<(), String> {
    let o = &a.opts;
    // The campaign fans trials out over the rayon pool, which sizes
    // itself from this variable: cap it like the engine's workers.
    std::env::set_var("RAYON_NUM_THREADS", o.threads.to_string());
    println!(
        "host {}",
        host::stamp(&a.workload, o.seed, o.threads, a.trace).to_string_compact()
    );
    let untraced = |(checks, e): (Checks, EndToEnd)| (checks, e.gated, e.wall);
    let (checks, metrics, extra) = match (a.workload.as_str(), a.trace) {
        ("alg1_csr", false) => untraced(ALG1_CSR.untraced(o)?),
        ("decay_scatter", false) => untraced(DECAY_SCATTER.untraced(o)?),
        ("campaign_e16_e17", false) => untraced(campaign::untraced(o)?),
        (w, true) => {
            let (checks, layers) = match w {
                "alg1_csr" => ALG1_CSR.traced(o)?,
                "decay_scatter" => DECAY_SCATTER.traced(o)?,
                _ => campaign::traced(o)?,
            };
            (checks, layers.metrics(), Vec::new())
        }
        _ => unreachable!("workload validated by parse_args"),
    };
    print_result(&checks, &metrics, &extra);
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|a| run(&a));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
