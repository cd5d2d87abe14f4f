//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p radio-bench --bin experiments -- all
//! cargo run --release -p radio-bench --bin experiments -- e1 e9 e13
//! cargo run --release -p radio-bench --bin experiments -- --quick all
//! ```
//!
//! Reports print to stdout and are written to `results/<id>.md`
//! (`--out DIR` overrides; `--seed N` reseeds everything).

use radio_bench::experiments::registry;
use radio_bench::Ctx;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => ctx.scale = 0.25,
            "--seed" => {
                ctx.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                ctx.out_dir = it
                    .next()
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(|| die("--out needs a path"));
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other => wanted.push(other.to_lowercase()),
        }
    }
    if wanted.is_empty() {
        usage();
        die("no experiments requested");
    }

    let reg = registry();
    let selected: Vec<_> = if wanted.iter().any(|w| w == "all") {
        reg
    } else {
        let mut sel = Vec::new();
        for w in &wanted {
            match reg.iter().find(|(id, _)| id == w) {
                Some(e) => sel.push(*e),
                None => die(&format!(
                    "unknown experiment `{w}` (try e1..e18, e18i, or all)"
                )),
            }
        }
        sel
    };

    for (id, runner) in selected {
        eprintln!("── running {id} ─────────────────────────────────────");
        let start = std::time::Instant::now();
        let report = runner(&ctx);
        report.emit(&ctx);
        eprintln!("── {id} done in {:.1?}\n", start.elapsed());
    }
}

fn usage() {
    eprintln!(
        "usage: experiments [--quick] [--seed N] [--out DIR] <e1..e18 | e18i | all>...\n\
         Regenerates the paper's tables/figures; the README's \"Paper experiments\"\n\
         table is the index."
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
