//! E2 (Lemmas 2.3/2.4) and E3 (Lemma 2.5) reproduce their committed
//! reports byte-for-byte: `results/sweep_e2.json` and the markdown of
//! `results/e3.md`. `e2.md` is not compared whole because its last
//! paragraph names the output directory; its tables render the same
//! sweep report the JSON holds.
//!
//! Ignored by default (about 4 s in release, half a minute in debug); run
//! with `cargo test --release -p radio-bench --test growth_fidelity -- --ignored`.

use radio_bench::experiments::{e02_phase1_growth, e03_phase2_fraction};
use radio_bench::Ctx;

#[test]
#[ignore = "release-scale fidelity check; run with -- --ignored"]
fn e2_and_e3_reproduce_the_committed_reports() {
    let dir = std::env::temp_dir().join(format!("growth-fidelity-{}", std::process::id()));
    let ctx = Ctx {
        out_dir: dir.clone(),
        ..Ctx::default()
    };

    e02_phase1_growth::run(&ctx);
    let sweep = std::fs::read_to_string(dir.join("sweep_e2.json")).expect("e2 sweep JSON");
    let committed =
        std::fs::read_to_string("../../results/sweep_e2.json").expect("committed e2 sweep JSON");
    assert!(sweep == committed, "sweep_e2.json differs from results/");

    let e3 = e03_phase2_fraction::run(&ctx).markdown();
    let committed = std::fs::read_to_string("../../results/e3.md").expect("committed e3 report");
    assert!(
        e3 == committed,
        "e3 report differs from results/e3.md:\n{e3}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
