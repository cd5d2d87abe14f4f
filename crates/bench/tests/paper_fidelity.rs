//! Every paper experiment e1–e17 reproduces its committed files
//! byte-for-byte. Each test runs one registry entry at the default scale
//! and seed into its own temporary output directory and demands that
//!
//! * it writes exactly the files committed for that experiment, and
//! * every file it writes, its report `<id>.md` included, equals
//!   `results/<name>`.
//!
//! e18i, the implicit-backend scaling run at n = 2¹⁴–2¹⁶, is checked the
//! same way except for its report `e18_implicit.md`, which records
//! wall-clock times: its sweep JSON pins the transmitter-sharded
//! scatter's output end to end. e18 is left out: its report records
//! wall-clock times too, and it runs at n = 2¹⁸–2²¹ by default.
//!
//! Ignored by default (about 80 s in release on a 2-vCPU host, most of
//! it e1, e14 and e18i; far longer in debug); run with
//! `cargo test --release -p radio-bench --test paper_fidelity -- --ignored`.

use radio_bench::experiments::registry;
use radio_bench::Ctx;
use std::fs;
use std::path::Path;

/// Runs experiment `id` and demands that it writes exactly `files`, each
/// equal to `results/<name>` unless it is listed in `unpinned`.
fn check(id: &str, files: &[&str], unpinned: &[&str]) {
    let (_, runner) = registry()
        .into_iter()
        .find(|(name, _)| *name == id)
        .expect("experiment is registered");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let dir = std::env::temp_dir().join(format!("paper-fidelity-{id}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let ctx = Ctx {
        out_dir: dir.clone(),
        ..Ctx::default()
    };
    runner(&ctx).emit(&ctx);

    let mut written: Vec<String> = fs::read_dir(&dir)
        .expect("output directory")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    written.sort();
    let mut expected: Vec<String> = files.iter().map(|s| s.to_string()).collect();
    expected.sort();
    assert_eq!(written, expected, "{id}: the files written");
    for name in written
        .iter()
        .filter(|name| !unpinned.contains(&name.as_str()))
    {
        let got = fs::read(dir.join(name)).expect("written file");
        let want = fs::read(results.join(name)).expect("committed file");
        assert!(
            got == want,
            "{id}: {name} differs from results/:\n{}",
            String::from_utf8_lossy(&got)
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

macro_rules! pinned {
    ($($test:ident => [$($file:literal),*];)*) => {$(
        #[test]
        #[ignore = "release-scale fidelity check; run with -- --ignored"]
        fn $test() {
            check(
                stringify!($test),
                &[concat!(stringify!($test), ".md"), $($file),*],
                &[],
            );
        }
    )*};
}

pinned! {
    e1 => ["sweep_e1.json"];
    e2 => ["sweep_e2.json"];
    e3 => [];
    e4 => [];
    e5 => ["sweep_e5.json"];
    e6 => [];
    e7 => [];
    e8 => [];
    e9 => [];
    e10 => [];
    e11 => [];
    e12 => [];
    e13 => ["sweep_e13_random.json", "sweep_e13_general.json"];
    e14 => [];
    e15 => [];
    e16 => ["sweep_e16_mobility.json", "sweep_e16_crash.json"];
    e17 => ["sweep_e17_energy.json", "sweep_e17_lifetime.json"];
}

#[test]
#[ignore = "release-scale fidelity check; run with -- --ignored"]
fn e18i() {
    check(
        "e18i",
        &["e18_implicit.md", "sweep_e18_implicit.json"],
        &["e18_implicit.md"],
    );
}
