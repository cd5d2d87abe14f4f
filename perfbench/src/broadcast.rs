//! The two engine workloads: `alg1_csr` (the paper's Algorithm 1 on one
//! materialized `G(n,p)`) and `decay_scatter` (Decay on the CSR,
//! implicit-`G(n,p)` and implicit-grid backends). Both drive the fused
//! v2 engine through the public API only.
//!
//! One iteration builds the topologies from the workload seed (the
//! set-up, identical in every iteration), then runs the next trials of
//! the seed's trial sequence, one per entry of the trial list. Trial
//! seeds keep advancing across iterations, so the medians average over
//! many trials rather than one trial's luck.

use crate::layers::Layers;
use crate::measure::{
    end_to_end, repeat, secs, Checks, EndToEnd, Iteration, Opts, Outcome, Stopwatch,
};
use crate::probe::{ClockSink, CountingTopology, PhaseClock, Probed, TopoCounts};
use radio_core::broadcast::decay::DecayConfig;
use radio_core::broadcast::ee_random::{EeBroadcastConfig, EeRandomBroadcast};
use radio_core::broadcast::{run_windowed_fused, WindowedBroadcast};
use radio_graph::generate::gnp_directed;
use radio_graph::{DiGraph, ImplicitGnp, ImplicitGrid, Topology};
use radio_sim::engine::{run_protocol_fused, run_protocol_fused_traced};
use radio_sim::{EngineConfig, FusedDecide, Protocol};
use radio_util::{derive_rng, split_seed};
use std::time::Instant;

/// The seed the golden fingerprints were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Expected degree factor: `d = 8 ln n`, the `p = 8 ln n / n` regime of
/// Theorem 2.1 (and of the e18 experiment).
const DEGREE_C: f64 = 8.0;

/// Decay's diameter hint (only sizes its round budget).
const DECAY_D_HINT: u32 = 8;

/// Which protocol a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Algorithm 1 (`EeRandomBroadcast`).
    Alg1,
    /// Decay (`run_windowed_fused`).
    Decay,
}

/// A topology backend (index = position in [`crate::layers::BACKENDS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Materialized CSR from `gnp_directed`.
    Csr = 0,
    /// `ImplicitGnp::with_expected_degree`.
    Gnp = 1,
    /// `ImplicitGrid::with_expected_degree`.
    Grid = 2,
}

/// An engine workload: protocol, size, and the trial list of one
/// iteration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Protocol.
    pub algo: Algo,
    /// Node count.
    pub n: usize,
    /// Backend of each trial of one iteration, in run order.
    pub trials: &'static [Backend],
    /// Fingerprints of the first trials at [`DEFAULT_SEED`], in trial
    /// order across iterations.
    pub golden: &'static [u64],
}

/// `alg1_csr`: Algorithm 1 at n = 2¹⁷, three trials on one CSR graph.
pub const ALG1_CSR: Spec = Spec {
    name: "alg1_csr",
    algo: Algo::Alg1,
    n: 1 << 17,
    trials: &[Backend::Csr, Backend::Csr, Backend::Csr],
    golden: &[
        0xb3de_2eec_901d_0a49,
        0xe599_e41a_f328_32b2,
        0x1c48_ed21_2cc6_0f66,
        0x82e0_064c_e264_dd1f,
        0xd4f1_4967_7353_108d,
        0x54e6_0da2_81dd_404f,
        0x8ede_a484_9172_fa0b,
        0xa346_c63a_3687_54ae,
        0xc371_5f5f_3f5a_902b,
        0x0c29_b5fa_c923_d5c9,
        0x1510_2740_60ce_5ceb,
        0x4180_076a_444d_1c61,
    ],
};

/// `decay_scatter`: Decay at n = 2¹⁴, one trial per backend. Decay's
/// trial cost varies by ±25 % with the trial seed, so the size is kept
/// small enough for a run to hold a dozen trials per backend.
pub const DECAY_SCATTER: Spec = Spec {
    name: "decay_scatter",
    algo: Algo::Decay,
    n: 1 << 14,
    trials: &[Backend::Csr, Backend::Gnp, Backend::Grid],
    golden: &[
        0xc27e_05c4_b9c6_7445,
        0x2285_1a25_1708_7fa2,
        0x3e09_1199_1c14_b3cd,
        0x60b7_4232_3355_c25a,
        0xa9dd_13b8_eed4_52a1,
        0x9bc2_81ab_bdd4_1c8f,
        0x2da2_07d1_87d0_0e8f,
        0x209d_5f5f_7241_a88f,
        0xb89b_d437_4ac9_05af,
        0x7482_0abf_f4bf_7374,
        0xfd1d_c770_0c62_a91c,
        0xf14c_f0bc_570d_ee24,
    ],
};

/// Expected degree at `n`.
pub fn degree(n: usize) -> f64 {
    DEGREE_C * (n as f64).ln()
}

/// The topologies of one iteration, built from the workload seed.
pub struct Inputs {
    /// CSR graph, when a trial uses it.
    pub csr: Option<DiGraph>,
    /// Implicit `G(n,p)`, when a trial uses it.
    pub gnp: Option<ImplicitGnp>,
    /// Implicit grid, when a trial uses it.
    pub grid: Option<ImplicitGrid>,
    /// Seconds spent in `gnp_directed`.
    pub generate_s: f64,
}

impl Spec {
    /// Build every backend the trial list uses.
    pub fn build(&self, seed: u64) -> Inputs {
        let n = self.n;
        let d = degree(n);
        let uses = |b: Backend| self.trials.contains(&b);
        let t = Instant::now();
        let csr = uses(Backend::Csr)
            .then(|| gnp_directed(n, d / n as f64, &mut derive_rng(seed, b"perfbench/csr", 0)));
        let generate_s = secs(t);
        let gnp = uses(Backend::Gnp).then(|| {
            ImplicitGnp::with_expected_degree(n, d, split_seed(seed, b"perfbench/gnp", 0))
        });
        let grid = uses(Backend::Grid).then(|| {
            ImplicitGrid::with_expected_degree(n, d, &mut derive_rng(seed, b"perfbench/grid", 0))
        });
        Inputs {
            csr,
            gnp,
            grid,
            generate_s,
        }
    }

    /// Seed of trial `k`.
    fn trial_seed(&self, seed: u64, k: usize) -> u64 {
        split_seed(seed, self.name.as_bytes(), k as u64)
    }

    /// Run trial `k` (its backend cycles through the trial list); with
    /// `probe`, through the measurement wrappers, adding the topology
    /// counts to `probe.1`.
    pub fn trial(
        &self,
        inputs: &Inputs,
        k: usize,
        seed: u64,
        threads: usize,
        probe: Option<(&PhaseClock, &mut TopoCounts)>,
    ) -> Outcome {
        let s = self.trial_seed(seed, k);
        let missing = "Spec::build makes every backend the trial list uses";
        match self.trials[k % self.trials.len()] {
            Backend::Csr => self.on(inputs.csr.as_ref().expect(missing), s, threads, probe),
            Backend::Gnp => self.on(inputs.gnp.as_ref().expect(missing), s, threads, probe),
            Backend::Grid => self.on(inputs.grid.as_ref().expect(missing), s, threads, probe),
        }
    }

    fn on<T: Topology>(
        &self,
        g: &T,
        seed: u64,
        threads: usize,
        probe: Option<(&PhaseClock, &mut TopoCounts)>,
    ) -> Outcome {
        match probe {
            None => self.run(g, seed, threads, None),
            Some((clock, counts)) => {
                let wrapped = CountingTopology::new(g);
                let out = self.run(&wrapped, seed, threads, Some(clock));
                counts.add(&wrapped.counts());
                out
            }
        }
    }

    /// One run of the workload's protocol on `g`: the plain public entry
    /// point, or (with `clock`) the same run wrapped in [`Probed`] and
    /// [`ClockSink`].
    fn run<T: Topology>(
        &self,
        g: &T,
        seed: u64,
        threads: usize,
        clock: Option<&PhaseClock>,
    ) -> Outcome {
        let n = g.n();
        match self.algo {
            Algo::Alg1 => {
                let cfg = EeBroadcastConfig::for_gnp(n, degree(n) / n as f64);
                let ecfg =
                    EngineConfig::with_max_rounds(cfg.schedule_end() + 2).with_threads(threads);
                let mut proto = EeRandomBroadcast::new(n, 0, cfg);
                match clock {
                    None => {
                        let run = run_protocol_fused(g, &mut proto, ecfg, seed);
                        Outcome::new(run, proto.informed_count())
                    }
                    Some(c) => probed_run(g, proto, ecfg, seed, c),
                }
            }
            Algo::Decay => {
                let dcfg = DecayConfig::new(n, DECAY_D_HINT);
                let ecfg = EngineConfig::with_max_rounds(dcfg.max_rounds()).with_threads(threads);
                match clock {
                    None => {
                        let out = run_windowed_fused(g, 0, dcfg.spec(), ecfg, seed);
                        Outcome {
                            rounds: out.rounds_executed,
                            hit_round_cap: out.hit_round_cap,
                            metrics: out.metrics,
                            informed: out.informed,
                        }
                    }
                    Some(c) => {
                        probed_run(g, WindowedBroadcast::new(n, 0, dcfg.spec()), ecfg, seed, c)
                    }
                }
            }
        }
    }

    /// The output checks of trial `k`; `None` when it passes. At the
    /// default seed the fingerprint must match the golden table.
    fn problem(&self, k: usize, got: &Outcome, seed: u64) -> Option<String> {
        let what = format!("{} trial {k}", self.name);
        if got.informed != self.n {
            return Some(format!("{what}: informed {} of {}", got.informed, self.n));
        }
        let max = got.metrics.max_transmissions_per_node();
        if self.algo == Algo::Alg1 && max > 1 {
            return Some(format!(
                "{what}: a node sent {max} messages (Algorithm 1 allows 1)"
            ));
        }
        match self.golden.get(k) {
            Some(&want) if seed == DEFAULT_SEED && want != got.hash() => Some(format!(
                "{what}: fingerprint {:#018x}, expected {want:#018x}",
                got.hash()
            )),
            _ => None,
        }
    }

    /// Iteration `it`: build, then trials `it·len .. (it+1)·len` of the
    /// trial list. With `layers`, the trials run wrapped and feed it.
    fn iteration(
        &self,
        o: &Opts,
        it: usize,
        checks: &mut Checks,
        layers: Option<&mut Layers>,
    ) -> (Iteration, Vec<Outcome>) {
        let t0 = Stopwatch::start();
        let inputs = self.build(o.seed);
        let (setup_s, setup_cpu_s) = t0.read();
        let len = self.trials.len();
        let mut task_s = Vec::with_capacity(len);
        let mut task_cpu_s = Vec::with_capacity(len);
        let clock = PhaseClock::new();
        let mut counts = [TopoCounts::default(); 3];
        let mut outcomes = Vec::with_capacity(len);
        for k in it * len..(it + 1) * len {
            let t = Stopwatch::start();
            let b = self.trials[k % len] as usize;
            let probe = layers.is_some().then(|| (&clock, &mut counts[b]));
            outcomes.push(self.trial(&inputs, k, o.seed, o.threads, probe));
            let (wall, cpu) = t.read();
            task_s.push(wall);
            task_cpu_s.push(cpu);
        }
        let (wall_s, cpu_s) = t0.read();
        for (j, out) in outcomes.iter().enumerate() {
            let k = it * len + j;
            eprintln!("{} trial {k}: fingerprint {:#018x}", self.name, out.hash());
            checks.task(self.problem(k, out, o.seed));
        }
        if let Some(l) = layers {
            l.iterations += 1;
            l.generate_s += inputs.generate_s;
            l.edges += inputs.csr.as_ref().map_or(0, |g| g.m() as u64);
            for (j, out) in outcomes.iter().enumerate() {
                l.topo_tx[self.trials[j] as usize] += out.metrics.total_transmissions();
            }
            for (acc, c) in l.topo.iter_mut().zip(&counts) {
                acc.add(c);
            }
            l.engine.add(&clock.counts());
        }
        let iteration = Iteration {
            setup_s,
            wall_s,
            task_s,
            setup_cpu_s,
            cpu_s,
            task_cpu_s,
            trials: len as u64,
            ..Iteration::default()
        };
        (iteration, outcomes)
    }

    /// Re-run trial 0 at one thread and check it is bit-identical to the
    /// threaded run (the v2 contract). Returns its seconds.
    fn serial_check(
        &self,
        o: &Opts,
        inputs: &Inputs,
        trial0: &Outcome,
        checks: &mut Checks,
    ) -> f64 {
        let t = Instant::now();
        let serial = self.trial(inputs, 0, o.seed, 1, None);
        let s = secs(t);
        checks.task((serial != *trial0).then(|| {
            format!(
                "{} trial 0: the 1-thread run differs from the {}-thread run",
                self.name, o.threads
            )
        }));
        s
    }

    /// The untraced run: iterations for `o.seconds`, then the 1-thread
    /// check. Returns the end-to-end metrics.
    pub fn untraced(&self, o: &Opts) -> Result<(Checks, EndToEnd), String> {
        let mut checks = Checks::default();
        let mut trial0 = None;
        let iters = repeat(o.seconds, |it| {
            let (iteration, outcomes) = self.iteration(o, it, &mut checks, None);
            trial0.get_or_insert_with(|| outcomes[0].clone());
            Ok(iteration)
        })?;
        let trial0 = trial0.expect("repeat runs at least one iteration");
        let inputs = self.build(o.seed);
        self.serial_check(o, &inputs, &trial0, &mut checks);
        drop(inputs);
        let metrics = end_to_end(&iters, &checks);
        Ok((checks, metrics))
    }

    /// The traced run: iteration 0 untraced (the overhead base), traced
    /// iterations for `o.seconds` starting again from iteration 0, then
    /// trial 0 timed at 1 and at `o.threads` threads for
    /// `engine.par_speedup`.
    pub fn traced(&self, o: &Opts) -> Result<(Checks, Layers), String> {
        let mut checks = Checks::default();
        let (plain, outcomes) = self.iteration(o, 0, &mut checks, None);
        let trial0 = &outcomes[0];
        let mut layers = Layers::default();
        let traced = repeat(o.seconds, |it| {
            Ok(self.iteration(o, it, &mut checks, Some(&mut layers)).0)
        })?;
        // Iteration 0 ran both ways on the same trials.
        layers.trace_overhead = traced[0].wall_s / plain.wall_s;
        let inputs = self.build(o.seed);
        let serial_s = self.serial_check(o, &inputs, trial0, &mut checks);
        let t = Instant::now();
        let threaded = self.trial(&inputs, 0, o.seed, o.threads, None);
        let threaded_s = secs(t);
        checks.task((threaded != *trial0).then(|| format!("{} trial 0 did not repeat", self.name)));
        layers.par_speedup = serial_s / threaded_s;
        Ok((checks, layers))
    }
}

/// Run `proto` wrapped in [`Probed`], with a [`ClockSink`] attached.
fn probed_run<T: Topology, P: FusedDecide>(
    g: &T,
    proto: P,
    ecfg: EngineConfig,
    seed: u64,
    clock: &PhaseClock,
) -> Outcome {
    let mut wrapped = Probed::new(proto, clock);
    let run = run_protocol_fused_traced(g, &mut wrapped, ecfg, seed, &mut ClockSink(clock));
    Outcome::new(run, wrapped.inner().informed_count())
}
