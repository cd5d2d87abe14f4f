//! A battery-powered sensor field running gossip until the first node
//! dies.
//!
//! Every sensor carries a finite battery (±20 % manufacturing jitter)
//! and a realistic radio profile: listening costs almost as much as
//! transmitting, sleeping costs almost nothing. The paper's Algorithm 2
//! (transmit w.p. `1/d`, merge rumors) runs on a random geometric field
//! while the `radio-energy` overlay drains charge per round; the run
//! halts the moment the first battery dies — the classic *network
//! lifetime* measurement — and then a capacity ladder shows lifetime
//! scaling linearly with the energy budget.
//!
//! ```sh
//! cargo run --release --example battery_lifetime
//! ```

use adhoc_radio::core::gossip::{EeGossip, EeGossipConfig};
use adhoc_radio::prelude::*;

fn main() {
    let n = adhoc_radio::example_scale(512, 64);
    let deg = 24.0;
    let r = GeoParams::with_expected_degree(n, deg).r_min;
    let p_equiv = deg / n as f64;

    let mut rng = derive_rng(2026, b"field", 0);
    let (field, _positions) = random_geometric_directed(GeoParams::uniform(n, r), &mut rng);
    let cfg = EeGossipConfig {
        gamma: 10.0,
        tracked: Some(64),
        ..EeGossipConfig::for_gnp(n, p_equiv)
    };
    println!(
        "sensor field: n = {n}, E[deg] ≈ {deg:.0}, gossip schedule = {} rounds",
        cfg.schedule_rounds()
    );

    // CC2420-flavoured profile (normalized to tx = 1): rx ≈ tx, idle
    // listening ≈ rx, sleep three orders of magnitude down.
    let radio = LinearRadio::new(1.0, 0.9, 0.9, 0.001);

    // Calibrate the battery to the mission: measure a full (infinite
    // supply) gossip run, then provision 40 % of its mean per-node energy
    // so batteries start dying mid-mission.
    let (mission_rounds, mission_energy) = {
        let mut protocol = EeGossip::new(cfg);
        let mut engine_rng = derive_rng(2026, b"engine", 0);
        let mut session = EnergySession::new(n, radio, 7);
        let res = Engine::new(
            &field,
            EngineConfig::with_max_rounds(cfg.schedule_rounds() + 1),
        )
        .run(&mut protocol)
        .energy(&mut session)
        .v1(&mut engine_rng);
        (res.run.rounds, res.energy.mean_energy_per_node())
    };
    let capacity = mission_energy * 0.4;
    println!(
        "full mission: {mission_rounds} rounds, mean energy {mission_energy:.0}/node \
         → provisioning {capacity:.0}-unit batteries (40 %, ±20 % jitter)"
    );

    // --- run until the first battery death -------------------------------
    let mut protocol = EeGossip::new(cfg);
    let mut engine_rng = derive_rng(2026, b"engine", 0);
    let mut session = EnergySession::new(n, radio, 7)
        .with_battery(Battery::jittered(
            n,
            capacity,
            0.2,
            &mut derive_rng(2026, b"bat", 0),
        ))
        .with_halt_on_depletion(true);
    let res = Engine::new(
        &field,
        EngineConfig::with_max_rounds(cfg.schedule_rounds() + 1),
    )
    .run(&mut protocol)
    .energy(&mut session)
    .v1(&mut engine_rng);

    let lifetime = res
        .energy
        .first_depletion_round
        .expect("capacity was sized to die mid-run");
    assert!(
        res.stopped_on_depletion,
        "halt_on_depletion must stop the run"
    );
    let victim = res.energy.depleted_nodes()[0];
    println!(
        "\nfirst battery death: node {victim} at round {lifetime} \
         (battery {:.0} units, radio tx=1/listen=0.9/sleep=0.001)",
        capacity
    );
    println!(
        "at that moment: {} of {n} rumor sets complete, mean spent {:.1}, min residual {:.1}",
        protocol.informed_count(),
        res.energy.mean_energy_per_node(),
        res.energy.min_residual().unwrap_or(0.0),
    );

    // --- lifetime scales with the energy budget ---------------------------
    println!("\ncapacity → lifetime (first-death round, same field & seed):");
    let mut last = 0u64;
    for mult in [0.2, 0.5, 1.5] {
        let cap = mission_energy * mult;
        let mut protocol = EeGossip::new(cfg);
        let mut engine_rng = derive_rng(2026, b"engine", 0);
        let mut session = EnergySession::new(n, radio, 7)
            .with_battery(Battery::jittered(
                n,
                cap,
                0.2,
                &mut derive_rng(2026, b"bat", 0),
            ))
            .with_halt_on_depletion(true);
        let res = Engine::new(
            &field,
            EngineConfig::with_max_rounds(cfg.schedule_rounds() + 1),
        )
        .run(&mut protocol)
        .energy(&mut session)
        .v1(&mut engine_rng);
        let life = res
            .energy
            .first_depletion_round
            .map_or(res.run.rounds, |r| r);
        println!(
            "  capacity {cap:>6.0} → lifetime {life:>5} rounds{}",
            if res.energy.first_depletion_round.is_none() {
                " (outlived the schedule)"
            } else {
                ""
            }
        );
        assert!(life >= last, "more charge cannot shorten the lifetime");
        last = life;
    }

    // Sanity: under the paper's TxOnly measure the same run reports
    // energy == transmissions, bit for bit.
    let mut protocol = EeGossip::new(cfg);
    let mut engine_rng = derive_rng(2026, b"engine", 0);
    let mut session = EnergySession::new(n, TxOnly, 7);
    let res = Engine::new(
        &field,
        EngineConfig::with_max_rounds(cfg.schedule_rounds() + 1),
    )
    .run(&mut protocol)
    .energy(&mut session)
    .v1(&mut engine_rng);
    assert_eq!(
        res.energy.total_energy(),
        res.run.metrics.total_transmissions() as f64
    );
    println!(
        "\nTxOnly overlay (the paper's measure): total energy {:.0} == total transmissions {}",
        res.energy.total_energy(),
        res.run.metrics.total_transmissions()
    );
}
