//! # platoon-security
//!
//! A from-scratch Rust reproduction of **Taylor, Ahmad, Nguyen, Shaikh,
//! Evans & Price — "Vehicular Platoon Communication: Cybersecurity Threats
//! and Open Challenges" (IEEE/IFIP DSN-W 2021)**: the canonical, executable
//! attack & defense suite for platoon communication the paper calls for,
//! built on a hand-rolled platooning simulator (Plexe-class dynamics, a
//! DSRC/VLC/C-V2X radio substrate, the platoon management protocol and a
//! simulation-grade PKI).
//!
//! This crate is the facade: it re-exports every member crate and provides
//! the [`prelude`]. See the individual crates for the subsystems:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`crypto`] | SHA-256, HMAC, Schnorr signatures, certificates, pseudonyms, fading-channel key agreement, anti-replay windows |
//! | [`dynamics`] | vehicle model, ACC/CACC/Ploeg/consensus controllers, sensors, stability/fuel/safety metrics |
//! | [`v2x`] | DSRC channel with fading and SINR, CSMA MAC, VLC, C-V2X, jammers |
//! | [`proto`] | beacons, manoeuvre messages, wire codec, envelopes, membership, join/leave/split engine |
//! | [`sim`] | the scenario-driven simulation engine with attack/defense hooks |
//! | [`attacks`] | the Table II attack suite (replay, Sybil, jamming, DoS, …) |
//! | [`defense`] | the Table III mechanism suite (keys, RSU, VPD-ADA, SP-VLC, …) |
//! | [`faults`] | deterministic benign faults (burst loss, sensor outages, clock skew, RSU blackouts) and seed-derived schedules |
//! | [`detect`] | the streaming misbehavior-detection pipeline (kinematic, ranging, frequency, identity, freshness detectors + fusion) |
//! | [`core`] | taxonomies, the ISO/SAE 21434 risk framework and the experiment runner |
//! | [`dataset`] | ML dataset factory: labeled per-beacon columnar shards + the learned-detector baseline |
//!
//! # Quickstart
//!
//! ```
//! use platoon_security::prelude::*;
//!
//! // An 8-truck CACC platoon, 30 simulated seconds, no attacks.
//! let scenario = Scenario::builder().vehicles(8).duration(30.0).build();
//! let summary = Engine::new(scenario).run();
//! assert_eq!(summary.collisions, 0);
//! assert!(summary.string_stable);
//! ```
//!
//! Attacking and defending it:
//!
//! ```
//! use platoon_security::prelude::*;
//!
//! let scenario = Scenario::builder().vehicles(6).duration(20.0).build();
//! let mut engine = Engine::new(scenario);
//! engine.add_attack(Box::new(ReplayAttack::new(ReplayConfig {
//!     replay_from: 8.0,
//!     ..Default::default()
//! })));
//! engine.add_defense(Box::new(AntiReplayDefense::timestamp()));
//! let summary = engine.run();
//! assert!(summary.rejected_messages > 0); // the replays were filtered
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use platoon_attacks as attacks;
pub use platoon_core as core;
pub use platoon_crypto as crypto;
pub use platoon_dataset as dataset;
pub use platoon_defense as defense;
pub use platoon_detect as detect;
pub use platoon_dynamics as dynamics;
pub use platoon_faults as faults;
pub use platoon_proto as proto;
pub use platoon_sim as sim;
pub use platoon_v2x as v2x;

use platoon_sim::cli::Command;

/// Every subcommand of the `platoon-security` binary: its name, one-line
/// summary and entry function. The table drives both dispatch and the
/// top-level help ([`dispatch`]).
pub const COMMANDS: &[&Command] = &[
    &platoon_core::report::COMMAND,
    &platoon_core::perf::COMMAND,
    &platoon_core::experiments::robustness::COMMAND,
    &platoon_core::experiments::trace::COMMAND,
    &platoon_core::experiments::trace::DIFF_COMMAND,
    &platoon_core::experiments::corridor::COMMAND,
    &platoon_core::experiments::regimes::COMMAND,
    &platoon_server::cli::SERVE,
    &platoon_server::cli::SUBMIT,
    &platoon_campaign::cli::COMMAND,
    &platoon_dataset::cli::COMMAND,
];

/// Runs the command `args[0]` names on the rest of `args` and returns the
/// process exit code; no command or `--help` prints the table.
pub fn dispatch(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            eprintln!("usage: platoon-security <command> [options]");
            for command in COMMANDS {
                eprintln!("  {:<12} {}", command.name, command.summary);
            }
            eprintln!("`platoon-security <command> --help` lists a command's options");
            if args.is_empty() {
                2
            } else {
                0
            }
        }
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(command) => command.main(&args[1..]),
            None => {
                eprintln!("error: unknown command `{name}` (try --help)");
                2
            }
        },
    }
}

/// Everything needed to build, attack and defend a platoon.
pub mod prelude {
    pub use platoon_attacks::prelude::*;
    pub use platoon_core::prelude::*;
    pub use platoon_crypto::{
        CertificateAuthority, KeyPair, PrincipalId, SequenceWindow, Signer, SymmetricKey,
        TimestampWindow,
    };
    pub use platoon_dataset::prelude::*;
    pub use platoon_defense::prelude::*;
    pub use platoon_detect::prelude::*;
    pub use platoon_dynamics::prelude::*;
    pub use platoon_faults::{
        BurstPacketLoss, ClockSkew, FaultSchedule, FaultWindow, NoiseFloorRamp, RsuBlackout,
        SensorChannel, SensorOutage,
    };
    pub use platoon_sim::prelude::*;
    pub use platoon_v2x::prelude::{
        ChannelKind, DsrcPhy, Jammer, JammingStrategy, NodeId, RadioMedium, VlcPhy,
    };
}
