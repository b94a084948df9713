//! # platoon-campaign
//!
//! Adversarial campaign search: *what does the catalogued threat model
//! look like once the attacker tunes it against the defense?*
//!
//! The paper's Table II fixes each attack's parameters; a real adversary
//! does not. Following the resource-aware-stealth line of work (Eslami &
//! Pirani) and closed-loop attack synthesis (CAD, Koley et al.), this
//! crate searches every attack's typed parameter space
//! ([`AttackParams`](platoon_attacks::params::AttackParams)) for
//! configurations that **minimise detection** by the Table IV pipeline
//! while **maximising platoon damage** — producing, per attack, a
//! stealth-vs-impact Pareto frontier instead of a single data point.
//!
//! The driver ([`search`]) runs a coarse grid pass and then an
//! evolutionary refinement loop (tournament selection + Gaussian
//! mutation). Every random draw derives from the campaign seed, so a
//! campaign replays **byte-identically**: same seed, same candidates, same
//! `CAMPAIGN_<label>.json`, pinned by a golden and a same-seed replay test.
//!
//! Candidate evaluation is one
//! [`JobSpec::Campaign`](platoon_server::job::JobSpec::Campaign) cell,
//! executed either on an in-process service or — with
//! `--server` — on a remote one, where the content-addressed result cache
//! dedupes repeated cells across generations, replays, and campaigns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod search;
