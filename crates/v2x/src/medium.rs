//! The shared broadcast medium: takes all frames offered in a communication
//! step and decides, per receiver, which are successfully decoded.
//!
//! The model is a CSMA/CA-flavoured abstraction of the 802.11p MAC on top of
//! the SINR channel of [`crate::channel`]:
//!
//! 1. Each frame draws a random contention offset within the step.
//! 2. Senders that can carrier-sense an earlier, in-progress transmission
//!    defer until it ends (CSMA serialisation).
//! 3. For every (frame, receiver) pair, the received power is sampled from
//!    the fading channel; the interference budget sums all *temporally
//!    overlapping* frames (hidden terminals that escaped carrier sensing)
//!    and all active jammers; the frame decodes iff SINR clears the PHY
//!    threshold.
//!
//! VLC frames bypass all of this and use the geometric optical link; C-V2X
//! frames use deterministic semi-persistent slots (no contention) but share
//! the fading channel and can be jammed by a C-V2X-targeting jammer.

use crate::channel::{dbm_to_mw, DsrcPhy, Reception};
use crate::jamming::Jammer;
use crate::message::{distance, ChannelKind, Delivery, Frame, NodeId, Position};
use crate::spatial::SpatialGrid;
use crate::vlc::VlcPhy;
use rand::Rng;

/// A node able to receive frames this step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Receiver {
    /// Node identifier.
    pub id: NodeId,
    /// Node position.
    pub position: Position,
}

/// Carrier-sense threshold in dBm: a sender defers to transmissions it can
/// hear at or above this power.
const CARRIER_SENSE_DBM: f64 = -85.0;

/// Aggregate statistics for one medium step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepStats {
    /// Frames offered to the medium.
    pub offered: usize,
    /// (frame, receiver) pairs that decoded successfully.
    pub delivered: usize,
    /// (frame, receiver) pairs lost to SINR failure (fading, jamming or
    /// collision).
    pub lost: usize,
    /// RF (frame, receiver) pairs whose received power was sampled. Under a
    /// finite [`RadioMedium::radio_horizon_m`] this is the spatial index's
    /// candidate count; under the default infinite horizon it is the full
    /// all-pairs count — the ratio is the index's deterministic work saving.
    pub pairs_considered: usize,
}

/// The broadcast medium configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadioMedium {
    /// DSRC PHY parameters.
    pub dsrc: DsrcPhy,
    /// VLC PHY parameters.
    pub vlc: VlcPhy,
    /// Communication step length in seconds (beacon interval granularity).
    pub step_len: f64,
    /// C-V2X semi-persistent-schedule slot count per step.
    pub cv2x_slots: usize,
    /// RF reception horizon in metres. `f64::INFINITY` (the default)
    /// reproduces the seed semantics exactly: every (frame, receiver) pair
    /// is evaluated by an all-pairs scan. A finite horizon enables the
    /// [`SpatialGrid`] fast path: receivers beyond the horizon never hear a
    /// frame and interferers beyond the horizon of a receiver contribute
    /// nothing. When the horizon covers the whole world the indexed path
    /// enumerates exactly the scan's pairs in the scan's order, so results
    /// (including the rng stream) are byte-identical.
    pub radio_horizon_m: f64,
}

impl Default for RadioMedium {
    fn default() -> Self {
        RadioMedium {
            dsrc: DsrcPhy::default(),
            vlc: VlcPhy::default(),
            step_len: 0.1,
            cv2x_slots: 100,
            radio_horizon_m: f64::INFINITY,
        }
    }
}

#[derive(Clone, Debug)]
struct ScheduledFrame {
    /// Index of the frame in the slice offered to [`RadioMedium::step`].
    index: u32,
    frame: Frame,
    start: f64,
    end: f64,
}

/// The frames offered on `channel`, in offer order, each with its index in
/// `frames`.
fn on_channel(frames: &[Frame], channel: ChannelKind) -> Vec<(u32, &Frame)> {
    frames
        .iter()
        .enumerate()
        .filter(|(_, f)| f.channel == channel)
        .map(|(i, f)| (u32::try_from(i).expect("fewer than 2^32 frames offered"), f))
        .collect()
}

/// What every RF channel's delivery shares within one step.
struct RfStep<'a> {
    now: f64,
    receivers: &'a [Receiver],
    jammers: &'a [Jammer],
    traffic_on_air: bool,
    /// The receiver grid, `Some` iff the radio horizon is finite.
    rx_grid: Option<SpatialGrid>,
    reception: Reception,
}

impl RadioMedium {
    /// Runs one communication step: schedules `frames`, applies the channel
    /// and jammers, and fills `deliveries` (cleared first) with every
    /// successful delivery (a node never receives its own frame). Each
    /// delivery carries the index of its frame in `frames`, and one frame's
    /// deliveries are adjacent: DSRC frames in CSMA order, then C-V2X, then
    /// VLC frames in offer order. With distinct receiver ids, a frame
    /// reaches each receiver at most once.
    pub fn step<R: Rng + ?Sized>(
        &self,
        now: f64,
        frames: &[Frame],
        receivers: &[Receiver],
        jammers: &[Jammer],
        rng: &mut R,
        deliveries: &mut Vec<Delivery>,
    ) -> StepStats {
        deliveries.clear();
        let mut stats = StepStats {
            offered: frames.len(),
            ..Default::default()
        };

        let dsrc_frames = on_channel(frames, ChannelKind::Dsrc);
        let vlc_frames = on_channel(frames, ChannelKind::Vlc);
        let cv2x_frames = on_channel(frames, ChannelKind::CV2x);

        // With a finite radio horizon, index receiver positions once so
        // delivery becomes range queries.
        let rf = RfStep {
            now,
            receivers,
            jammers,
            traffic_on_air: !frames.is_empty(),
            rx_grid: self.radio_horizon_m.is_finite().then(|| {
                let positions: Vec<Position> = receivers.iter().map(|r| r.position).collect();
                SpatialGrid::build(self.grid_cell(), &positions)
            }),
            reception: self.dsrc.reception(),
        };

        let scheduled = self.schedule_csma(&dsrc_frames, rng);
        self.deliver_rf(
            &rf,
            ChannelKind::Dsrc,
            &scheduled,
            deliveries,
            &mut stats,
            rng,
        );

        let cv2x_scheduled = self.schedule_sps(&cv2x_frames);
        self.deliver_rf(
            &rf,
            ChannelKind::CV2x,
            &cv2x_scheduled,
            deliveries,
            &mut stats,
            rng,
        );

        for (index, frame) in vlc_frames {
            for rx in receivers {
                if rx.id == frame.sender {
                    continue;
                }
                if self.vlc.receives(frame.origin, rx.position, rng) {
                    deliveries.push(Delivery {
                        sender: frame.sender,
                        receiver: rx.id,
                        frame: index,
                        channel: ChannelKind::Vlc,
                        latency: frame.airtime(self.vlc.bitrate),
                        rssi_dbm: 0.0,
                        payload: frame.payload.clone(),
                    });
                    stats.delivered += 1;
                } else if self.vlc.in_beam(frame.origin, rx.position) {
                    stats.lost += 1;
                }
            }
        }

        stats
    }

    /// Cell size for spatial grids under a finite horizon: one horizon per
    /// cell, so a radius-`horizon` query touches at most a 3×3 block.
    fn grid_cell(&self) -> f64 {
        self.radio_horizon_m.max(1.0)
    }

    /// CSMA/CA-lite: random contention offsets, then defer to any earlier
    /// overlapping transmission the sender can hear.
    fn schedule_csma<R: Rng + ?Sized>(
        &self,
        frames: &[(u32, &Frame)],
        rng: &mut R,
    ) -> Vec<ScheduledFrame> {
        let mut sched: Vec<ScheduledFrame> = frames
            .iter()
            .map(|&(index, f)| {
                let airtime = f.airtime(self.dsrc.bitrate);
                let start = rng.gen_range(0.0..(self.step_len - airtime).max(1e-6));
                ScheduledFrame {
                    index,
                    frame: f.clone(),
                    start,
                    end: start + airtime,
                }
            })
            .collect();
        sched.sort_by(|a, b| a.start.total_cmp(&b.start));
        self.defer(&mut sched);
        sched
    }

    /// The defer pass over a schedule sorted by drawn start: each sender
    /// after the first starts at the latest end among the earlier frames it
    /// can hear, or at its drawn start if that is later, and keeps its
    /// airtime.
    ///
    /// Only a frame still on air at the sender's drawn start can move it,
    /// so each sender scans the earlier frames whose end is after that
    /// start. Drawn starts ascend, so a frame that has ended by one
    /// sender's drawn start has ended by every later one's, and leaves the
    /// list for good.
    fn defer(&self, sched: &mut [ScheduledFrame]) {
        let mut on_air: Vec<usize> = Vec::new();
        for i in 1..sched.len() {
            let drawn_start = sched[i].start;
            on_air.push(i - 1);
            on_air.retain(|&j| sched[j].end > drawn_start);
            let mut deferred_start = drawn_start;
            for &j in &on_air {
                if sched[j].end > deferred_start {
                    // Can sender i hear sender j?
                    let d = distance(sched[i].frame.origin, sched[j].frame.origin);
                    let heard = self.dsrc.median_rx_power_dbm(sched[j].frame.power_dbm, d)
                        >= CARRIER_SENSE_DBM;
                    if heard {
                        deferred_start = deferred_start.max(sched[j].end);
                    }
                }
            }
            let airtime = sched[i].end - sched[i].start;
            sched[i].start = deferred_start;
            sched[i].end = deferred_start + airtime;
        }
    }

    /// C-V2X semi-persistent scheduling: deterministic slot from the sender
    /// id, no listen-before-talk. Two senders share a slot only on a hash
    /// collision.
    fn schedule_sps(&self, frames: &[(u32, &Frame)]) -> Vec<ScheduledFrame> {
        let slot_len = self.step_len / self.cv2x_slots.max(1) as f64;
        frames
            .iter()
            .map(|&(index, f)| {
                let slot = (f.sender.0 as usize) % self.cv2x_slots.max(1);
                let start = slot as f64 * slot_len;
                ScheduledFrame {
                    index,
                    frame: f.clone(),
                    start,
                    end: start + f.airtime(self.dsrc.bitrate).min(slot_len),
                }
            })
            .collect()
    }

    /// Samples reception for every (frame, receiver) pair.
    ///
    /// Under a finite horizon, the receiver grid yields, in ascending index
    /// order, exactly the receivers within one horizon of the frame origin;
    /// otherwise every receiver is a candidate. Because candidate order is
    /// ascending — never bucket order — the rng draw sequence matches the
    /// all-pairs scan whenever the horizon covers the geometry.
    ///
    /// Whether another frame overlaps this one in time does not depend on
    /// the receiver, so the interferers are collected once per frame
    /// ([`AirtimeSweep`]); each receiver then runs only its horizon check
    /// and the power sum over that list, in ascending index order.
    fn deliver_rf<R: Rng + ?Sized>(
        &self,
        rf: &RfStep<'_>,
        channel: ChannelKind,
        scheduled: &[ScheduledFrame],
        deliveries: &mut Vec<Delivery>,
        stats: &mut StepStats,
        rng: &mut R,
    ) {
        let horizon = self.radio_horizon_m;
        // Scan mode: a fixed full candidate list, identical to iterating
        // the receiver slice directly.
        let all_rx: Vec<u32> = if rf.rx_grid.is_none() {
            (0..rf.receivers.len() as u32).collect()
        } else {
            Vec::new()
        };
        // Whether a jammer is on does not depend on the pair; the list keeps
        // jammer order, so each pair sums its jammers as before.
        let jammers: Vec<&Jammer> = rf
            .jammers
            .iter()
            .filter(|jam| jam.target == channel && jam.is_active(rf.now, rf.traffic_on_air))
            .collect();
        let sweep = AirtimeSweep::new(scheduled);
        let mut rx_cand: Vec<u32> = Vec::new();
        let mut interferers: Vec<u32> = Vec::new();
        for (i, sf) in scheduled.iter().enumerate() {
            let rx_list: &[u32] = match &rf.rx_grid {
                Some(rx_grid) => {
                    rx_grid.query_within(sf.frame.origin, horizon, &mut rx_cand);
                    &rx_cand
                }
                None => &all_rx,
            };
            sweep.collect(scheduled, i, horizon, &mut interferers);
            for &r in rx_list {
                let rx = &rf.receivers[r as usize];
                if rx.id == sf.frame.sender {
                    continue;
                }
                stats.pairs_considered += 1;
                let d = distance(sf.frame.origin, rx.position);
                let signal_dbm = rf.reception.sample_rx_power_dbm(sf.frame.power_dbm, d, rng);

                // Interference: temporally overlapping frames on the same
                // channel (hidden terminals) plus jammers targeting it.
                let mut interference_mw =
                    self.frame_interference_mw(scheduled, &interferers, rx.position);
                for jam in &jammers {
                    interference_mw += jam.interference_mw(&self.dsrc, rx.position);
                }

                if rf.reception.decodes(signal_dbm, interference_mw) {
                    deliveries.push(Delivery {
                        sender: sf.frame.sender,
                        receiver: rx.id,
                        frame: sf.index,
                        channel,
                        latency: sf.end,
                        rssi_dbm: signal_dbm,
                        payload: sf.frame.payload.clone(),
                    });
                    stats.delivered += 1;
                } else {
                    stats.lost += 1;
                }
            }
        }
    }

    /// Summed median power at `at` of the `interferers` (indices into
    /// `scheduled`), in list order. With a finite horizon, an interferer
    /// beyond the horizon of `at` is out of range by model definition and
    /// contributes nothing.
    fn frame_interference_mw(
        &self,
        scheduled: &[ScheduledFrame],
        interferers: &[u32],
        at: Position,
    ) -> f64 {
        let indexed = self.radio_horizon_m.is_finite();
        let mut interference_mw = 0.0;
        for &j in interferers {
            let other = &scheduled[j as usize];
            let dj = distance(other.frame.origin, at);
            // NaN distances count as out of range, like `deliver`.
            let in_horizon = dj <= self.radio_horizon_m;
            if indexed && !in_horizon {
                continue;
            }
            interference_mw += dbm_to_mw(self.dsrc.median_rx_power_dbm(other.frame.power_dbm, dj));
        }
        interference_mw
    }
}

/// One channel's scheduled frames in start order, for finding a frame's
/// interferers by airtime.
///
/// A frame `j` interferes with frame `i` when their airtimes overlap
/// (`i.start < j.end && j.start < i.end`, `j ≠ i`) and, under a finite
/// horizon, its origin lies within two horizons of `i`'s (by the triangle
/// inequality a superset of "within one horizon of some receiver of `i`").
/// An overlapping frame starts less than its own airtime before `i` does,
/// so the sweep visits only the frames that start inside
/// `[i.start − 2 × longest, i.end)`, where `longest` is the channel's
/// longest airtime this step (twice it, a margin over rounding in
/// `end − start`). Under an infinite horizon it never visits more frames
/// than a scan of all of them.
struct AirtimeSweep {
    /// Indices into the schedule, ascending by start time.
    by_start: Vec<u32>,
    /// The longest `end − start` in the schedule.
    longest: f64,
}

impl AirtimeSweep {
    fn new(scheduled: &[ScheduledFrame]) -> Self {
        let mut by_start: Vec<u32> = (0..scheduled.len() as u32).collect();
        by_start.sort_by(|&a, &b| {
            scheduled[a as usize]
                .start
                .total_cmp(&scheduled[b as usize].start)
        });
        let longest = scheduled
            .iter()
            .map(|s| s.end - s.start)
            .fold(0.0, f64::max);
        AirtimeSweep { by_start, longest }
    }

    /// Collects into `out`, in ascending index order, frame `i`'s
    /// interferers under `horizon`.
    fn collect(&self, scheduled: &[ScheduledFrame], i: usize, horizon: f64, out: &mut Vec<u32>) {
        let sf = &scheduled[i];
        let earliest = sf.start - 2.0 * self.longest;
        let first = self
            .by_start
            .partition_point(|&j| scheduled[j as usize].start < earliest);
        out.clear();
        for &j in &self.by_start[first..] {
            let other = &scheduled[j as usize];
            if other.start >= sf.end {
                break;
            }
            let overlaps = j as usize != i && sf.start < other.end && other.start < sf.end;
            if overlaps
                && (!horizon.is_finite()
                    || distance(other.frame.origin, sf.frame.origin) <= 2.0 * horizon)
            {
                out.push(j);
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::mw_to_dbm;
    use crate::jamming::JammingStrategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// The step time of the reference checks, inside some periodic
    /// jammers' off phase.
    const NOW: f64 = 0.25;

    fn frame(sender: u64, x: f64, channel: ChannelKind) -> Frame {
        sized_frame(sender, x, channel, 60)
    }

    fn sized_frame(sender: u64, x: f64, channel: ChannelKind, bytes: usize) -> Frame {
        Frame {
            sender: NodeId(sender),
            origin: (x, 0.0),
            power_dbm: 20.0,
            channel,
            payload: vec![sender as u8; bytes].into(),
        }
    }

    fn platoon_receivers(n: usize, spacing: f64) -> Vec<Receiver> {
        (0..n)
            .map(|i| Receiver {
                id: NodeId(i as u64),
                position: (i as f64 * spacing, 0.0),
            })
            .collect()
    }

    /// One step into a fresh buffer.
    fn step_once(
        medium: &RadioMedium,
        frames: &[Frame],
        receivers: &[Receiver],
        jammers: &[Jammer],
        rng: &mut StdRng,
    ) -> (Vec<Delivery>, StepStats) {
        let mut deliveries = Vec::new();
        let stats = medium.step(0.0, frames, receivers, jammers, rng, &mut deliveries);
        (deliveries, stats)
    }

    #[test]
    fn close_broadcast_reaches_everyone() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(5, 20.0);
        let mut rng = rng();
        let mut deliveries = Vec::new();
        let mut total = 0;
        for _ in 0..50 {
            medium.step(
                0.0,
                &[frame(0, 0.0, ChannelKind::Dsrc)],
                &receivers,
                &[],
                &mut rng,
                &mut deliveries,
            );
            total += deliveries.len();
        }
        // 4 receivers × 50 rounds; expect near-perfect delivery.
        assert!(total > 190, "delivered {total}/200");
    }

    #[test]
    fn step_replaces_what_the_buffer_held() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(4, 20.0);
        let frames = [
            frame(0, 0.0, ChannelKind::Dsrc),
            frame(1, 20.0, ChannelKind::Vlc),
        ];
        let (fresh, fresh_stats) = step_once(&medium, &frames, &receivers, &[], &mut rng());
        assert!(!fresh.is_empty());
        // A buffer still holding an earlier step's deliveries ends up with
        // exactly this step's.
        let mut reused = fresh.clone();
        reused.extend(fresh.iter().cloned());
        let stats = medium.step(0.0, &frames, &receivers, &[], &mut rng(), &mut reused);
        assert_eq!(reused, fresh);
        assert_eq!(stats, fresh_stats);
    }

    #[test]
    fn sender_never_receives_own_frame() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(3, 20.0);
        let (deliveries, _) = step_once(
            &medium,
            &[frame(1, 20.0, ChannelKind::Dsrc)],
            &receivers,
            &[],
            &mut rng(),
        );
        assert!(deliveries.iter().all(|d| d.receiver != NodeId(1)));
    }

    #[test]
    fn strong_jammer_kills_dsrc() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(4, 20.0);
        let jammer = Jammer::continuous((30.0, 5.0), 40.0);
        let mut rng = rng();
        let mut deliveries = Vec::new();
        let mut delivered = 0;
        for _ in 0..50 {
            medium.step(
                0.0,
                &[frame(0, 0.0, ChannelKind::Dsrc)],
                &receivers,
                &[jammer],
                &mut rng,
                &mut deliveries,
            );
            delivered += deliveries.len();
        }
        assert!(
            delivered < 10,
            "jammer should kill DSRC, delivered {delivered}"
        );
    }

    #[test]
    fn vlc_immune_to_rf_jamming() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(2, 15.0);
        let jammer = Jammer::continuous((10.0, 2.0), 60.0);
        let mut rng = rng();
        let mut deliveries = Vec::new();
        let mut delivered = 0;
        for _ in 0..100 {
            // Node 1 (front, x = 15) transmits backward to node 0 (x = 0).
            medium.step(
                0.0,
                &[frame(1, 15.0, ChannelKind::Vlc)],
                &receivers,
                &[jammer],
                &mut rng,
                &mut deliveries,
            );
            delivered += deliveries.len();
        }
        assert!(
            delivered > 90,
            "VLC must survive RF jamming: {delivered}/100"
        );
    }

    #[test]
    fn vlc_limited_to_adjacent_range() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(4, 50.0); // 50 m spacing > VLC range
        let (d, _) = step_once(
            &medium,
            &[frame(3, 150.0, ChannelKind::Vlc)],
            &receivers,
            &[],
            &mut rng(),
        );
        assert!(d.is_empty(), "VLC should not reach 50 m");
    }

    /// A slot of a schedule: its frame's index and the bits of its start
    /// and end.
    fn bits(s: &ScheduledFrame) -> (u32, u64, u64) {
        (s.index, s.start.to_bits(), s.end.to_bits())
    }

    /// The reference CSMA schedule of `frames`: each start drawn as
    /// `schedule_csma` draws it, then, in drawn-start order, each frame
    /// after the first moved to the latest end over every earlier frame it
    /// hears (if later), with no index and no on-air list.
    fn reference_csma(
        medium: &RadioMedium,
        frames: &[(u32, &Frame)],
        rng: &mut StdRng,
    ) -> Vec<(u32, u64, u64)> {
        let mut sched: Vec<ScheduledFrame> = frames
            .iter()
            .map(|&(index, f)| {
                let airtime = f.airtime(medium.dsrc.bitrate);
                let start = rng.gen_range(0.0..(medium.step_len - airtime).max(1e-6));
                let end = start + airtime;
                let frame = f.clone();
                ScheduledFrame {
                    index,
                    frame,
                    start,
                    end,
                }
            })
            .collect();
        sched.sort_by(|a, b| a.start.total_cmp(&b.start));
        for i in 1..sched.len() {
            let mut start = sched[i].start;
            for j in 0..i {
                let d = distance(sched[i].frame.origin, sched[j].frame.origin);
                if medium.dsrc.median_rx_power_dbm(sched[j].frame.power_dbm, d) >= CARRIER_SENSE_DBM
                {
                    start = start.max(sched[j].end);
                }
            }
            let airtime = sched[i].end - sched[i].start;
            sched[i].start = start;
            sched[i].end = start + airtime;
        }
        sched.iter().map(bits).collect()
    }

    #[test]
    fn csma_defers_exactly_like_the_reference() {
        // Hand-built drawn starts. Frames 0 and 1, 100 m apart, draw the
        // same start, so 1 defers to 0. That pushes 1 past frame 2's drawn
        // start, so 2 must defer to 1. Frame 3 hears only frame 0 (the
        // others are over 395 m away) and draws its start before 0 ends;
        // 1 and 2 start at or after that end, so a list pruned by their
        // deferred starts would have dropped 0.
        let drawn = [(0.0, 0.0), (0.0, 100.0), (0.0001, 200.0), (0.00015, -350.0)];
        let mut sched: Vec<ScheduledFrame> = (0..4)
            .map(|i| ScheduledFrame {
                index: i as u32,
                frame: frame(i as u64, drawn[i].1, ChannelKind::Dsrc),
                start: drawn[i].0,
                end: drawn[i].0 + 0.0002,
            })
            .collect();
        RadioMedium::default().defer(&mut sched);
        let starts: Vec<f64> = sched.iter().map(|s| s.start).collect();
        assert_eq!(starts, [0.0, sched[0].end, sched[1].end, sched[0].end]);

        // Drawn starts: senders 50 m apart along 4 km at three powers and
        // sizes hear only their neighbourhood, and deferrals cascade within
        // the 4 ms step. The horizon must not matter.
        let frames: Vec<Frame> = (0..80u64)
            .map(|i| {
                let k = i as usize % 3;
                let f = sized_frame(i, i as f64 * 50.0, ChannelKind::Dsrc, 60 + 90 * k);
                Frame {
                    power_dbm: [20.0, 10.0, 23.0][k],
                    ..f
                }
            })
            .collect();
        let refs = on_channel(&frames, ChannelKind::Dsrc);
        let mut deferred = 0;
        for horizon in [f64::INFINITY, 1.0e5, 250.0] {
            let medium = RadioMedium {
                step_len: 0.004,
                radio_horizon_m: horizon,
                ..RadioMedium::default()
            };
            for seed in 0..10 {
                let got = medium.schedule_csma(&refs, &mut StdRng::seed_from_u64(seed));
                let got: Vec<_> = got.iter().map(bits).collect();
                let want = reference_csma(&medium, &refs, &mut StdRng::seed_from_u64(seed));
                assert_eq!(got, want, "horizon {horizon}, seed {seed}");
                deferred += got.windows(2).filter(|w| w[1].1 == w[0].2).count();
            }
        }
        assert!(deferred > 0, "no sender deferred to the frame before it");
    }

    #[test]
    fn many_contending_senders_lose_some_frames() {
        // Saturate the channel: 60 senders in range beaconing simultaneously.
        let medium = RadioMedium {
            step_len: 0.01, // 10 ms step to force congestion
            ..Default::default()
        };
        let receivers = platoon_receivers(60, 10.0);
        let frames: Vec<Frame> = (0..60)
            .map(|i| frame(i, i as f64 * 10.0, ChannelKind::Dsrc))
            .collect();
        let (_, stats) = step_once(&medium, &frames, &receivers, &[], &mut rng());
        assert!(stats.lost > 0, "saturated channel must drop something");
    }

    #[test]
    fn cv2x_slots_avoid_contention() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(8, 15.0);
        let frames: Vec<Frame> = (0..8)
            .map(|i| frame(i, i as f64 * 15.0, ChannelKind::CV2x))
            .collect();
        let (d, _) = step_once(&medium, &frames, &receivers, &[], &mut rng());
        // 8 senders × 7 receivers = 56 pairs; SPS slots mean essentially all
        // decode (senders have distinct slots).
        assert!(d.len() > 50, "C-V2X delivered only {}", d.len());
    }

    #[test]
    fn dsrc_jammer_does_not_affect_cv2x() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(3, 15.0);
        let jammer = Jammer::continuous((15.0, 2.0), 60.0); // targets DSRC
        let (d, _) = step_once(
            &medium,
            &[frame(0, 0.0, ChannelKind::CV2x)],
            &receivers,
            &[jammer],
            &mut rng(),
        );
        assert_eq!(d.len(), 2, "C-V2X should survive a DSRC-band jammer");
    }

    #[test]
    fn covering_horizon_is_byte_identical_to_scan() {
        // A finite horizon that covers the whole geometry must reproduce the
        // all-pairs scan exactly: same deliveries, same stats, and the same
        // number of rng draws (the streams stay in lockstep).
        let scan_medium = RadioMedium::default();
        let indexed_medium = RadioMedium {
            radio_horizon_m: 1.0e5,
            ..RadioMedium::default()
        };
        let receivers = platoon_receivers(12, 35.0);
        let frames: Vec<Frame> = (0..12)
            .flat_map(|i| {
                [
                    frame(i, i as f64 * 35.0, ChannelKind::Dsrc),
                    frame(i, i as f64 * 35.0, ChannelKind::CV2x),
                ]
            })
            .collect();
        let jammers = [Jammer::continuous((150.0, 5.0), 25.0)];
        let (mut d_scan, mut d_idx) = (Vec::new(), Vec::new());
        for seed in 0..20 {
            let mut rng_scan = StdRng::seed_from_u64(seed);
            let mut rng_idx = StdRng::seed_from_u64(seed);
            let s_scan = scan_medium.step(
                0.0,
                &frames,
                &receivers,
                &jammers,
                &mut rng_scan,
                &mut d_scan,
            );
            let s_idx =
                indexed_medium.step(0.0, &frames, &receivers, &jammers, &mut rng_idx, &mut d_idx);
            assert_eq!(d_scan, d_idx, "seed {seed}");
            assert_eq!(s_scan, s_idx, "seed {seed}");
            assert_eq!(
                rand::RngCore::next_u64(&mut rng_scan),
                rand::RngCore::next_u64(&mut rng_idx),
                "rng streams diverged at seed {seed}"
            );
        }
    }

    /// The reference delivery of one channel's schedule, with no index and
    /// no interferer list: every receiver within the horizon of the frame
    /// (every receiver under an infinite horizon) and, for each pair, every
    /// scheduled frame as an interference candidate. A candidate counts if
    /// it overlaps the frame in airtime, then, under a finite horizon, if
    /// its origin is within two horizons of the frame's and within one of
    /// the receiver. Pairs decode by the textbook SINR test. At each pair it
    /// also asserts that the list [`AirtimeSweep`] collects once per frame
    /// sums to the same bits at that receiver. Returns the deliveries, the
    /// stats and how many pairs frame interference alone lost (they would
    /// decode against noise and jammers).
    fn reference_deliver_rf(
        medium: &RadioMedium,
        channel: ChannelKind,
        scheduled: &[ScheduledFrame],
        receivers: &[Receiver],
        jammers: &[Jammer],
        rng: &mut StdRng,
    ) -> (Vec<Delivery>, StepStats, usize) {
        let horizon = medium.radio_horizon_m;
        let within = |a: Position, b: Position, r: f64| distance(a, b) <= r;
        let finite = horizon.is_finite();
        let phy = &medium.dsrc;
        let decodes = |signal_dbm: f64, interference_mw: f64| {
            signal_dbm - mw_to_dbm(dbm_to_mw(phy.noise_floor_dbm) + interference_mw)
                >= phy.sinr_threshold_db
        };
        let mut deliveries = Vec::new();
        let mut stats = StepStats::default();
        let mut lost_to_frames = 0;
        let sweep = AirtimeSweep::new(scheduled);
        let mut swept = Vec::new();
        for (i, sf) in scheduled.iter().enumerate() {
            sweep.collect(scheduled, i, horizon, &mut swept);
            for (r, rx) in receivers.iter().enumerate() {
                if finite && !within(rx.position, sf.frame.origin, horizon) {
                    continue;
                }
                if rx.id == sf.frame.sender {
                    continue;
                }
                stats.pairs_considered += 1;
                let d = distance(sf.frame.origin, rx.position);
                let signal_dbm = phy.sample_rx_power_dbm(sf.frame.power_dbm, d, rng);
                let mut interference_mw = 0.0;
                for (j, other) in scheduled.iter().enumerate() {
                    if j == i || !(sf.start < other.end && other.start < sf.end) {
                        continue;
                    }
                    if finite && !within(other.frame.origin, sf.frame.origin, 2.0 * horizon) {
                        continue;
                    }
                    let dj = distance(other.frame.origin, rx.position);
                    if finite && !within(other.frame.origin, rx.position, horizon) {
                        continue;
                    }
                    interference_mw +=
                        dbm_to_mw(phy.median_rx_power_dbm(other.frame.power_dbm, dj));
                }
                let listed = medium.frame_interference_mw(scheduled, &swept, rx.position);
                assert_eq!(
                    listed.to_bits(),
                    interference_mw.to_bits(),
                    "frame {i} at receiver {r}: swept list {swept:?}"
                );
                let mut jam_mw = 0.0;
                for jam in jammers {
                    if jam.target == channel && jam.is_active(NOW, true) {
                        let mw = jam.interference_mw(phy, rx.position);
                        interference_mw += mw;
                        jam_mw += mw;
                    }
                }
                if decodes(signal_dbm, interference_mw) {
                    deliveries.push(Delivery {
                        sender: sf.frame.sender,
                        receiver: rx.id,
                        frame: sf.index,
                        channel,
                        latency: sf.end,
                        rssi_dbm: signal_dbm,
                        payload: sf.frame.payload.clone(),
                    });
                    stats.delivered += 1;
                } else {
                    stats.lost += 1;
                    lost_to_frames += usize::from(decodes(signal_dbm, jam_mw));
                }
            }
        }
        (deliveries, stats, lost_to_frames)
    }

    /// Runs `deliver_rf` and the reference on `scheduled` from the same rng
    /// state; returns the pairs frame interference alone lost.
    fn deliver_rf_matches_reference(
        medium: &RadioMedium,
        channel: ChannelKind,
        scheduled: &[ScheduledFrame],
        receivers: &[Receiver],
        jammers: &[Jammer],
        rng: &mut StdRng,
    ) -> usize {
        let horizon = medium.radio_horizon_m;
        let rf = RfStep {
            now: NOW,
            receivers,
            jammers,
            traffic_on_air: true,
            rx_grid: horizon.is_finite().then(|| {
                let positions: Vec<Position> = receivers.iter().map(|r| r.position).collect();
                SpatialGrid::build(medium.grid_cell(), &positions)
            }),
            reception: medium.dsrc.reception(),
        };
        let mut rng_ref = rng.clone();
        let (want, want_stats, lost) =
            reference_deliver_rf(medium, channel, scheduled, receivers, jammers, &mut rng_ref);
        let (mut got, mut got_stats) = (Vec::new(), StepStats::default());
        medium.deliver_rf(&rf, channel, scheduled, &mut got, &mut got_stats, rng);
        assert_eq!(got, want, "horizon {horizon}");
        assert_eq!(got_stats, want_stats, "horizon {horizon}");
        assert_eq!(
            rand::RngCore::next_u64(rng),
            rand::RngCore::next_u64(&mut rng_ref),
            "rng streams diverged: horizon {horizon}"
        );
        lost
    }

    /// Schedules `frames` on `channel` and checks `deliver_rf` against the
    /// reference at an infinite and at a finite horizon, over several
    /// seeds; returns the pairs frame interference alone lost.
    fn interferer_list_matches_reference(
        channel: ChannelKind,
        frames: &[Frame],
        receivers: &[Receiver],
        jammers: &[Jammer],
        step_len: f64,
    ) -> usize {
        let mut lost_to_frames = 0;
        for horizon in [f64::INFINITY, 700.0] {
            let medium = RadioMedium {
                step_len,
                radio_horizon_m: horizon,
                ..RadioMedium::default()
            };
            for seed in 0..10 {
                let mut rng = StdRng::seed_from_u64(seed);
                let refs = on_channel(frames, channel);
                let scheduled = match channel {
                    ChannelKind::Dsrc => medium.schedule_csma(&refs, &mut rng),
                    _ => medium.schedule_sps(&refs),
                };
                lost_to_frames += deliver_rf_matches_reference(
                    &medium, channel, &scheduled, receivers, jammers, &mut rng,
                );
            }
        }
        lost_to_frames
    }

    #[test]
    fn interferer_list_is_exact_when_interference_matters() {
        // C-V2X: ids i, i + 100 and i + 200 share SPS slot i, so each frame
        // overlaps two others with the same start time; a C-V2X jammer sits
        // mid-road.
        let cv2x: Vec<Frame> = (0..4u64)
            .flat_map(|i| {
                (0..3u64).map(move |k| {
                    frame(
                        i + 100 * k,
                        k as f64 * 600.0 + i as f64 * 40.0,
                        ChannelKind::CV2x,
                    )
                })
            })
            .collect();
        let receivers: Vec<Receiver> = (0..30)
            .map(|i| Receiver {
                id: NodeId(1000 + i as u64),
                position: (i as f64 * 45.0 - 50.0, 3.5),
            })
            .collect();
        let cv2x_jammer = Jammer {
            target: ChannelKind::CV2x,
            ..Jammer::continuous((650.0, 20.0), -5.0)
        };
        let lost = interferer_list_matches_reference(
            ChannelKind::CV2x,
            &cv2x,
            &receivers,
            &[cv2x_jammer],
            0.1,
        );
        assert!(
            lost > 0,
            "no C-V2X delivery was lost to a slot-sharing sender"
        );

        // DSRC: senders 450 m apart cannot carrier-sense each other, so in
        // a short step they all collide at the receivers between them. The
        // DSRC jammers that are on at `NOW` (continuous, periodic, reactive)
        // add to the budget; a loud periodic one that is off and a loud
        // C-V2X one must not.
        let dsrc: Vec<Frame> = (0..5u64)
            .map(|i| frame(i, i as f64 * 450.0, ChannelKind::Dsrc))
            .collect();
        let periodic = |on, off| JammingStrategy::Periodic { on, off };
        let dsrc_jammers = [
            (JammingStrategy::Continuous, ChannelKind::Dsrc, 900.0, -5.0),
            (periodic(0.1, 0.2), ChannelKind::Dsrc, 400.0, 30.0),
            (periodic(0.3, 0.1), ChannelKind::Dsrc, 1500.0, -8.0),
            (JammingStrategy::Continuous, ChannelKind::CV2x, 1000.0, 30.0),
            (JammingStrategy::Reactive, ChannelKind::Dsrc, 200.0, -10.0),
        ]
        .map(|(strategy, target, x, power_dbm)| Jammer {
            strategy,
            target,
            ..Jammer::continuous((x, 20.0), power_dbm)
        });
        let lost = interferer_list_matches_reference(
            ChannelKind::Dsrc,
            &dsrc,
            &receivers,
            &dsrc_jammers,
            0.0005,
        );
        assert!(lost > 0, "no DSRC delivery was lost to a hidden terminal");

        // DSRC with one frame 60 times longer than the rest: short frames
        // that start long after it began still overlap it, so the sweep
        // must reach back by the longest airtime, not by their own.
        let mut long_and_short: Vec<Frame> = (0..8u64)
            .map(|i| frame(i, i as f64 * 450.0 - 200.0, ChannelKind::Dsrc))
            .collect();
        long_and_short.push(sized_frame(8, 700.0, ChannelKind::Dsrc, 3600));
        let lost = interferer_list_matches_reference(
            ChannelKind::Dsrc,
            &long_and_short,
            &receivers,
            &[],
            0.01,
        );
        assert!(lost > 0, "no DSRC delivery was lost to the long frame");

        // A hand-built schedule: equal start times, one frame spanning
        // every other, frames that end exactly where others start (no
        // overlap) and origins beyond two horizons of each other.
        let spans = [
            (0.0, 0.0001),
            (0.0, 0.0001),
            (0.0, 0.0004),
            (0.0001, 0.0002),
            (0.0001, 0.0002),
            (0.00005, 0.0095),
            (0.0003, 0.0004),
            (0.0009, 0.001),
            (0.0009, 0.0011),
        ];
        let scheduled: Vec<ScheduledFrame> = spans
            .iter()
            .enumerate()
            .map(|(i, &(start, end))| ScheduledFrame {
                index: i as u32,
                frame: frame(i as u64, i as f64 * 380.0 - 300.0, ChannelKind::Dsrc),
                start,
                end,
            })
            .collect();
        let spread: Vec<Receiver> = (0..40)
            .map(|i| Receiver {
                id: NodeId(1000 + i as u64),
                position: (i as f64 * 80.0 - 400.0, 3.5),
            })
            .collect();
        let mut lost = 0;
        for horizon in [f64::INFINITY, 700.0, 250.0] {
            let medium = RadioMedium {
                radio_horizon_m: horizon,
                ..RadioMedium::default()
            };
            for seed in 0..10 {
                lost += deliver_rf_matches_reference(
                    &medium,
                    ChannelKind::Dsrc,
                    &scheduled,
                    &spread,
                    &[],
                    &mut StdRng::seed_from_u64(seed),
                );
            }
        }
        assert!(lost > 0, "no delivery was lost to an overlapping frame");
    }

    #[test]
    fn finite_horizon_prunes_far_pairs() {
        // Two clusters far apart: a finite horizon between the intra- and
        // inter-cluster distances must sample far fewer pairs than the scan
        // and never deliver across clusters.
        let medium = RadioMedium {
            radio_horizon_m: 500.0,
            ..RadioMedium::default()
        };
        let scan = RadioMedium::default();
        let mut receivers = platoon_receivers(6, 25.0);
        receivers.extend((0..6).map(|i| Receiver {
            id: NodeId(100 + i as u64),
            position: (50_000.0 + i as f64 * 25.0, 0.0),
        }));
        let frames: Vec<Frame> = (0..6)
            .map(|i| frame(i, i as f64 * 25.0, ChannelKind::Dsrc))
            .collect();
        let (d_idx, s_idx) = step_once(&medium, &frames, &receivers, &[], &mut rng());
        let (_, s_scan) = step_once(&scan, &frames, &receivers, &[], &mut rng());
        assert!(d_idx.iter().all(|d| d.receiver.0 < 100));
        assert!(
            s_idx.pairs_considered < s_scan.pairs_considered,
            "indexed {} vs scan {}",
            s_idx.pairs_considered,
            s_scan.pairs_considered
        );
        // The near cluster is fully inside the horizon: 6 frames × 5 peers.
        assert_eq!(s_idx.pairs_considered, 30);
        assert_eq!(s_scan.pairs_considered, 6 * 11);
    }

    #[test]
    fn deliveries_name_their_frame_in_the_offered_slice() {
        // Channels interleave in offer order and every payload is distinct,
        // so a delivery's bytes identify the frame it came from. Each frame
        // has its own sender, so no two C-V2X frames share a slot.
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(6, 12.0);
        let channels = [ChannelKind::Dsrc, ChannelKind::Vlc, ChannelKind::CV2x];
        let frames: Vec<Frame> = (0..18u64)
            .map(|i| frame(i, (i % 6) as f64 * 12.0, channels[i as usize % 3]))
            .collect();
        let mut csma_reordered = false;
        let mut heard = [false; 3];
        let mut deliveries = Vec::new();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            medium.step(0.0, &frames, &receivers, &[], &mut rng, &mut deliveries);
            let mut runs: Vec<u32> = Vec::new();
            for run in deliveries.chunk_by(|a, b| a.frame == b.frame) {
                let offered = &frames[run[0].frame as usize];
                for d in run {
                    assert_eq!(d.sender, offered.sender, "seed {seed}");
                    assert_eq!(d.channel, offered.channel, "seed {seed}");
                    assert_eq!(d.payload.as_slice(), offered.payload.as_slice());
                }
                let mut rx: Vec<NodeId> = run.iter().map(|d| d.receiver).collect();
                rx.sort();
                rx.dedup();
                assert_eq!(
                    rx.len(),
                    run.len(),
                    "seed {seed}: a receiver heard a frame twice"
                );
                heard[channels.iter().position(|&c| c == offered.channel).unwrap()] = true;
                runs.push(run[0].frame);
            }
            let mut distinct = runs.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(
                distinct.len(),
                runs.len(),
                "seed {seed}: a frame's deliveries split"
            );
            let on = |channel: ChannelKind| -> Vec<u32> {
                let on_it = |&f: &u32| frames[f as usize].channel == channel;
                runs.iter().copied().filter(on_it).collect()
            };
            // C-V2X and VLC keep offer order; CSMA reorders DSRC.
            assert!(on(ChannelKind::CV2x).is_sorted(), "seed {seed}");
            assert!(on(ChannelKind::Vlc).is_sorted(), "seed {seed}");
            csma_reordered |= !on(ChannelKind::Dsrc).is_sorted();
        }
        assert!(csma_reordered, "CSMA never reordered the DSRC frames");
        assert_eq!(heard, [true; 3], "a channel delivered nothing");
    }

    #[test]
    fn deliveries_carry_rssi() {
        let medium = RadioMedium::default();
        let receivers = platoon_receivers(2, 10.0);
        let (d, _) = step_once(
            &medium,
            &[frame(0, 0.0, ChannelKind::Dsrc)],
            &receivers,
            &[],
            &mut rng(),
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].rssi_dbm < 20.0 && d[0].rssi_dbm > -90.0);
        assert!(d[0].latency > 0.0);
    }
}
