//! Cluster membership and heartbeat liveness for the TCP fabric.
//!
//! The membership layer is deliberately small: the node registry is
//! exchanged once at join time (every node knows every peer's address
//! before the run starts), and from then on each node's fabric sends
//! periodic heartbeat frames on every outgoing link. The receiving side
//! tracks, per peer, when it last heard *anything* — payload frames count
//! as liveness signals too, so a chatty link never goes suspect just
//! because heartbeats queue behind large payloads.
//!
//! The design follows the heartbeat-controller style of placement
//! services (RobustMQ's placement center is the model named in the
//! roadmap): a pure, clock-injected tracker classifies each peer as
//! [`PeerLiveness::Alive`], `Suspect` (quiet past `suspect_after`) or
//! `Dead` (quiet past `dead_after`). A *suspect* peer that resumes
//! talking recovers to `Alive` (counted in [`PeerStatus::recoveries`]),
//! but **death is sticky**: once a peer's silence crosses `dead_after`,
//! resumed frames on the old connection do not revive it. A declared-dead
//! peer may have been deposed in its absence (the sim fabric's home
//! re-election is exactly that), so a process that merely went quiet and
//! came back must not resurrect silently with its stale state. The only
//! way back in is an explicit **incarnation-fenced rejoin**
//! ([`LivenessTracker::record_rejoin`], driven by the hello handshake's
//! incarnation number): a hello carrying a *strictly greater* incarnation
//! proves a deliberate restart and clears the latch; a replayed or stale
//! hello at the old incarnation is refused and the peer stays dead.
//!
//! All timestamps are plain `u64` milliseconds injected by the caller,
//! which keeps every transition unit-testable without real sleeping.

use dsm_objspace::NodeId;
use std::fmt;

/// Liveness classification of one peer, derived from how long ago it was
/// last heard from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerLiveness {
    /// Heard from within the suspect threshold.
    Alive,
    /// Quiet for longer than `suspect_after` but not yet `dead_after`.
    Suspect,
    /// Quiet for longer than `dead_after`.
    Dead,
}

impl fmt::Display for PeerLiveness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PeerLiveness::Alive => "alive",
            PeerLiveness::Suspect => "suspect",
            PeerLiveness::Dead => "dead",
        })
    }
}

/// One peer's row in a liveness view.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerStatus {
    /// The peer node.
    pub node: NodeId,
    /// Current classification.
    pub liveness: PeerLiveness,
    /// Heartbeat frames received from this peer.
    pub heartbeats: u64,
    /// Total frames (heartbeat + payload + control) received from this peer.
    pub frames: u64,
    /// Milliseconds since the peer was last heard from (at view time).
    pub silent_ms: u64,
    /// Times the peer came back to `Alive` after being suspect or dead.
    pub recoveries: u32,
}

/// One node's view of its peers at a moment in time.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipView {
    /// The observing node.
    pub local: NodeId,
    /// Peer rows, ordered by node id.
    pub peers: Vec<PeerStatus>,
}

impl MembershipView {
    /// Whether every peer is currently classified alive.
    pub(crate) fn all_alive(&self) -> bool {
        self.peers.iter().all(|p| p.liveness == PeerLiveness::Alive)
    }

    /// The classification of `node` in this view, if it is a peer.
    pub fn liveness(&self, node: NodeId) -> Option<PeerLiveness> {
        self.peers
            .iter()
            .find(|p| p.node == node)
            .map(|p| p.liveness)
    }
}

/// The final membership picture of a run: one view per node, taken at
/// fabric teardown and surfaced in the runtime's execution report.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipReport {
    /// Per-node views, ordered by observing node id.
    pub views: Vec<MembershipView>,
}

impl MembershipReport {
    /// Whether every node saw every peer alive.
    pub fn all_alive(&self) -> bool {
        self.views.iter().all(MembershipView::all_alive)
    }
}

struct PeerState {
    node: NodeId,
    last_heard_ms: u64,
    heartbeats: u64,
    frames: u64,
    recoveries: u32,
    /// Sticky death latch: set when the peer's silence was observed to
    /// cross `dead_after`, cleared only by an incarnation-fenced rejoin.
    dead: bool,
    /// Highest incarnation this peer has joined with.
    incarnation: u32,
}

/// Pure liveness tracker: feed it received-frame events with injected
/// millisecond timestamps, ask it for a [`MembershipView`] at any moment.
///
/// A peer never heard from is measured against the tracker's creation
/// time, so a node that never manages to connect drifts to suspect/dead
/// like any other silent peer.
pub(crate) struct LivenessTracker {
    local: NodeId,
    suspect_after_ms: u64,
    dead_after_ms: u64,
    peers: Vec<PeerState>,
}

impl LivenessTracker {
    /// A tracker for `local` observing `peers`, born at `now_ms`.
    pub(crate) fn new(
        local: NodeId,
        peers: impl IntoIterator<Item = NodeId>,
        suspect_after_ms: u64,
        dead_after_ms: u64,
        now_ms: u64,
    ) -> Self {
        let mut peers: Vec<PeerState> = peers
            .into_iter()
            .map(|node| PeerState {
                node,
                last_heard_ms: now_ms,
                heartbeats: 0,
                frames: 0,
                recoveries: 0,
                dead: false,
                incarnation: 0,
            })
            .collect();
        peers.sort_by_key(|p| p.node.0);
        LivenessTracker {
            local,
            suspect_after_ms,
            dead_after_ms,
            peers,
        }
    }

    fn classify(&self, silent_ms: u64) -> PeerLiveness {
        if silent_ms >= self.dead_after_ms {
            PeerLiveness::Dead
        } else if silent_ms >= self.suspect_after_ms {
            PeerLiveness::Suspect
        } else {
            PeerLiveness::Alive
        }
    }

    /// Record a frame received from `from` at `now_ms`. Any frame counts
    /// as a liveness signal; `heartbeat` additionally bumps the heartbeat
    /// counter. Unknown senders are ignored (the socket layer has already
    /// rejected them at the hello handshake).
    ///
    /// Death is sticky: a frame arriving after the peer's silence already
    /// crossed `dead_after` latches the peer dead instead of reviving it —
    /// frames still count, but the peer stays [`PeerLiveness::Dead`] until
    /// an incarnation-fenced [`record_rejoin`](Self::record_rejoin).
    pub(crate) fn record_frame(&mut self, from: NodeId, heartbeat: bool, now_ms: u64) {
        let (suspect_after, dead_after) = (self.suspect_after_ms, self.dead_after_ms);
        if let Some(peer) = self.peers.iter_mut().find(|p| p.node == from) {
            let silent = now_ms.saturating_sub(peer.last_heard_ms);
            if silent >= dead_after {
                // The peer was silently dead when this frame arrived: latch
                // it. Whatever it is sending reflects pre-death state.
                peer.dead = true;
            } else if !peer.dead && silent >= suspect_after {
                peer.recoveries += 1;
            }
            peer.last_heard_ms = peer.last_heard_ms.max(now_ms);
            peer.frames += 1;
            if heartbeat {
                peer.heartbeats += 1;
            }
        }
    }

    /// Record a join/rejoin handshake from `from` carrying its
    /// `incarnation` number at `now_ms`. Returns whether the peer is
    /// admitted (i.e. not left latched dead).
    ///
    /// While a peer is latched dead, only a hello with a *strictly
    /// greater* incarnation than any previously seen clears the latch — a
    /// deliberate restart bumps its incarnation, whereas a stale process
    /// reconnecting (or a replayed hello) presents the old one and is
    /// refused. A fenced rejoin counts as a recovery and as a liveness
    /// signal; unknown senders are ignored and refused.
    pub(crate) fn record_rejoin(&mut self, from: NodeId, incarnation: u32, now_ms: u64) -> bool {
        let dead_after = self.dead_after_ms;
        let Some(peer) = self.peers.iter_mut().find(|p| p.node == from) else {
            return false;
        };
        let silent = now_ms.saturating_sub(peer.last_heard_ms);
        if silent >= dead_after {
            peer.dead = true;
        }
        if peer.dead {
            if incarnation <= peer.incarnation {
                // Stale incarnation: a ghost of the dead process. Refuse
                // revival; do not even count the frame as liveness.
                return false;
            }
            peer.dead = false;
            peer.recoveries += 1;
        }
        peer.incarnation = peer.incarnation.max(incarnation);
        peer.last_heard_ms = peer.last_heard_ms.max(now_ms);
        peer.frames += 1;
        true
    }

    /// The membership view as of `now_ms`.
    pub(crate) fn view(&self, now_ms: u64) -> MembershipView {
        MembershipView {
            local: self.local,
            peers: self
                .peers
                .iter()
                .map(|p| {
                    let silent_ms = now_ms.saturating_sub(p.last_heard_ms);
                    PeerStatus {
                        node: p.node,
                        liveness: if p.dead {
                            PeerLiveness::Dead
                        } else {
                            self.classify(silent_ms)
                        },
                        heartbeats: p.heartbeats,
                        frames: p.frames,
                        silent_ms,
                        recoveries: p.recoveries,
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> LivenessTracker {
        // Suspect after 100 ms of silence, dead after 300 ms.
        LivenessTracker::new(NodeId(0), [NodeId(1), NodeId(2)], 100, 300, 1_000)
    }

    #[test]
    fn fresh_peers_are_alive_until_thresholds_pass() {
        let t = tracker();
        assert!(t.view(1_000).all_alive());
        assert!(t.view(1_099).all_alive());
        assert_eq!(
            t.view(1_100).liveness(NodeId(1)),
            Some(PeerLiveness::Suspect)
        );
        assert_eq!(
            t.view(1_299).liveness(NodeId(1)),
            Some(PeerLiveness::Suspect)
        );
        assert_eq!(t.view(1_300).liveness(NodeId(1)), Some(PeerLiveness::Dead));
    }

    #[test]
    fn heartbeats_keep_a_peer_alive_and_silence_degrades_it() {
        let mut t = tracker();
        // Node 1 heartbeats regularly; node 2 goes quiet.
        for step in 1..=10u64 {
            t.record_frame(NodeId(1), true, 1_000 + step * 50);
        }
        let view = t.view(1_500);
        assert_eq!(view.liveness(NodeId(1)), Some(PeerLiveness::Alive));
        assert_eq!(view.liveness(NodeId(2)), Some(PeerLiveness::Dead));
        assert!(!view.all_alive());
        let n1 = view.peers.iter().find(|p| p.node == NodeId(1)).unwrap();
        assert_eq!(n1.heartbeats, 10);
        assert_eq!(n1.frames, 10);
        assert_eq!(n1.silent_ms, 0);
    }

    #[test]
    fn payload_frames_count_as_liveness_signals() {
        let mut t = tracker();
        t.record_frame(NodeId(2), false, 1_250);
        let view = t.view(1_300);
        assert_eq!(view.liveness(NodeId(2)), Some(PeerLiveness::Alive));
        let n2 = view.peers.iter().find(|p| p.node == NodeId(2)).unwrap();
        assert_eq!(n2.heartbeats, 0);
        assert_eq!(n2.frames, 1);
    }

    #[test]
    fn resumed_heartbeats_recover_a_suspect_peer() {
        let mut t = tracker();
        // Quiet into suspect territory, then a heartbeat arrives.
        assert_eq!(
            t.view(1_150).liveness(NodeId(1)),
            Some(PeerLiveness::Suspect)
        );
        t.record_frame(NodeId(1), true, 1_150);
        let view = t.view(1_160);
        assert_eq!(view.liveness(NodeId(1)), Some(PeerLiveness::Alive));
        let n1 = view.peers.iter().find(|p| p.node == NodeId(1)).unwrap();
        assert_eq!(n1.recoveries, 1);

        // A second lapse into suspect territory, then recovery again.
        t.record_frame(NodeId(1), true, 1_300);
        let n1 = t.view(1_310).peers[0].clone();
        assert_eq!(n1.recoveries, 2);
        assert_eq!(n1.liveness, PeerLiveness::Alive);
    }

    #[test]
    fn dead_peers_do_not_resurrect_on_resumed_frames() {
        let mut t = tracker();
        // Quiet long enough to be dead, then the old connection speaks up.
        assert_eq!(t.view(1_400).liveness(NodeId(1)), Some(PeerLiveness::Dead));
        t.record_frame(NodeId(1), true, 1_400);
        // The frame latches death instead of reviving the peer: whatever
        // that process believes predates its eviction.
        let view = t.view(1_410);
        assert_eq!(view.liveness(NodeId(1)), Some(PeerLiveness::Dead));
        let n1 = view.peers.iter().find(|p| p.node == NodeId(1)).unwrap();
        assert_eq!(n1.recoveries, 0);
        assert_eq!(n1.frames, 1);

        // Even a steady stream of fresh heartbeats stays latched out.
        for step in 1..=5u64 {
            t.record_frame(NodeId(1), true, 1_400 + step * 50);
        }
        assert_eq!(t.view(1_660).liveness(NodeId(1)), Some(PeerLiveness::Dead));
    }

    #[test]
    fn incarnation_fenced_rejoin_revives_a_dead_peer() {
        let mut t = tracker();
        // Suspect, then dead, latched by a resumed frame.
        assert_eq!(
            t.view(1_200).liveness(NodeId(1)),
            Some(PeerLiveness::Suspect)
        );
        t.record_frame(NodeId(1), false, 1_400);
        assert_eq!(t.view(1_400).liveness(NodeId(1)), Some(PeerLiveness::Dead));

        // A rejoin at the old incarnation is a ghost: refused, still dead.
        assert!(!t.record_rejoin(NodeId(1), 0, 1_450));
        assert_eq!(t.view(1_450).liveness(NodeId(1)), Some(PeerLiveness::Dead));

        // A rejoin with a strictly greater incarnation is a real restart.
        assert!(t.record_rejoin(NodeId(1), 1, 1_500));
        let view = t.view(1_510);
        assert_eq!(view.liveness(NodeId(1)), Some(PeerLiveness::Alive));
        let n1 = view.peers.iter().find(|p| p.node == NodeId(1)).unwrap();
        assert_eq!(n1.recoveries, 1);

        // Replaying the same rejoin after another death is refused again.
        assert_eq!(t.view(1_900).liveness(NodeId(1)), Some(PeerLiveness::Dead));
        assert!(!t.record_rejoin(NodeId(1), 1, 1_900));
        assert_eq!(t.view(1_900).liveness(NodeId(1)), Some(PeerLiveness::Dead));
        assert!(t.record_rejoin(NodeId(1), 2, 1_950));
        assert_eq!(t.view(1_960).liveness(NodeId(1)), Some(PeerLiveness::Alive));
    }

    #[test]
    fn rejoin_from_a_live_peer_is_an_ordinary_liveness_signal() {
        let mut t = tracker();
        // A reconnect while still alive (e.g. a dropped TCP connection
        // re-established quickly) needs no fence.
        assert!(t.record_rejoin(NodeId(2), 0, 1_050));
        let view = t.view(1_060);
        assert_eq!(view.liveness(NodeId(2)), Some(PeerLiveness::Alive));
        let n2 = view.peers.iter().find(|p| p.node == NodeId(2)).unwrap();
        assert_eq!(n2.recoveries, 0);
        assert_eq!(n2.frames, 1);
        // Unknown senders are refused outright.
        assert!(!t.record_rejoin(NodeId(9), 7, 1_070));
    }

    #[test]
    fn unknown_senders_are_ignored() {
        let mut t = tracker();
        t.record_frame(NodeId(9), true, 1_050);
        assert_eq!(t.view(1_050).peers.len(), 2);
        assert_eq!(t.view(1_050).liveness(NodeId(9)), None);
    }

    #[test]
    fn report_aggregates_views() {
        let t = tracker();
        let alive = MembershipReport {
            views: vec![t.view(1_000)],
        };
        assert!(alive.all_alive());
        let degraded = MembershipReport {
            views: vec![t.view(1_000), t.view(2_000)],
        };
        assert!(!degraded.all_alive());
    }

    #[test]
    fn liveness_labels_render() {
        assert_eq!(PeerLiveness::Alive.to_string(), "alive");
        assert_eq!(PeerLiveness::Suspect.to_string(), "suspect");
        assert_eq!(PeerLiveness::Dead.to_string(), "dead");
    }
}
