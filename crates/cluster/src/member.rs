//! Cluster membership: the coordinator's view of the agent fleet.
//!
//! A deliberately simple heartbeat-driven failure detector (no gossip, no
//! quorum — one coordinator is the membership authority, the same shape as
//! OLTP-Bench's one-driver-per-node deployments):
//!
//! ```text
//!           first heartbeat            heartbeat
//!   (new) ───────────────────▶ Joined ◀───────────── Suspect
//!                                │   missed > 1 interval │
//!                                └───────────────────────┘
//!                                        │ missed > 2 intervals
//!                                        ▼
//!                                      Dead ── heartbeat ──▶ Joined (rejoin)
//! ```
//!
//! All transitions are computed against caller-supplied timestamps so the
//! state machine is deterministic under test; the coordinator feeds it the
//! time of its injected clock.

use std::net::SocketAddr;

use bp_core::WindowSnapshot;

/// Failure-detector state of one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Heartbeating within one interval.
    Joined,
    /// Missed more than one heartbeat interval; still counted live (its
    /// share of the global rate is retained) pending recovery or death.
    Suspect,
    /// Missed more than two intervals; excluded from rate splits and
    /// fan-out until it heartbeats again.
    Dead,
}

impl NodeState {
    pub fn name(&self) -> &'static str {
        match self {
            NodeState::Joined => "joined",
            NodeState::Suspect => "suspect",
            NodeState::Dead => "dead",
        }
    }
}

/// One agent as the coordinator sees it.
#[derive(Debug, Clone)]
pub struct Member {
    pub id: String,
    /// The agent's control API address (its own `ApiServer` over HTTP).
    pub addr: SocketAddr,
    pub state: NodeState,
    /// Coordinator-clock timestamp of the last heartbeat.
    pub last_seen_us: u64,
    /// This node's share of the global rate (tx/s).
    pub assigned_rate: f64,
    /// Capacity estimate: EMA of reported window throughput. Zero until
    /// the first heartbeat carries completions.
    pub weight: f64,
    /// The window the node's last heartbeat reported.
    pub window: WindowSnapshot,
    /// Trace id of the slowest recently retained span on that node (0 when
    /// the agent has no span recorder or nothing retained yet). Lets
    /// straggler findings cite a concrete exemplar request.
    pub slow_trace: u64,
    pub heartbeats: u64,
}

/// EMA smoothing for the capacity weight: heavy enough on history to ride
/// out one noisy window, light enough to track a real capacity shift in a
/// few heartbeats.
const WEIGHT_EMA_ALPHA: f64 = 0.3;

/// Outcome of [`MembershipTable::heartbeat`] — tells the coordinator
/// which journal event to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// First time this node id was seen.
    New,
    /// Already joined; heartbeat refreshed it.
    Refreshed,
    /// Was suspect or dead; back in the live set (rates must re-split).
    Rejoined,
}

/// The coordinator's membership table plus the rate-split policy.
#[derive(Debug)]
pub struct MembershipTable {
    members: Vec<Member>,
    /// Expected heartbeat period; suspect after >1, dead after >2.
    pub heartbeat_interval_us: u64,
}

impl MembershipTable {
    pub fn new(heartbeat_interval_us: u64) -> MembershipTable {
        MembershipTable { members: Vec::new(), heartbeat_interval_us: heartbeat_interval_us.max(1) }
    }

    /// Record a heartbeat — the only message an agent sends. The first one
    /// from an unknown id admits the node; every one refreshes its address
    /// (an agent restarted on a new port is found there), its window and
    /// slowest trace, and its capacity weight, the EMA of the reported
    /// window throughput. Members stay sorted by id so status output and
    /// splits are deterministic.
    pub fn heartbeat(
        &mut self,
        id: &str,
        addr: SocketAddr,
        window: WindowSnapshot,
        slow_trace: u64,
        now_us: u64,
    ) -> Admission {
        let admission = match self.members.iter_mut().find(|m| m.id == id) {
            Some(m) if m.state == NodeState::Joined => Admission::Refreshed,
            Some(_) => Admission::Rejoined,
            None => {
                self.members.push(Member {
                    id: id.to_string(),
                    addr,
                    state: NodeState::Joined,
                    last_seen_us: now_us,
                    assigned_rate: 0.0,
                    weight: 0.0,
                    window: WindowSnapshot::default(),
                    slow_trace: 0,
                    heartbeats: 0,
                });
                self.members.sort_by(|a, b| a.id.cmp(&b.id));
                Admission::New
            }
        };
        let m = self.members.iter_mut().find(|m| m.id == id).unwrap();
        m.addr = addr;
        m.state = NodeState::Joined;
        m.last_seen_us = now_us;
        m.heartbeats += 1;
        m.window = window;
        m.slow_trace = slow_trace;
        if window.count > 0 {
            m.weight = if m.weight == 0.0 {
                window.throughput
            } else {
                m.weight * (1.0 - WEIGHT_EMA_ALPHA) + window.throughput * WEIGHT_EMA_ALPHA
            };
        }
        admission
    }

    /// Advance the failure detector to `now_us`. Returns the transitions
    /// taken this sweep as `(node id, new state)` pairs, in id order.
    pub fn sweep(&mut self, now_us: u64) -> Vec<(String, NodeState)> {
        let interval = self.heartbeat_interval_us;
        let mut transitions = Vec::new();
        for m in &mut self.members {
            let silent = now_us.saturating_sub(m.last_seen_us);
            let next = if silent >= 2 * interval {
                NodeState::Dead
            } else if silent > interval {
                NodeState::Suspect
            } else {
                NodeState::Joined
            };
            // Only decay here; promotion back to Joined happens on heartbeat.
            if next != m.state && next != NodeState::Joined {
                m.state = next;
                transitions.push((m.id.clone(), next));
            }
        }
        transitions
    }

    /// Members not declared dead (suspects keep their traffic share — a
    /// single delayed heartbeat should not trigger a thundering re-split).
    pub fn live(&self) -> Vec<&Member> {
        self.members.iter().filter(|m| m.state != NodeState::Dead).collect()
    }

    pub fn members(&self) -> &[Member] {
        &self.members
    }

    pub fn get(&self, id: &str) -> Option<&Member> {
        self.members.iter().find(|m| m.id == id)
    }

    /// Count per state, in (joined, suspect, dead) order.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for m in &self.members {
            match m.state {
                NodeState::Joined => c.0 += 1,
                NodeState::Suspect => c.1 += 1,
                NodeState::Dead => c.2 += 1,
            }
        }
        c
    }

    /// Split `global_rate` across live members, weighted by observed
    /// capacity. A node with no throughput history yet counts at the mean
    /// weight of the weighted ones — all-equal at startup, and a node that
    /// joins an experienced fleet gets an average share, not 0 (with 0 it
    /// would complete nothing and its weight would never grow).
    ///
    /// Returns `(id, rate)` pairs in id order and stores each share on the
    /// member. Dead nodes keep their stale `assigned_rate` for forensics
    /// but receive nothing.
    pub fn split_rate(&mut self, global_rate: f64) -> Vec<(String, f64)> {
        let weighted: Vec<f64> =
            self.live().iter().map(|m| m.weight).filter(|w| *w > 0.0).collect();
        let fresh = match weighted.len() {
            0 => 1.0,
            n => weighted.iter().sum::<f64>() / n as f64,
        };
        let weight = |m: &Member| if m.weight > 0.0 { m.weight } else { fresh };
        let total: f64 = self.live().into_iter().map(weight).sum();
        let mut out = Vec::new();
        for m in self.members.iter_mut().filter(|m| m.state != NodeState::Dead) {
            m.assigned_rate = global_rate * weight(m) / total;
            out.push((m.id.clone(), m.assigned_rate));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    const HB: u64 = 100_000; // 100ms heartbeat interval

    fn beat(t: &mut MembershipTable, id: &str, port: u16, now_us: u64) -> Admission {
        t.heartbeat(id, addr(port), WindowSnapshot::default(), 0, now_us)
    }

    #[test]
    fn join_heartbeat_suspect_dead_rejoin() {
        let mut t = MembershipTable::new(HB);
        assert_eq!(beat(&mut t, "a", 1, 0), Admission::New);
        assert_eq!(beat(&mut t, "a", 1, 10), Admission::Refreshed);

        // Within one interval: still joined.
        assert!(t.sweep(HB).is_empty());
        assert_eq!(t.get("a").unwrap().state, NodeState::Joined);

        // >1 interval silent: suspect. Still in the live set.
        let tr = t.sweep(10 + HB + 1);
        assert_eq!(tr, vec![("a".to_string(), NodeState::Suspect)]);
        assert_eq!(t.live().len(), 1);

        // >=2 intervals silent: dead, and out of the live set.
        let tr = t.sweep(10 + 2 * HB);
        assert_eq!(tr, vec![("a".to_string(), NodeState::Dead)]);
        assert!(t.live().is_empty());

        // A heartbeat revives it.
        let adm = beat(&mut t, "a", 1, 3 * HB);
        assert_eq!(adm, Admission::Rejoined);
        assert_eq!(t.get("a").unwrap().state, NodeState::Joined);
        assert_eq!(t.counts(), (1, 0, 0));
    }

    #[test]
    fn sweep_reports_each_transition_once() {
        let mut t = MembershipTable::new(HB);
        beat(&mut t, "a", 1, 0);
        assert_eq!(t.sweep(HB + 1).len(), 1);
        // Same state next sweep: no repeated transition.
        assert!(t.sweep(HB + 2).is_empty());
        assert_eq!(t.sweep(2 * HB).len(), 1);
        assert!(t.sweep(3 * HB).is_empty());
    }

    #[test]
    fn first_heartbeat_admits_the_node_at_its_address() {
        let mut t = MembershipTable::new(HB);
        assert_eq!(beat(&mut t, "ghost", 7, 5), Admission::New);
        let m = t.get("ghost").unwrap();
        assert_eq!((m.addr, m.heartbeats, m.state), (addr(7), 1, NodeState::Joined));
        // A restarted agent beats from a new port: the table follows it.
        assert_eq!(beat(&mut t, "ghost", 8, 6), Admission::Refreshed);
        assert_eq!(t.get("ghost").unwrap().addr, addr(8));
    }

    #[test]
    fn equal_split_without_capacity_history() {
        let mut t = MembershipTable::new(HB);
        beat(&mut t, "a", 1, 0);
        beat(&mut t, "b", 2, 0);
        beat(&mut t, "c", 3, 0);
        let split = t.split_rate(3_000.0);
        assert_eq!(split.len(), 3);
        for (_, r) in &split {
            assert!((r - 1_000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capacity_weighted_split_tracks_observed_throughput() {
        let mut t = MembershipTable::new(HB);
        beat(&mut t, "a", 1, 0);
        beat(&mut t, "b", 2, 0);
        // a reports 3x the throughput of b.
        let wa = WindowSnapshot { count: 300, p50_us: 500, p99_us: 2_000, throughput: 300.0 };
        let wb = WindowSnapshot { count: 100, p50_us: 900, p99_us: 9_000, throughput: 100.0 };
        t.heartbeat("a", addr(1), wa, 0, 10);
        t.heartbeat("b", addr(2), wb, 0, 10);
        let split: Vec<f64> = t.split_rate(1_000.0).into_iter().map(|(_, r)| r).collect();
        assert!((split[0] - 750.0).abs() < 1e-6, "{split:?}");
        assert!((split[1] - 250.0).abs() < 1e-6, "{split:?}");
        assert!((split.iter().sum::<f64>() - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn dead_nodes_get_no_share() {
        let mut t = MembershipTable::new(HB);
        beat(&mut t, "a", 1, 0);
        beat(&mut t, "b", 2, 0);
        t.sweep(5 * HB); // both dead
        beat(&mut t, "a", 1, 5 * HB);
        let split = t.split_rate(500.0);
        assert_eq!(split, vec![("a".to_string(), 500.0)]);
        assert_eq!(t.get("b").unwrap().state, NodeState::Dead);
    }

    #[test]
    fn weight_ema_smooths_noise() {
        let mut t = MembershipTable::new(HB);
        beat(&mut t, "a", 1, 0);
        let w = |tp: f64| WindowSnapshot { count: 10, p50_us: 1, p99_us: 1, throughput: tp };
        t.heartbeat("a", addr(1), w(100.0), 0, 1);
        assert_eq!(t.get("a").unwrap().weight, 100.0);
        t.heartbeat("a", addr(1), w(200.0), 0, 2);
        let after = t.get("a").unwrap().weight;
        assert!(after > 100.0 && after < 200.0, "{after}");
        // Empty windows don't poison the estimate.
        beat(&mut t, "a", 1, 3);
        assert_eq!(t.get("a").unwrap().weight, after);
    }

    /// A node joining an experienced fleet counts at the mean weight of the
    /// others: weights 100 and 300 make a newcomer 200, so the shares are
    /// 1/6, 3/6 and 2/6 — not 1/4, 3/4 and a 0 that would never grow.
    #[test]
    fn a_node_joining_an_experienced_fleet_gets_the_mean_share() {
        let mut t = MembershipTable::new(HB);
        let w = |tp: f64| WindowSnapshot { count: 10, throughput: tp, ..WindowSnapshot::default() };
        t.heartbeat("a", addr(1), w(100.0), 0, 0);
        t.heartbeat("b", addr(2), w(300.0), 0, 0);
        beat(&mut t, "c", 3, 0);
        let split: Vec<f64> = t.split_rate(600.0).into_iter().map(|(_, r)| r).collect();
        assert_eq!(split.len(), 3);
        for (got, sixths) in split.iter().zip([1.0, 3.0, 2.0]) {
            assert!((got - 600.0 * sixths / 6.0).abs() < 1e-9, "{split:?}");
        }
    }
}
