//! All-bank-only channel: the engine's all-bank timing model.
//!
//! Under pSyncPIM's lockstep execution every command a channel sees is an
//! all-bank broadcast, so all 16 banks move through *identical* state: the
//! per-bank `earliest` maximum collapses to a single representative bank,
//! and the per-bank-scope cursors (`last_col_group`, tRRD/tFAW windows)
//! are never consulted. [`AbChannel`] exploits that: one [`Bank`], the
//! channel-wide column cursor, and the 2-slot bus — the full
//! [`Channel`](crate::Channel) restricted to [`Scope::AllBanks`], checked
//! against it on random all-bank streams by the tests below. The full
//! channel remains the per-bank model.

use crate::bank::Bank;
use crate::channel::{CmdBus, IssueError, Issued, NEVER};
use crate::command::{CmdKind, Scope};
use crate::config::HbmConfig;
use crate::stats::ChannelStats;

/// A pseudo-channel that only ever issues all-bank broadcasts: one
/// representative bank stands in for all `nbanks` identical ones.
#[derive(Debug, Clone)]
pub struct AbChannel {
    timing: crate::config::Timing,
    nbanks: usize,
    bank: Bank,
    bus: CmdBus,
    last_col_any: i64,
    stats: ChannelStats,
}

impl AbChannel {
    /// A fresh all-bank channel for the given configuration.
    #[must_use]
    pub fn new(cfg: &HbmConfig) -> Self {
        AbChannel {
            timing: cfg.timing,
            nbanks: cfg.banks_per_channel(),
            bank: Bank::new(),
            bus: CmdBus::new(),
            last_col_any: NEVER,
            stats: ChannelStats::default(),
        }
    }

    /// Accumulated statistics (broadcasts count banks exactly like the
    /// full channel).
    #[must_use]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Issue `cmd` as an all-bank broadcast at the earliest legal cycle
    /// ≥ `from`.
    ///
    /// # Errors
    ///
    /// [`IssueError::IllegalState`] if the command cannot issue at all —
    /// same message the full channel produces, so engine error paths read
    /// the same in both execution modes.
    pub fn issue_earliest(&mut self, cmd: CmdKind, from: u64) -> Result<Issued, IssueError> {
        let t = &self.timing;
        let mut e = from as i64;

        e =
            e.max(self.bank.earliest(cmd, t).ok_or_else(|| {
                IssueError::IllegalState(format!("{cmd} with {}", Scope::AllBanks))
            })?);
        if matches!(cmd, CmdKind::Rd { .. } | CmdKind::Wr { .. }) {
            // Broadcast columns pace at tCCD_L (every group's datapath is
            // occupied), exactly as the full channel's AllBanks arm.
            e = e.max(self.last_col_any + t.t_ccd_l as i64);
        }

        let at = self.bus.free_from(e).max(0);

        self.bank.apply(cmd, at, t);
        if matches!(cmd, CmdKind::Rd { .. } | CmdKind::Wr { .. }) {
            self.last_col_any = at;
        }
        self.bus.take(at);
        self.stats.record(Scope::AllBanks, cmd, self.nbanks);
        Ok(Issued::at(cmd, at as u64, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;

    /// Drive the same pseudo-random all-bank command stream through the
    /// full channel and the representative-bank channel; every issue
    /// result and the final stats must agree exactly.
    #[test]
    fn matches_full_channel_on_random_allbank_streams() {
        let cfg = HbmConfig::default();
        for seed in 0..8u64 {
            let mut full = Channel::new(&cfg);
            let mut fast = AbChannel::new(&cfg);
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut from = 0u64;
            let mut open = false;
            for _ in 0..400 {
                let r = rng();
                let cmd = if open {
                    match r % 8 {
                        0 => CmdKind::Pre,
                        1..=5 => CmdKind::Rd {
                            col: (r / 8 % 64) as u32,
                        },
                        _ => CmdKind::Wr {
                            col: (r / 8 % 64) as u32,
                        },
                    }
                } else {
                    match r % 4 {
                        0 => CmdKind::Ref,
                        1 => CmdKind::Mrs,
                        _ => CmdKind::Act {
                            row: (r / 4 % 1024) as u32,
                        },
                    }
                };
                match cmd {
                    CmdKind::Act { .. } => open = true,
                    CmdKind::Pre => open = false,
                    _ => {}
                }
                let a = full.issue_earliest(Scope::AllBanks, cmd, from).unwrap();
                let b = fast.issue_earliest(cmd, from).unwrap();
                assert_eq!(a, b, "seed {seed}: {cmd:?} from {from}");
                // Exercise both from == issue and from behind the bus.
                from = if r % 3 == 0 { a.issue_cycle } else { 0 };
            }
            assert_eq!(full.stats(), fast.stats(), "seed {seed}");
        }
    }

    #[test]
    fn illegal_state_errors_match() {
        let cfg = HbmConfig::default();
        let mut full = Channel::new(&cfg);
        let mut fast = AbChannel::new(&cfg);
        let a = full
            .issue_earliest(Scope::AllBanks, CmdKind::Rd { col: 0 }, 0)
            .unwrap_err();
        let b = fast.issue_earliest(CmdKind::Rd { col: 0 }, 0).unwrap_err();
        assert_eq!(format!("{a}"), format!("{b}"));
    }
}
