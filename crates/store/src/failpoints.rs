//! Fault injection for the durability test suite.
//!
//! A *failpoint* is a named site on a write path (see [`SITES`]) where a
//! test can arm one [`Action`]: simulate a power cut, tear a write short,
//! or flip a bit. Crash-style actions trip a global *power-cut* switch —
//! every subsequent write or sync through this crate fails until
//! `reset` (exported with the feature) — so nothing (not even the
//! buffer pool's flush-on-`Drop`)
//! can "un-crash" the store by flushing after the injected failure. The
//! recovery suite then reopens the directory and asserts the replayed
//! state is a consistent prefix of the committed history.
//!
//! The whole module compiles to inert no-ops unless the `failpoints`
//! cargo feature is on, so production builds carry zero overhead and
//! cannot be armed.

/// What an armed failpoint does when its site is hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fail this write and trip the power-cut switch.
    Crash,
    /// Write only the first `keep` bytes of the buffer (clamped to its
    /// length), then trip the power-cut switch and fail.
    Torn { keep: usize },
    /// Flip one bit at byte `offset` (mod buffer length) of the buffer
    /// being written. The write *succeeds* — this models silent media
    /// corruption, which checksums must catch on read.
    FlipBit { offset: usize },
}

/// Every named injection site, for matrix tests that iterate all of them.
pub const SITES: &[&str] = &[
    "wal::append",
    "wal::sync",
    "wal::checkpoint",
    "disk::write_page",
    "disk::sync",
    "manifest::save",
];

#[cfg(feature = "failpoints")]
mod armed {
    use super::Action;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    static POWER_CUT: AtomicBool = AtomicBool::new(false);
    #[allow(clippy::type_complexity)]
    static ARMED: Mutex<Option<(String, Action, usize)>> = Mutex::new(None);

    /// Arm `action` to fire the next time `site` is hit.
    pub fn arm(site: &str, action: Action) {
        arm_nth(site, action, 0);
    }

    /// Arm `action` to fire on the `skip`-th subsequent hit of `site`
    /// (0 = next hit). Earlier hits pass through untouched.
    pub fn arm_nth(site: &str, action: Action, skip: usize) {
        *ARMED.lock().unwrap_or_else(|e| e.into_inner()) = Some((site.to_string(), action, skip));
    }

    /// Disarm everything and clear the power-cut switch.
    pub fn reset() {
        *ARMED.lock().unwrap_or_else(|e| e.into_inner()) = None;
        POWER_CUT.store(false, Ordering::SeqCst);
    }

    /// Is an action armed and not yet fired?
    pub fn is_armed() -> bool {
        ARMED.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }

    /// Has a crash-style action tripped the power-cut switch?
    pub fn power_cut() -> bool {
        POWER_CUT.load(Ordering::SeqCst)
    }

    /// Trip the power-cut switch directly (crash-style actions do this).
    pub fn trip_power_cut() {
        POWER_CUT.store(true, Ordering::SeqCst);
    }

    /// Called by write paths: the armed action for `site`, if it fires
    /// on this hit. Firing consumes the arming (one-shot).
    pub fn hit(site: &str) -> Option<Action> {
        let mut armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
        match armed.as_mut() {
            Some((s, action, skip)) if s == site => {
                if *skip > 0 {
                    *skip -= 1;
                    None
                } else {
                    let action = *action;
                    *armed = None;
                    Some(action)
                }
            }
            _ => None,
        }
    }
}

#[cfg(feature = "failpoints")]
pub use armed::{arm, arm_nth, hit, is_armed, power_cut, reset, trip_power_cut};

#[cfg(not(feature = "failpoints"))]
mod inert {
    use super::Action;

    /// Inert: never armed without the `failpoints` feature.
    #[inline(always)]
    pub fn hit(_site: &str) -> Option<Action> {
        None
    }

    /// Inert: the power never cuts without the `failpoints` feature.
    #[inline(always)]
    pub fn power_cut() -> bool {
        false
    }
}

#[cfg(not(feature = "failpoints"))]
pub use inert::{hit, power_cut};

/// The error every write path returns once the power-cut switch is
/// tripped or a crash-style action fires.
pub(crate) fn power_cut_error() -> crate::error::StoreError {
    crate::error::StoreError::Io(std::io::Error::other("failpoint: simulated power cut"))
}
