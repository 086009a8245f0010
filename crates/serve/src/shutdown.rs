//! Graceful-shutdown flag: SIGINT/SIGTERM set an atomic the daemon's
//! main loop polls.
//!
//! The workspace is offline (no `signal-hook`, no `ctrlc`), so this
//! binds libc's `signal(2)` directly. The handler does the only thing
//! that is async-signal-safe here — a relaxed atomic store — and the
//! daemon does the actual work (stop ingest, flush the archive sink,
//! join) from its ordinary control flow.
//!
//! On non-Unix targets installation is a no-op and the flag stays clear.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// `SIGINT` (ctrl-c).
pub const SIGINT: i32 = 2;
/// `SIGTERM` (kill's default).
pub const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Install the SIGINT/SIGTERM handler. Idempotent; safe to call from
/// any thread before the daemon's main loop starts polling.
///
/// # Panics
///
/// If `signal(2)` refuses either handler: a daemon that cannot be told
/// to stop cleanly must not start.
pub fn install() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        /// `signal(2)`'s `SIG_ERR`: `(sighandler_t) -1`.
        const SIG_ERR: usize = usize::MAX;
        for (signum, name) in [(SIGINT, "SIGINT"), (SIGTERM, "SIGTERM")] {
            // SAFETY: `signal(2)` takes a signal number and a handler
            // address; `on_signal` is an `extern "C" fn(i32)` that lives for
            // the whole program and does only an atomic store, which is
            // async-signal-safe.
            let previous = unsafe { signal(signum, on_signal as *const () as usize) };
            if previous == SIG_ERR {
                panic!(
                    "installing the {name} handler failed: {}",
                    std::io::Error::last_os_error()
                );
            }
        }
    }
    #[cfg(not(unix))]
    {
        let _ = on_signal as extern "C" fn(i32); // keep the handler referenced
    }
}

/// Whether a shutdown signal has been received.
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }
}
