//! Leveled structured logging with a lock-free disabled fast path.
//!
//! A log call compiles to one relaxed `AtomicU8` load and a branch when
//! its level is filtered out — cheap enough to leave `debug!`/`trace!`
//! calls on hot paths. Enabled calls take a mutex on the (rarely
//! reconfigured) filter config, format one line and write it to stderr
//! — the one place a log event goes; ship stderr to keep it.
//!
//! Output is one line per event: a human-readable text form by default,
//! or a JSON object per line (`--log-json` in `bgp-served`). Targets
//! are short static subsystem names (`"serve"`, `"stream"`,
//! `"archive"`, `"http"`); per-target level overrides are
//! parsed from specs like `info,stream=debug`.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The daemon cannot do what was asked of it.
    Error = 1,
    /// Something is degraded but the daemon carries on.
    Warn = 2,
    /// Lifecycle and progress events (the default level).
    Info = 3,
    /// Per-epoch / per-batch diagnostics.
    Debug = 4,
    /// Per-event firehose.
    Trace = 5,
}

impl Level {
    /// Stable lowercase name.
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parse a level name (`"off"` parses as `None`).
    pub fn parse(s: &str) -> Result<Option<Level>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Ok(None),
            "error" => Ok(Some(Level::Error)),
            "warn" | "warning" => Ok(Some(Level::Warn)),
            "info" => Ok(Some(Level::Info)),
            "debug" => Ok(Some(Level::Debug)),
            "trace" => Ok(Some(Level::Trace)),
            other => Err(format!(
                "unknown log level {other:?} (want error|warn|info|debug|trace|off)"
            )),
        }
    }
}

/// The logger's filter and output configuration.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Maximum level emitted for targets without an override
    /// (`None` = everything off by default).
    pub default: Option<Level>,
    /// Per-target overrides, e.g. `("stream", Debug)`.
    pub targets: Vec<(String, Option<Level>)>,
    /// Emit one JSON object per line instead of the text form.
    pub json: bool,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            default: Some(Level::Info),
            targets: Vec::new(),
            json: false,
        }
    }
}

impl LogConfig {
    /// Parse a spec like `info`, `debug,http=warn`, or
    /// `info,stream=trace,archive=off`.
    pub fn parse(spec: &str) -> Result<LogConfig, String> {
        let mut cfg = LogConfig {
            default: Some(Level::Info),
            targets: Vec::new(),
            json: false,
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                Some((target, level)) => {
                    let target = target.trim();
                    if target.is_empty() {
                        return Err(format!("empty target in log spec part {part:?}"));
                    }
                    cfg.targets.push((target.to_string(), Level::parse(level)?));
                }
                None => cfg.default = Level::parse(part)?,
            }
        }
        Ok(cfg)
    }

    /// The most verbose level any target can emit at — the fast-path gate.
    fn max_level(&self) -> u8 {
        let base = self.default.map(|l| l as u8).unwrap_or(0);
        self.targets
            .iter()
            .filter_map(|(_, l)| l.map(|l| l as u8))
            .fold(base, u8::max)
    }

    /// Effective level for `target`.
    fn level_for(&self, target: &str) -> Option<Level> {
        for (t, l) in &self.targets {
            if t == target {
                return *l;
            }
        }
        self.default
    }
}

/// Gate for the disabled fast path: the most verbose enabled level.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
/// Full filter config; `None` means [`LogConfig::default`].
static CONFIG: Mutex<Option<LogConfig>> = Mutex::new(None);

/// Install a logger configuration (replaces any previous one).
pub fn init(config: LogConfig) {
    MAX_LEVEL.store(config.max_level(), Ordering::Relaxed);
    *CONFIG.lock().expect("log config lock") = Some(config);
}

/// Whether a `level` event for `target` would be emitted. The common
/// disabled case is one relaxed atomic load and a compare.
#[inline]
pub fn enabled(level: Level, target: &str) -> bool {
    if level as u8 > MAX_LEVEL.load(Ordering::Relaxed) {
        return false;
    }
    let guard = CONFIG.lock().expect("log config lock");
    let effective = match guard.as_ref() {
        Some(cfg) => cfg.level_for(target),
        None => Some(Level::Info),
    };
    effective.is_some_and(|max| level <= max)
}

/// Append `s` to `out` with JSON string escaping.
pub fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Render one log line (without trailing newline). Pure, for tests.
pub fn format_line(json: bool, level: Level, target: &str, msg: &str, unix_nanos: u64) -> String {
    let secs = unix_nanos / 1_000_000_000;
    let millis = (unix_nanos % 1_000_000_000) / 1_000_000;
    if json {
        let mut out = String::with_capacity(msg.len() + 64);
        out.push_str("{\"ts_unix_nanos\":");
        out.push_str(&unix_nanos.to_string());
        out.push_str(",\"level\":\"");
        out.push_str(level.label());
        out.push_str("\",\"target\":\"");
        escape_json_into(&mut out, target);
        out.push_str("\",\"msg\":\"");
        escape_json_into(&mut out, msg);
        out.push_str("\"}");
        out
    } else {
        format!(
            "[{secs}.{millis:03}] {:5} {target}: {msg}",
            level.label().to_ascii_uppercase()
        )
    }
}

/// Format and write one log event. Call through the [`log!`](crate::log)
/// macros, which check [`enabled`] first.
pub fn emit(level: Level, target: &'static str, args: std::fmt::Arguments<'_>) {
    let msg = args.to_string();
    let unix_nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let json = CONFIG
        .lock()
        .expect("log config lock")
        .as_ref()
        .map(|c| c.json)
        .unwrap_or(false);
    let line = format_line(json, level, target, &msg, unix_nanos);
    let _ = writeln!(std::io::stderr().lock(), "{line}");
}

/// Log at an explicit level: `obs::log!(obs::Level::Info, "serve", "up in {ms} ms")`.
#[macro_export]
macro_rules! log {
    ($lvl:expr, $target:expr, $($arg:tt)+) => {{
        let lvl = $lvl;
        if $crate::logger::enabled(lvl, $target) {
            $crate::logger::emit(lvl, $target, format_args!($($arg)+));
        }
    }};
}

/// Log at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => { $crate::log!($crate::Level::Error, $target, $($arg)+) };
}

/// Log at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => { $crate::log!($crate::Level::Warn, $target, $($arg)+) };
}

/// Log at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => { $crate::log!($crate::Level::Info, $target, $($arg)+) };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => { $crate::log!($crate::Level::Debug, $target, $($arg)+) };
}

/// Log at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)+) => { $crate::log!($crate::Level::Trace, $target, $($arg)+) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_specs() {
        let cfg = LogConfig::parse("info").unwrap();
        assert_eq!(cfg.default, Some(Level::Info));
        assert!(cfg.targets.is_empty());

        let cfg = LogConfig::parse("debug,http=warn,archive=off").unwrap();
        assert_eq!(cfg.default, Some(Level::Debug));
        assert_eq!(cfg.level_for("http"), Some(Level::Warn));
        assert_eq!(cfg.level_for("archive"), None);
        assert_eq!(cfg.level_for("stream"), Some(Level::Debug));
        assert_eq!(cfg.max_level(), Level::Debug as u8);

        let cfg = LogConfig::parse("off,stream=trace").unwrap();
        assert_eq!(cfg.default, None);
        assert_eq!(cfg.max_level(), Level::Trace as u8);

        assert!(LogConfig::parse("verbose").is_err());
        assert!(LogConfig::parse("=debug").is_err());
    }

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Debug < Level::Trace);
        assert_eq!(Level::parse("WARN").unwrap(), Some(Level::Warn));
        assert_eq!(Level::parse("off").unwrap(), None);
    }

    #[test]
    fn text_and_json_lines() {
        let ts = 1_700_000_000_123_456_789u64;
        let text = format_line(false, Level::Warn, "serve", "slow seal", ts);
        assert_eq!(text, "[1700000000.123] WARN  serve: slow seal");
        let json = format_line(true, Level::Info, "http", "got \"q\"\n", ts);
        assert_eq!(
            json,
            "{\"ts_unix_nanos\":1700000000123456789,\"level\":\"info\",\
             \"target\":\"http\",\"msg\":\"got \\\"q\\\"\\n\"}"
        );
    }

    #[test]
    fn json_escaping_handles_control_chars() {
        let mut out = String::new();
        escape_json_into(&mut out, "a\u{1}b\\c\td");
        assert_eq!(out, "a\\u0001b\\\\c\\td");
    }
}
