//! Shared parsing for the workspace's environment knobs.
//!
//! Every audited `env::var` entry point (`QUCAD_THREADS`,
//! `QUCAD_TRAJ_BATCH`, `QUCAD_FORCE_SCALAR`, the `QUCAD_SERVE_*` family)
//! resolves its raw value through these pure helpers, so all knobs share
//! one contract: a *set* variable must parse. Garbage, empty,
//! whitespace-only, and out-of-range values fail fast with one uniform
//! message instead of being silently ignored — a typo in a CI matrix or a
//! deployment manifest must not demote a knob to its default.
//!
//! The helpers take the raw string, not the variable name to read: they
//! stay side-effect-free so the panic contract is testable without racing
//! on process-global environment state, and so each call site keeps its
//! own audited env-read lint annotation.

/// Parses a positive (non-zero) integer knob.
///
/// # Panics
///
/// Panics unless `raw` trims to a positive integer — `0`, garbage, empty,
/// and whitespace-only values all fail with the knob's name in the
/// message.
pub fn parse_positive(name: &str, raw: &str) -> usize {
    raw.trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| panic!("{name} must be a positive integer, got '{raw}'"))
}

/// Parses a TCP port knob. `0` is accepted: it asks the OS for an
/// ephemeral port (the serve CI leg binds that way).
///
/// # Panics
///
/// Panics unless `raw` trims to an integer in `0..=65535`.
pub fn parse_port(name: &str, raw: &str) -> u16 {
    raw.trim()
        .parse::<u16>()
        .unwrap_or_else(|_| panic!("{name} must be a port number (0-65535), got '{raw}'"))
}

/// Parses an on/off flag knob: `1` is on, `0` is off.
///
/// # Panics
///
/// Panics unless `raw` trims to exactly `0` or `1` — `true`/`false`,
/// empty, and whitespace-only values all fail with the knob's name in the
/// message.
pub fn parse_flag(name: &str, raw: &str) -> bool {
    match raw.trim() {
        "0" => false,
        "1" => true,
        _ => panic!("{name} must be 0 or 1, got '{raw}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_accepts_trimmed_integers() {
        assert_eq!(parse_positive("K", "3"), 3);
        assert_eq!(parse_positive("K", " 17 "), 17);
        assert_eq!(parse_positive("K", "1"), 1);
    }

    #[test]
    #[should_panic(expected = "QUCAD_THREADS must be a positive integer, got '0'")]
    fn positive_rejects_zero() {
        parse_positive("QUCAD_THREADS", "0");
    }

    #[test]
    #[should_panic(expected = "QUCAD_THREADS must be a positive integer, got 'four'")]
    fn positive_rejects_garbage() {
        parse_positive("QUCAD_THREADS", "four");
    }

    #[test]
    #[should_panic(expected = "QUCAD_THREADS must be a positive integer, got '  '")]
    fn positive_rejects_whitespace_only() {
        parse_positive("QUCAD_THREADS", "  ");
    }

    #[test]
    #[should_panic(expected = "must be a positive integer, got '-2'")]
    fn positive_rejects_negatives() {
        parse_positive("QUCAD_SERVE_MAX_BATCH", "-2");
    }

    #[test]
    fn port_accepts_full_range_and_zero() {
        assert_eq!(parse_port("QUCAD_SERVE_PORT", "0"), 0);
        assert_eq!(parse_port("QUCAD_SERVE_PORT", " 9107 "), 9107);
        assert_eq!(parse_port("QUCAD_SERVE_PORT", "65535"), 65535);
    }

    #[test]
    #[should_panic(expected = "QUCAD_SERVE_PORT must be a port number (0-65535), got '65536'")]
    fn port_rejects_out_of_range() {
        parse_port("QUCAD_SERVE_PORT", "65536");
    }

    #[test]
    #[should_panic(expected = "QUCAD_SERVE_PORT must be a port number (0-65535), got 'http'")]
    fn port_rejects_garbage() {
        parse_port("QUCAD_SERVE_PORT", "http");
    }

    #[test]
    fn flag_accepts_trimmed_zero_and_one() {
        assert!(!parse_flag("QUCAD_FORCE_SCALAR", "0"));
        assert!(parse_flag("QUCAD_FORCE_SCALAR", "1"));
        assert!(parse_flag("QUCAD_FORCE_SCALAR", " 1 "));
    }

    #[test]
    #[should_panic(expected = "QUCAD_FORCE_SCALAR must be 0 or 1, got 'false'")]
    fn flag_rejects_words() {
        parse_flag("QUCAD_FORCE_SCALAR", "false");
    }

    #[test]
    #[should_panic(expected = "QUCAD_FORCE_SCALAR must be 0 or 1, got ''")]
    fn flag_rejects_empty() {
        parse_flag("QUCAD_FORCE_SCALAR", "");
    }

    #[test]
    #[should_panic(expected = "QUCAD_FORCE_SCALAR must be 0 or 1, got '  '")]
    fn flag_rejects_whitespace_only() {
        parse_flag("QUCAD_FORCE_SCALAR", "  ");
    }
}
