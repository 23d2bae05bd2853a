//! The one grammar of the simulator's boolean environment flags
//! (`IFENCE_DENSE`, `IFENCE_TRACE`, `IFENCE_PROFILE`).

/// Parses a boolean flag value: `""`, `0`, `false` and `no` are off; `1`,
/// `true` and `yes` are on (ASCII case and surrounding whitespace ignored).
/// `None` means unrecognised: the caller warns and treats the flag as off,
/// so no spelling is honoured in one place and warned about in another.
pub fn parse_flag(raw: &str) -> Option<bool> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "false" | "no" => Some(false),
        "1" | "true" | "yes" => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_parse_to_on_off_or_unrecognised() {
        for off in ["", "0", "no"] {
            assert_eq!(parse_flag(off), Some(false), "{off:?}");
        }
        for on in ["1", "TRUE", " yes "] {
            assert_eq!(parse_flag(on), Some(true), "{on:?}");
        }
        assert_eq!(parse_flag("on"), None);
    }
}
