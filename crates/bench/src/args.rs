//! Minimal `--flag value` argument parsing shared by the harness binaries
//! (kept dependency-free on purpose).

use std::collections::HashMap;

/// Parsed command-line flags.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse `std::env::args()` (skipping the binary name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse an explicit iterator (testable).
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut iter = args.peekable();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        out.values.insert(name.to_string(), iter.next().unwrap());
                    }
                    _ => out.flags.push(name.to_string()),
                }
            }
        }
        out
    }

    /// Value flag with default; a value that does not parse as `T` panics
    /// with a message naming the flag and the value.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.values.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{name}: cannot parse {v:?}")),
        }
    }

    /// Boolean flag presence.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name) || self.values.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn values_and_flags() {
        let a = parse("--scale 10 --explain --seed 7");
        assert_eq!(a.get("scale", 1usize), 10);
        assert_eq!(a.get("seed", 0u64), 7);
        assert!(a.has("explain"));
        assert!(!a.has("missing"));
        assert_eq!(a.get("missing", 3usize), 3);
    }

    #[test]
    #[should_panic(expected = "--tau: cannot parse \"abc\"")]
    fn malformed_value_panics_naming_flag_and_value() {
        parse("--tau abc").get("tau", 100usize);
    }

    #[test]
    fn float_values() {
        let a = parse("--size-factor 0.25");
        assert_eq!(a.get("size-factor", 1.0f64), 0.25);
    }
}
