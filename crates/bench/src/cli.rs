//! Minimal `--key value` argument parsing for the experiment binaries
//! (no external CLI crate needed).

use netalign_matching::{MatcherKind, RoundingMatcher};
use std::collections::HashMap;

/// Parsed `--key value` flags.
#[derive(Clone, Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse the process arguments.
    ///
    /// # Panics
    /// Panics on a flag without a value or a stray positional argument.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut flags = HashMap::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --flag, got '{a}'"))
                .to_string();
            let val = it
                .next()
                .unwrap_or_else(|| panic!("flag --{key} needs a value"));
            flags.insert(key, val);
        }
        Self { flags }
    }

    /// Get a float flag with default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be a number"))
            })
            .unwrap_or(default)
    }

    /// Get an integer flag with default.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be an integer"))
            })
            .unwrap_or(default)
    }

    /// Get an optional u64 flag (`None` when absent).
    pub fn opt_u64(&self, key: &str) -> Option<u64> {
        self.flags.get(key).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{key} must be an integer"))
        })
    }

    /// Get a u64 flag with default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be an integer"))
            })
            .unwrap_or(default)
    }

    /// Get a comma-separated list of integers with default.
    pub fn usize_list(&self, key: &str, default: Vec<usize>) -> Vec<usize> {
        self.flags
            .get(key)
            .map(|v| {
                v.split(',')
                    .map(|x| {
                        x.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("--{key}: bad entry '{x}'"))
                    })
                    .collect()
            })
            .unwrap_or(default)
    }

    /// Get a string flag with default.
    pub fn string(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Get a boolean flag with default (`--flag true|false`).
    pub fn bool(&self, key: &str, default: bool) -> bool {
        self.flags
            .get(key)
            .map(|v| match v.as_str() {
                "true" | "1" | "yes" => true,
                "false" | "0" | "no" => false,
                other => panic!("--{key} must be true or false, got '{other}'"),
            })
            .unwrap_or(default)
    }
}

/// The matcher configuration the figure binaries share: which matcher
/// rounds the iterates, and whether the preallocated engine backs it.
#[derive(Clone, Copy, Debug)]
pub struct RoundingFlags {
    /// Legacy one-shot matcher kind (also used by the final rounding).
    pub matcher: MatcherKind,
    /// Engine selection for [`netalign_core::AlignConfig::rounding`].
    pub rounding: Option<RoundingMatcher>,
}

/// Parse the `--matcher {ld,suitor}` flag shared by `fig6`, `fig7` and
/// `headline`. Without `--matcher` the legacy queue-based parallel LD
/// path is kept.
pub fn rounding_flags(args: &Args) -> RoundingFlags {
    let name = args.string("matcher", "");
    let (matcher, rounding) = match name.as_str() {
        "" => (MatcherKind::ParallelLocalDominant, None),
        "ld" => (
            MatcherKind::ParallelLocalDominant,
            Some(RoundingMatcher::Ld),
        ),
        "suitor" => (MatcherKind::ParallelSuitor, Some(RoundingMatcher::Suitor)),
        other => panic!("--matcher must be 'ld' or 'suitor', got '{other}'"),
    };
    RoundingFlags { matcher, rounding }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_args(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn parses_typed_flags() {
        let a = args(&["--scale", "0.5", "--iters", "10", "--threads", "1,2,4"]);
        assert_eq!(a.f64("scale", 1.0), 0.5);
        assert_eq!(a.usize("iters", 3), 10);
        assert_eq!(a.usize_list("threads", vec![]), vec![1, 2, 4]);
    }

    #[test]
    fn defaults_apply_when_missing() {
        let a = args(&[]);
        assert_eq!(a.f64("scale", 0.25), 0.25);
        assert_eq!(a.string("matcher", "exact"), "exact");
        assert_eq!(a.u64("seed", 7), 7);
    }

    #[test]
    #[should_panic(expected = "needs a value")]
    fn missing_value_panics() {
        let _ = args(&["--scale"]);
    }

    #[test]
    #[should_panic(expected = "expected --flag")]
    fn positional_rejected() {
        let _ = args(&["positional"]);
    }

    #[test]
    fn bool_flags_parse() {
        let a = args(&["--compare", "true", "--other", "no"]);
        assert!(a.bool("compare", false));
        assert!(!a.bool("other", true));
        assert!(a.bool("missing", true));
    }

    #[test]
    #[should_panic(expected = "must be true or false")]
    fn bad_bool_panics() {
        let a = args(&["--compare", "maybe"]);
        let _ = a.bool("compare", false);
    }

    #[test]
    fn rounding_flags_default_is_legacy() {
        let rf = rounding_flags(&args(&[]));
        assert_eq!(rf.matcher, MatcherKind::ParallelLocalDominant);
        assert_eq!(rf.rounding, None);
    }

    #[test]
    fn rounding_flags_select_engines() {
        let rf = rounding_flags(&args(&["--matcher", "suitor"]));
        assert_eq!(rf.matcher, MatcherKind::ParallelSuitor);
        assert_eq!(rf.rounding, Some(RoundingMatcher::Suitor));

        let rf = rounding_flags(&args(&["--matcher", "ld"]));
        assert_eq!(rf.matcher, MatcherKind::ParallelLocalDominant);
        assert_eq!(rf.rounding, Some(RoundingMatcher::Ld));
    }
}
