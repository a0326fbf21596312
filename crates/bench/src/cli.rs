//! Minimal `--key value` argument parsing for the experiment binaries
//! (no external CLI crate needed).

use netalign_matching::MatcherKind;
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

    /// Get the `--matcher` flag, a [`MatcherKind::name`], with default.
    pub fn matcher(&self, default: MatcherKind) -> MatcherKind {
        match self.flags.get("matcher") {
            None => default,
            Some(name) => MatcherKind::from_name(name)
                .unwrap_or_else(|| panic!("--matcher must name a matcher kind, got '{name}'")),
        }
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
    fn matcher_flag_parses_kind_names() {
        assert_eq!(
            args(&[]).matcher(MatcherKind::ParallelLocalDominant),
            MatcherKind::ParallelLocalDominant
        );
        assert_eq!(
            args(&["--matcher", "greedy"]).matcher(MatcherKind::Exact),
            MatcherKind::Greedy
        );
    }

    #[test]
    #[should_panic(expected = "--matcher must name a matcher kind")]
    fn removed_matcher_shorthand_panics() {
        let _ = args(&["--matcher", "ld"]).matcher(MatcherKind::Exact);
    }
}
