//! A small `--key value` argument parser (no external dependencies).

use std::collections::BTreeMap;
use std::fmt;

/// Argument-parsing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` had no following value.
    MissingValue(String),
    /// A positional (non-`--`) token appeared where none is accepted.
    UnexpectedPositional(String),
    /// The same flag appeared twice.
    Duplicate(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "flag --{k} is missing its value"),
            ArgError::UnexpectedPositional(t) => write!(f, "unexpected argument {t:?}"),
            ArgError::Duplicate(k) => write!(f, "flag --{k} given twice"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed `--key value` pairs, plus any positional operands the command
/// opted into.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses a raw token list; every token must be a `--key` followed by
    /// one value. Positionals are rejected — commands that take operands
    /// (e.g. `parma batch <dir>`) use [`Self::parse_with_positionals`].
    pub fn parse(raw: &[String]) -> Result<Self, ArgError> {
        Self::parse_inner(raw, false, &[])
    }

    /// Like [`Self::parse`], but bare (non-`--`) tokens are collected as
    /// positional operands, in order, instead of erroring.
    pub fn parse_with_positionals(raw: &[String]) -> Result<Self, ArgError> {
        Self::parse_inner(raw, true, &[])
    }

    /// Like [`Self::parse_with_positionals`], but flags named in
    /// `bool_flags` are value-less switches (`--resume`) recorded as
    /// `"true"` instead of consuming the next token.
    pub fn parse_with_switches(raw: &[String], bool_flags: &[&str]) -> Result<Self, ArgError> {
        Self::parse_inner(raw, true, bool_flags)
    }

    fn parse_inner(
        raw: &[String],
        allow_positionals: bool,
        bool_flags: &[&str],
    ) -> Result<Self, ArgError> {
        let mut values = BTreeMap::new();
        let mut positionals = Vec::new();
        let mut it = raw.iter();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                if allow_positionals {
                    positionals.push(tok.clone());
                    continue;
                }
                return Err(ArgError::UnexpectedPositional(tok.clone()));
            };
            let val = if bool_flags.contains(&key) {
                "true".to_string()
            } else {
                let Some(val) = it.next() else {
                    return Err(ArgError::MissingValue(key.to_string()));
                };
                val.clone()
            };
            if values.insert(key.to_string(), val).is_some() {
                return Err(ArgError::Duplicate(key.to_string()));
            }
        }
        Ok(Args {
            values,
            positionals,
        })
    }

    /// Whether a boolean switch (see [`Self::parse_with_switches`]) was
    /// given.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }

    /// All positional operands, in appearance order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The `i`-th positional operand.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// The first flag given (in name order) that is not in `known`.
    pub fn unknown_flag(&self, known: &[&str]) -> Option<&str> {
        self.values
            .keys()
            .map(String::as_str)
            .find(|key| !known.contains(key))
    }

    /// Raw string value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string value, with a command-appropriate error.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Typed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("flag --{key} has invalid value {s:?}")),
        }
    }

    /// Required typed value.
    pub fn require_as<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let s = self.require(key)?;
        s.parse()
            .map_err(|_| format!("flag --{key} has invalid value {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = parse(&["--n", "10", "--out", "x.txt"]).unwrap();
        assert_eq!(a.get("n"), Some("10"));
        assert_eq!(a.require("out").unwrap(), "x.txt");
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn typed_accessors() {
        let a = parse(&["--n", "10", "--tol", "1e-8"]).unwrap();
        assert_eq!(a.require_as::<usize>("n").unwrap(), 10);
        assert_eq!(a.get_or("tol", 0.0).unwrap(), 1e-8);
        assert_eq!(a.get_or("threads", 4usize).unwrap(), 4);
        assert!(a.require_as::<usize>("tol").is_err());
        assert!(a.require("nope").is_err());
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            parse(&["--n"]).unwrap_err(),
            ArgError::MissingValue("n".into())
        );
        assert_eq!(
            parse(&["stray"]).unwrap_err(),
            ArgError::UnexpectedPositional("stray".into())
        );
        assert_eq!(
            parse(&["--n", "1", "--n", "2"]).unwrap_err(),
            ArgError::Duplicate("n".into())
        );
    }

    #[test]
    fn empty_is_fine() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.get("anything"), None);
        assert!(a.positionals().is_empty());
    }

    #[test]
    fn boolean_switches_take_no_value() {
        let raw: Vec<String> = ["dir", "--resume", "--threads", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse_with_switches(&raw, &["resume"]).unwrap();
        assert!(a.flag("resume"));
        assert!(!a.flag("threads-nope"));
        assert_eq!(a.get_or("threads", 0usize).unwrap(), 4);
        assert_eq!(a.positionals(), ["dir"]);
        // A trailing switch needs no value either.
        let raw: Vec<String> = ["dir", "--resume"].iter().map(|s| s.to_string()).collect();
        assert!(Args::parse_with_switches(&raw, &["resume"])
            .unwrap()
            .flag("resume"));
    }

    #[test]
    fn positionals_collected_when_opted_in() {
        let raw: Vec<String> = ["data-dir", "--threads", "4", "extra"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse_with_positionals(&raw).unwrap();
        assert_eq!(a.positionals(), ["data-dir", "extra"]);
        assert_eq!(a.positional(0), Some("data-dir"));
        assert_eq!(a.positional(2), None);
        assert_eq!(a.get_or("threads", 0usize).unwrap(), 4);
        // A token after a flag is its value, never a positional.
        let raw: Vec<String> = ["--out", "file.txt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse_with_positionals(&raw).unwrap();
        assert!(a.positionals().is_empty());
        assert_eq!(a.get("out"), Some("file.txt"));
        // Flag errors still surface in positional mode.
        let raw: Vec<String> = ["dir", "--n"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            Args::parse_with_positionals(&raw).unwrap_err(),
            ArgError::MissingValue("n".into())
        );
    }
}
