//! The one string-keyed registry behind the workspace's runtime seams.
//!
//! Policies, predictors, backends, workload generators, obs sinks and
//! plan stores are each chosen by a spec string `name[:params]`. Each
//! seam is a static [`Registry`] mapping names to builders, with
//! runtime registration.
//! `skp-plan --list` and `GET /registry` print the same [`Spec`] rows
//! the lookup reads, so the listings and the parser cannot drift.
//!
//! The spec grammar is shared too:
//!
//! - [`split_spec`] is the one name rule: the name is the text before
//!   the first `:`, trimmed; the parameter part is the rest, verbatim.
//! - The field parsers ([`parse_positive`], [`parse_topology`],
//!   [`reject_trailing`], [`no_params`]) trim numeric fields and answer
//!   malformed input with a [`SpecError`] that names the field and
//!   points at the listing ([`param_err`]).
//!
//! ```
//! use skp_registry::{no_params, Registry, Spec, SpecError};
//!
//! type Build = fn(Option<&str>) -> Result<u32, SpecError>;
//!
//! fn build_one(param: Option<&str>) -> Result<u32, SpecError> {
//!     no_params("one spec", param)?;
//!     Ok(1)
//! }
//!
//! static NUMBERS: Registry<Build> = Registry::new(
//!     "number",
//!     "number spec",
//!     &[(Spec { name: "one", params: "", summary: "the number one" }, build_one)],
//! );
//!
//! let (build, param) = NUMBERS.lookup(" one ")?;
//! assert_eq!(build(param)?, 1);
//! let err = NUMBERS.lookup("two").unwrap_err();
//! assert_eq!(err.to_string(), "invalid number spec: unknown number 'two' (known: one)");
//! # Ok::<(), SpecError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt;
use std::sync::RwLock;

/// One registry entry's listing row (`skp-plan --list`,
/// `GET /registry`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Registry name (the spec string up to the first `:`).
    pub name: &'static str,
    /// Human-readable parameter syntax (empty when the entry takes
    /// none).
    pub params: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// A malformed spec string or a registration conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Which spec family was malformed (e.g. `"memory plan-store spec"`).
    pub what: &'static str,
    /// Human-readable diagnosis of the malformation.
    pub detail: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {}", self.what, self.detail)
    }
}

impl std::error::Error for SpecError {}

/// A table from registry name to builder `B` (a function pointer):
/// builtin rows fixed at compile time, plus rows added at runtime by
/// [`register`](Registry::register), in registration order.
pub struct Registry<B: Copy + 'static> {
    /// What one entry is called in errors (e.g. `"plan store"`).
    noun: &'static str,
    /// The [`SpecError::what`] of an unknown name (e.g.
    /// `"plan store spec"`).
    what: &'static str,
    /// Borrowed builtins until the first registration copies them.
    entries: RwLock<Cow<'static, [(Spec, B)]>>,
}

impl<B: Copy + 'static> Registry<B> {
    /// A registry holding `builtins`, in order.
    pub const fn new(
        noun: &'static str,
        what: &'static str,
        builtins: &'static [(Spec, B)],
    ) -> Self {
        Registry {
            noun,
            what,
            entries: RwLock::new(Cow::Borrowed(builtins)),
        }
    }

    /// Adds an entry under a new name. Errors if the name is taken.
    pub fn register(&self, spec: Spec, build: B) -> Result<(), SpecError> {
        let mut entries = self.entries.write().expect("registry poisoned");
        if entries.iter().any(|(s, _)| s.name == spec.name) {
            return Err(SpecError {
                what: "registration",
                detail: format!(
                    "the {} name '{}' is already registered",
                    self.noun, spec.name
                ),
            });
        }
        entries.to_mut().push((spec, build));
        Ok(())
    }

    /// Every entry's listing row, in registration order.
    pub fn specs(&self) -> Vec<Spec> {
        let entries = self.entries.read().expect("registry poisoned");
        entries.iter().map(|&(spec, _)| spec).collect()
    }

    /// Every registered name, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        let entries = self.entries.read().expect("registry poisoned");
        entries.iter().map(|(spec, _)| spec.name).collect()
    }

    /// The listing row and builder registered under exactly `name`.
    pub fn entry(&self, name: &str) -> Option<(Spec, B)> {
        let entries = self.entries.read().expect("registry poisoned");
        entries.iter().find(|(spec, _)| spec.name == name).copied()
    }

    /// The builder registered under exactly `name`.
    pub fn get(&self, name: &str) -> Option<B> {
        self.entry(name).map(|(_, build)| build)
    }

    /// Resolves a spec string through [`split_spec`]: the builder of its
    /// name and its parameter part. An unknown name errors with the
    /// registered names.
    pub fn lookup<'s>(&self, spec: &'s str) -> Result<(B, Option<&'s str>), SpecError> {
        let (name, param) = split_spec(spec);
        match self.get(name) {
            Some(build) => Ok((build, param)),
            None => Err(SpecError {
                what: self.what,
                detail: format!(
                    "unknown {} '{name}' (known: {})",
                    self.noun,
                    self.names().join(", ")
                ),
            }),
        }
    }
}

/// Splits a spec string into its registry name (the text before the
/// first `:`, trimmed) and its parameter part (the rest, untrimmed;
/// `None` without a `:`).
pub fn split_spec(spec: &str) -> (&str, Option<&str>) {
    match spec.split_once(':') {
        Some((name, param)) => (name.trim(), Some(param)),
        None => (spec.trim(), None),
    }
}

/// A parameter error that points at the listing for the syntax.
pub fn param_err(what: &'static str, detail: impl fmt::Display) -> SpecError {
    SpecError {
        what,
        detail: format!("{detail} (see `skp-plan --list` for the syntax)"),
    }
}

/// A field that must be a positive integer (surrounding spaces
/// allowed). Errors name the field and the offending text.
pub fn parse_positive(what: &'static str, field: &str, raw: &str) -> Result<usize, SpecError> {
    let text = raw.trim();
    match text.parse::<usize>() {
        Ok(0) => Err(param_err(
            what,
            format!("{field} must be at least 1, got '0'"),
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(param_err(
            what,
            format!("{field} '{text}' is not a positive integer"),
        )),
    }
}

/// A `<a>x<b>` topology of two positive integers: `shape` is the syntax
/// named on error (e.g. `<shards>x<cap>`), `example` a valid value and
/// `fields` the names of the two counts.
pub fn parse_topology(
    what: &'static str,
    raw: &str,
    shape: &str,
    example: &str,
    fields: [&str; 2],
) -> Result<(usize, usize), SpecError> {
    let text = raw.trim();
    let (a, b) = text.split_once('x').ok_or_else(|| {
        param_err(
            what,
            format!("topology '{text}' must be '{shape}' (e.g. {example})"),
        )
    })?;
    Ok((
        parse_positive(what, fields[0], a)?,
        parse_positive(what, fields[1], b)?,
    ))
}

/// Rejects leftover `:`-separated parts after the last expected one.
pub fn reject_trailing<'a>(
    what: &'static str,
    after: &str,
    mut parts: impl Iterator<Item = &'a str>,
) -> Result<(), SpecError> {
    match parts.next() {
        None => Ok(()),
        Some(junk) => Err(param_err(
            what,
            format!("trailing ':{junk}' after the {after}"),
        )),
    }
}

/// Rejects a parameter part on an entry that takes none.
pub fn no_params(what: &'static str, param: Option<&str>) -> Result<(), SpecError> {
    match param {
        None => Ok(()),
        Some(raw) => Err(param_err(
            what,
            format!("takes no parameters, got ':{raw}'"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Build = fn(Option<&str>) -> Result<usize, SpecError>;

    fn build_count(param: Option<&str>) -> Result<usize, SpecError> {
        const WHAT: &str = "count spec";
        let mut parts = param.unwrap_or("1").split(':');
        let n = parse_positive(WHAT, "count", parts.next().unwrap_or_default())?;
        reject_trailing(WHAT, "count", parts)?;
        Ok(n)
    }

    fn build_zero(param: Option<&str>) -> Result<usize, SpecError> {
        no_params("zero spec", param)?;
        Ok(0)
    }

    const fn row(name: &'static str) -> Spec {
        Spec {
            name,
            params: "",
            summary: "test row",
        }
    }

    static TABLE: Registry<Build> =
        Registry::new("entry", "test spec", &[(row("count"), build_count)]);

    fn err(spec: &str) -> String {
        let (build, param) = TABLE.lookup(spec).expect("known name");
        build(param).expect_err("must fail").to_string()
    }

    #[test]
    fn the_name_is_trimmed_and_the_parameter_part_is_verbatim() {
        assert_eq!(split_spec(" count "), ("count", None));
        assert_eq!(split_spec(" count : 3 :x"), ("count", Some(" 3 :x")));
        assert_eq!(split_spec("a:b:c"), ("a", Some("b:c")));
        assert_eq!(split_spec(""), ("", None));
    }

    #[test]
    fn lookup_resolves_padded_names_and_fields() {
        for (spec, n) in [
            ("count", 1),
            (" count ", 1),
            ("count: 7 ", 7),
            ("count:7", 7),
        ] {
            let (build, param) = TABLE.lookup(spec).expect(spec);
            assert_eq!(build(param), Ok(n), "{spec}");
        }
    }

    #[test]
    fn unknown_names_list_the_registered_ones() {
        let e = TABLE.lookup("warp:1").unwrap_err();
        assert_eq!(e.what, "test spec");
        assert!(
            e.detail.starts_with("unknown entry 'warp' (known: count"),
            "{e}"
        );
    }

    #[test]
    fn field_errors_name_the_field_and_point_at_the_listing() {
        assert!(err("count:0").contains("count must be at least 1, got '0'"));
        assert!(err("count: many ").contains("count 'many' is not a positive integer"));
        assert!(err("count:").contains("count '' is not a positive integer"));
        assert!(err("count:2:junk").contains("trailing ':junk' after the count"));
        assert!(err("count:0").ends_with("(see `skp-plan --list` for the syntax)"));
        let e = build_zero(Some("x")).unwrap_err().to_string();
        assert!(
            e.starts_with("invalid zero spec: takes no parameters, got ':x'"),
            "{e}"
        );
    }

    #[test]
    fn topologies_parse_two_positive_counts() {
        let topo = |raw| parse_topology("t", raw, "<a>x<b>", "2x3", ["a count", "b count"]);
        assert_eq!(topo(" 2 x3 "), Ok((2, 3)));
        let e = topo("5").unwrap_err().to_string();
        assert!(
            e.contains("topology '5' must be '<a>x<b>' (e.g. 2x3)"),
            "{e}"
        );
        let e = topo("0x3").unwrap_err().to_string();
        assert!(e.contains("a count must be at least 1"), "{e}");
        let e = topo("2xbig").unwrap_err().to_string();
        assert!(e.contains("b count 'big' is not a positive integer"), "{e}");
    }

    #[test]
    fn registration_appends_in_order_and_refuses_taken_names() {
        static OWN: Registry<Build> = Registry::new(
            "entry",
            "test spec",
            &[(row("count"), build_count), (row("zero"), build_zero)],
        );
        let e = OWN.register(row("zero"), build_count).unwrap_err();
        assert_eq!(
            e.to_string(),
            "invalid registration: the entry name 'zero' is already registered"
        );
        OWN.register(row("late"), build_zero).expect("fresh name");
        assert_eq!(OWN.names(), ["count", "zero", "late"]);
        assert_eq!(OWN.specs()[2], row("late"));
        let (build, param) = OWN.lookup("late").unwrap();
        assert_eq!(build(param), Ok(0));
        assert!(OWN.get("zero").is_some() && OWN.get(" zero").is_none());
        assert_eq!(OWN.entry("late").map(|(spec, _)| spec), Some(row("late")));
    }
}
