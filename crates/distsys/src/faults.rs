//! Fault injection for the sharded substrate: outage windows, degraded
//! slow links and per-shard heterogeneous service times.
//!
//! A [`FaultSpec`] is pure data parsed from the `faults:<spec>` workload
//! generator's clause grammar (see [`FaultSpec::parse`]); a sim
//! materialises it into a [`FaultPlan`] resolved against its actual
//! shard count and run seed, so a faulted run is as deterministic as a
//! fault-free one: the same spec, topology and seed give the same plan.
//!
//! Faults are **admission-side only**: an outage window delays job
//! *starts* on the failed shard (in-flight transfers complete, queued
//! work waits), and degradation scales service *durations* by a factor
//! `>= 1`. Both only ever push scheduled event times later — no new
//! event kinds, and event counts are conserved against the fault-free
//! twin run (pinned by the workspace tests).

use std::fmt;

/// One shard-outage window: the shard admits no new transfers during
/// `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Faulted shard (reduced modulo the sim's shard count when the
    /// spec is materialised, so one spec works on any topology).
    pub shard: usize,
    /// Window start, in simulated time.
    pub start: f64,
    /// Window length, in simulated time.
    pub duration: f64,
}

/// A declarative fault-injection specification — the payload of the
/// `faults:<spec>` workload generator.
///
/// Parsed from semicolon-separated clauses (see [`FaultSpec::parse`])
/// and resolved against a concrete topology by
/// [`materialise`](FaultSpec::materialise).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Shard outage windows (admission blackouts).
    pub outages: Vec<Outage>,
    /// Degraded slow links: `(shard, factor)` scales the shard's
    /// service durations by `factor >= 1`.
    pub slow: Vec<(usize, f64)>,
    /// Heterogeneous-service spread `>= 1`: every shard's service
    /// durations are additionally scaled by a seed-derived factor drawn
    /// uniformly from `[1, spread]`. `1.0` disables the spread.
    pub spread: f64,
}

impl FaultSpec {
    /// A spec that injects nothing: no outages, no slow links, spread
    /// `1.0`. Materialises to a plan whose scaling is the bit-exact
    /// identity (`x * 1.0`) and whose window set is empty — used to
    /// measure the fault machinery's overhead on the non-faulted path.
    pub fn inert() -> Self {
        Self {
            outages: Vec::new(),
            slow: Vec::new(),
            spread: 1.0,
        }
    }

    /// Parses the clause grammar:
    ///
    /// ```text
    /// out=<shard>@<start>+<duration>[,...]   outage windows
    /// slow=<shard>x<factor>[,...]            degraded links (factor >= 1)
    /// svc=<spread>                           heterogeneous spread (>= 1)
    /// ```
    ///
    /// Clauses are `;`-separated, each at most once, at least one
    /// required; e.g. `out=0@40+30,2@10+5;slow=1x3;svc=2`. Starts must
    /// be finite and `>= 0`, durations finite and `> 0`, factors and
    /// the spread finite and `>= 1`. The rendering
    /// ([`Display`](fmt::Display)) is the exact inverse, so every
    /// parsed spec is a fixed point.
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        let text = text.trim();
        if text.is_empty() {
            return Err("empty fault spec: need at least one of \
                 'out=', 'slow=', 'svc=' clauses"
                .to_string());
        }
        let mut spec = FaultSpec::inert();
        let (mut saw_out, mut saw_slow, mut saw_svc) = (false, false, false);
        for clause in text.split(';') {
            let clause = clause.trim();
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause '{clause}' is not '<key>=<value>'"))?;
            match key.trim() {
                "out" => {
                    if std::mem::replace(&mut saw_out, true) {
                        return Err("duplicate 'out=' clause".to_string());
                    }
                    for window in value.split(',') {
                        spec.outages.push(parse_outage(window)?);
                    }
                }
                "slow" => {
                    if std::mem::replace(&mut saw_slow, true) {
                        return Err("duplicate 'slow=' clause".to_string());
                    }
                    for link in value.split(',') {
                        spec.slow.push(parse_slow(link)?);
                    }
                }
                "svc" => {
                    if std::mem::replace(&mut saw_svc, true) {
                        return Err("duplicate 'svc=' clause".to_string());
                    }
                    spec.spread = parse_scale(value, "svc spread")?;
                }
                other => {
                    return Err(format!(
                        "unknown fault clause '{other}' (known: out, slow, svc)"
                    ));
                }
            }
        }
        Ok(spec)
    }

    /// Resolves the spec against a concrete topology: shard indices are
    /// reduced modulo `shards`, per-shard outage windows are sorted and
    /// merged, and the service-scale vector folds the slow links with
    /// the seed-derived heterogeneous spread. Pure in `(self, shards,
    /// seed)`.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn materialise(&self, shards: usize, seed: u64) -> FaultPlan {
        assert!(shards >= 1, "need at least one shard");
        let mut scale = vec![1.0_f64; shards];
        for &(shard, factor) in &self.slow {
            scale[shard % shards] *= factor;
        }
        if self.spread > 1.0 {
            for (s, slot) in scale.iter_mut().enumerate() {
                // mix() is the same SplitMix64 finaliser the shard map
                // hashes with; the unit draw is uniform in [0, 1).
                let u = crate::scheduler::mix(seed ^ 0x5EED_FA17 ^ (s as u64) << 17) as f64
                    / (u64::MAX as f64 + 1.0);
                *slot *= 1.0 + (self.spread - 1.0) * u;
            }
        }
        let mut windows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); shards];
        for o in &self.outages {
            windows[o.shard % shards].push((o.start, o.start + o.duration));
        }
        for shard in &mut windows {
            shard.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut merged: Vec<(f64, f64)> = Vec::with_capacity(shard.len());
            for &(s, e) in shard.iter() {
                match merged.last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => merged.push((s, e)),
                }
            }
            *shard = merged;
        }
        FaultPlan { scale, windows }
    }
}

/// Canonical clause rendering — the inverse of [`FaultSpec::parse`]
/// (clauses in `out`, `slow`, `svc` order; inert clauses omitted).
impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if !self.outages.is_empty() {
            write!(f, "out=")?;
            for (i, o) in self.outages.iter().enumerate() {
                let comma = if i > 0 { "," } else { "" };
                write!(f, "{comma}{}@{}+{}", o.shard, o.start, o.duration)?;
            }
            sep = ";";
        }
        if !self.slow.is_empty() {
            write!(f, "{sep}slow=")?;
            for (i, (shard, factor)) in self.slow.iter().enumerate() {
                let comma = if i > 0 { "," } else { "" };
                write!(f, "{comma}{shard}x{factor}")?;
            }
            sep = ";";
        }
        if self.spread > 1.0 {
            write!(f, "{sep}svc={}", self.spread)?;
        }
        Ok(())
    }
}

fn parse_outage(text: &str) -> Result<Outage, String> {
    let text = text.trim();
    let (shard, rest) = text
        .split_once('@')
        .ok_or_else(|| format!("outage '{text}' is not '<shard>@<start>+<duration>'"))?;
    let (start, duration) = rest
        .split_once('+')
        .ok_or_else(|| format!("outage '{text}' is not '<shard>@<start>+<duration>'"))?;
    let shard: usize = shard
        .trim()
        .parse()
        .map_err(|_| format!("outage shard '{shard}' is not a shard index"))?;
    let start: f64 = start
        .trim()
        .parse()
        .map_err(|_| format!("outage start '{start}' is not a number"))?;
    if !start.is_finite() || start < 0.0 {
        return Err(format!("outage start {start} must be finite and >= 0"));
    }
    let duration: f64 = duration
        .trim()
        .parse()
        .map_err(|_| format!("outage duration '{duration}' is not a number"))?;
    if !duration.is_finite() || duration <= 0.0 {
        return Err(format!("outage duration {duration} must be finite and > 0"));
    }
    Ok(Outage {
        shard,
        start,
        duration,
    })
}

fn parse_slow(text: &str) -> Result<(usize, f64), String> {
    let text = text.trim();
    let (shard, factor) = text
        .split_once('x')
        .ok_or_else(|| format!("slow link '{text}' is not '<shard>x<factor>'"))?;
    let shard: usize = shard
        .trim()
        .parse()
        .map_err(|_| format!("slow-link shard '{shard}' is not a shard index"))?;
    let factor = parse_scale(factor, "slow-link factor")?;
    Ok((shard, factor))
}

fn parse_scale(text: &str, what: &str) -> Result<f64, String> {
    let factor: f64 = text
        .trim()
        .parse()
        .map_err(|_| format!("{what} '{}' is not a number", text.trim()))?;
    if !factor.is_finite() || factor < 1.0 {
        return Err(format!("{what} {factor} must be finite and >= 1"));
    }
    Ok(factor)
}

/// A [`FaultSpec`] resolved against a concrete shard count and run
/// seed: what the simulation actually consults on the hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-shard service-duration multiplier, all `>= 1.0` (exactly
    /// `1.0` on unfaulted shards, so scaling is the bit-exact identity
    /// there).
    pub scale: Vec<f64>,
    /// Per-shard outage windows as half-open `(start, end)` intervals,
    /// sorted and non-overlapping.
    pub windows: Vec<Vec<(f64, f64)>>,
}

impl FaultPlan {
    /// The shard's next admissible start time at or after `t`: a start
    /// falling inside an outage window is pushed to the window's end
    /// (repeatedly, if the delayed start lands in a later window).
    #[inline]
    pub fn delayed_start(&self, shard: usize, mut t: f64) -> f64 {
        for &(s, e) in &self.windows[shard] {
            if t < s {
                break;
            }
            if t < e {
                t = e;
            }
        }
        t
    }

    /// Total scheduled outage time of `shard` overlapping `[0, span]`.
    /// A shard without windows reports `+0.0`, the fault-free value
    /// (`f64`'s `Sum` of nothing is `-0.0`).
    pub fn outage_time(&self, shard: usize, span: f64) -> f64 {
        self.windows[shard]
            .iter()
            .map(|&(s, e)| (e.min(span) - s.min(span)).max(0.0))
            .fold(0.0, |total, t| total + t)
    }

    /// True when the plan can never perturb a run: no outage windows
    /// and every scale is exactly `1.0`.
    pub fn is_inert(&self) -> bool {
        self.windows.iter().all(Vec::is_empty) && self.scale.iter().all(|&s| s == 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_clause_and_roundtrips() {
        let spec = FaultSpec::parse("out=0@40+30,2@10+5;slow=1x3;svc=2").expect("parses");
        assert_eq!(spec.outages.len(), 2);
        assert_eq!(
            spec.outages[0],
            Outage {
                shard: 0,
                start: 40.0,
                duration: 30.0
            }
        );
        assert_eq!(spec.slow, vec![(1, 3.0)]);
        assert_eq!(spec.spread, 2.0);
        // Display is the exact inverse: a parsed spec is a fixed point.
        let rendered = spec.to_string();
        assert_eq!(rendered, "out=0@40+30,2@10+5;slow=1x3;svc=2");
        assert_eq!(FaultSpec::parse(&rendered).expect("reparses"), spec);
    }

    #[test]
    fn single_clause_specs_parse() {
        assert_eq!(FaultSpec::parse("svc=1.5").expect("parses").spread, 1.5);
        assert_eq!(
            FaultSpec::parse(" slow=0x2.5 ").expect("parses").slow,
            vec![(0, 2.5)]
        );
    }

    #[test]
    fn malformed_specs_name_the_bad_field() {
        for (spec, needle) in [
            ("", "empty fault spec"),
            ("out", "not '<key>=<value>'"),
            ("boom=1", "unknown fault clause 'boom'"),
            ("out=3", "not '<shard>@<start>+<duration>'"),
            ("out=x@1+2", "not a shard index"),
            ("out=0@-1+2", "must be finite and >= 0"),
            ("out=0@1+0", "must be finite and > 0"),
            ("out=0@nan+2", "must be finite"),
            ("slow=1", "not '<shard>x<factor>'"),
            ("slow=1x0.5", "must be finite and >= 1"),
            ("svc=0.9", "must be finite and >= 1"),
            ("svc=inf", "must be finite and >= 1"),
            ("out=0@1+2;out=1@1+2", "duplicate 'out='"),
            ("slow=1x2;slow=1x2", "duplicate 'slow='"),
            ("svc=2;svc=2", "duplicate 'svc='"),
        ] {
            let err = FaultSpec::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn materialise_reduces_shards_sorts_and_merges_windows() {
        let spec = FaultSpec::parse("out=5@40+30,1@10+5,1@12+60;slow=7x3").expect("parses");
        let plan = spec.materialise(4, 9);
        // 5 % 4 = 1: all three windows land on shard 1; the two
        // overlapping ones merge.
        assert!(plan.windows[0].is_empty());
        assert_eq!(plan.windows[1], vec![(10.0, 72.0)]);
        // 7 % 4 = 3 carries the slow link.
        assert_eq!(plan.scale[3], 3.0);
        assert_eq!(plan.scale[0], 1.0);
    }

    #[test]
    fn svc_spread_is_seed_deterministic_and_in_range() {
        let spec = FaultSpec::parse("svc=3").expect("parses");
        let a = spec.materialise(8, 42);
        let b = spec.materialise(8, 42);
        assert_eq!(a, b, "same seed must derive the same plan");
        let c = spec.materialise(8, 43);
        assert_ne!(a.scale, c.scale, "different seeds must differ");
        for &s in &a.scale {
            assert!((1.0..=3.0).contains(&s), "scale {s} outside [1, spread]");
        }
    }

    #[test]
    fn delayed_start_pushes_through_windows() {
        let spec = FaultSpec::parse("out=0@10+5,0@15+5").expect("parses");
        let plan = spec.materialise(1, 0);
        // Adjacent windows merged into one [10, 20).
        assert_eq!(plan.windows[0], vec![(10.0, 20.0)]);
        assert_eq!(plan.delayed_start(0, 5.0), 5.0);
        assert_eq!(plan.delayed_start(0, 10.0), 20.0);
        assert_eq!(plan.delayed_start(0, 19.9), 20.0);
        assert_eq!(plan.delayed_start(0, 20.0), 20.0);
    }

    #[test]
    fn outage_time_clamps_to_the_span() {
        let spec = FaultSpec::parse("out=0@10+10,0@50+10").expect("parses");
        let plan = spec.materialise(1, 0);
        assert_eq!(plan.outage_time(0, 100.0), 20.0);
        assert_eq!(plan.outage_time(0, 55.0), 15.0);
        assert_eq!(plan.outage_time(0, 5.0), 0.0);
    }

    #[test]
    fn inert_specs_materialise_to_inert_plans() {
        let plan = FaultSpec::inert().materialise(4, 7);
        assert!(plan.is_inert());
        assert_eq!(plan.scale, vec![1.0; 4]);
        let faulted = FaultSpec::parse("out=0@1+1")
            .expect("parses")
            .materialise(4, 7);
        assert!(!faulted.is_inert());
    }
}
