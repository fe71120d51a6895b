//! The persistent `file:<dir>` tier: one text file per content key,
//! written atomically (temp + rename), parsed strictly — anything
//! short of a perfect round-trip is a miss, never a wrong plan.
//!
//! The codec renders `f64`s with Rust's shortest-round-trip `Display`
//! (the same guarantee the facade's wire module relies on), so a
//! catalog survives a save/load cycle bit-exactly and the
//! [`PlanGuard`] check still holds after a process restart.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{PlanGuard, PlanSet, PlanStore, PlanStoreStats, TierStats};

/// Leading line of every stored file; bumping it invalidates (as
/// misses) every entry written by an incompatible codec.
const MAGIC: &str = "skp-planstore v2";

/// Persistent one-file-per-key store (`file:<dir>`). The directory is
/// created on first write; reads of missing, truncated or foreign
/// files are misses. Writes go through a temp file and an atomic
/// rename, so concurrent readers never observe a half-written entry.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FileStore {
    /// A store rooted at `dir` (created lazily on the first put).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FileStore {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.plan"))
    }
}

impl PlanStore for FileStore {
    fn name(&self) -> &'static str {
        "file"
    }

    fn spec_string(&self) -> String {
        format!("file:{}", self.dir.display())
    }

    fn get(&self, key: u64) -> Option<Arc<PlanSet>> {
        let found = std::fs::read_to_string(self.entry_path(key))
            .ok()
            .and_then(|text| parse_plan_set(&text));
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found.map(Arc::new)
    }

    fn put(&self, key: u64, value: Arc<PlanSet>) {
        // Best-effort persistence: a full disk or a permission error
        // costs the entry, not the run.
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let tmp = self
            .dir
            .join(format!(".{key:016x}.tmp{}", std::process::id()));
        if std::fs::write(&tmp, render_plan_set(&value)).is_ok()
            && std::fs::rename(&tmp, self.entry_path(key)).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn stats(&self) -> PlanStoreStats {
        let entries = std::fs::read_dir(&self.dir)
            .map(|dir| {
                dir.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|ext| ext == "plan"))
                    .count() as u64
            })
            .unwrap_or(0);
        PlanStoreStats::from_tier(TierStats {
            tier: self.spec_string(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
            promotions: 0,
            entries,
        })
    }
}

/// Renders a plan set as the on-disk text form:
///
/// ```text
/// skp-planstore v2
/// policy <spec>
/// catalog <f64> <f64> …
/// states <n>
/// plan <state> <item> <item> …
/// end
/// ```
///
/// Only solved states get a `plan` line; the `end` marker makes
/// truncation detectable.
pub(crate) fn render_plan_set(set: &PlanSet) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str("policy ");
    out.push_str(&set.guard.policy_spec);
    out.push('\n');
    out.push_str("catalog");
    for &r in &set.guard.catalog {
        // `{}` on an f64 is the shortest string that parses back to
        // the same bits — the bit-exactness contract of the tier.
        out.push_str(&format!(" {r}"));
    }
    out.push('\n');
    out.push_str(&format!("states {}\n", set.plans.len()));
    for (state, plan) in set.plans.iter().enumerate() {
        if let Some(items) = plan {
            out.push_str(&format!("plan {state}"));
            for &item in items {
                out.push_str(&format!(" {item}"));
            }
            out.push('\n');
        }
    }
    out.push_str("end\n");
    out
}

/// Strict inverse of [`render_plan_set`]: any deviation — wrong magic,
/// missing section, unparsable number, a `states` count other than the
/// catalog's length, out-of-range state, a plan item at or past that
/// count or listed twice in one plan, missing `end` — yields `None` (a
/// miss).
pub(crate) fn parse_plan_set(text: &str) -> Option<PlanSet> {
    let mut lines = text.lines();
    if lines.next()? != MAGIC {
        return None;
    }
    let policy_spec = lines.next()?.strip_prefix("policy ")?.to_string();
    let catalog_line = lines.next()?.strip_prefix("catalog")?;
    let mut catalog = Vec::new();
    for tok in catalog_line.split_whitespace() {
        catalog.push(tok.parse::<f64>().ok()?);
    }
    let n: usize = lines.next()?.strip_prefix("states ")?.parse().ok()?;
    if n != catalog.len() {
        return None;
    }
    let mut plans: Vec<Option<Vec<usize>>> = vec![None; n];
    let mut listed = vec![false; n];
    let mut ended = false;
    for line in lines {
        if ended {
            return None; // trailing garbage after `end`
        }
        if line == "end" {
            ended = true;
            continue;
        }
        let mut toks = line.strip_prefix("plan ")?.split_whitespace();
        let state: usize = toks.next()?.parse().ok()?;
        if state >= n || plans[state].is_some() {
            return None;
        }
        let mut items = Vec::new();
        for tok in toks {
            let item: usize = tok.parse().ok()?;
            if item >= n || std::mem::replace(&mut listed[item], true) {
                return None;
            }
            items.push(item);
        }
        for &item in &items {
            listed[item] = false;
        }
        plans[state] = Some(items);
    }
    if !ended {
        return None;
    }
    Some(PlanSet {
        plans,
        guard: PlanGuard {
            policy_spec,
            catalog,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("skp-planstore-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn awkward_set() -> PlanSet {
        PlanSet {
            plans: vec![
                Some(vec![0, 2, 5]),
                None,
                Some(vec![]),
                Some(vec![6]),
                None,
                None,
                None,
            ],
            guard: PlanGuard {
                policy_spec: "network-aware:0.4".into(),
                // Values whose decimal forms stress shortest-round-trip:
                // non-terminating binary fractions, subnormals, extremes.
                catalog: vec![
                    0.1 + 0.2,
                    1.0 / 3.0,
                    f64::MIN_POSITIVE,
                    5e-324,
                    1.7976931348623157e308,
                    -0.0,
                    12345.678901234567,
                ],
            },
        }
    }

    #[test]
    fn codec_round_trips_f64s_bit_exactly() {
        let set = awkward_set();
        let back = parse_plan_set(&render_plan_set(&set)).expect("parses");
        assert_eq!(back.plans, set.plans);
        assert_eq!(back.guard.policy_spec, set.guard.policy_spec);
        for (a, b) in back.guard.catalog.iter().zip(&set.guard.catalog) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} lost bits against {b}");
        }
    }

    #[test]
    fn codec_rejects_every_truncation() {
        let full = render_plan_set(&awkward_set());
        // Dropping any suffix must fail the parse, never mis-parse.
        // (Only the final newline is optional: a complete `end` line
        // still marks a complete entry.)
        for cut in 0..full.len() - 1 {
            assert!(
                parse_plan_set(&full[..cut]).is_none(),
                "truncation at {cut} parsed"
            );
        }
        assert!(parse_plan_set(&format!("{full}junk\n")).is_none());
        assert!(parse_plan_set(&full.replace(MAGIC, "skp-planstore v0")).is_none());
        assert!(parse_plan_set(&full.replace("plan 0", "plan 9")).is_none());
        // Counts and items no population plans: a state count other
        // than the catalog's, an item past it, an item listed twice.
        for (from, to) in [
            ("states 7", "states 4000000000"),
            ("states 7", "states 6"),
            ("plan 3 6", "plan 3 7"),
            ("plan 0 0 2 5", "plan 0 0 2 0"),
        ] {
            let bad = full.replace(from, to);
            assert!(bad != full && parse_plan_set(&bad).is_none(), "{to} parsed");
        }
    }

    #[test]
    fn file_store_round_trips_through_disk() {
        let dir = scratch("roundtrip");
        let store = FileStore::new(&dir);
        assert!(store.get(42).is_none(), "empty store misses");
        let set = Arc::new(awkward_set());
        store.put(42, set.clone());
        // A fresh store instance over the same directory — the
        // process-restart shape — sees the entry bit-exactly.
        let reopened = FileStore::new(&dir);
        let back = reopened.get(42).expect("persisted entry");
        assert_eq!(*back, *set);
        assert!(back.matches("network-aware:0.4", &set.guard.catalog));
        let stats = reopened.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.tiers[0].entries, 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_entries_degrade_to_misses() {
        let dir = scratch("corrupt");
        let store = FileStore::new(&dir);
        store.put(7, Arc::new(awkward_set()));
        let path = dir.join(format!("{:016x}.plan", 7u64));
        std::fs::write(&path, format!("{MAGIC}\npolicy x\n")).expect("writes");
        assert!(store.get(7).is_none(), "corrupt file must miss");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn entries_of_the_previous_format_are_misses() {
        // v1 entries were named by the byte-wise FNV-1a key. A
        // well-formed v1 file sitting at a live key must not be read
        // as a plan of the current key's inputs.
        let dir = scratch("v1");
        let store = FileStore::new(&dir);
        let chain = access_model::MarkovChain::random(6, 2, 4, 5, 20, 3).unwrap();
        let set = awkward_set();
        let key = crate::population_plan_key(
            &set.guard.policy_spec,
            &chain,
            &set.guard.catalog[..chain.n_states()],
        );
        let current = render_plan_set(&set);
        let v1 = current.replace(MAGIC, "skp-planstore v1");
        assert_ne!(v1, current);
        std::fs::create_dir_all(&dir).expect("creates");
        std::fs::write(store.entry_path(key), &v1).expect("writes");
        assert!(store.get(key).is_none(), "a v1 entry must miss");
        std::fs::write(store.entry_path(key), &current).expect("writes");
        assert_eq!(store.get(key).as_deref(), Some(&set));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn temp_files_are_not_counted_as_entries() {
        let dir = scratch("tmpcount");
        let store = FileStore::new(&dir);
        store.put(1, Arc::new(awkward_set()));
        std::fs::write(dir.join(".deadbeef.tmp999"), "half").expect("writes");
        assert_eq!(store.stats().tiers[0].entries, 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
