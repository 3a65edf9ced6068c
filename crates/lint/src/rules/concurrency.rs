//! Rule keeping thread creation confined to the sanctioned worker
//! pool, so concurrency (and with it, scheduling nondeterminism) can
//! only enter the system through code designed for bit-identical
//! fan-out/fold.

use super::{LintContext, Rule};
use crate::source::{Finding, SourceFile};

/// The only library file allowed to create threads: the campaign
/// measurement pool, which folds its results in run order, so thread
/// scheduling cannot leak into any answer. Everything else must route
/// work through it (or carry a justified `allow` — the serve accept
/// loop's connection fan-out does).
const SANCTIONED: [&str; 1] = ["crates/core/src/campaign.rs"];

/// `no-thread-spawn-outside-sharding`: `thread::spawn` / `thread::scope`
/// outside the campaign engine. Ad-hoc threads are where "bit-identical
/// at any `--jobs` / `--workers`" guarantees go to die: results folded
/// in completion order, shared state mutated outside its lock, panics
/// nobody joins.
pub struct NoThreadSpawnOutsideSharding;

impl Rule for NoThreadSpawnOutsideSharding {
    fn name(&self) -> &'static str {
        "no-thread-spawn-outside-sharding"
    }

    fn explain(&self) -> &'static str {
        "thread::spawn/scope outside the campaign pool; route \
         parallelism through a deterministic worker pool instead"
    }

    fn check(&self, files: &[SourceFile], _ctx: &LintContext, out: &mut Vec<Finding>) {
        for file in files {
            if SANCTIONED.contains(&file.path.as_str()) {
                continue;
            }
            for (idx, line) in file.lines.iter().enumerate() {
                if line.in_test || line.code.trim().is_empty() {
                    continue;
                }
                for needle in ["thread::spawn", "thread::scope"] {
                    if line.code.contains(needle) {
                        out.push(Finding {
                            rule: self.name(),
                            path: file.path.clone(),
                            line: idx + 1,
                            message: format!(
                                "`{needle}` outside the sanctioned worker pool; \
                                 parallel work must go through the campaign pool so \
                                 its fold order stays deterministic"
                            ),
                        });
                    }
                }
            }
        }
    }
}
