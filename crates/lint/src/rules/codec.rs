//! `codec-discipline`: sealed-blob codec hygiene in `persist.rs`
//! files.
//!
//! Three checks:
//!
//! 1. every `impl Encode for T` has a matching `impl Decode for T` in
//!    the same file (and vice versa) — a one-directional codec is
//!    either dead weight or an unreadable checkpoint waiting to
//!    happen;
//! 2. every encoded type appears in the golden-fixture coverage list
//!    (`CODEC_COVERAGE` in `tests/checkpoint.rs`), so the committed
//!    fixture bytes transitively pin its wire layout, and every listed
//!    name is encoded by some `persist.rs`, so a deleted codec does not
//!    stay listed;
//! 3. every `FORMAT_VERSION` constant definition carries the
//!    fixture-regen marker (`PROXIMA_REGEN_FIXTURES`) in an adjacent
//!    comment, so nobody bumps the wire version without seeing how to
//!    regenerate the fixtures. (`mbpta-lint --diff-base <ref>` adds
//!    the diff-aware form: a diff touching a `FORMAT_VERSION` line
//!    must also touch `tests/fixtures/`.)

use super::{LintContext, Rule};
use crate::source::{Finding, SourceFile};
use crate::workspace::COVERAGE_FILE;

pub struct CodecDiscipline;

impl Rule for CodecDiscipline {
    fn name(&self) -> &'static str {
        "codec-discipline"
    }

    fn explain(&self) -> &'static str {
        "persist.rs: Encode/Decode impls must pair up, encoded types \
         must be golden-fixture covered, FORMAT_VERSION edits must \
         point at fixture regen"
    }

    fn check(&self, files: &[SourceFile], ctx: &LintContext, out: &mut Vec<Finding>) {
        let mut encoded_anywhere: Vec<String> = Vec::new();
        for file in files {
            if file.file_name() != "persist.rs" {
                continue;
            }
            let encodes = impl_targets(file, "Encode");
            encoded_anywhere.extend(encodes.iter().map(|(t, _)| t.clone()));
            let decodes = impl_targets(file, "Decode");

            for (target, line) in &encodes {
                if !decodes.iter().any(|(t, _)| t == target) {
                    out.push(Finding {
                        rule: self.name(),
                        path: file.path.clone(),
                        line: *line,
                        message: format!(
                            "`impl Encode for {target}` has no matching `impl Decode` \
                             in this file; a write-only codec cannot round-trip"
                        ),
                    });
                }
            }
            for (target, line) in &decodes {
                if !encodes.iter().any(|(t, _)| t == target) {
                    out.push(Finding {
                        rule: self.name(),
                        path: file.path.clone(),
                        line: *line,
                        message: format!(
                            "`impl Decode for {target}` has no matching `impl Encode` \
                             in this file; nothing can produce what it reads"
                        ),
                    });
                }
            }

            if ctx.enforce_coverage {
                match &ctx.codec_coverage {
                    Some(coverage) => {
                        for (target, line) in &encodes {
                            if !coverage.iter().any(|c| c == target) {
                                out.push(Finding {
                                    rule: self.name(),
                                    path: file.path.clone(),
                                    line: *line,
                                    message: format!(
                                        "encoded type `{target}` is not in the \
                                         CODEC_COVERAGE list (tests/checkpoint.rs); add \
                                         it and make a golden fixture exercise it"
                                    ),
                                });
                            }
                        }
                    }
                    None => out.push(Finding {
                        rule: self.name(),
                        path: file.path.clone(),
                        line: 1,
                        message: "golden-fixture coverage list (CODEC_COVERAGE in \
                                  tests/checkpoint.rs) not found"
                            .to_string(),
                    }),
                }
            }

            // FORMAT_VERSION definitions need the regen marker nearby.
            for (idx, line) in file.lines.iter().enumerate() {
                if line.in_test {
                    continue;
                }
                let code = &line.code;
                if !(code.contains("FORMAT_VERSION") && code.contains("const")) {
                    continue;
                }
                let lo = idx.saturating_sub(4);
                let marked = file.lines[lo..=idx]
                    .iter()
                    .any(|l| l.comment.contains("PROXIMA_REGEN_FIXTURES"));
                if !marked {
                    out.push(Finding {
                        rule: self.name(),
                        path: file.path.clone(),
                        line: idx + 1,
                        message: "FORMAT_VERSION definition lacks the fixture-regen \
                                  marker; add a comment naming \
                                  PROXIMA_REGEN_FIXTURES=1 so version bumps and fixture \
                                  regeneration travel together"
                            .to_string(),
                    });
                }
            }
        }

        // Stale coverage entries: a listed name no scanned persist.rs
        // encodes (only judged when some persist.rs was scanned).
        if ctx.enforce_coverage && !encoded_anywhere.is_empty() {
            for name in ctx.codec_coverage.iter().flatten() {
                if !encoded_anywhere.contains(name) {
                    out.push(Finding {
                        rule: self.name(),
                        path: COVERAGE_FILE.to_string(),
                        line: 1,
                        message: format!(
                            "CODEC_COVERAGE lists `{name}`, but no persist.rs \
                             encodes it; remove the stale entry"
                        ),
                    });
                }
            }
        }
    }
}

/// Collect `(normalized target, 1-based line)` for every
/// `impl … <trait_name> for <target> {` in the file.
fn impl_targets(file: &SourceFile, trait_name: &str) -> Vec<(String, usize)> {
    let needle = format!("{trait_name} for ");
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let Some(impl_pos) = code.find("impl") else {
            continue;
        };
        let Some(pos) = code.find(&needle) else {
            continue;
        };
        if pos < impl_pos {
            continue;
        }
        let rest = &code[pos + needle.len()..];
        let target: String = rest
            .chars()
            .take_while(|c| *c != '{')
            .filter(|c| !c.is_whitespace())
            .collect();
        if !target.is_empty() {
            out.push((target, idx + 1));
        }
    }
    out
}
