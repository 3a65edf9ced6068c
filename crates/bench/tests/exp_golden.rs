//! Golden stdout of the experiment binaries.
//!
//! Each `exp_*` binary reproduces one table or figure of the paper from
//! fixed seeds, so its stdout is a pure function of the code. Every test
//! here runs one binary and diffs its stdout byte for byte against
//! `tests/golden/<name>.txt`. A change that moves any of these bytes must
//! say which and why. Regenerate with
//! `PROXIMA_REGEN_GOLDEN=1 cargo test -p proxima-bench --test exp_golden`.

use std::path::PathBuf;
use std::process::Command;

fn check(name: &str, exe: &str) {
    let out = Command::new(exe).output().expect("run the experiment");
    assert!(
        out.status.success(),
        "{name} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("PROXIMA_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); regenerate with \
             PROXIMA_REGEN_GOLDEN=1 cargo test -p proxima-bench --test exp_golden",
            path.display()
        )
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{name} stdout drifted from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            path.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )*};
}

golden!(
    exp_aocs,
    exp_avg,
    exp_blocksize,
    exp_convergence,
    exp_cv,
    exp_fig2,
    exp_fig3,
    exp_fpu,
    exp_iid,
    exp_multicore,
    exp_paths,
    exp_placement,
    exp_prng,
);
