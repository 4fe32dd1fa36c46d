//! ISA selection for the wavefront's block kernel.
//!
//! The kernel's inner loops are plain slice loops over `u16` runs (a masked
//! OR, the space's batched step filter, a lane-wise `min`), which the
//! compiler autovectorizes at whatever ISA it targets. Two things live here:
//!
//! * **Runtime escalation** ([`dispatch`]): on x86-64 binaries compiled
//!   without AVX2, a whole chunk of blocks is re-entered through a
//!   `#[target_feature(enable = "avx2")]` trampoline when the CPU reports
//!   AVX2, letting LLVM widen those loops to 256-bit vectors in that
//!   monomorphization. A build with `-C target-feature=+avx2` widens them
//!   statically instead; the CI build matrix compiles both ways.
//! * **Reporting and pinning** ([`kernel_isa`], [`force_portable`]): the
//!   bench harness records which ISA ran, and can pin the baseline codegen
//!   to measure both from one binary.
//!
//! `INFEASIBLE = u16::MAX` survives every lane op: an OR with a misfit mask
//! yields it, unsigned `min` leaves it in place only when every candidate
//! is infeasible, and the saturating `+1` maps it to itself.

use std::sync::atomic::{AtomicBool, Ordering};

/// When set, [`dispatch`] never escalates to a wider ISA — the bench
/// harness uses this to measure the baseline-ISA kernel on hardware that
/// would otherwise auto-escalate. SeqCst: toggled a handful of times per
/// process, never on the hot path (read once per chunk).
static FORCE_PORTABLE: AtomicBool = AtomicBool::new(false);

/// Pins [`dispatch`] to the portable path (bench/testing knob).
pub fn force_portable(on: bool) {
    FORCE_PORTABLE.store(on, Ordering::SeqCst);
}

/// Whether runtime escalation is currently suppressed.
pub fn portable_forced() -> bool {
    FORCE_PORTABLE.load(Ordering::SeqCst)
}

/// The ISA the block kernel will actually run under [`dispatch`] right
/// now, for bench reporting: `"avx2-static"`/`"neon-static"` when the
/// build targets that ISA, `"avx2-dynamic"` when the runtime trampoline
/// escalates, `"portable"` otherwise.
pub fn kernel_isa() -> &'static str {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    {
        "avx2-static"
    }
    #[cfg(all(target_arch = "aarch64", target_feature = "neon"))]
    {
        "neon-static"
    }
    #[cfg(all(target_arch = "x86_64", not(target_feature = "avx2")))]
    {
        if !portable_forced() && std::arch::is_x86_feature_detected!("avx2") {
            "avx2-dynamic"
        } else {
            "portable"
        }
    }
    #[cfg(not(any(
        target_arch = "x86_64",
        all(target_arch = "aarch64", target_feature = "neon")
    )))]
    {
        "portable"
    }
}

/// Runs `f` under the widest ISA available: a no-op wrapper when the
/// build targets the widest ISA already (or nothing wider exists), a
/// `#[target_feature(enable = "avx2")]` trampoline when the CPU has AVX2
/// but the binary was compiled without it. `f` is the *whole* per-chunk
/// kernel, so the trampoline cost (one cached feature test and call) is
/// amortized over every cell of the chunk.
#[inline]
pub fn dispatch<F: FnOnce()>(f: F) {
    #[cfg(all(target_arch = "x86_64", not(target_feature = "avx2")))]
    {
        if !portable_forced() && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 detection above.
            unsafe { dispatch_avx2(f) };
            return;
        }
    }
    f()
}

/// The AVX2 trampoline: everything `#[inline(always)]`-reachable from `f`
/// (the block kernel's run loops) is re-codegenned with AVX2 enabled, so
/// they widen to 256-bit vectors.
#[cfg(all(target_arch = "x86_64", not(target_feature = "avx2")))]
#[target_feature(enable = "avx2")]
unsafe fn dispatch_avx2<F: FnOnce()>(f: F) {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_runs_the_closure_exactly_once() {
        let mut ran = 0;
        dispatch(|| ran += 1);
        assert_eq!(ran, 1);
        force_portable(true);
        assert!(portable_forced());
        let mut ran = 0;
        dispatch(|| ran += 1);
        assert_eq!(ran, 1);
        // Forcing portable suppresses *runtime* escalation only; an ISA
        // selected at compile time (a `-C target-feature` build) remains.
        let isa = kernel_isa();
        assert!(
            isa == "portable" || isa.ends_with("-static"),
            "forced-portable isa should not report dynamic escalation: {isa}"
        );
        force_portable(false);
    }

    #[test]
    fn isa_report_is_stable_and_known() {
        let isa = kernel_isa();
        assert!(
            ["portable", "avx2-static", "avx2-dynamic", "neon-static"].contains(&isa),
            "unknown isa label {isa}"
        );
    }
}
