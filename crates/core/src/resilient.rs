//! Resilient kernel execution: typed errors, bounded retry, fallback
//! chains and output validation over [`Plan`]s.
//!
//! The hybrid design contains a natural resilience story the happy path
//! never uses: every Tensor-core window has a semantically equivalent
//! CUDA-core execution, both have a straightforward-kernel equivalent, and
//! everything has a CPU reference. [`execute_resilient`] exploits that
//! redundancy. It runs a request under a [`gpu_sim::FaultScope`], checks the
//! device's fault latch after every launch (the `cudaGetLastError` idiom),
//! retries transient faults a bounded number of times, and walks a
//! [`fallback_chain`] of ever-simpler executions when a step keeps failing
//! — ending at the CPU reference, which involves no device at all.
//!
//! Two invariants make the layer safe to put in front of serving traffic:
//!
//! 1. **Only clean attempts are returned.** A faulted attempt's output is
//!    discarded wholesale (its simulated time is tallied as
//!    [`ResilientRun::wasted_sim_ms`]), so a returned result is always
//!    bit-identical to a fault-free run of the family that produced it.
//! 2. **No panics.** Every failure on this path — bad shapes, structure
//!    mismatches, device faults, validation failures, exhausted fallbacks —
//!    is a typed [`HcError`].
//!
//! Determinism: fault schedules are pure functions of `(seed, launch)`,
//! launches happen on the driving thread only, and every kernel is
//! bit-identical at any worker count — so outcomes, retry counts and
//! fallback choices are identical at any `hc-parallel` thread count.

use std::fmt;

use gpu_sim::{DeviceSpec, Fault, FaultConfig, FaultKind, FaultScope, KernelRun};
use graph_sparse::{Csr, CsrError, DenseMatrix, StructureFingerprint};

use crate::kernels::SpmmResult;
use crate::plan::Plan;
use crate::sanitize::KernelFamily;

/// Typed error taxonomy for the kernel/plan execution path. Replaces the
/// panics a hostile input or injected device fault used to cause.
#[derive(Debug, Clone, PartialEq)]
pub enum HcError {
    /// The request's graph failed structural validation.
    BadInput(CsrError),
    /// The feature matrix's row count does not match the graph's columns.
    ShapeMismatch {
        /// Rows the graph expects of the dense operand (`a.ncols`).
        expected_rows: usize,
        /// Rows the request supplied.
        got_rows: usize,
    },
    /// The request's graph structure does not match the plan's fingerprint.
    PlanMismatch,
    /// The device reported a fault during a kernel launch.
    DeviceFault {
        /// The fault kind the device latched.
        kind: FaultKind,
        /// The kernel family whose launch faulted.
        family: KernelFamily,
    },
    /// A clean-looking output contained NaN or ±Inf.
    NonFiniteOutput {
        /// Row of the first non-finite element.
        row: usize,
        /// Column of the first non-finite element.
        col: usize,
    },
    /// A sampled output row diverged from the CPU reference beyond
    /// tolerance (silent-corruption guard).
    OutputMismatch {
        /// The sampled row that diverged.
        row: usize,
        /// Max absolute difference observed on that row.
        diff: f32,
        /// The tolerance it exceeded.
        tol: f32,
    },
    /// Every step of the fallback chain failed.
    FallbacksExhausted {
        /// Total execution attempts made (retries included).
        attempts: u32,
        /// The error the final step failed with.
        last: Box<HcError>,
    },
    /// A plan cannot be used where it was offered (e.g. the GNN aggregator
    /// requires a hybrid-family, non-LOA plan).
    IncompatiblePlan(&'static str),
    /// The serving front-end refused the request at admission: load
    /// shedding, never a panic or an unbounded buffer.
    Overloaded {
        /// Which admission limit rejected the request.
        reason: OverloadReason,
    },
}

/// Why the serving front-end shed a request (see
/// [`HcError::Overloaded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReason {
    /// The bounded ingestion queue was at capacity.
    QueueFull,
    /// The request's tenant exhausted its admission quota for the
    /// current scheduling epoch.
    TenantQuota,
}

impl OverloadReason {
    /// Stable lower-case label: `queue-full` or `tenant-quota`.
    pub fn name(self) -> &'static str {
        match self {
            OverloadReason::QueueFull => "queue-full",
            OverloadReason::TenantQuota => "tenant-quota",
        }
    }
}

impl fmt::Display for HcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HcError::BadInput(e) => write!(f, "invalid input graph: {e}"),
            HcError::ShapeMismatch {
                expected_rows,
                got_rows,
            } => write!(
                f,
                "feature matrix has {got_rows} rows, graph needs {expected_rows}"
            ),
            HcError::PlanMismatch => {
                write!(f, "request graph structure does not match the plan's")
            }
            HcError::DeviceFault { kind, family } => {
                write!(f, "device fault ({kind}) during {} launch", family.name())
            }
            HcError::NonFiniteOutput { row, col } => {
                write!(f, "non-finite output at ({row}, {col})")
            }
            HcError::OutputMismatch { row, diff, tol } => write!(
                f,
                "output row {row} diverges from reference by {diff} (tol {tol})"
            ),
            HcError::FallbacksExhausted { attempts, last } => {
                write!(
                    f,
                    "all fallbacks exhausted after {attempts} attempts: {last}"
                )
            }
            HcError::IncompatiblePlan(why) => write!(f, "incompatible plan: {why}"),
            HcError::Overloaded { reason } => match reason {
                OverloadReason::QueueFull => {
                    write!(f, "overloaded: ingestion queue full")
                }
                OverloadReason::TenantQuota => {
                    write!(f, "overloaded: tenant admission quota exhausted")
                }
            },
        }
    }
}

impl std::error::Error for HcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HcError::BadInput(e) => Some(e),
            HcError::FallbacksExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<CsrError> for HcError {
    fn from(e: CsrError) -> HcError {
        HcError::BadInput(e)
    }
}

/// One step of a fallback chain: a kernel family executed through the
/// prepared plan, or the device-free CPU reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackStep {
    /// Execute the plan with this kernel family.
    Family(KernelFamily),
    /// `Csr::spmm_reference` on the host — no device, no faults.
    CpuReference,
}

impl FallbackStep {
    /// Stable lowercase name for reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            FallbackStep::Family(f) => f.name(),
            FallbackStep::CpuReference => "cpu-reference",
        }
    }
}

impl fmt::Display for FallbackStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The degradation ladder for a primary family: each step drops a piece of
/// specialized machinery (Tensor cores, then the hybrid scheduler's CUDA
/// path, then windowing itself), ending at the CPU reference. The first
/// step is always the primary itself.
pub fn fallback_chain(primary: KernelFamily) -> Vec<FallbackStep> {
    use KernelFamily::*;
    let families: &[KernelFamily] = match primary {
        Tensor => &[Tensor, Cuda, Straightforward],
        Hybrid => &[Hybrid, Cuda, Straightforward],
        Cuda => &[Cuda, Straightforward],
        Straightforward => &[Straightforward],
    };
    let mut chain: Vec<FallbackStep> = families.iter().copied().map(FallbackStep::Family).collect();
    chain.push(FallbackStep::CpuReference);
    chain
}

/// Output-validation settings: the NaN/Inf guard plus a sampled-row
/// differential check against the CPU reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Validation {
    /// Scan the full output for NaN/±Inf.
    pub check_finite: bool,
    /// Number of evenly spaced rows to re-compute on the host and compare
    /// (0 disables the differential check).
    pub sample_rows: usize,
    /// Max absolute per-element difference a sampled row may show. Must
    /// cover TF32 emulation error on Tensor-path windows.
    pub tol: f32,
}

impl Default for Validation {
    fn default() -> Validation {
        Validation {
            check_finite: true,
            sample_rows: 4,
            tol: 0.08,
        }
    }
}

/// Retry/fallback/validation policy for [`execute_resilient`]. The default
/// is the production posture: two retries per step, full chain, validation
/// on, faults off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Retries per chain step for transient faults (a step is attempted at
    /// most `1 + max_retries` times).
    pub max_retries: u32,
    /// Walk the fallback chain on persistent failure; when false, only the
    /// primary step is tried.
    pub allow_fallback: bool,
    /// Output validation applied to clean attempts.
    pub validation: Validation,
    /// Fault schedule installed for the call ([`FaultConfig::off`] in
    /// production).
    pub faults: FaultConfig,
}

impl Default for ResiliencePolicy {
    fn default() -> ResiliencePolicy {
        ResiliencePolicy {
            max_retries: 2,
            allow_fallback: true,
            validation: Validation::default(),
            faults: FaultConfig::off(),
        }
    }
}

/// Everything one resilient execution did: the outcome plus the forensic
/// trail (retries, faults seen, discarded work).
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// The surviving result, or the typed error that ended the chain.
    pub result: Result<SpmmResult, HcError>,
    /// The chain step that produced the surviving result (the primary
    /// family when nothing went wrong). Meaningless on `Err`.
    pub executed: FallbackStep,
    /// Total attempts beyond the first, across all steps.
    pub retries: u32,
    /// Every fault the device latched during the call, in order.
    pub faults: Vec<Fault>,
    /// Clean attempts discarded by output validation.
    pub validation_failures: u32,
    /// Simulated milliseconds of discarded (faulted or invalid) attempts —
    /// the price of recovery.
    pub wasted_sim_ms: f64,
    /// True when the *plan* itself is implicated: a structural fault
    /// (shared-memory allocation failure is a property of the launch
    /// configuration) or a validation failure (the plan's artifacts
    /// produced wrong numbers). Serving layers quarantine poisoned plans.
    pub poisoned: bool,
}

impl ResilientRun {
    /// True when the result came from a step other than the primary, or
    /// needed retries to arrive.
    pub fn degraded(&self, primary: KernelFamily) -> bool {
        self.retries > 0 || self.executed != FallbackStep::Family(primary)
    }
}

/// Execute `plan` against a request with retry, fallback and validation.
/// Never panics on this path: every failure mode is a typed [`HcError`] in
/// [`ResilientRun::result`].
///
/// ```
/// use gpu_sim::DeviceSpec;
/// use graph_sparse::{gen, DenseMatrix};
/// use hc_core::{execute_resilient, Plan, PlanSpec, ResiliencePolicy};
///
/// let dev = DeviceSpec::rtx3090();
/// let a = gen::community(256, 1_500, 8, 0.9, 1);
/// let x = DenseMatrix::random_features(256, 16, 2);
/// let plan = Plan::prepare(&a, PlanSpec::hybrid(), &dev);
/// let run = execute_resilient(&plan, &a, &x, &dev, &ResiliencePolicy::default());
/// let z = run.result.unwrap().z;
/// assert!(a.spmm_reference(&x).max_abs_diff(&z) < 0.05);
/// ```
pub fn execute_resilient(
    plan: &Plan,
    a: &Csr,
    x: &DenseMatrix,
    dev: &DeviceSpec,
    policy: &ResiliencePolicy,
) -> ResilientRun {
    execute_resilient_keyed(plan, a, StructureFingerprint::of(a), x, dev, policy)
}

/// [`execute_resilient`] for a caller that already holds `a`'s
/// fingerprint: `a_fp` must be `StructureFingerprint::of(a)`, and it
/// stands in for that O(nnz) pass in the plan-match check. A serving
/// front that screens each shared graph once passes the screened
/// fingerprint here instead of re-hashing the graph per request.
pub fn execute_resilient_keyed(
    plan: &Plan,
    a: &Csr,
    a_fp: StructureFingerprint,
    x: &DenseMatrix,
    dev: &DeviceSpec,
    policy: &ResiliencePolicy,
) -> ResilientRun {
    let mut run = ResilientRun {
        result: Err(HcError::PlanMismatch),
        executed: FallbackStep::Family(plan.spec.family),
        retries: 0,
        faults: Vec::new(),
        validation_failures: 0,
        wasted_sim_ms: 0.0,
        poisoned: false,
    };

    // Request pre-checks: typed errors, no device work.
    if x.rows != a.ncols {
        run.result = Err(HcError::ShapeMismatch {
            expected_rows: a.ncols,
            got_rows: x.rows,
        });
        return run;
    }
    if a_fp != plan.fingerprint {
        run.result = Err(HcError::PlanMismatch);
        return run;
    }

    // One scope for the whole call: the launch counter keeps advancing
    // across retries, so a retry draws a fresh (still deterministic)
    // fault decision instead of replaying the one that just fired.
    let scope = policy
        .faults
        .enabled()
        .then(|| FaultScope::install(policy.faults));

    let chain = if policy.allow_fallback {
        fallback_chain(plan.spec.family)
    } else {
        vec![
            FallbackStep::Family(plan.spec.family),
            // Even without family fallback, a typed error beats a panic;
            // the CPU reference stays as the final safety net.
            FallbackStep::CpuReference,
        ]
    };

    let mut attempts: u32 = 0;
    let mut last_err = HcError::PlanMismatch;
    for &step in &chain {
        let mut budget = match step {
            // Transient faults are worth retrying on the same step.
            FallbackStep::Family(_) => 1 + policy.max_retries,
            // The reference is fault-free; one attempt suffices.
            FallbackStep::CpuReference => 1,
        };
        while budget > 0 {
            budget -= 1;
            if attempts > 0 {
                run.retries += 1;
            }
            attempts += 1;

            let attempt = match step {
                FallbackStep::Family(f) => plan.execute_as(f, a, x, dev),
                FallbackStep::CpuReference => SpmmResult {
                    z: a.spmm_reference(x),
                    run: KernelRun::default(),
                },
            };

            // The cudaGetLastError idiom: collect what the device latched
            // during this attempt's launches.
            let faults: Vec<Fault> = scope.as_ref().map(|s| s.take_faults()).unwrap_or_default();
            if let Some(first) = faults.first() {
                let kind = first.kind;
                let structural = faults.iter().any(|f| !f.kind.is_transient());
                run.faults.extend(faults);
                run.wasted_sim_ms += attempt.run.time_ms;
                last_err = HcError::DeviceFault {
                    kind,
                    family: match step {
                        FallbackStep::Family(f) => f,
                        FallbackStep::CpuReference => plan.spec.family,
                    },
                };
                if structural {
                    // Retrying the same launch configuration fails the
                    // same way; move down the chain and flag the plan.
                    run.poisoned = true;
                    break;
                }
                continue; // transient: retry within budget
            }

            // Clean attempt: validate before trusting it.
            match validate_output(&attempt.z, a, x, step, &policy.validation) {
                Ok(()) => {
                    run.executed = step;
                    run.result = Ok(attempt);
                    return run;
                }
                Err(e) => {
                    run.validation_failures += 1;
                    run.wasted_sim_ms += attempt.run.time_ms;
                    // Wrong numbers from a clean launch implicate the
                    // plan's artifacts, not the weather: don't retry the
                    // same step, and tell the cache.
                    if step != FallbackStep::CpuReference {
                        run.poisoned = true;
                    }
                    last_err = e;
                    break;
                }
            }
        }
    }

    run.result = Err(HcError::FallbacksExhausted {
        attempts,
        last: Box::new(last_err),
    });
    run
}

/// NaN/Inf guard plus the sampled-row differential check. The CPU
/// reference step skips the differential (it *is* the reference) but keeps
/// the finite guard — non-finite inputs must still surface as typed
/// errors.
fn validate_output(
    z: &DenseMatrix,
    a: &Csr,
    x: &DenseMatrix,
    step: FallbackStep,
    v: &Validation,
) -> Result<(), HcError> {
    if v.check_finite {
        for (i, val) in z.data.iter().enumerate() {
            if !val.is_finite() {
                return Err(HcError::NonFiniteOutput {
                    row: i.checked_div(z.cols).unwrap_or(0),
                    col: i.checked_rem(z.cols).unwrap_or(0),
                });
            }
        }
    }
    if step == FallbackStep::CpuReference || v.sample_rows == 0 || z.rows == 0 {
        return Ok(());
    }
    let samples = v.sample_rows.min(z.rows);
    for s in 0..samples {
        // Evenly spaced rows, first and last included when possible.
        let row = if samples == 1 {
            0
        } else {
            s * (z.rows - 1) / (samples - 1)
        };
        let reference = reference_row(a, x, row);
        let got = z.row(row);
        let mut worst = 0.0f32;
        for (g, r) in got.iter().zip(&reference) {
            worst = worst.max((g - r).abs());
        }
        if worst > v.tol {
            return Err(HcError::OutputMismatch {
                row,
                diff: worst,
                tol: v.tol,
            });
        }
    }
    Ok(())
}

/// One row of `a · x`, computed directly on the host.
fn reference_row(a: &Csr, x: &DenseMatrix, row: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; x.cols];
    let (s, e) = a.row_range(row);
    for k in s..e {
        let col = a.col_idx[k] as usize;
        let v = a.vals[k];
        for (o, xv) in out.iter_mut().zip(x.row(col)) {
            *o += v * xv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanSpec;
    use graph_sparse::gen;

    fn setup(family: KernelFamily) -> (DeviceSpec, Csr, DenseMatrix, Plan) {
        let dev = DeviceSpec::rtx3090();
        let a = gen::community(256, 1_500, 8, 0.9, 1);
        let x = DenseMatrix::random_features(256, 16, 2);
        let plan = Plan::prepare(
            &a,
            PlanSpec {
                family,
                use_loa: false,
            },
            &dev,
        );
        (dev, a, x, plan)
    }

    #[test]
    fn no_faults_returns_primary_bit_identical() {
        for family in KernelFamily::ALL {
            let (dev, a, x, plan) = setup(family);
            let run = execute_resilient(&plan, &a, &x, &dev, &ResiliencePolicy::default());
            let z = run.result.clone().expect("clean run must succeed").z;
            assert_eq!(z, plan.execute(&a, &x, &dev).z, "{}", family.name());
            assert_eq!(run.executed, FallbackStep::Family(family));
            assert_eq!(run.retries, 0);
            assert!(run.faults.is_empty());
            assert!(!run.poisoned);
            assert!(!run.degraded(family));
            assert_eq!(run.wasted_sim_ms, 0.0);
        }
    }

    #[test]
    fn fallback_reexecution_reuses_workspace_bit_identically() {
        // Every device launch faults, so each run walks the full fallback
        // chain — re-executing the plan several times per request through
        // its workspace. Warm-arena re-execution must stay bit-identical
        // to a cold plan under the identical fault schedule.
        let dev = DeviceSpec::rtx3090();
        let a = gen::scatter_relabel(&gen::molecules(256, 700, 11), 3);
        let x = DenseMatrix::random_features(256, 16, 12);
        let spec = PlanSpec {
            family: KernelFamily::Tensor,
            use_loa: true,
        };
        let policy = ResiliencePolicy {
            faults: FaultConfig {
                seed: 5,
                bit_flip: 0.0,
                shared_alloc_fail: 1.0,
                timeout: 0.0,
                launch_fail: 0.0,
            },
            ..Default::default()
        };
        let warm = Plan::prepare(&a, spec, &dev);
        let first = execute_resilient(&warm, &a, &x, &dev, &policy);
        let second = execute_resilient(&warm, &a, &x, &dev, &policy);
        let fresh = execute_resilient(&Plan::prepare(&a, spec, &dev), &a, &x, &dev, &policy);
        assert_eq!(first.executed, FallbackStep::CpuReference);
        let z1 = first.result.expect("CPU reference serves").z;
        let z2 = second.result.expect("CPU reference serves").z;
        let zf = fresh.result.expect("CPU reference serves").z;
        assert_eq!(z1, z2, "warm re-execution diverged");
        assert_eq!(z1, zf, "warm plan diverged from cold plan");
        let s = warm.workspace_stats();
        assert!(
            s.scratch_reuses > 0,
            "fallback attempts must recycle the arena: {s:?}"
        );
        assert!(s.cost_reuses > 0, "block costs must be reused: {s:?}");
    }

    #[test]
    fn shape_mismatch_is_a_typed_error_not_a_panic() {
        let (dev, a, _, plan) = setup(KernelFamily::Hybrid);
        let bad = DenseMatrix::random_features(a.ncols + 3, 16, 7);
        let run = execute_resilient(&plan, &a, &bad, &dev, &ResiliencePolicy::default());
        assert_eq!(
            run.result.unwrap_err(),
            HcError::ShapeMismatch {
                expected_rows: a.ncols,
                got_rows: a.ncols + 3
            }
        );
    }

    #[test]
    fn structure_mismatch_is_a_typed_error() {
        let (dev, _, x, plan) = setup(KernelFamily::Hybrid);
        let other = gen::erdos_renyi(256, 1_400, 9);
        let run = execute_resilient(&plan, &other, &x, &dev, &ResiliencePolicy::default());
        assert_eq!(run.result.unwrap_err(), HcError::PlanMismatch);
    }

    #[test]
    fn keyed_entry_point_matches_the_hashing_wrapper() {
        let (dev, a, x, plan) = setup(KernelFamily::Hybrid);
        let fp = StructureFingerprint::of(&a);
        // A hot fault stream, so retries, fallbacks and wasted time all
        // have something to disagree on.
        for seed in 0..6u64 {
            let policy = ResiliencePolicy {
                faults: FaultConfig::uniform(seed, 0.5),
                ..Default::default()
            };
            let hashed = execute_resilient(&plan, &a, &x, &dev, &policy);
            let keyed = execute_resilient_keyed(&plan, &a, fp, &x, &dev, &policy);
            assert_eq!(keyed.executed, hashed.executed, "seed {seed}");
            assert_eq!(keyed.retries, hashed.retries, "seed {seed}");
            assert_eq!(keyed.faults, hashed.faults, "seed {seed}");
            assert_eq!(keyed.validation_failures, hashed.validation_failures);
            assert_eq!(keyed.poisoned, hashed.poisoned, "seed {seed}");
            assert_eq!(
                keyed.wasted_sim_ms.to_bits(),
                hashed.wasted_sim_ms.to_bits()
            );
            match (&keyed.result, &hashed.result) {
                (Ok(k), Ok(h)) => {
                    assert_eq!(k.z, h.z, "seed {seed}");
                    assert_eq!(k.run.time_ms.to_bits(), h.run.time_ms.to_bits());
                }
                (k, h) => assert_eq!(k.as_ref().err(), h.as_ref().err(), "seed {seed}"),
            }
        }
        // A fingerprint that is not the plan's is a typed mismatch, with
        // no device work — even when the graph itself would match.
        let wrong = StructureFingerprint::of(&gen::erdos_renyi(256, 1_400, 9));
        let policy = ResiliencePolicy::default();
        let run = execute_resilient_keyed(&plan, &a, wrong, &x, &dev, &policy);
        assert_eq!(run.result.unwrap_err(), HcError::PlanMismatch);
        assert_eq!((run.retries, run.wasted_sim_ms), (0, 0.0));
        assert!(run.faults.is_empty());
    }

    #[test]
    fn transient_faults_are_retried_and_result_stays_clean() {
        let (dev, a, x, plan) = setup(KernelFamily::Hybrid);
        let clean = plan.execute(&a, &x, &dev).z;
        // Only transient kinds, high rate: forces retries but every
        // surviving result must still be from a zero-fault attempt.
        let mut saw_retry = false;
        for seed in 0..24u64 {
            let policy = ResiliencePolicy {
                faults: FaultConfig {
                    seed,
                    bit_flip: 0.25,
                    shared_alloc_fail: 0.0,
                    timeout: 0.25,
                    launch_fail: 0.0,
                },
                ..Default::default()
            };
            let run = execute_resilient(&plan, &a, &x, &dev, &policy);
            saw_retry |= run.retries > 0;
            match &run.result {
                Ok(r) => {
                    if run.executed == FallbackStep::Family(KernelFamily::Hybrid) {
                        assert_eq!(r.z, clean, "seed {seed}: survivor must be bit-clean");
                    }
                    assert_eq!(run.faults.len() as u32, run.retries);
                    if run.retries > 0 {
                        assert!(run.wasted_sim_ms > 0.0);
                    }
                }
                Err(HcError::FallbacksExhausted { .. }) => {}
                Err(e) => panic!("seed {seed}: unexpected error {e}"),
            }
        }
        assert!(saw_retry, "rate 0.5 over 24 seeds must trigger retries");
    }

    #[test]
    fn structural_fault_falls_back_without_retry_and_poisons() {
        let (dev, a, x, plan) = setup(KernelFamily::Tensor);
        // Every launch fails shared-memory allocation: tensor, cuda and
        // straightforward all fault; only the CPU reference survives.
        let policy = ResiliencePolicy {
            faults: FaultConfig {
                seed: 1,
                bit_flip: 0.0,
                shared_alloc_fail: 1.0,
                timeout: 0.0,
                launch_fail: 0.0,
            },
            ..Default::default()
        };
        let run = execute_resilient(&plan, &a, &x, &dev, &policy);
        let z = run.result.clone().expect("cpu reference must survive").z;
        assert_eq!(run.executed, FallbackStep::CpuReference);
        assert_eq!(z, a.spmm_reference(&x));
        assert!(run.poisoned);
        assert!(run.degraded(KernelFamily::Tensor));
        // Structural faults skip the retry budget: exactly one attempt per
        // device-backed step (tensor, cuda, straightforward).
        assert_eq!(run.faults.len(), 3);
        assert!(run
            .faults
            .iter()
            .all(|f| f.kind == FaultKind::SharedAllocFail));
    }

    #[test]
    fn fallback_disabled_still_returns_typed_outcome() {
        let (dev, a, x, plan) = setup(KernelFamily::Cuda);
        let policy = ResiliencePolicy {
            allow_fallback: false,
            faults: FaultConfig {
                seed: 3,
                bit_flip: 0.0,
                shared_alloc_fail: 1.0,
                timeout: 0.0,
                launch_fail: 0.0,
            },
            ..Default::default()
        };
        let run = execute_resilient(&plan, &a, &x, &dev, &policy);
        // Primary faults structurally; CPU safety net still answers.
        assert_eq!(run.executed, FallbackStep::CpuReference);
        assert_eq!(run.faults.len(), 1);
    }

    #[test]
    fn non_finite_features_surface_as_typed_error() {
        let (dev, a, mut x, plan) = setup(KernelFamily::Hybrid);
        x.data[5] = f32::NAN;
        let run = execute_resilient(&plan, &a, &x, &dev, &ResiliencePolicy::default());
        match run.result.unwrap_err() {
            HcError::FallbacksExhausted { last, .. } => {
                assert!(matches!(*last, HcError::NonFiniteOutput { .. }));
            }
            e => panic!("unexpected error {e}"),
        }
        assert!(run.validation_failures > 0);
    }

    #[test]
    fn chains_end_at_cpu_reference_and_start_at_primary() {
        for family in KernelFamily::ALL {
            let chain = fallback_chain(family);
            assert_eq!(chain[0], FallbackStep::Family(family));
            assert_eq!(
                *chain.last().expect("non-empty"),
                FallbackStep::CpuReference
            );
        }
        assert_eq!(fallback_chain(KernelFamily::Tensor).len(), 4);
        assert_eq!(fallback_chain(KernelFamily::Straightforward).len(), 2);
    }

    #[test]
    fn same_seed_same_outcome() {
        let (dev, a, x, plan) = setup(KernelFamily::Hybrid);
        let policy = ResiliencePolicy {
            faults: FaultConfig::uniform(11, 0.6),
            ..Default::default()
        };
        let a_run = execute_resilient(&plan, &a, &x, &dev, &policy);
        let b_run = execute_resilient(&plan, &a, &x, &dev, &policy);
        assert_eq!(a_run.retries, b_run.retries);
        assert_eq!(a_run.executed, b_run.executed);
        assert_eq!(a_run.faults, b_run.faults);
        assert_eq!(a_run.result.is_ok(), b_run.result.is_ok());
        if let (Ok(ra), Ok(rb)) = (&a_run.result, &b_run.result) {
            assert_eq!(ra.z, rb.z);
        }
    }
}
