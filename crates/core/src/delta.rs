//! Incremental re-alignment: delta-proportional re-solves for
//! evolving graphs.
//!
//! A *recorded* BP run captures its full per-iteration trajectory —
//! the damped `y`/`z`/`S⁽ᵏ⁾` iterates plus every rounded stage's
//! matching and objective. When the instance then changes by a small
//! structural/weight delta (edges of `A`, `B` or `L` inserted,
//! expired or reweighted), [`replay_bp`] re-aligns the patched
//! instance **bit-identically to a cold re-solve** while doing work
//! proportional to how far the perturbation actually propagates:
//!
//! 1. the squares matrix is patched, not rebuilt
//!    ([`crate::squares::SquaresMatrix::patch`]);
//! 2. the old trajectory is remapped onto the new edge numbering
//!    (survivor rows carry their recorded iterates verbatim);
//! 3. each iteration is *replayed* over a dirty candidate set only:
//!    a row is recomputed when one of its inputs changed bitwise in
//!    the previous iteration, using scalar kernels that replicate the
//!    parallel cold kernels' floating-point order exactly;
//! 4. a rounded stage whose heuristic vector came out bitwise
//!    unchanged reuses the recorded matching (matchers are pure
//!    functions of `(structure(L), g)`); otherwise the stage is
//!    re-rounded by a sequential greedy matcher, which computes the
//!    same unique matching.
//!
//! The bet is locality: `F = bound₀^β(β + S⁽ᵏ⁻¹⁾ᵀ)` saturates and the
//! `othermax` operators ignore non-maximal siblings, so most
//! perturbations are absorbed within a few hops. When the dirty
//! frontier grows past a fraction of `E_L` anyway (or the patched run
//! trips the numeric guard), the replay **escapes**: it reconstructs a
//! [`crate::checkpoint::BpState`] at the last fully replayed iteration
//! boundary and hands the rest of the run to a real [`BpEngine`] —
//! still bit-identical, just no longer sparse.
//!
//! Limits: replay requires a locally-dominant matcher
//! ([`netalign_matching::MatcherKind::is_locally_dominant`]), whose
//! matching the greedy rematcher reproduces, and a base run free of
//! numeric recoveries (a recovery halves the engine-local damping base
//! mid-run, which the replay does not model). Recorded trajectories
//! cost `T·(2·|E_L| + nnz(S))` floats — record deliberately.

use crate::bp::othermax::{column_positions, max2};
use crate::bp::BpEngine;
use crate::checkpoint::{BpState, PayloadReader, PayloadWriter};
use crate::config::AlignConfig;
use crate::objective::{evaluate_matching_with_scratch, EvalScratch, ObjectiveValue};
use crate::problem::NetAlignProblem;
use crate::result::{AlignmentResult, IterationRecord};
use crate::squares::SquaresPatchStats;
use crate::trace::{AlgoCounters, MatcherCounters, RunTrace};
use netalign_graph::delta::REMOVED;
use netalign_graph::{EdgeId, VertexId};
use netalign_matching::{GreedyScratch, Matching};

pub use netalign_graph::delta::{CandidateDelta, DeltaError, GraphDelta};

/// Dirty-frontier fraction of `E_L` beyond which sparse replay stops
/// paying for itself and the run escapes to a full engine resume.
const ESCAPE_FRACTION: f64 = 0.5;

/// A combined edit of one alignment instance: deltas for `A`, `B` and
/// the candidate graph `L`. Empty parts are skipped entirely.
#[derive(Clone, Debug, Default)]
pub struct ProblemDelta {
    /// Edge insertions/expirations in `A`.
    pub a: GraphDelta,
    /// Edge insertions/expirations in `B`.
    pub b: GraphDelta,
    /// Candidate insertions/expirations/reweights in `L`.
    pub l: CandidateDelta,
}

impl ProblemDelta {
    /// True when no part edits anything.
    pub fn is_empty(&self) -> bool {
        self.a.is_empty() && self.b.is_empty() && self.l.is_empty()
    }
}

/// One rounded stage of a recorded run: the matching produced by the
/// parity-routed matcher engine and its evaluated objective.
#[derive(Clone, Debug)]
pub struct RecordedStage {
    /// Iteration whose iterate was rounded (1-based).
    pub iteration: usize,
    /// 0 = the `y` stream, 1 = the `z` stream.
    pub parity: usize,
    /// Matched `(a, b)` vertex pairs — vertex ids survive edge
    /// renumbering, so stages never need remapping.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Objective of this stage's matching.
    pub value: ObjectiveValue,
}

impl RecordedStage {
    fn placeholder(parity: usize) -> Self {
        RecordedStage {
            iteration: 0,
            parity,
            pairs: Vec::new(),
            value: ObjectiveValue {
                weight: 0.0,
                overlap: 0.0,
                total: f64::NEG_INFINITY,
            },
        }
    }
}

/// The full per-iteration record of one BP run. Iteration `k`
/// (1-based) lives at `[(k-1)*m .. k*m]` of `y`/`z` (and the `nnz`
/// analog for `sk`); iteration 0 — the all-zeros start — is implicit.
/// Stage `(k, parity)` lives at slot `2*(k-1) + parity`.
#[derive(Clone, Debug)]
pub struct BpTrajectory {
    m: usize,
    nnz: usize,
    iterations: usize,
    y: Vec<f64>,
    z: Vec<f64>,
    sk: Vec<f64>,
    stages: Vec<RecordedStage>,
    numeric_recoveries: usize,
}

impl BpTrajectory {
    /// Iterations recorded.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Candidate-edge count the trajectory is sized for.
    pub fn num_candidates(&self) -> usize {
        self.m
    }

    /// Numeric-guard rollbacks observed while recording. Replay
    /// refuses trajectories with any.
    pub fn numeric_recoveries(&self) -> usize {
        self.numeric_recoveries
    }

    /// Approximate heap footprint of the recorded floats.
    pub fn memory_bytes(&self) -> usize {
        (self.y.len() + self.z.len() + self.sk.len()) * 8
    }

    /// Serialize the full trajectory into `w` (bit-exact floats). The
    /// shape (`m`, `nnz`) is *not* written — deserialization takes it
    /// from the surrounding problem, so a spill file whose problem and
    /// trajectory disagree is rejected instead of half-loaded.
    pub fn serialize_into(&self, w: &mut PayloadWriter) {
        w.put_usize(self.iterations);
        w.put_usize(self.numeric_recoveries);
        w.put_f64_slice(&self.y);
        w.put_f64_slice(&self.z);
        w.put_f64_slice(&self.sk);
        w.put_usize(self.stages.len());
        for st in &self.stages {
            w.put_usize(st.iteration);
            w.put_usize(st.parity);
            w.put_f64(st.value.weight);
            w.put_f64(st.value.overlap);
            w.put_f64(st.value.total);
            w.put_usize(st.pairs.len());
            for &(a, b) in &st.pairs {
                w.put_u64(a as u64);
                w.put_u64(b as u64);
            }
        }
    }

    /// Deserialize a trajectory recorded over a problem with `m`
    /// candidates and `nnz` squares entries; every length is validated
    /// against that shape before any state is built.
    pub fn deserialize(r: &mut PayloadReader<'_>, m: usize, nnz: usize) -> Result<Self, String> {
        let iterations = r.get_usize("trajectory.iterations")?;
        // One f64 per candidate per iteration: anything claiming more
        // than a few thousand iterations is damage, not data.
        if iterations > 1 << 20 {
            return Err(format!("trajectory.iterations {iterations} implausible"));
        }
        let numeric_recoveries = r.get_usize("trajectory.numeric_recoveries")?;
        let y = r.get_f64_vec(iterations * m, "trajectory.y")?;
        let z = r.get_f64_vec(iterations * m, "trajectory.z")?;
        let sk = r.get_f64_vec(iterations * nnz, "trajectory.sk")?;
        let n_stages = r.get_usize("trajectory.stages length")?;
        if n_stages != 2 * iterations {
            return Err(format!(
                "trajectory.stages length {n_stages}, expected {}",
                2 * iterations
            ));
        }
        let mut stages = Vec::with_capacity(n_stages);
        for _ in 0..n_stages {
            let iteration = r.get_usize("stage.iteration")?;
            let parity = r.get_usize("stage.parity")?;
            if parity > 1 {
                return Err(format!("stage.parity: invalid value {parity}"));
            }
            let weight = r.get_f64("stage.value.weight")?;
            let overlap = r.get_f64("stage.value.overlap")?;
            let total = r.get_f64("stage.value.total")?;
            let n_pairs = r.get_usize("stage.pairs length")?;
            if n_pairs > m {
                return Err(format!(
                    "stage.pairs length {n_pairs} exceeds candidates {m}"
                ));
            }
            let mut pairs = Vec::with_capacity(n_pairs);
            for _ in 0..n_pairs {
                let a = r.get_u64("stage.pair a")?;
                let b = r.get_u64("stage.pair b")?;
                let a = VertexId::try_from(a).map_err(|_| "stage.pair a out of range")?;
                let b = VertexId::try_from(b).map_err(|_| "stage.pair b out of range")?;
                pairs.push((a, b));
            }
            stages.push(RecordedStage {
                iteration,
                parity,
                pairs,
                value: ObjectiveValue {
                    weight,
                    overlap,
                    total,
                },
            });
        }
        Ok(BpTrajectory {
            m,
            nnz,
            iterations,
            y,
            z,
            sk,
            stages,
            numeric_recoveries,
        })
    }
}

/// Captures a [`BpTrajectory`] from inside [`BpEngine`]; attached via
/// [`BpEngine::set_recorder`]. Writes are slot-addressed, so a resumed
/// engine (the replay escape hatch) records into a partially filled
/// trajectory correctly.
pub struct TrajectoryRecorder {
    t: BpTrajectory,
}

impl TrajectoryRecorder {
    /// Preallocate a recorder for a run of `iterations` over a problem
    /// with `m` candidates and `nnz` squares entries.
    pub fn new(m: usize, nnz: usize, iterations: usize) -> Self {
        TrajectoryRecorder {
            t: BpTrajectory {
                m,
                nnz,
                iterations,
                y: vec![0.0; iterations * m],
                z: vec![0.0; iterations * m],
                sk: vec![0.0; iterations * nnz],
                stages: (0..2 * iterations)
                    .map(|s| RecordedStage::placeholder(s % 2))
                    .collect(),
                numeric_recoveries: 0,
            },
        }
    }

    /// Resume recording into an existing trajectory (escape hatch).
    fn resuming(t: BpTrajectory) -> Self {
        TrajectoryRecorder { t }
    }

    pub(crate) fn record_iteration(&mut self, k: usize, y: &[f64], z: &[f64], sk: &[f64]) {
        let (m, nnz) = (self.t.m, self.t.nnz);
        self.t.y[(k - 1) * m..k * m].copy_from_slice(y);
        self.t.z[(k - 1) * m..k * m].copy_from_slice(z);
        self.t.sk[(k - 1) * nnz..k * nnz].copy_from_slice(sk);
    }

    pub(crate) fn record_stage(
        &mut self,
        iteration: usize,
        parity: usize,
        matching: &Matching,
        value: ObjectiveValue,
    ) {
        let st = &mut self.t.stages[2 * (iteration - 1) + parity];
        st.iteration = iteration;
        st.parity = parity;
        st.value = value;
        st.pairs.clear();
        st.pairs.extend(matching.pairs());
    }

    pub(crate) fn note_recovery(&mut self) {
        self.t.numeric_recoveries += 1;
    }

    /// Finish recording.
    pub fn into_trajectory(self) -> BpTrajectory {
        self.t
    }
}

/// Work accounting of one delta re-alignment.
#[derive(Clone, Debug, Default)]
pub struct DeltaStats {
    /// Iterations replayed through the sparse dirty-frontier path
    /// (the rest, if any, ran on a resumed engine).
    pub delta_reused_iterations: usize,
    /// Total iterations of the run.
    pub iterations_total: usize,
    /// Candidate rows recomputed across all sparse iterations.
    pub rows_recomputed: usize,
    /// `|E_L| · iterations` — what a cold run recomputes.
    pub row_slots_total: usize,
    /// Rows seeded dirty every iteration by the delta itself.
    pub seed_rows: usize,
    /// Rounded stages whose recorded matching was reused.
    pub stages_reused: usize,
    /// Rounded stages re-matched because their input changed.
    pub stages_rematched: usize,
    /// Iteration at which the sparse replay escaped to a full engine
    /// resume, if it did.
    pub escaped_at: Option<usize>,
    /// Squares-matrix patch accounting.
    pub squares: SquaresPatchStats,
}

/// Result bundle of [`replay_bp`].
pub struct ReplayOutput {
    /// The patched problem (new base for further deltas).
    pub problem: NetAlignProblem,
    /// The re-alignment result — bit-identical to a cold solve of
    /// `problem` under the same config.
    pub result: AlignmentResult,
    /// Sparse-replay work accounting.
    pub stats: DeltaStats,
}

/// A recorded base run bundled with everything needed to apply deltas:
/// the problem, its config and the trajectory.
pub struct DeltaBase {
    problem: NetAlignProblem,
    config: AlignConfig,
    trajectory: Option<BpTrajectory>,
}

impl DeltaBase {
    /// Run a recorded cold solve of `problem` and bundle the base.
    /// Requires a locally-dominant matcher and a recovery-free run.
    pub fn record(
        problem: NetAlignProblem,
        config: AlignConfig,
    ) -> Result<(AlignmentResult, DeltaBase), DeltaError> {
        let (result, trajectory) = record_bp(&problem, &config)?;
        Ok((
            result,
            DeltaBase {
                problem,
                config,
                trajectory: Some(trajectory),
            },
        ))
    }

    /// Assemble a base from parts (e.g. the serving cache).
    pub fn from_parts(
        problem: NetAlignProblem,
        config: AlignConfig,
        trajectory: BpTrajectory,
    ) -> Self {
        assert_eq!(trajectory.m, problem.l.num_edges());
        assert_eq!(trajectory.nnz, problem.s.nnz());
        DeltaBase {
            problem,
            config,
            trajectory: Some(trajectory),
        }
    }

    /// The current (post-delta) problem.
    pub fn problem(&self) -> &NetAlignProblem {
        &self.problem
    }

    /// The config every solve in this chain runs under.
    pub fn config(&self) -> &AlignConfig {
        &self.config
    }

    /// The current trajectory; `None` after a failed [`Self::apply`]
    /// left the base needing a fresh recording.
    pub fn trajectory(&self) -> Option<&BpTrajectory> {
        self.trajectory.as_ref()
    }

    /// Apply `delta`, re-align, and advance the base in place so the
    /// next delta chains off the patched instance.
    pub fn apply(
        &mut self,
        delta: &ProblemDelta,
    ) -> Result<(AlignmentResult, DeltaStats), DeltaError> {
        let mut trajectory = self
            .trajectory
            .take()
            .ok_or_else(|| DeltaError::Unsupported("delta base needs re-recording".into()))?;
        // Validation and patching fail before the trajectory is touched,
        // so a rejected delta leaves the base intact and reusable.
        match replay_bp(&self.problem, &self.config, &mut trajectory, delta) {
            Ok(out) => {
                self.problem = out.problem;
                self.trajectory = Some(trajectory);
                Ok((out.result, out.stats))
            }
            Err(e) => {
                self.trajectory = Some(trajectory);
                Err(e)
            }
        }
    }
}

/// Run a plain recorded BP solve (no budget/deadline machinery): the
/// building block behind [`DeltaBase::record`] and the harness's
/// `run_bp_recorded`.
pub fn record_bp(
    problem: &NetAlignProblem,
    config: &AlignConfig,
) -> Result<(AlignmentResult, BpTrajectory), DeltaError> {
    if !config.matcher.is_locally_dominant() {
        return Err(DeltaError::Unsupported(
            "trajectory recording requires a locally-dominant matcher".into(),
        ));
    }
    if config.iterations == 0 {
        return Err(DeltaError::Unsupported(
            "cannot record a zero-iteration run".into(),
        ));
    }
    let mut engine = BpEngine::new(problem, config);
    engine.set_recorder(TrajectoryRecorder::new(
        problem.l.num_edges(),
        problem.s.nnz(),
        config.iterations,
    ));
    for _ in 0..config.iterations {
        engine.step();
        if engine.rounding_due() {
            engine.round_pending();
        }
        engine.end_iteration();
    }
    let result = engine.finish_in_place();
    let trajectory = engine
        .take_recorder()
        .expect("recorder attached above")
        .into_trajectory();
    if trajectory.numeric_recoveries > 0 {
        return Err(DeltaError::Unsupported(
            "base run hit numeric recoveries; delta replay cannot model the halved damping".into(),
        ));
    }
    Ok((result, trajectory))
}

/// Patch `p` by `delta`, rebuilding only what the delta touches.
/// Returns the patched problem and the squares-patch accounting.
pub fn patch_problem(
    p: &NetAlignProblem,
    delta: &ProblemDelta,
) -> Result<(NetAlignProblem, SquaresPatchStats), DeltaError> {
    let patched = patch(p, delta)?;
    Ok((patched.problem, patched.s_stats))
}

/// Everything the replay needs to know about a patched instance.
struct Patched {
    problem: NetAlignProblem,
    new_to_old: Vec<usize>,
    reweighted: Vec<EdgeId>,
    /// Per new row: whether its recorded `y`/`z`/`sk` slots carry over
    /// verbatim (survivor with unchanged `S`-row shape).
    carry_row: Vec<bool>,
    s_stats: SquaresPatchStats,
}

fn patch(p: &NetAlignProblem, delta: &ProblemDelta) -> Result<Patched, DeltaError> {
    let a2 = if delta.a.is_empty() {
        p.a.clone()
    } else {
        delta.a.apply(&p.a)?
    };
    let b2 = if delta.b.is_empty() {
        p.b.clone()
    } else {
        delta.b.apply(&p.b)?
    };
    let applied = delta.l.apply(&p.l)?;
    let new_to_old = applied.new_to_old();
    let l2 = applied.graph;
    let m2 = l2.num_edges();

    // Rows whose S-row must be re-enumerated from the patched graphs:
    // new rows, rows at A/B-delta endpoints, and partner rows of every
    // structural L edit (i ∈ N_A(j), i' ∈ N_B(j') for an edited
    // (j, j') — the rows whose squares with it appear or vanish).
    let mut core: Vec<EdgeId> = applied.new_edges.clone();
    for &v in &delta.a.touched_vertices() {
        core.extend(l2.left_range(v));
    }
    for &v in &delta.b.touched_vertices() {
        core.extend(l2.right_edges(v).map(|(_, e)| e));
    }
    let structural = delta
        .l
        .insert
        .iter()
        .map(|&(a, b, _)| (a, b))
        .chain(delta.l.remove.iter().copied());
    for (j, jp) in structural {
        for &i in p.a.neighbors(j).iter().chain(a2.neighbors(j)) {
            for &ip in p.b.neighbors(jp).iter().chain(b2.neighbors(jp)) {
                if let Some(e) = l2.edge_id(i, ip) {
                    core.push(e);
                }
            }
        }
    }
    core.sort_unstable();
    core.dedup();

    let (s2, shape_preserved, s_stats) =
        p.s.patch(&a2, &b2, &l2, &applied.old_to_new, &new_to_old, &core);

    let mut carry_row: Vec<bool> = new_to_old.iter().map(|&o| o != REMOVED).collect();
    for (i, &e) in core.iter().enumerate() {
        carry_row[e] = carry_row[e] && shape_preserved[i];
    }
    debug_assert_eq!(carry_row.len(), m2);

    Ok(Patched {
        problem: NetAlignProblem::from_parts(a2, b2, l2, s2),
        new_to_old,
        reweighted: applied.reweighted,
        carry_row,
        s_stats,
    })
}

/// Replay a recorded run against `delta`. On success the trajectory is
/// advanced in place to the patched instance's cold trajectory (so
/// deltas chain); on error it is left untouched.
///
/// The returned result is **bit-identical** to
/// `belief_propagation(patched_problem, config)` — matching, objective
/// bits, best iteration and per-rounding history all agree.
pub fn replay_bp(
    p: &NetAlignProblem,
    config: &AlignConfig,
    trajectory: &mut BpTrajectory,
    delta: &ProblemDelta,
) -> Result<ReplayOutput, DeltaError> {
    if !config.matcher.is_locally_dominant() {
        return Err(DeltaError::Unsupported(
            "delta replay requires a locally-dominant matcher".into(),
        ));
    }
    if trajectory.numeric_recoveries > 0 {
        return Err(DeltaError::Unsupported(
            "trajectory has numeric recoveries; re-record the base".into(),
        ));
    }
    if trajectory.iterations != config.iterations || trajectory.iterations == 0 {
        return Err(DeltaError::Unsupported(
            "trajectory iteration count does not match the config".into(),
        ));
    }
    if trajectory.m != p.l.num_edges() || trajectory.nnz != p.s.nnz() {
        return Err(DeltaError::Unsupported(
            "trajectory shape does not match the base problem".into(),
        ));
    }

    let patched = patch(p, delta)?;
    // Everything fallible is done; from here the trajectory mutates.
    Ok(replay_patched(p, config, trajectory, delta, patched))
}

fn replay_patched(
    p: &NetAlignProblem,
    config: &AlignConfig,
    trajectory: &mut BpTrajectory,
    delta: &ProblemDelta,
    patched: Patched,
) -> ReplayOutput {
    let Patched {
        problem: p2,
        new_to_old,
        reweighted,
        carry_row,
        s_stats,
    } = patched;
    let tt = trajectory.iterations;
    let (m1, nnz1) = (trajectory.m, trajectory.nnz);
    let (m2, nnz2) = (p2.l.num_edges(), p2.s.nnz());
    let rowptr1 = p.s.rowptr();
    let rowptr2 = p2.s.rowptr();
    let structure_changed = delta.l.changes_structure();

    // Remap the trajectory onto the new numbering. Survivor slots
    // carry verbatim; new/shape-changed slots zero (and are re-seeded
    // every iteration below). Unchanged layouts move without copying.
    let old_y = std::mem::take(&mut trajectory.y);
    let old_z = std::mem::take(&mut trajectory.z);
    let old_sk = std::mem::take(&mut trajectory.sk);
    let (y, z) = if !structure_changed {
        (old_y, old_z)
    } else {
        let mut y = vec![0.0; tt * m2];
        let mut z = vec![0.0; tt * m2];
        for it in 0..tt {
            let (ys, zs) = (&old_y[it * m1..], &old_z[it * m1..]);
            let (yd, zd) = (
                &mut y[it * m2..(it + 1) * m2],
                &mut z[it * m2..(it + 1) * m2],
            );
            for e in 0..m2 {
                let o = new_to_old[e];
                if o != REMOVED {
                    yd[e] = ys[o];
                    zd[e] = zs[o];
                }
            }
        }
        (y, z)
    };
    let sk = if nnz2 == nnz1 && carry_row.iter().all(|&c| c) {
        old_sk
    } else {
        let mut sk = vec![0.0; tt * nnz2];
        for it in 0..tt {
            let src = &old_sk[it * nnz1..(it + 1) * nnz1];
            let dst = &mut sk[it * nnz2..(it + 1) * nnz2];
            for e in 0..m2 {
                if carry_row[e] {
                    let o = new_to_old[e];
                    let (r2, r1) = (rowptr2[e]..rowptr2[e + 1], rowptr1[o]..rowptr1[o + 1]);
                    debug_assert_eq!(r2.len(), r1.len());
                    dst[r2].copy_from_slice(&src[r1]);
                }
            }
        }
        sk
    };
    let mut traj = BpTrajectory {
        m: m2,
        nnz: nnz2,
        iterations: tt,
        y,
        z,
        sk,
        // Matched vertex pairs survive edge renumbering as-is.
        stages: std::mem::take(&mut trajectory.stages),
        numeric_recoveries: 0,
    };

    // Seed rows — recomputed every iteration: rows without carried
    // state, reweighted rows, and every row sharing an endpoint with a
    // structural L edit (their othermax input *set* changed, which a
    // value comparison cannot see).
    let always_dirty: Vec<bool> = carry_row.iter().map(|&c| !c).collect();
    let mut seed: Vec<usize> = (0..m2).filter(|&e| always_dirty[e]).collect();
    seed.extend_from_slice(&reweighted);
    let structural = delta
        .l
        .insert
        .iter()
        .map(|&(a, b, _)| (a, b))
        .chain(delta.l.remove.iter().copied());
    for (a, b) in structural {
        seed.extend(p2.l.left_range(a));
        seed.extend(p2.l.right_edges(b).map(|(_, e)| e));
    }
    seed.sort_unstable();
    seed.dedup();

    let mut stats = DeltaStats {
        iterations_total: tt,
        row_slots_total: m2 * tt,
        seed_rows: seed.len(),
        squares: s_stats,
        ..Default::default()
    };

    let counters = MatcherCounters::new(config.trace_matcher);
    let mut greedy = GreedyScratch::new(&p2.l);
    let escape_k = replay_sparse(
        &p2,
        config,
        &mut traj,
        &seed,
        &always_dirty,
        structure_changed,
        &mut greedy,
        &mut stats,
    );

    if let Some(k_esc) = escape_k {
        stats.escaped_at = Some(k_esc);
        stats.delta_reused_iterations = k_esc - 1;
        let (result, traj2) = escape_resume(&p2, config, k_esc, traj);
        *trajectory = traj2;
        return ReplayOutput {
            problem: p2,
            result,
            stats,
        };
    }

    // Fold the incumbent over all replayed stages in slot order —
    // exactly the cold run's strict-improvement fold — and assemble
    // the result through the shared finalize tail.
    let mut best: Option<(f64, usize)> = None;
    let mut best_slot = 0usize;
    let mut history = Vec::new();
    for (slot, st) in traj.stages.iter().enumerate() {
        if config.record_history {
            history.push(IterationRecord {
                iteration: st.iteration,
                objective: st.value.total,
                weight: st.value.weight,
                overlap: st.value.overlap,
                upper_bound: None,
            });
        }
        if best.is_none_or(|(b, _)| st.value.total > b) {
            best = Some((st.value.total, st.iteration));
            best_slot = slot;
        }
    }
    let (best_obj, best_iter) = best.expect("stages is non-empty (iterations > 0)");
    let it = best_slot / 2;
    let src = if best_slot.is_multiple_of(2) {
        &traj.y
    } else {
        &traj.z
    };
    let best_g = src[it * m2..(it + 1) * m2].to_vec();
    let result = crate::bp::finalize(
        &p2,
        config,
        Some((best_obj, best_g, best_iter)),
        history,
        RunTrace::new(),
        &counters,
        |g| greedy.run(&p2.l, g).clone(),
    );
    *trajectory = traj;
    ReplayOutput {
        problem: p2,
        result,
        stats,
    }
}

/// The sparse dirty-frontier replay loop. Mutates `traj` in place so
/// that after iteration `k` its slot `k` equals the patched cold run's
/// post-iteration-`k` state. Returns `Some(k)` if iteration `k` must
/// instead run on a resumed engine (frontier too wide, or the numeric
/// guard would trip).
#[allow(clippy::too_many_arguments)]
fn replay_sparse(
    p2: &NetAlignProblem,
    config: &AlignConfig,
    traj: &mut BpTrajectory,
    seed: &[usize],
    always_dirty: &[bool],
    structure_changed: bool,
    greedy: &mut GreedyScratch,
    stats: &mut DeltaStats,
) -> Option<usize> {
    let tt = traj.iterations;
    let (m2, nnz2) = (traj.m, traj.nnz);
    let (alpha, beta) = (config.alpha, config.beta);
    let w2 = p2.l.weights();
    let rowptr2 = p2.s.rowptr();
    let perm2 = p2.s.transpose_perm_slice();
    let col_pos2 = column_positions(&p2.l);
    let escape_rows = ((m2 as f64) * ESCAPE_FRACTION) as usize;

    let colidx2 = p2.s.colidx();
    let zeros_m = vec![0.0; m2];
    let zeros_nnz = vec![0.0; nnz2];
    let mut cand: Vec<usize> = Vec::new();
    let mut cand_next: Vec<usize> = Vec::new();
    let mut cand_epoch = vec![0u32; m2];
    let mut row_stats = vec![(0.0f64, 0.0f64, 0usize); p2.l.num_left()];
    let mut row_epoch = vec![0u32; p2.l.num_left()];
    let mut col_stats = vec![(0.0f64, 0.0f64, 0usize); p2.l.num_right()];
    let mut col_epoch = vec![0u32; p2.l.num_right()];
    let mut fv_row: Vec<f64> = Vec::new();
    let mut eval = EvalScratch::new(&p2.l);

    // cand(1) = seed; later candidate sets are built during the
    // previous iteration from what actually changed, per input
    // channel: a changed y reaches row siblings (their othermaxrow), a
    // changed z reaches column siblings, a changed S⁽ᵏ⁾ entry reaches
    // exactly its partner row (the one that reads it through the
    // transpose permutation) — and only when the change survives the
    // F = bound₀^β(β + ·) clamp, which is where the paper's saturation
    // absorbs most perturbations. Any own change re-enters the row
    // itself (damping reads its own previous iterate).
    for &e in seed {
        if cand_epoch[e] != 1 {
            cand_epoch[e] = 1;
            cand.push(e);
        }
    }

    for k in 1..=tt {
        if std::env::var_os("NETALIGN_DELTA_DEBUG").is_some() {
            eprintln!("replay k={k} cand={} escape_rows={escape_rows}", cand.len());
        }
        if cand.len() > escape_rows {
            return Some(k);
        }
        let epoch = k as u32;
        let next = epoch + 1;
        cand_next.clear();
        for &e in seed {
            if cand_epoch[e] != next {
                cand_epoch[e] = next;
                cand_next.push(e);
            }
        }

        let gk = config.damping.fresh_weight(config.gamma, k);
        let mut changed_y_any = false;
        let mut changed_z_any = false;
        let mut nonfinite = false;
        {
            let (ylo, yhi) = traj.y.split_at_mut((k - 1) * m2);
            let y_prev: &[f64] = if k == 1 {
                &zeros_m
            } else {
                &ylo[(k - 2) * m2..]
            };
            let y_cur = &mut yhi[..m2];
            let (zlo, zhi) = traj.z.split_at_mut((k - 1) * m2);
            let z_prev: &[f64] = if k == 1 {
                &zeros_m
            } else {
                &zlo[(k - 2) * m2..]
            };
            let z_cur = &mut zhi[..m2];
            let (slo, shi) = traj.sk.split_at_mut((k - 1) * nnz2);
            let sk_prev: &[f64] = if k == 1 {
                &zeros_nnz
            } else {
                &slo[(k - 2) * nnz2..]
            };
            let sk_cur = &mut shi[..nnz2];

            for &e in &cand {
                // Listing 2 steps 1+2 for this row, in the cold
                // kernel's exact accumulation order.
                let r = rowptr2[e]..rowptr2[e + 1];
                fv_row.clear();
                let mut acc = 0.0;
                for idx in r.clone() {
                    let f = (beta + sk_prev[perm2[idx]]).clamp(0.0, beta);
                    fv_row.push(f);
                    acc += f;
                }
                let d_e = alpha * w2[e] + acc;

                // Step 3: othermax, one (max, max2, arg) stat per
                // touched vertex per iteration.
                let (a, b) = p2.l.endpoints(e);
                let (au, bu) = (a as usize, b as usize);
                let arange = p2.l.left_range(a);
                if row_epoch[au] != epoch {
                    row_epoch[au] = epoch;
                    row_stats[au] = max2(y_prev[arange.clone()].iter().copied());
                }
                let (m1r, m2r, argr) = row_stats[au];
                let omr = if e - arange.start == argr { m2r } else { m1r }.max(0.0);
                if col_epoch[bu] != epoch {
                    col_epoch[bu] = epoch;
                    col_stats[bu] = max2(p2.l.right_edges(b).map(|(_, e2)| z_prev[e2]));
                }
                let (m1c, m2c, argc) = col_stats[bu];
                let omc = if col_pos2[e] as usize == argc {
                    m2c
                } else {
                    m1c
                }
                .max(0.0);
                let y_new = d_e - omc;
                let z_new = d_e - omr;

                // Steps 4+5: S-row rescale, then damping. `forced`
                // rows (no carried base state) must propagate to every
                // reader: their pre-overwrite slot content is not the
                // base value, so the comparisons below are meaningless
                // for them.
                let scale = y_new + z_new - d_e;
                let forced = always_dirty[e];
                let yd = gk * y_new + (1.0 - gk) * y_prev[e];
                let zd = gk * z_new + (1.0 - gk) * z_prev[e];
                let changed_y = forced | (yd.to_bits() != y_cur[e].to_bits());
                y_cur[e] = yd;
                let changed_z = forced | (zd.to_bits() != z_cur[e].to_bits());
                z_cur[e] = zd;
                let mut changed_own = changed_y | changed_z;
                for (off, idx) in r.enumerate() {
                    let old = sk_cur[idx];
                    let skd = gk * (scale - fv_row[off]) + (1.0 - gk) * sk_prev[idx];
                    sk_cur[idx] = skd;
                    if config.numeric_guards && !skd.is_finite() {
                        nonfinite = true;
                    }
                    let moved = skd.to_bits() != old.to_bits();
                    changed_own |= moved;
                    let visible = moved
                        && (beta + old).clamp(0.0, beta).to_bits()
                            != (beta + skd).clamp(0.0, beta).to_bits();
                    if forced || visible {
                        let c = colidx2[idx] as usize;
                        if cand_epoch[c] != next {
                            cand_epoch[c] = next;
                            cand_next.push(c);
                        }
                    }
                }
                if changed_own && cand_epoch[e] != next {
                    cand_epoch[e] = next;
                    cand_next.push(e);
                }
                if changed_y {
                    changed_y_any = true;
                    for e2 in arange.clone() {
                        if cand_epoch[e2] != next {
                            cand_epoch[e2] = next;
                            cand_next.push(e2);
                        }
                    }
                }
                if changed_z {
                    changed_z_any = true;
                    for (_, e2) in p2.l.right_edges(b) {
                        if cand_epoch[e2] != next {
                            cand_epoch[e2] = next;
                            cand_next.push(e2);
                        }
                    }
                }
                if config.numeric_guards && !(yd.is_finite() && zd.is_finite()) {
                    nonfinite = true;
                }
            }
        }
        if nonfinite {
            // The patched cold run's guard would roll iteration k
            // back; hand it to a real engine, which replicates the
            // rollback bit-for-bit.
            return Some(k);
        }
        stats.rows_recomputed += cand.len();
        stats.delta_reused_iterations += 1;

        // Round (or reuse) this iteration's two stages. A stage whose
        // vector came out bitwise clean keeps its recorded matching;
        // the value is always re-evaluated (weights may have moved).
        for parity in 0..2 {
            let slot = 2 * (k - 1) + parity;
            let stage_clean = !structure_changed
                && if parity == 0 {
                    !changed_y_any
                } else {
                    !changed_z_any
                };
            let g: &[f64] = if parity == 0 {
                &traj.y[(k - 1) * m2..k * m2]
            } else {
                &traj.z[(k - 1) * m2..k * m2]
            };
            if stage_clean {
                let mut matching = Matching::empty(p2.l.num_left(), p2.l.num_right());
                for &(a, b) in &traj.stages[slot].pairs {
                    matching.add_pair(a, b);
                }
                let value = evaluate_matching_with_scratch(p2, &matching, alpha, beta, &mut eval);
                let st = &mut traj.stages[slot];
                st.iteration = k;
                st.parity = parity;
                st.value = value;
                stats.stages_reused += 1;
            } else {
                // Sequential greedy instead of the parallel engines:
                // the matching is pool-invariant (greedy over the
                // strict total order ≡ locally-dominant, see the
                // matching crate's equivalence suite), and one
                // sort plus a linear pass is far cheaper per stage
                // than the queue-based machinery the cold run needs
                // for parallelism it cannot use mid-replay anyway.
                let matching = greedy.run(&p2.l, g);
                let value = evaluate_matching_with_scratch(p2, matching, alpha, beta, &mut eval);
                let st = &mut traj.stages[slot];
                st.iteration = k;
                st.parity = parity;
                st.value = value;
                st.pairs.clear();
                st.pairs.extend(matching.pairs());
                stats.stages_rematched += 1;
            }
        }
        std::mem::swap(&mut cand, &mut cand_next);
    }
    None
}

/// Escape hatch: reconstruct a checkpoint at the last fully replayed
/// iteration boundary (`k_esc - 1`) and let a real [`BpEngine`] run
/// the rest, recording into the same trajectory. Bit-identical to the
/// cold run by the checkpoint/restore state-equality contract.
fn escape_resume(
    p2: &NetAlignProblem,
    config: &AlignConfig,
    k_esc: usize,
    traj: BpTrajectory,
) -> (AlignmentResult, BpTrajectory) {
    let kb = k_esc - 1;
    let (m2, nnz2) = (traj.m, traj.nnz);
    let batch = config.batch.max(1);
    let last_flush = (kb / batch) * batch;

    // Incumbent/history as of the last flush boundary — later stages
    // are still "pending" at the checkpoint and get rounded (again,
    // identically) by the resumed engine.
    let mut best: Option<(f64, usize)> = None;
    let mut best_slot = 0usize;
    let mut history = Vec::new();
    for (slot, st) in traj.stages.iter().enumerate().take(2 * last_flush) {
        if config.record_history {
            history.push(IterationRecord {
                iteration: st.iteration,
                objective: st.value.total,
                weight: st.value.weight,
                overlap: st.value.overlap,
                upper_bound: None,
            });
        }
        if best.is_none_or(|(b, _)| st.value.total > b) {
            best = Some((st.value.total, st.iteration));
            best_slot = slot;
        }
    }
    let best_g = match best {
        Some(_) => {
            let it = best_slot / 2;
            let src = if best_slot.is_multiple_of(2) {
                &traj.y
            } else {
                &traj.z
            };
            src[it * m2..(it + 1) * m2].to_vec()
        }
        None => vec![0.0; m2],
    };

    let mut engine = BpEngine::new(p2, config);
    if kb > 0 {
        let mut pending_iter = Vec::new();
        let mut pending_bufs = Vec::new();
        for it in (last_flush + 1)..=kb {
            pending_iter.push(it);
            pending_bufs.push(traj.y[(it - 1) * m2..it * m2].to_vec());
            pending_iter.push(it);
            pending_bufs.push(traj.z[(it - 1) * m2..it * m2].to_vec());
        }
        engine.restore_state(BpState {
            k: kb,
            gamma: config.gamma,
            y: traj.y[(kb - 1) * m2..kb * m2].to_vec(),
            z: traj.z[(kb - 1) * m2..kb * m2].to_vec(),
            sk: traj.sk[(kb - 1) * nnz2..kb * nnz2].to_vec(),
            pending_iter,
            pending_bufs,
            best,
            best_g,
            history,
            algo: AlgoCounters::default(),
            matcher: MatcherCounters::new(config.trace_matcher).snapshot(),
        });
    }
    engine.set_recorder(TrajectoryRecorder::resuming(traj));
    for _ in kb..config.iterations {
        engine.step();
        if engine.rounding_due() {
            engine.round_pending();
        }
        engine.end_iteration();
    }
    let result = engine.finish_in_place();
    let traj = engine
        .take_recorder()
        .expect("recorder attached above")
        .into_trajectory();
    (result, traj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bp::belief_propagation;
    use netalign_graph::generators::{add_random_edges, identity_plus_noise_l, power_law_graph};
    use netalign_matching::MatcherKind;

    fn instance(n: usize, seed: u64) -> NetAlignProblem {
        let g = power_law_graph(n, 2.5, 12, seed);
        let a = add_random_edges(&g, 0.02, seed + 1);
        let b = add_random_edges(&g, 0.02, seed + 2);
        let l = identity_plus_noise_l(n, n, 6.0 / n as f64, 1.0, 1.0, seed + 3);
        NetAlignProblem::new(a, b, l)
    }

    fn cfg(iterations: usize, batch: usize) -> AlignConfig {
        AlignConfig {
            iterations,
            batch,
            matcher: MatcherKind::ParallelLocalDominant,
            final_exact_round: true,
            record_history: true,
            ..Default::default()
        }
    }

    fn assert_bit_identical(r: &AlignmentResult, c: &AlignmentResult) {
        assert_eq!(r.matching, c.matching);
        assert_eq!(r.objective.to_bits(), c.objective.to_bits());
        assert_eq!(r.weight.to_bits(), c.weight.to_bits());
        assert_eq!(r.overlap.to_bits(), c.overlap.to_bits());
        assert_eq!(r.best_iteration, c.best_iteration);
        assert_eq!(r.history.len(), c.history.len());
        for (h, ch) in r.history.iter().zip(&c.history) {
            assert_eq!(h.iteration, ch.iteration);
            assert_eq!(h.objective.to_bits(), ch.objective.to_bits());
        }
    }

    /// Cold-solve the patched instance from scratch (full S rebuild).
    fn cold_solve(
        p: &NetAlignProblem,
        delta: &ProblemDelta,
        config: &AlignConfig,
    ) -> AlignmentResult {
        let a2 = delta.a.apply(&p.a).unwrap();
        let b2 = delta.b.apply(&p.b).unwrap();
        let l2 = delta.l.apply(&p.l).unwrap().graph;
        belief_propagation(&NetAlignProblem::new(a2, b2, l2), config)
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let p = instance(30, 71);
        let config = cfg(7, 2);
        let (r, traj) = record_bp(&p, &config).unwrap();
        assert_eq!(traj.iterations(), 7);
        assert_eq!(traj.num_candidates(), p.l.num_edges());
        let c = belief_propagation(&p, &config);
        assert_bit_identical(&r, &c);
    }

    #[test]
    fn empty_delta_reuses_every_stage() {
        let p = instance(30, 61);
        let config = cfg(8, 1);
        let (r0, mut base) = DeltaBase::record(p, config).unwrap();
        let (r, stats) = base.apply(&ProblemDelta::default()).unwrap();
        assert_eq!(stats.rows_recomputed, 0);
        assert_eq!(stats.stages_reused, 16);
        assert_eq!(stats.stages_rematched, 0);
        assert_eq!(stats.delta_reused_iterations, 8);
        assert_eq!(stats.escaped_at, None);
        assert_bit_identical(&r, &r0);
    }

    #[test]
    fn reweight_replay_is_bit_identical_to_cold() {
        let p = instance(40, 11);
        for batch in [1, 3] {
            let config = cfg(12, batch);
            let (_, mut base) = DeltaBase::record(p.clone(), config).unwrap();
            let (a0, b0) = p.l.endpoints(2);
            let (a1, b1) = p.l.endpoints(p.l.num_edges() - 1);
            let delta = ProblemDelta {
                l: CandidateDelta {
                    reweight: vec![(a0, b0, 3.5), (a1, b1, 0.25)],
                    ..Default::default()
                },
                ..Default::default()
            };
            let (r, stats) = base.apply(&delta).unwrap();
            assert_bit_identical(&r, &cold_solve(&p, &delta, &config));
            // The perturbation frontier may legitimately saturate and
            // trigger the engine escape; parity must hold either way,
            // and at least the early iterations must replay sparsely.
            assert!(stats.delta_reused_iterations >= 1, "batch {batch}");
            assert!(stats.rows_recomputed < stats.row_slots_total);
        }
    }

    #[test]
    fn structural_replay_is_bit_identical_to_cold() {
        let p = instance(40, 21);
        let config = cfg(10, 1);
        // L: expire one candidate, insert one absent, reweight one.
        let (ra, rb) = p.l.endpoints(5);
        let (wa, wb) = p.l.endpoints(9);
        let mut l_ins = None;
        'l: for a in 0..p.l.num_left() as VertexId {
            for b in 0..p.l.num_right() as VertexId {
                if p.l.edge_id(a, b).is_none() {
                    l_ins = Some((a, b));
                    break 'l;
                }
            }
        }
        let (ia, ib) = l_ins.unwrap();
        // A: toggle one edge each way.
        let (au, av) = p.a.edges().next().unwrap();
        let mut a_ins = None;
        'a: for u in 0..p.a.num_vertices() as VertexId {
            for v in (u + 1)..p.a.num_vertices() as VertexId {
                if !p.a.has_edge(u, v) {
                    a_ins = Some((u, v));
                    break 'a;
                }
            }
        }
        let delta = ProblemDelta {
            a: GraphDelta {
                insert: vec![a_ins.unwrap()],
                remove: vec![(au, av)],
            },
            b: GraphDelta::default(),
            l: CandidateDelta {
                insert: vec![(ia, ib, 0.8)],
                remove: vec![(ra, rb)],
                reweight: vec![(wa, wb, 2.0)],
            },
        };
        let (_, mut base) = DeltaBase::record(p.clone(), config).unwrap();
        let (r, stats) = base.apply(&delta).unwrap();
        assert_bit_identical(&r, &cold_solve(&p, &delta, &config));
        assert!(stats.squares.rows_reused > 0);
        assert!(stats.seed_rows > 0);
    }

    #[test]
    fn chained_deltas_advance_the_base() {
        let p = instance(30, 31);
        let config = cfg(8, 1);
        let (_, mut base) = DeltaBase::record(p.clone(), config).unwrap();
        let (a0, b0) = p.l.endpoints(0);
        let d1 = ProblemDelta {
            l: CandidateDelta {
                reweight: vec![(a0, b0, 2.0)],
                ..Default::default()
            },
            ..Default::default()
        };
        base.apply(&d1).unwrap();
        let (a1, b1) = p.l.endpoints(3);
        let d2 = ProblemDelta {
            l: CandidateDelta {
                reweight: vec![(a1, b1, 0.1)],
                ..Default::default()
            },
            ..Default::default()
        };
        let (r2, _) = base.apply(&d2).unwrap();
        let l2 = d1.l.apply(&p.l).unwrap().graph;
        let l3 = d2.l.apply(&l2).unwrap().graph;
        let cold = belief_propagation(&NetAlignProblem::new(p.a.clone(), p.b.clone(), l3), &config);
        assert_bit_identical(&r2, &cold);
    }

    #[test]
    fn wide_delta_escapes_to_engine_resume() {
        // The escape hatch steps a real BpEngine past iteration 7, where
        // a concurrent harness test arms a process-global kill fault.
        let _guard = crate::trace::faults::test_lock();
        let p = instance(120, 41);
        assert!(
            p.l.num_edges() > 260,
            "want a wide L, got {}",
            p.l.num_edges()
        );
        for batch in [1, 3] {
            let config = cfg(9, batch);
            let (_, mut base) = DeltaBase::record(p.clone(), config).unwrap();
            // Reweight half of all candidates: the seed alone blows the
            // dirty-fraction threshold, so the whole run escapes.
            let reweight: Vec<_> = (0..p.l.num_edges())
                .step_by(2)
                .map(|e| {
                    let (a, b) = p.l.endpoints(e);
                    (a, b, 1.0 + (e % 7) as f64 * 0.3)
                })
                .collect();
            let delta = ProblemDelta {
                l: CandidateDelta {
                    reweight,
                    ..Default::default()
                },
                ..Default::default()
            };
            let (r, stats) = base.apply(&delta).unwrap();
            assert!(stats.escaped_at.is_some(), "batch {batch}");
            assert_bit_identical(&r, &cold_solve(&p, &delta, &config));
        }
    }

    /// Drive the escape hatch directly from a mid-run boundary on an
    /// unchanged problem: the resumed engine must land on the recorded
    /// cold result exactly (checkpoint reconstruction, pending-batch
    /// rebuild, incumbent fold).
    #[test]
    fn escape_resume_from_midpoint_matches_cold() {
        // The escape hatch steps a real BpEngine past iteration 7, where
        // a concurrent harness test arms a process-global kill fault.
        let _guard = crate::trace::faults::test_lock();
        let p = instance(40, 51);
        for batch in [1, 3] {
            let config = cfg(10, batch);
            let (cold, traj) = record_bp(&p, &config).unwrap();
            for k_esc in [1, 5, 10] {
                let (r, _t) = escape_resume(&p, &config, k_esc, traj.clone());
                assert_bit_identical(&r, &cold);
            }
        }
    }

    #[test]
    fn replay_refuses_unrecordable_configs() {
        let p = instance(20, 81);
        // Matchers whose output greedy does not reproduce.
        for matcher in [MatcherKind::Exact, MatcherKind::PathGrowing] {
            let config = AlignConfig {
                iterations: 5,
                matcher,
                ..Default::default()
            };
            assert!(matches!(
                record_bp(&p, &config),
                Err(DeltaError::Unsupported(_))
            ));
        }
    }
}
