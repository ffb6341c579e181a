/**
 * @file
 * Compiled batch-evaluation plan for the per-stage pipeline spine.
 *
 * StagePipelineEvaluator::evaluateInto() is the scalar per-sample
 * entry point: per stage it re-selects the evaluation rule, rebuilds
 * a WorkloadProfile with the sample's AI scale, and walks the
 * platform's ceiling family. A StagePipelinePlan compiles all
 * sample-invariant structure once per (pipeline, platform):
 *
 *  - stages whose latency cannot vary across samples (unannotated
 *    stages, and every stage under rule 1) collapse to per-operating-
 *    point constants folded outside the sample loop;
 *  - each annotated stage gets a platform::EvaluationPlan, so its
 *    per-sample bound evaluation is the dense SoA kernel with no
 *    string stage tags, map lookups or applicability re-checks;
 *  - the measured-floor rule (model is only a *floor* on the
 *    measured platform) becomes a per-sample select against a
 *    precomputed clock-scaled measurement.
 *
 * evaluateBlock() then processes one block of samples (distinct AI
 * scales, shared options) stage-outer over caller-owned SoA scratch,
 * accumulating totals in stage order and the bottleneck with the
 * scalar strict-> running max — bit-identical to calling
 * evaluateInto() per sample, including which sample's validation
 * error is thrown first (failures re-run the scalar evaluator
 * sample-major).
 */

#ifndef UAVF1_WORKLOAD_BATCH_EVAL_HH
#define UAVF1_WORKLOAD_BATCH_EVAL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "platform/evaluation_plan.hh"
#include "workload/stage_eval.hh"

namespace uavf1::workload {

/**
 * Immutable batch plan for one (SpaPipeline, RooflinePlatform)
 * pair. Construction performs the same validation as building a
 * StagePipelineEvaluator (it builds one, kept for the scalar error
 * path).
 */
class StagePipelinePlan
{
  public:
    /** Samples per evaluateBlock() call, and the size of every
     * Scratch lane. */
    static constexpr std::size_t blockSize = 64;

    /** Bottleneck/stage slot sentinel: measurement-sourced latency,
     * no binding ceiling. */
    static constexpr std::uint32_t measuredSlot = ~std::uint32_t{0};

    /** Caller-owned SoA scratch for one block; reuse across calls
     * (e.g. one per parallel slot) so the hot loop never
     * allocates. Opaque to callers — the layout serves the kernel:
     * ceiling/bottleneck slots ride in double lanes (every slot is
     * < 2^32, hence exactly representable) so the select chains stay
     * in one vector domain, narrowing to uint32 only at the final
     * scalar store. Aligned to the widest vector the build could
     * select. */
    struct alignas(64) Scratch
    {
        double ai[blockSize];
        double attainable[blockSize];
        std::uint32_t ceilingSlot[blockSize];
        double ceilingSlotD[blockSize];
        double total[blockSize];
        double bottleneckLat[blockSize];
        double bottleneckSlotD[blockSize];
    };

    /** @throws ModelError exactly when StagePipelineEvaluator's
     * constructor would */
    StagePipelinePlan(const SpaPipeline &pipeline,
                      const platform::RooflinePlatform &platform);

    /** Number of pipeline stages. */
    std::size_t stageCount() const { return _stageCount; }

    /** Compute-ceiling count of the platform (flat slots below this
     * are compute ceilings, the rest memory ceilings). */
    std::size_t computeCeilingCount() const
    {
        return _computeCeilingCount;
    }

    /** The scalar evaluator this plan compiled (names, annotation
     * flags, error paths). */
    const StagePipelineEvaluator &evaluator() const
    {
        return _evaluator;
    }

    /**
     * Evaluate `n` (<= blockSize) samples sharing {opIndex,
     * measuredFirst} with per-sample AI scales. Writes per sample:
     * the pipeline throughput (Hz) and the bottleneck stage's flat
     * ceiling slot (measuredSlot when the bottleneck latency is
     * measurement-sourced). Accumulates, per stage, how many of the
     * n samples resolved to each latency kind into
     * `stage_kind_counts[stage * 3 + kind]` (kind 0 = compute-bound,
     * 1 = memory-bound, 2 = measured) — the exact tally the
     * Monte-Carlo pipeline path keeps. Allocation-free.
     *
     * @throws ModelError exactly as per-sample evaluateInto() calls
     *         would, for the first offending sample in order
     */
    void evaluateBlock(std::size_t op_index, bool measured_first,
                       const double *ai_scale, std::size_t n,
                       double *throughput_hz,
                       std::uint32_t *bottleneck_slot,
                       std::uint64_t *stage_kind_counts,
                       Scratch &scratch) const;

    /** Non-throwing core of evaluateBlock(): returns false when any
     * sample failed a validity check; outputs/tallies are then
     * unspecified and the caller chooses when to rescan. */
    bool tryEvaluateBlock(std::size_t op_index, bool measured_first,
                          const double *ai_scale, std::size_t n,
                          double *throughput_hz,
                          std::uint32_t *bottleneck_slot,
                          std::uint64_t *stage_kind_counts,
                          Scratch &scratch) const;

    /** Scalar sample-major rescan: throws the first error a
     * per-sample evaluateInto() loop would throw. */
    void throwFirstError(std::size_t op_index, bool measured_first,
                         const double *ai_scale,
                         std::size_t n) const;

  private:
    /** Width-W body of tryEvaluateBlock over `n % W == 0` samples;
     * the public entry splits off the tail for the W = 1
     * instantiation (see simd/pack.hh for the width-invariance
     * contract). Defined in the implementation file; both needed
     * instantiations are referenced there. */
    template <std::size_t W>
    bool evaluateStrided(std::size_t op_index, bool measured_first,
                         const double *ai_scale, std::size_t n,
                         double *throughput_hz,
                         std::uint32_t *bottleneck_slot,
                         std::uint64_t *stage_kind_counts,
                         Scratch &scratch) const;

    StagePipelineEvaluator _evaluator;
    std::size_t _stageCount = 0;
    std::size_t _computeCeilingCount = 0;
    std::size_t _opCount = 0;
    bool _onMeasuredPlatform = false;

    /** Per-stage static data, dense and in stage order. */
    std::vector<std::uint8_t> _annotated;
    std::vector<double> _workGop;
    /** Raw nominal measurement (what rule 1 uses verbatim). */
    std::vector<double> _measured;
    /** Unscaled profile AI (per-sample AI = _baseAi * aiScale, the
     * scalar path's profile.ai *= aiScale with identical operand
     * order). */
    std::vector<double> _baseAi;
    /** Clock-scaled measured latency, op-major
     * [op * stageCount + stage]. At nominal (f == 1) the division
     * is exact, so this single table serves rules 1, 2 and 3b. */
    std::vector<double> _scaledMeasured;
    /** One compiled ceiling plan per annotated stage; index via
     * _planIndex (unannotated stages hold ~0). */
    std::vector<platform::EvaluationPlan> _plans;
    std::vector<std::size_t> _planIndex;

    /**
     * Whole-block fast path (modeled branch only): for each
     * operating point, the closed interval [_fastLo, _fastHi] of AI
     * scales within which *every* annotated stage binds its
     * (sample-invariant) compute roof and passes every validity
     * check. Inside it the entire pipeline result is a precomputed
     * constant; whether the compute roof binds is monotone in the
     * scale, so the exact endpoints come from bisection over the
     * double bit-space of the kernel's own predicates. A disabled
     * point holds _fastLo > _fastHi. All op-indexed.
     */
    std::vector<double> _fastLo;
    std::vector<double> _fastHi;
    std::vector<double> _fastThroughput;
    std::vector<std::uint32_t> _fastBottleneck;
    /** Resolved latency kind per stage inside the interval,
     * op-major [op * stageCount + stage] (0 compute, 2 measured;
     * memory cannot occur there). */
    std::vector<std::uint8_t> _fastKind;
};

} // namespace uavf1::workload

#endif // UAVF1_WORKLOAD_BATCH_EVAL_HH
