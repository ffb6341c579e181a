/**
 * @file
 * Deterministic fault-injection campaigns over the F-1 model.
 *
 * A FaultCampaign Monte-Carlo samples fault activations against one
 * UAV configuration and reports how the design *degrades*: the
 * distribution of safe velocity under faults, the probability the
 * mission aborts outright (no viable configuration left), how
 * binding shifts across the platform's ceiling family, and the
 * degradation curve as fault rates sweep from zero to their full
 * severity.
 *
 * Sampling runs on sim::forEachBlock, the skeleton
 * sim::MonteCarloAnalyzer uses: samples come in fixed-size blocks,
 * block b drawing from Rng(seed).forkAt(b), and every sample draws
 * exactly one uniform per fault spec (whether or not the fault
 * activates). A sample's outcome depends
 * only on which faults fired, so a campaign is summarized from an
 * integer histogram over the 2^faults activation masks — exact to
 * merge in any order, so bit-identical for a given seed at any
 * thread count, in memory independent of the sample count.
 *
 * All degraded platform variants (one per subset of platform-layer
 * faults) and pipeline variants (per subset of workload-layer
 * faults) are precomputed at construction, where configuration
 * errors surface with full messages. Every pipeline path composes
 * a mask one way: the stage latencies of its platform variant (the
 * measured ones without a platform) times the latency inflations
 * of its pipeline variant, summed and passed through the replica
 * voter. baseline() is that composition at mask 0.
 */

#ifndef UAVF1_FAULT_CAMPAIGN_HH
#define UAVF1_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/f1_model.hh"
#include "exec/parallel.hh"
#include "fault/fault_spec.hh"
#include "pipeline/redundancy.hh"
#include "platform/roofline_platform.hh"
#include "sim/monte_carlo.hh"
#include "support/rng.hh"
#include "workload/spa_pipeline.hh"

namespace uavf1::fault {

/** One UAV configuration plus the fault modes to inject into it. */
struct CampaignSpec
{
    /** Fault-free model inputs (the baseline). */
    core::F1Inputs nominal;

    /**
     * Ceiling-family evaluation of f_compute under platform faults:
     * required whenever a platform-layer fault (CeilingDerate,
     * OperatingPointLoss, ThermalThrottle) is present. When set,
     * f_compute derives from the degraded platform's attainable
     * bound on `profile` divided by workPerFrameGop, and the
     * campaign tallies per-ceiling binding shifts.
     */
    std::optional<platform::RooflinePlatform> platform;
    platform::WorkloadProfile profile{}; ///< Workload on `platform`.
    double workPerFrameGop = 0.0; ///< GOP per decision on `platform`.
    std::size_t opIndex = 0;      ///< Selected DVFS operating point.

    /**
     * SPA pipeline evaluation of f_compute under workload faults:
     * required whenever a fault names a stage (resolvesStage). The
     * pipeline's rate is 1 / sum_s latency[s] * inflation[s], where
     * inflation[s] is the product of the active
     * StageLatencyInflation factors on stage s, through
     * `redundancy`'s voter. Stage failures survive only while
     * active failures stay within the replica budget (replicas - 1);
     * redundant schemes pay the voter latency on every sample,
     * faulted or not.
     *
     * Without `platform`, latency[s] is the stage's measured
     * latency. With `platform` set, it is the stage's bound from the
     * per-stage workload-aware evaluator on the degraded machine:
     * with no platform fault active the measured latencies win
     * (bit-identical to the pipeline-only path on the pipeline's
     * measured platform), and under platform faults each stage's
     * degraded modeled bound acts as a latency floor — so an
     * inflation multiplies the *evaluated* bound, and the campaign
     * reports per-stage binding shifts.
     */
    std::optional<workload::SpaPipeline> pipeline;
    pipeline::RedundancyScheme redundancy =
        pipeline::RedundancyScheme::None;

    /** Fault modes to sample; at most 16 in total and 8 per
     * platform or pipeline layer. */
    std::vector<FaultSpec> faults;

    /**
     * Severity knob: every fault's activation probability is
     * multiplied by this (capped at 1), so sweeping it in [0, 1]
     * traces the degradation curve. Must be non-negative.
     */
    double probabilityScale = 1.0;
};

/** Per-stage binding statistics over surviving samples (the same
 * shape the Monte-Carlo analyzer reports). */
using StageBindingStats = sim::StageBindingStats;

/** Campaign outputs. */
struct CampaignResult
{
    /** Safe velocity over *surviving* samples; default-initialized
     * (all zeros) when every sample aborted. */
    sim::Distribution safeVelocity;
    /** Fraction of samples with no viable configuration left. */
    double abortProbability = 0.0;
    /** Observed activation rate of each fault, indexed like
     * CampaignSpec::faults. */
    std::vector<double> faultActivationRate;
    /**
     * Probability that each machine ceiling binds the degraded
     * roofline bound over surviving samples, indexed like the
     * platform's computeCeilings() / memoryCeilings(). Empty unless
     * CampaignSpec::platform is set. Compare against the no-fault
     * baseline to see binding *shift* under faults.
     */
    std::vector<double> probComputeCeilingBinds;
    std::vector<double> probMemoryCeilingBinds;
    /**
     * Per-stage binding shifts of the SPA pipeline, in stage order.
     * Non-empty only when both CampaignSpec::platform and
     * CampaignSpec::pipeline are set — then every stage's latency is
     * evaluated through the workload-aware per-stage roofline spine
     * (measured-first on the un-faulted platform, the degraded
     * modeled bound under platform faults), and this reports how
     * often each stage was compute-bound / memory-bound / measured.
     */
    std::vector<StageBindingStats> stageBindings;
    std::size_t samples = 0;
};

/** One point of the degradation curve. */
struct DegradationPoint
{
    /** Severity at this level: the spec's probabilityScale is
     * multiplied by it. */
    double scale = 0.0;
    /** run() of the spec scaled to this level, exactly. */
    CampaignResult result;
};

/**
 * The campaign engine.
 */
class FaultCampaign
{
  public:
    /**
     * Construct for a spec; validates every fault against the
     * configuration and precomputes all degraded variants, so an
     * outcome is table lookups plus one F1 analysis.
     *
     * @throws ModelError on an invalid fault spec, a platform/
     *         pipeline fault without its layer configured, an
     *         unknown stage name, an out-of-range ceiling index,
     *         more than maxFaults faults in total, or more than 8
     *         in the platform or pipeline layer
     */
    explicit FaultCampaign(CampaignSpec spec);

    /** The validated spec. */
    const CampaignSpec &spec() const { return _spec; }

    /**
     * The deterministic no-fault analysis this campaign degrades
     * from: nominal inputs with f_compute routed through the same
     * platform/pipeline path as an un-faulted sample (so a campaign
     * whose faults never activate reproduces it exactly).
     */
    core::F1Analysis baseline() const;

    /**
     * Sample `count` missions (deterministic for a seed; see file
     * comment) and summarize the degraded outcomes.
     *
     * @param count number of missions (>= 10)
     * @param seed RNG seed
     * @param parallel executor options (pool, thread cap, cancel)
     */
    CampaignResult
    run(std::size_t count, std::uint64_t seed = 1,
        const exec::ParallelOptions &parallel = {}) const;

    /**
     * Mission-at-a-time reference implementation: evaluates every
     * sample's outcome through the F1 model, where run() counts
     * activation masks and evaluates each occupied one once. Kept
     * as the oracle for the property tests and the baseline side of
     * the perf benches. Survivors are summarized through
     * Distribution::fromCounts, so for any (spec, count, seed) the
     * two return bit-identical results.
     */
    CampaignResult
    runReference(std::size_t count, std::uint64_t seed = 1,
                 const exec::ParallelOptions &parallel = {}) const;

    /**
     * The graceful-degradation curve: run() at `levels` linearly
     * spaced severity scales in [0, 1] (each scaling the spec's own
     * probabilityScale), the same seed at every level so the curve
     * varies only with severity. Every level sees the same uniforms
     * and each fault's threshold is nondecreasing in the level, so a
     * fault fires at exactly the top c_j levels, and one counter per
     * sample of its signature (c_0 .. c_{faults-1}) gives every
     * level's histogram. A sampling pass takes the most levels G
     * with (G + 1)^faults <= 2^maxFaults counters per thread (39 at
     * 3 faults, 1 at 16); each point equals run() of the scaled
     * spec exactly. The last level (scale 1) is run() of the spec
     * itself, so a caller that wants both reads it from the curve.
     *
     * @param levels number of curve points (>= 2, <= maxCurveLevels)
     * @param samples_per_level missions per point (>= 10)
     */
    std::vector<DegradationPoint>
    degradationCurve(std::size_t levels,
                     std::size_t samples_per_level,
                     std::uint64_t seed = 1,
                     const exec::ParallelOptions &parallel = {}) const;

    /** Most faults one campaign accepts: a sample's outcome is one
     * activation mask of this many bits. */
    static constexpr std::size_t maxFaults = 16;

    /** Most points one degradation curve holds; checked before
     * anything is allocated. */
    static constexpr std::size_t maxCurveLevels = 10000;

  private:
    /** Outcome of one subset of platform-layer faults. */
    struct PlatformVariant
    {
        bool aborts = false;   ///< No viable operating point left.
        double computeRate = 0.0; ///< Hz, when not aborting.
        platform::CeilingRef binding{}; ///< Degraded binding ceiling.
    };

    /** What binds one stage's latency in one platform variant. */
    enum class StageKind : std::uint8_t
    {
        Compute,
        Memory,
        Measured,
    };

    /** What one joint activation mask leads to. */
    struct Outcome
    {
        bool aborts = false;
        core::F1Analysis analysis; ///< When surviving.
        std::size_t platformMask = 0; ///< Row of the stage tables.
    };

    /** Integer tallies plus surviving v_safe (defined in .cc). */
    struct Tally;

    void precomputePlatformVariants();
    void precomputePipelineVariants();

    /**
     * The scalar outcome of joint activation mask `mask` (bit j =
     * fault j fired): the variant and stage tables, the pipeline
     * rate composed as sum_s base[s] * inflation[s] through the
     * voter, the sensor derates folded in fault order, and
     * F1Model::analyzeInto.
     *
     * @throws ModelError when the degraded inputs fail F1
     *         validation
     */
    Outcome outcome(std::uint64_t mask,
                    const pipeline::ModularRedundancy &redundancy) const;

    Tally emptyTally() const;
    /** Count `n` samples of `mask` with outcome `outcome`. */
    void add(Tally &tally, std::uint64_t mask, const Outcome &outcome,
             std::uint64_t n) const;
    CampaignResult summarize(Tally tally, std::size_t count) const;

    /** Per-fault activation thresholds at a severity scale. */
    std::vector<double> thresholds(double probability_scale) const;

    /**
     * One sampling pass: `levels` rows of thresholds (level-major,
     * one per fault, nondecreasing down the rows) see the same
     * uniforms. Each sample bumps one counter of its firing-level
     * signature, and the result is each level's 2^faults mask
     * histogram, level after level.
     */
    std::vector<std::uint64_t>
    sampleOutcomes(const std::vector<double> &thresholds,
                   std::size_t levels, std::size_t count,
                   std::uint64_t seed,
                   const exec::ParallelOptions &parallel) const;

    /** Summarize one level's histogram; falls back to reference()
     * when an occupied outcome throws. */
    CampaignResult
    fromHistogram(const std::uint64_t *counts,
                  const std::vector<double> &threshold,
                  std::size_t count, std::uint64_t seed,
                  const exec::ParallelOptions &parallel) const;

    /** The per-sample loop behind runReference(). */
    CampaignResult reference(const std::vector<double> &threshold,
                             std::size_t count, std::uint64_t seed,
                             const exec::ParallelOptions &parallel) const;

    CampaignSpec _spec;
    /** Fault indices of each layer (FaultLayer), in fault order; a
     * layer's activation mask has bit b set when its b-th fault
     * fired. */
    std::vector<std::size_t> _platformFaults;
    std::vector<std::size_t> _pipelineFaults;
    std::vector<std::size_t> _sensorFaults;
    /** Platform variants, indexed by the platform mask. */
    std::vector<PlatformVariant> _platformVariants;
    /** Per pipeline mask: active stage failures exceed the replica
     * budget. */
    std::vector<bool> _pipelineAborts;
    /**
     * Per-stage tables, filled whenever a pipeline is configured.
     * _stageBase holds each platform variant's per-stage latency
     * (seconds; the one row of measured latencies without a
     * platform) and _stageKind what binds it, both indexed
     * [platform_mask * _stageCount + stage]. _stageInflation holds
     * each pipeline variant's per-stage latency-inflation product,
     * indexed [pipeline_mask * _stageCount + stage]. A sample's
     * pipeline latency is sum_s base[s] * inflation[s].
     */
    std::size_t _stageCount = 0;
    std::vector<std::string> _stageNames;
    std::vector<double> _stageBase;
    std::vector<StageKind> _stageKind;
    std::vector<double> _stageInflation;
};

} // namespace uavf1::fault

#endif // UAVF1_FAULT_CAMPAIGN_HH
