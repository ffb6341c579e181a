/**
 * @file
 * Monte-Carlo uncertainty quantification for the F-1 model.
 *
 * The F-1 model is deterministic, but at the early design phase it
 * targets, every input is uncertain: motor pull varies with battery
 * sag, payload mass with integration details, algorithm throughput
 * with scene content, sensor range with lighting. This analyzer
 * propagates input distributions through the model and reports
 * output distributions plus bound-classification probabilities —
 * error bars for the paper's single-line rooflines.
 */

#ifndef UAVF1_SIM_MONTE_CARLO_HH
#define UAVF1_SIM_MONTE_CARLO_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/f1_model.hh"
#include "exec/parallel.hh"
#include "platform/roofline_platform.hh"
#include "support/rng.hh"
#include "workload/spa_pipeline.hh"

namespace uavf1::sim {

/** Samples per RNG substream block: the determinism grain of every
 * block sampler (Monte-Carlo and fault campaigns). */
inline constexpr std::size_t sampleBlock = 2048;

/**
 * The block-sampling skeleton shared by every sampled analysis.
 * Splits [0, count) into fixed sampleBlock-sized blocks (the last
 * one partial) and runs `body(slot, rng, lo, hi)` once per block,
 * one block per parallel chunk. Block b covers samples
 * [b * sampleBlock, min(count, (b + 1) * sampleBlock)) and draws
 * from `Rng(seed).forkAt(b)`, so what a block sees depends only on
 * (seed, b, count), never on the thread count. `slot` is
 * exec::parallelForSlots' stable slot (< exec::maxSlots(parallel)):
 * it indexes per-slot scratch and per-slot *integer* tallies, which
 * sum exactly in any order. Anything order-sensitive (a double sum)
 * must be keyed by block index instead: one partial per block,
 * merged in block order after the loop. `parallel.cancel` is
 * observed at every block boundary (TimeoutError / CancelledError),
 * and the first exception a body throws is rethrown on the caller.
 */
void forEachBlock(
    std::size_t count, std::uint64_t seed,
    const exec::ParallelOptions &parallel,
    const std::function<void(std::size_t slot, Rng &rng,
                             std::size_t lo, std::size_t hi)> &body);

/** Relative (1-sigma) input uncertainties around a nominal. */
struct UncertaintySpec
{
    core::F1Inputs nominal;    ///< Nominal model inputs.
    double aMaxRelStd = 0.10;  ///< On a_max (thrust/mass spread).
    double rangeRelStd = 0.05; ///< On sensing range.
    double computeRelStd = 0.10; ///< On f_compute.
    double sensorRelStd = 0.0; ///< On f_sensor (usually exact).

    /**
     * Optional ceiling-family evaluation of f_compute: when set,
     * every sample derives its compute rate from the workload-aware
     * roofline bound of `profile` (at an arithmetic intensity
     * perturbed by aiRelStd) on this platform, multiplied by the
     * computeRelStd spread — so the *binding ceiling* varies across
     * samples and UncertaintyResult tallies the probability that
     * each ceiling binds. nominal.computeRate is ignored on this
     * path. When unset (default), the legacy scalar perturbation
     * of nominal.computeRate runs unchanged, bit-for-bit.
     */
    std::optional<platform::RooflinePlatform> platform;
    platform::WorkloadProfile profile{}; ///< Workload on `platform`.
    double workPerFrameGop = 0.0; ///< GOP per decision on `platform`.
    std::size_t opIndex = 0;      ///< DVFS operating point.
    double aiRelStd = 0.0;        ///< On arithmetic intensity.

    /**
     * Optional per-stage SPA pipeline evaluation of f_compute:
     * requires `platform`. When set, every sample evaluates the
     * pipeline's modeled per-stage bounds (measured-first disabled —
     * the uncertainty is *about* the model) with every annotated
     * stage's arithmetic intensity scaled by one shared aiRelStd
     * draw, and f_compute is the pipeline throughput times the
     * computeRelStd spread. `profile` and workPerFrameGop are unused
     * on this path; UncertaintyResult additionally tallies per-stage
     * binding probabilities. When unset, the flat platform (or
     * legacy) path runs unchanged, bit-for-bit.
     */
    std::optional<workload::SpaPipeline> pipeline;
};

/** Per-stage binding statistics of a sampled SPA pipeline. */
struct StageBindingStats
{
    std::string stage; ///< Stage name, e.g. "SLAM".
    /** Probability the stage's evaluated latency was a roofline
     * bound attributed to a compute ceiling. */
    double probComputeBound = 0.0;
    /** ... attributed to a memory ceiling. */
    double probMemoryBound = 0.0;
    /** ... measurement-sourced (no ceiling attribution). */
    double probMeasured = 0.0;
};

/** Summary statistics of one sampled output. */
struct Distribution
{
    double mean = 0.0;
    double stddev = 0.0;
    double p5 = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;

    /** Compute the summary from raw samples (consumes order). */
    static Distribution fromSamples(std::vector<double> samples);

    /**
     * The same summary from (value, multiplicity) pairs — a
     * histogram of the samples. p5/p50/p95 use fromSamples' ranks
     * and interpolation, so they equal it exactly on the expanded
     * multiset. Values are sorted and equal values merged before
     * any arithmetic, and mean/stddev are count-weighted sums in
     * ascending value order: the result depends only on the
     * multiset, and agrees with fromSamples' sample-order sums to
     * rounding (ULP level). Zero counts are ignored.
     *
     * @throws ModelError when the counts sum to zero or a value is
     *         NaN
     */
    static Distribution
    fromCounts(std::vector<std::pair<double, std::uint64_t>> counts);
};

/**
 * The same summary as Distribution::fromSamples, folded one sample
 * block at a time instead of from a buffer of every sample: the
 * Monte-Carlo reduction.
 *
 * Moments: each fold() records its block's (n, mean, M2) partial,
 * keyed by block index; finish() merges the partials in block order
 * with Chan et al.'s parallel-variance update. mean and stddev thus
 * depend only on the blocks' contents, never on which slot or thread
 * folded them, and agree with fromSamples' two-pass sums to rounding
 * (ULP level).
 *
 * Order statistics: p5/p50/p95 need six ranks (fromSamples' ranks
 * and interpolation). Each percentile has a closed value window
 * [lo, hi]; a fold counts the values below, inside and above each
 * window and keeps the values inside it in per-slot buffers (a
 * multiset, so the order they land in does not matter; a window
 * with lo == hi keeps only its count). Rank r is then selected
 * from a window's kept values at r - below, which is exactly
 * fromSamples' rank-r order statistic whenever below <= r <
 * below + inside. Windows change only memory, never values: when a
 * rank misses every window finish() says so, and the caller folds
 * again with unbounded() windows. A [-inf, +inf] window keeps every
 * value, in one buffer at its sample index. pilotWindows() derives
 * tight windows from a pilot fold.
 */
class DistributionFold
{
  public:
    /** One closed value window [lo, hi] per percentile (p5, p50,
     * p95). */
    using Windows = std::array<std::pair<double, double>, 3>;

    /** [-inf, +inf] windows: the store-everything fold. */
    static Windows unbounded();

    /**
     * @param count samples that will be folded, in blocks of
     *        sampleBlock (the last one partial)
     * @param slots distinct slot indices fold() may receive
     * @param windows per-percentile value windows
     */
    DistributionFold(std::size_t count, std::size_t slots,
                     const Windows &windows = unbounded());

    /**
     * Fold samples [lo, lo + n): lo is a multiple of sampleBlock and
     * n that block's size. Concurrent calls are safe as long as they
     * pass distinct slots.
     *
     * @throws ModelError when a value is NaN (it falls below, inside
     *         and above no window)
     */
    void fold(std::size_t slot, std::size_t lo, const double *values,
              std::size_t n);

    /**
     * The summary once every block is folded, or nullopt when a
     * rank fell outside its window. Consumes the kept values.
     */
    std::optional<Distribution> finish();

    /**
     * Windows for a larger run, from this fold of a pilot (a prefix
     * of that run, folded with unbounded() windows): each spans the
     * pilot's order statistics at its percentile +- 6 sigma of the
     * binomial rank spread; an edge past the pilot is infinite.
     * Consumes the kept values.
     *
     * @throws ModelError when this fold's windows are not unbounded
     */
    Windows pilotWindows();

  private:
    /** One block's moments. */
    struct Moments
    {
        std::size_t n = 0;
        double mean = 0.0;
        double m2 = 0.0; ///< Sum of squared deviations from mean.
    };

    /** A slot's counts of values below and inside each window and
     * its kept values, on its own cache lines. */
    struct alignas(64) Slot
    {
        std::array<std::uint64_t, 3> below{};
        std::array<std::uint64_t, 3> inside{};
        std::array<std::vector<double>, 3> kept;
    };

    /** Window j's kept values, gathered from every slot. */
    std::vector<double> gather(std::size_t j);

    std::size_t _count;
    Windows _windows;
    std::vector<Slot> _slots;
    /** With an unbounded window: every value, at its sample index. */
    std::vector<double> _all;
    std::vector<Moments> _partials; ///< By block index.
};

/** Monte-Carlo outputs. */
struct UncertaintyResult
{
    Distribution safeVelocity;   ///< m/s.
    Distribution kneeThroughput; ///< Hz.
    Distribution roofVelocity;   ///< m/s.
    double probComputeBound = 0.0;
    double probSensorBound = 0.0;
    double probControlBound = 0.0;
    double probPhysicsBound = 0.0;
    /**
     * Probability that each machine ceiling binds the roofline
     * bound, indexed like the spec platform's computeCeilings() /
     * memoryCeilings(). Empty unless UncertaintySpec::platform is
     * set; the tallies are integer counts, so the probabilities
     * are bit-identical at any thread count. The two
     * vectors sum to 1 (every sample has exactly one binding
     * ceiling).
     */
    std::vector<double> probComputeCeilingBinds;
    std::vector<double> probMemoryCeilingBinds;
    /**
     * Per-stage binding probabilities, in pipeline stage order.
     * Non-empty only when UncertaintySpec::pipeline is set. On that
     * path the two ceiling vectors above tally the *bottleneck*
     * stage's binding, so they sum to at most 1 (a measured-sourced
     * bottleneck has no binding ceiling).
     */
    std::vector<StageBindingStats> stageBindings;
    std::size_t samples = 0;
};

/**
 * The analyzer.
 */
class MonteCarloAnalyzer
{
  public:
    /** Construct for a spec; validates the nominal inputs. */
    explicit MonteCarloAnalyzer(const UncertaintySpec &spec);

    /**
     * Draw `count` samples (lognormal multiplicative perturbations,
     * deterministic for a seed) and summarize the outputs.
     *
     * Runs on forEachBlock: samples are drawn in fixed-size blocks,
     * each from its own substream keyed by block index, so the
     * result is bit-identical for a given seed at any thread count.
     *
     * No sample buffer: each block's outputs are folded into a
     * DistributionFold per output as the block ends. Above 4 pilots
     * (a pilot is the first 16 blocks, 32768 samples) a pilot pass
     * sets the fold windows, and memory is about 0.5 B per sample
     * per output (the ~6% of values the windows keep), down from
     * 8 B; smaller runs keep every sample. p5/p50/p95 are the exact
     * order statistics: a rank that misses its window reruns the
     * pass keeping every sample. mean and stddev merge per-block
     * partials in block order, within rounding of the two-pass sums
     * over all samples.
     *
     * Honours `parallel.cancel`: the loop observes the token at
     * every block boundary, so a run under a ScenarioRunner
     * deadline stops with TimeoutError instead of completing late.
     *
     * @param count number of samples (>= 10)
     * @param seed RNG seed
     * @param parallel executor options (pool, thread cap, cancel)
     */
    UncertaintyResult
    run(std::size_t count, std::uint64_t seed = 1,
        const exec::ParallelOptions &parallel = {}) const;

    /**
     * Sample-at-a-time reference implementation. run() routes every
     * sample through the batched SoA kernels; this is the original
     * scalar loop, kept as the bit-identity oracle for the property
     * tests and the baseline side of the perf benches. It is also
     * the store-everything oracle of run()'s fold windows: it runs
     * no pilot and keeps every sample (unbounded windows), sharing
     * only the block-order merge of mean and stddev. For any
     * (spec, count, seed) the two return bit-identical results.
     */
    UncertaintyResult
    runReference(std::size_t count, std::uint64_t seed = 1,
                 const exec::ParallelOptions &parallel = {}) const;

    /** Samples per RNG substream block (sim::sampleBlock). */
    static constexpr std::size_t sampleBlock = sim::sampleBlock;

    /** Samples per SoA kernel invocation inside a block. */
    static constexpr std::size_t kernelBlock = 64;

  private:
    UncertaintySpec _spec;
};

} // namespace uavf1::sim

#endif // UAVF1_SIM_MONTE_CARLO_HH
